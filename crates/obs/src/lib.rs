//! `robotune-obs`: zero-dependency tracing and metrics for the ROBOTune
//! workspace.
//!
//! Four pieces:
//!
//! - **Spans** — hierarchical RAII wall-clock timers
//!   ([`span`] → [`SpanGuard`]); nesting is tracked per thread so every
//!   `span_start` event carries its parent span id.
//! - **Counters and histograms** — [`incr`] and [`record`] aggregate
//!   into a thread-safe [`Registry`] (fixed log2 buckets plus P²
//!   streaming p50/p90/p99; see [`histogram`]).
//! - **Sinks** — every event also flows to the installed [`EventSink`]:
//!   [`NullSink`] (discard), [`RingBufferSink`] (in-memory, drainable),
//!   or [`JsonlSink`] (one JSON object per line, the `--trace` format).
//! - **Report** — [`Report`] renders a per-run summary table from a
//!   [`Snapshot`].
//!
//! Built on top of those:
//!
//! - **Scopes** ([`scope`]) — per-session attribution: enter a labelled
//!   [`Scope`] and every event the thread emits is also folded into the
//!   scope's own aggregates and bounded event ring (the flight-recorder
//!   source), with zero changes at instrumentation call sites.
//! - **Exposition** ([`expo`]) — Prometheus-style text rendering of any
//!   [`Snapshot`], optionally labelled.
//! - **SLO windows** ([`slo`]) — exact rolling-window percentiles over
//!   the last N samples, for `health`-style endpoints.
//! - **Trace export** ([`trace`]) — a [`ChromeTraceSink`] that buffers
//!   the event stream and renders it as Chrome trace-event JSON for
//!   Perfetto/`chrome://tracing` (the `--profile` format), plus a
//!   per-span self-time breakdown.
//! - **Trace contexts** ([`tracectx`]) — a per-request [`TraceCtx`]
//!   baton (trace id + causal parent span) that survives thread
//!   crossings; adopted contexts tag spans with `trace`/`link` fields
//!   that render as Chrome trace flow arrows.
//! - **Diagnostics** ([`diag`]) — structured tuner-health series points
//!   (kernel conditioning, fallback storms, regret curves) that flow to
//!   scope rings and flight dumps without touching the aggregates.
//!
//! Tracing is **off by default**: every instrumentation call first
//! checks one relaxed atomic and returns immediately when disabled, so
//! instrumented hot paths pay a branch, nothing more. Turn it on with
//! [`enable_null`], [`enable_ring`], or [`enable`] with a custom sink.
//!
//! ```
//! let ring = robotune_obs::enable_ring(64);
//! {
//!     let _span = robotune_obs::span("demo.outer");
//!     robotune_obs::incr("demo.count", 2);
//!     robotune_obs::record("demo.value", 0.5);
//! }
//! let snap = robotune_obs::snapshot();
//! assert_eq!(snap.counter("demo.count"), 2);
//! assert!(ring.drain().len() >= 3);
//! robotune_obs::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod event;
pub mod expo;
pub mod histogram;
pub mod registry;
pub mod report;
pub mod scope;
pub mod sink;
pub mod slo;
pub mod trace;
pub mod tracectx;

pub use event::{Event, EventData};
pub use expo::{render_prometheus, render_prometheus_labeled};
pub use histogram::{HistSummary, Histogram, P2Quantile};
pub use registry::{
    diag, disable, enable, enable_null, enable_ring, flush, global, incr, is_enabled, mark,
    record, reset, snapshot, span, Registry, Snapshot, SpanGuard,
};
pub use report::Report;
pub use scope::{Scope, ScopeGuard, ScopeLabels};
pub use sink::{EventSink, JsonlSink, NullSink, RingBufferSink, TeeSink};
pub use slo::RollingWindow;
pub use trace::{render_chrome_trace, render_self_time, self_times, ChromeTraceSink, SelfTime};
pub use tracectx::{adopt, AdoptGuard, TraceCtx};

use std::path::Path;
use std::sync::Arc;

/// Turns tracing on with a [`JsonlSink`] writing to `path`.
pub fn enable_jsonl<P: AsRef<Path>>(path: P) -> std::io::Result<()> {
    let sink = JsonlSink::create(path)?;
    enable(Arc::new(sink));
    Ok(())
}
