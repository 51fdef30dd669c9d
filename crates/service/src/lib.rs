//! `robotune-service`: a long-running, multi-tenant ask/tell tuning
//! daemon over the ROBOTune pipeline.
//!
//! Clients *pull* a suggestion, run it on their cluster, and report the
//! result whenever it lands. The pipeline already has that shape: a
//! [`RoboTuneStepper`](robotune::RoboTuneStepper) answers asks and takes
//! tells, and [`RoboTune::tune_workload`](robotune::RoboTune::tune_workload)
//! is a loop over one. Each session holds a stepper as plain data
//! ([`session`]), so a served trajectory is **bit-identical** to an
//! in-process run at the same seed by construction.
//!
//! Pieces:
//!
//! - [`protocol`] — the newline-delimited JSON request/response frames
//!   and the typed error codes, plus the configuration wire codec;
//! - [`store`] — [`PersistentMemoStore`]: the process-wide shared memo
//!   store, sharded by workload fingerprint, each shard with its own
//!   lock, snapshot, and checksummed segmented WAL with compaction and
//!   crash recovery;
//! - [`session`] — one served tuning session (the stepper, the ask/tell
//!   bookkeeping, lifecycle, per-session accounting);
//! - [`manager`] — [`SessionManager`]: admission with backpressure, the
//!   compute pool that steps sessions, and request handling;
//! - [`diagnose`] — the tuner-health view behind the `diagnose` verb:
//!   `diag.*` series (GP conditioning, acquisition/hedge state, regret,
//!   rung outcomes) extracted from the session's scope ring under a
//!   versioned schema;
//! - [`framing`] — [`FrameDecoder`]: incremental, capped NDJSON frame
//!   reassembly shared by the server reactor and pipelined clients;
//! - [`server`] — the nonblocking reactor ([`serve`]): one event-loop
//!   thread (epoll via the `mio` stand-in) owns every connection's
//!   state machine — incremental frame reassembly, buffered
//!   nonblocking writes with backpressure, per-connection serial
//!   pipelining — so one process holds tens of thousands of idle
//!   tenants without a thread or a wakeup each;
//! - [`flight`] — [`FlightRecorder`]: JSONL black-box dumps (recent
//!   telemetry events + config trajectory + fault/retry counters) for
//!   sessions that are cancelled or trip fault paths;
//! - [`client`] — [`TuningClient`], a small blocking client library used
//!   by the bench load generator and the integration tests.
//!
//! The daemon has two kinds of thread: the reactor answers every
//! request, and the compute workers step sessions. No thread waits for
//! a step: a `suggest` that must leaves a wake-up with its session.
//!
//! Live introspection: every session owns a telemetry
//! [`Scope`](robotune_obs::Scope), entered by the worker stepping its
//! pipeline *and* by the reactor while it answers its requests, so the
//! `metrics` verb can answer per-session counters/histograms (JSON or
//! Prometheus text) and `health` reports rolling suggest/observe SLO
//! percentiles, compute pressure, and store WAL lag.
//!
//! Everything is `std`-only: the TCP layer is `std::net`, JSON is the
//! workspace's `serde_json` stand-in, threads are `std::thread::scope`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod diagnose;
pub mod flight;
pub mod framing;
pub mod manager;
pub mod protocol;
pub mod server;
pub mod session;
pub mod store;

pub use client::{ClientError, DriveReport, Suggestion, TuningClient};
pub use diagnose::DIAGNOSE_SCHEMA;
pub use flight::{FlightRecorder, FLIGHT_FORMAT_VERSION};
pub use framing::{DecodedFrame, FrameDecoder};
pub use manager::{ServiceOptions, SessionManager};
pub use protocol::{
    ErrorCode, MetricsFormat, ObservedStatus, Profile, ProtoError, Request, MAX_FRAME_BYTES,
};
pub use server::serve;
pub use session::{SessionOutcome, SessionState, TrajectoryEntry};
pub use store::{inspect_store, verify_store, PersistentMemoStore, StoreOptions};
