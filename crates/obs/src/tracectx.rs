//! Causal trace contexts: request-scoped parent/child links that
//! survive thread crossings.
//!
//! Span parentage in [`crate::registry`] is thread-local — an RAII
//! guard stack. That is exactly right for nesting on one thread and
//! exactly wrong for the service pipeline, where one request hops from
//! the reactor thread to a compute worker, which runs the session's step
//! (GP fit included) on that one thread. A [`TraceCtx`] is the explicit
//! baton for that hop:
//! a `Copy` pair of (trace id, parent span id) minted once per request
//! and handed across thread boundaries by value.
//!
//! On the receiving thread the context is *adopted* for a bounded unit
//! of work ([`adopt`], RAII). The registry then
//! tags every new span with the trace id, and when a span starts on a
//! thread whose local span stack does not already belong to that trace
//! it records the context's parent as its causal `link`. Links render
//! as Chrome trace flow arrows (`s`/`f` events), which is what turns a
//! per-thread stack soup into one connected arc from wire read to GP
//! solve.
//!
//! Everything here is telemetry-only and free when tracing is
//! disabled: [`TraceCtx::mint`] and [`TraceCtx::current`] return
//! [`TraceCtx::NONE`] without touching any state, and adopting `NONE`
//! is a pair of thread-local `Cell` writes.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide trace id allocator; 0 is reserved for "no trace".
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static AMBIENT: Cell<TraceCtx> = const { Cell::new(TraceCtx::NONE) };
}

/// A causal trace context: the trace id a request was minted under and
/// the span id of the causal parent. Cheap `Copy`; send it across
/// threads by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace id (0 = none).
    pub trace: u64,
    /// Causal parent span id (0 = none).
    pub parent: u64,
}

impl TraceCtx {
    /// The null context: no trace, no parent.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, parent: 0 };

    /// Whether this is the null context.
    #[inline]
    pub fn is_none(self) -> bool {
        self.trace == 0
    }

    /// Mints a fresh trace id, rooted at the innermost span currently
    /// open on this thread (if any). Call once per request at the edge
    /// of the system. Returns [`TraceCtx::NONE`] when tracing is
    /// disabled.
    pub fn mint() -> TraceCtx {
        if !crate::registry::is_enabled() {
            return TraceCtx::NONE;
        }
        TraceCtx {
            trace: NEXT_TRACE.fetch_add(1, Ordering::Relaxed),
            parent: crate::registry::current_span_id(),
        }
    }

    /// The context a child task spawned from this thread should carry:
    /// the innermost open span as parent, under the active trace
    /// (inherited through the span stack or the adopted context).
    /// Returns [`TraceCtx::NONE`] when tracing is disabled or no trace
    /// is active.
    pub fn current() -> TraceCtx {
        if !crate::registry::is_enabled() {
            return TraceCtx::NONE;
        }
        crate::registry::current_ctx()
    }
}

/// Reads this thread's ambient context.
pub(crate) fn ambient() -> TraceCtx {
    AMBIENT.with(Cell::get)
}

/// Installs `ctx` as this thread's ambient trace context until the
/// returned guard drops (the previous context is restored). Use around
/// a bounded unit of work handed over from another thread — e.g. one
/// session step.
pub fn adopt(ctx: TraceCtx) -> AdoptGuard {
    let prev = AMBIENT.with(|c| c.replace(ctx));
    AdoptGuard { prev, _not_send: PhantomData }
}

/// RAII guard from [`adopt`]: restores the previous ambient context on
/// drop. Deliberately `!Send` — it must drop on the adopting thread.
#[derive(Debug)]
pub struct AdoptGuard {
    prev: TraceCtx,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopt_nests_and_restores() {
        assert_eq!(ambient(), TraceCtx::NONE);
        let a = TraceCtx { trace: 7, parent: 3 };
        let b = TraceCtx { trace: 8, parent: 4 };
        {
            let _ga = adopt(a);
            assert_eq!(ambient(), a);
            {
                let _gb = adopt(b);
                assert_eq!(ambient(), b);
            }
            assert_eq!(ambient(), a);
        }
        assert_eq!(ambient(), TraceCtx::NONE);
    }

    #[test]
    fn mint_is_null_while_disabled() {
        // Tests in this crate run with tracing disabled unless a test
        // enables it; `mint` must not burn ids or touch thread state.
        if !crate::registry::is_enabled() {
            assert!(TraceCtx::mint().is_none());
            assert!(TraceCtx::current().is_none());
        }
    }
}
