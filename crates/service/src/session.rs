//! One served tuning session: the ROBOTune pipeline's
//! [`RoboTuneStepper`] held as plain data, plus the ask/tell bookkeeping
//! the protocol needs.
//!
//! A session owns no thread, and no thread waits for it. A compute
//! worker runs [`ServedSession::step`] — the stored tell into the
//! stepper, then the stepper's next ask — under the session's stepper
//! lock; `suggest` hands that ask out, or leaves a [`Wake`] for the
//! step to run; and `observe` stores the client's measurement for the
//! next step. The stepper is the same one
//! [`RoboTune::tune_workload`](robotune::RoboTune::tune_workload)
//! drives, so the served trajectory at seed `S` is bit-identical to an
//! in-process run at seed `S` by construction.
//!
//! Lifecycle: `Running` (from creation; the pipeline lives in the
//! stepper) → `Finished` (budget spent, outcome recorded) or `Closed`
//! (client close / server shutdown). Closing drops the stepper, which
//! writes nothing to the shared store.

use crate::protocol::{ErrorCode, ObservedStatus, Profile, ProtoError};
use robotune::{RoboTuneOutcome, RoboTuneStepper, SharedMemoStore, Step};
use robotune_obs::{Scope, ScopeLabels, TraceCtx};
use robotune_space::{ConfigSpace, Configuration};
use robotune_stats::rng_from_seed;
use robotune_tuners::Evaluation;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Hard cap on a session's recorded config trajectory (asks + tells).
/// Oldest entries roll off; the drop count is kept for the flight dump.
pub const TRAJECTORY_CAPACITY: usize = 4096;

fn lock<'a, T: ?Sized>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A wake-up for a `suggest` that found no ask ready, run once by the
/// session's next step or close. Registrations compare by pointer.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The pipeline is live.
    Running,
    /// The pipeline completed its budget.
    Finished,
    /// Cancelled by `close_session` or shutdown.
    Closed,
}

impl SessionState {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Running => "running",
            SessionState::Finished => "finished",
            SessionState::Closed => "closed",
        }
    }
}

/// What a session asked the client to run.
#[derive(Debug, Clone)]
pub struct Ask {
    /// Monotonic per-session evaluation index (selection samples and
    /// retry attempts included — every objective call is one ask).
    pub index: u64,
    /// The configuration to run.
    pub config: Configuration,
    /// The evaluation cap the pipeline wants enforced, in seconds.
    pub cap_s: f64,
}

/// Immutable description of a session, fixed at creation.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Memo-store workload key.
    pub workload: String,
    /// BO evaluation budget.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Options profile.
    pub profile: Profile,
}

/// Counters a session maintains as the client drives it.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Asks handed out.
    pub asked: u64,
    /// Tells accepted.
    pub observed: u64,
    /// Tells with status `completed`.
    pub completed: u64,
    /// Tells with a failure status.
    pub failed: u64,
    /// Tells with status `capped`.
    pub capped: u64,
    /// Best completed time seen via tells.
    pub best_time_s: Option<f64>,
}

/// The pipeline's summary once a session finishes.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Evaluations recorded in the BO session (selection excluded).
    pub evals: usize,
    /// Best completed time.
    pub best_time_s: Option<f64>,
    /// Best configuration.
    pub best_config: Option<Configuration>,
    /// Whether the initial design reused memoized configurations.
    pub warm_start: bool,
    /// Whether the parameter selection came from the shared cache.
    pub cache_hit: bool,
    /// Time charged to parameter selection (0 on a cache hit).
    pub selection_cost_s: f64,
    /// Total simulated seconds the search consumed.
    pub search_cost_s: f64,
}

/// One step of a session's configuration trajectory, recorded for the
/// flight recorder.
#[derive(Debug, Clone)]
pub enum TrajectoryEntry {
    /// The pipeline asked the client to run this.
    Ask(Ask),
    /// The client reported a measurement back.
    Tell {
        /// Index of the ask this answers.
        index: u64,
        /// Measured wall-clock seconds.
        time_s: f64,
        /// How the run ended.
        status: ObservedStatus,
    },
}

/// Bounded ask/tell history plus the count of rolled-off entries.
#[derive(Debug, Default)]
struct Trajectory {
    entries: VecDeque<TrajectoryEntry>,
    dropped: u64,
}

impl Trajectory {
    fn push(&mut self, entry: TrajectoryEntry) {
        if self.entries.len() == TRAJECTORY_CAPACITY {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }
}

/// What `suggest` can answer.
#[derive(Debug, Clone)]
pub enum SuggestReply {
    /// Run this configuration and `observe` the result.
    Ask(Ask),
    /// The session completed; here is the summary.
    Finished(SessionOutcome),
}

/// The protocol's view of a session, behind one short-held lock.
struct Ledger {
    state: SessionState,
    /// The next ask, computed by a step and not yet handed out.
    ready: Option<Ask>,
    /// The ask `suggest` handed out, awaiting its `observe`.
    outstanding: Option<Ask>,
    /// The measurement `observe` stored for the next step, with the
    /// causal context of the observing request.
    tell: Option<(Evaluation, TraceCtx)>,
    /// Wake-ups of waiting `suggest`s, run by the next step or close.
    waiters: Vec<Wake>,
    stats: SessionStats,
    outcome: Option<SessionOutcome>,
    trajectory: Trajectory,
}

/// One multi-tenant session hosted by the service.
pub struct ServedSession {
    /// Session id (`s-<n>`).
    pub id: String,
    /// Creation-time parameters.
    pub spec: SessionSpec,
    space: Arc<ConfigSpace>,
    /// Causal context of the `create_session` request; the first step
    /// adopts it, later steps adopt their observe's context.
    created_ctx: TraceCtx,
    /// Telemetry scope: everything the pipeline (and the connection
    /// threads serving this session) emits attributes here too.
    scope: Scope,
    /// The pipeline, held while a worker steps it; `None` once the
    /// session has finished or closed.
    stepper: Mutex<Option<RoboTuneStepper>>,
    ledger: Mutex<Ledger>,
}

impl ServedSession {
    /// Creates a `Running` session whose pipeline reads and writes
    /// `store`. Nothing is computed until the first step.
    pub fn new(
        id: String,
        spec: SessionSpec,
        space: Arc<ConfigSpace>,
        store: SharedMemoStore,
    ) -> Arc<Self> {
        let scope = Scope::new(ScopeLabels {
            session_id: id.clone(),
            workload: spec.workload.clone(),
        });
        let stepper = RoboTuneStepper::new(
            spec.profile.options(),
            store,
            Arc::clone(&space),
            spec.workload.clone(),
            spec.budget,
            rng_from_seed(spec.seed),
        );
        Arc::new(ServedSession {
            id,
            spec,
            space,
            created_ctx: TraceCtx::current(),
            scope,
            stepper: Mutex::new(Some(stepper)),
            ledger: Mutex::new(Ledger {
                state: SessionState::Running,
                ready: None,
                outstanding: None,
                tell: None,
                waiters: Vec::new(),
                stats: SessionStats::default(),
                outcome: None,
                trajectory: Trajectory::default(),
            }),
        })
    }

    /// The session's telemetry scope.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// A copy of the recorded ask/tell trajectory plus the number of
    /// entries that rolled off the bounded history.
    pub fn trajectory(&self) -> (Vec<TrajectoryEntry>, u64) {
        let l = lock(&self.ledger);
        (l.trajectory.entries.iter().cloned().collect(), l.trajectory.dropped)
    }

    /// The space this session tunes over.
    pub fn space(&self) -> &Arc<ConfigSpace> {
        &self.space
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        lock(&self.ledger).state
    }

    /// A copy of the client-side counters.
    pub fn stats(&self) -> SessionStats {
        lock(&self.ledger).stats.clone()
    }

    /// The finished summary, if the pipeline has completed.
    pub fn outcome(&self) -> Option<SessionOutcome> {
        lock(&self.ledger).outcome.clone()
    }

    /// Advances the pipeline on the calling (worker) thread: feeds it
    /// the stored tell, if any, and computes the next ask — or, once
    /// the budget is spent, records the outcome. Runs inside the
    /// session's telemetry scope with the causal context of the request
    /// that caused it. Returns whether this step finished the session; a
    /// closed or finished session does nothing. `on_finish` runs before
    /// `Finished` is visible to any other request, so bookkeeping it does
    /// (the manager's live-session count) is never seen stale by a client
    /// that has read its `finished` answer.
    pub fn step(&self, on_finish: impl FnOnce()) -> bool {
        let mut guard = lock(&self.stepper);
        let tell = {
            let mut l = lock(&self.ledger);
            if l.state != SessionState::Running {
                // Closed while this step held the stepper: see `close`.
                *guard = None;
                return false;
            }
            l.tell.take()
        };
        let Some(stepper) = guard.as_mut() else {
            return false;
        };
        // Telemetry only — neither touches the RNG or the data, so
        // served trajectories stay bit-identical either way.
        let _scope = self.scope.enter();
        let _trace = robotune_obs::adopt(tell.map_or(self.created_ctx, |(_, ctx)| ctx));
        if let Some((eval, _)) = tell {
            stepper.tell(eval);
        }
        let step = stepper.ask();
        let mut l = lock(&self.ledger);
        if l.state != SessionState::Running {
            *guard = None;
            return false;
        }
        let finished = match step {
            Step::Ask { config, cap_s } => {
                // Asks are handed out one at a time, so the next index is
                // the number handed out so far.
                let index = l.stats.asked;
                l.ready = Some(Ask { index, config, cap_s });
                false
            }
            Step::Done(out) => {
                on_finish();
                l.outcome = Some(SessionOutcome::of(&out));
                l.state = SessionState::Finished;
                *guard = None;
                true
            }
        };
        l.waiters.drain(..).for_each(|wake| wake());
        // Release the stepper before the ledger: see `close`.
        drop(guard);
        finished
    }

    /// Hands out the ready ask, or registers `wake` and answers
    /// `Ok(None)` while a step computes it. Check and registration share
    /// one critical section, so no step slips between them unseen.
    pub fn suggest(&self, wake: &Wake) -> Result<Option<SuggestReply>, ProtoError> {
        let mut l = lock(&self.ledger);
        let reply = l.try_suggest()?;
        if reply.is_none() && !l.waiters.iter().any(|w| Arc::ptr_eq(w, wake)) {
            l.waiters.push(Arc::clone(wake));
        }
        Ok(reply)
    }

    /// Withdraws `wake`, so no later step or close runs it.
    pub fn stop_waiting(&self, wake: &Wake) {
        lock(&self.ledger).waiters.retain(|w| !Arc::ptr_eq(w, wake));
    }

    /// Stores the client's measurement for the next step. Returns the
    /// total number of observations accepted so far; the caller
    /// schedules the step.
    pub fn observe(
        &self,
        index: Option<u64>,
        time_s: f64,
        status: ObservedStatus,
    ) -> Result<u64, ProtoError> {
        if !time_s.is_finite() || time_s < 0.0 {
            return Err(ProtoError::new(
                ErrorCode::InvalidField,
                "time_s must be a finite non-negative number",
            ));
        }
        let mut l = lock(&self.ledger);
        let Some(ask) = l.outstanding.as_ref() else {
            return Err(ProtoError::new(
                ErrorCode::NoPendingSuggestion,
                "no suggestion outstanding",
            ));
        };
        if let Some(i) = index {
            if i != ask.index {
                return Err(ProtoError::new(
                    ErrorCode::InvalidField,
                    format!("index {i} does not match pending suggestion {}", ask.index),
                ));
            }
        }
        let index = ask.index;
        l.outstanding = None;
        l.tell = Some((status.to_evaluation(time_s), TraceCtx::current()));
        l.trajectory.push(TrajectoryEntry::Tell { index, time_s, status });
        let stats = &mut l.stats;
        stats.observed += 1;
        match status {
            ObservedStatus::Completed => {
                stats.completed += 1;
                stats.best_time_s = Some(match stats.best_time_s {
                    Some(b) if b <= time_s => b,
                    _ => time_s,
                });
            }
            ObservedStatus::Capped => stats.capped += 1,
            ObservedStatus::Failed | ObservedStatus::Transient => stats.failed += 1,
        }
        Ok(stats.observed)
    }

    /// The best completed configuration reported so far (from the
    /// finished outcome when available, else the live tell counters).
    pub fn best(&self) -> (Option<f64>, Option<Configuration>) {
        let l = lock(&self.ledger);
        match &l.outcome {
            Some(out) => (out.best_time_s, out.best_config.clone()),
            None => (l.stats.best_time_s, None),
        }
    }

    /// Cancels the session and drops its pipeline (or leaves that to the
    /// step holding it), which writes nothing to the store. Returns
    /// whether it was running; finished sessions stay `Finished`.
    pub fn close(&self) -> bool {
        let mut l = lock(&self.ledger);
        if l.state != SessionState::Running {
            return false;
        }
        l.state = SessionState::Closed;
        l.ready = None;
        l.outstanding = None;
        l.tell = None;
        l.waiters.drain(..).for_each(|wake| wake());
        // Never wait for a step: a step that holds the stepper sees
        // `Closed` under the ledger lock and drops the stepper itself.
        if let Ok(mut stepper) = self.stepper.try_lock() {
            *stepper = None;
        }
        true
    }
}

impl Ledger {
    /// The ready ask, handed out; `Ok(None)` while a step computes it.
    fn try_suggest(&mut self) -> Result<Option<SuggestReply>, ProtoError> {
        match self.state {
            SessionState::Closed => {
                Err(ProtoError::new(ErrorCode::SessionClosed, "session is closed"))
            }
            SessionState::Finished => Ok(self.outcome.clone().map(SuggestReply::Finished)),
            SessionState::Running if self.outstanding.is_some() => Err(ProtoError::new(
                ErrorCode::SuggestionPending,
                "previous suggestion not yet observed",
            )),
            SessionState::Running => {
                let Some(ask) = self.ready.take() else {
                    return Ok(None);
                };
                self.outstanding = Some(ask.clone());
                self.stats.asked += 1;
                self.trajectory.push(TrajectoryEntry::Ask(ask.clone()));
                Ok(Some(SuggestReply::Ask(ask)))
            }
        }
    }
}

impl SessionOutcome {
    fn of(out: &RoboTuneOutcome) -> Self {
        SessionOutcome {
            evals: out.session.len(),
            best_time_s: out.session.best_time(),
            best_config: out.session.best().map(|r| r.config.clone()),
            warm_start: out.warm_start,
            cache_hit: out.selection.is_none(),
            selection_cost_s: out.selection_cost_s,
            search_cost_s: out.session.search_cost() + out.selection_cost_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune::InMemoryMemoStore;
    use robotune_space::spark::spark_space;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spec() -> SessionSpec {
        SessionSpec {
            workload: "km".into(),
            budget: 4,
            seed: 9,
            profile: Profile::Fast,
        }
    }

    fn session(id: &str, store: SharedMemoStore) -> Arc<ServedSession> {
        ServedSession::new(id.into(), spec(), Arc::new(spark_space()), store)
    }

    #[test]
    fn closed_session_never_steps() {
        let store = InMemoryMemoStore::new().into_shared();
        let s = session("s-1", store.clone());
        assert!(s.close());
        assert!(!s.close(), "a second close is a no-op");
        assert!(!s.step(|| panic!("a closed session never finishes")));
        assert_eq!(s.state(), SessionState::Closed);
        assert!(s.outcome().is_none());
        assert!(store.workloads().is_empty());
    }

    fn noop() -> Wake {
        Arc::new(|| {})
    }

    /// A wake-up that counts how often it ran.
    fn counter() -> (Wake, Arc<AtomicUsize>) {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let wake: Wake = Arc::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        (wake, runs)
    }

    #[test]
    fn suggest_before_the_first_step_waits_and_observe_is_typed() {
        let s = session("s-2", InMemoryMemoStore::new().into_shared());
        assert_eq!(s.state(), SessionState::Running);
        assert!(s.suggest(&noop()).unwrap().is_none(), "no step has computed an ask yet");
        let err = s.observe(None, 1.0, ObservedStatus::Completed).unwrap_err();
        assert_eq!(err.code, ErrorCode::NoPendingSuggestion);
        let err = s.observe(None, f64::NAN, ObservedStatus::Completed).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidField);
    }

    #[test]
    fn ask_tell_drives_a_session_to_finished() {
        let s = session("s-3", InMemoryMemoStore::new().into_shared());
        let mut last_index = None;
        let finishes = std::cell::Cell::new(0);
        loop {
            let finished = s.step(|| {
                // Still under the ledger lock: no request can see
                // `Finished` before this bookkeeping is done.
                assert!(s.ledger.try_lock().is_err(), "on_finish runs under the ledger lock");
                finishes.set(finishes.get() + 1);
            });
            if finished {
                break;
            }
            let Ok(Some(SuggestReply::Ask(ask))) = s.suggest(&noop()) else {
                panic!("a step leaves an ask ready");
            };
            // Indexes are monotonic and double-suggest is typed.
            if let Some(prev) = last_index {
                assert_eq!(ask.index, prev + 1);
            }
            last_index = Some(ask.index);
            let err = s.suggest(&noop()).unwrap_err();
            assert_eq!(err.code, ErrorCode::SuggestionPending);
            // A mismatched echo index is rejected, the right one lands.
            let err = s.observe(Some(ask.index + 7), 10.0, ObservedStatus::Completed);
            assert_eq!(err.unwrap_err().code, ErrorCode::InvalidField);
            s.observe(Some(ask.index), 10.0, ObservedStatus::Completed).unwrap();
        }
        assert_eq!(s.state(), SessionState::Finished);
        let Ok(Some(SuggestReply::Finished(out))) = s.suggest(&noop()) else {
            panic!("a finished session answers its outcome");
        };
        assert_eq!(out.evals, spec().budget);
        assert!(!out.cache_hit, "cold store cannot hit the selection cache");
        assert!(!s.step(|| {}), "a finished session does not step");
        assert_eq!(finishes.get(), 1, "on_finish runs once, on the finishing step");
        let stats = s.stats();
        assert_eq!(stats.asked, stats.observed);
        assert!(stats.observed > 0);
    }

    #[test]
    fn close_mid_session_leaves_the_store_untouched() {
        let store = InMemoryMemoStore::new().into_shared();
        let s = session("s-4", store.clone());
        // Take a few asks into selection sampling, then abandon.
        for _ in 0..3 {
            assert!(!s.step(|| {}));
            let Ok(Some(SuggestReply::Ask(ask))) = s.suggest(&noop()) else {
                panic!("a step leaves an ask ready");
            };
            s.observe(Some(ask.index), 10.0, ObservedStatus::Completed).unwrap();
        }
        assert!(s.close());
        assert_eq!(s.state(), SessionState::Closed);
        assert!(!s.step(|| {}));
        let err = s.suggest(&noop()).unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionClosed);
        assert!(s.outcome().is_none());
        assert!(store.workloads().is_empty(), "a closed session writes nothing");
    }

    #[test]
    fn a_step_or_a_close_runs_each_registered_wake_once() {
        let s = session("s-5", InMemoryMemoStore::new().into_shared());
        let (wake, runs) = counter();
        // Registering the same wake-up twice keeps one registration.
        assert!(s.suggest(&wake).unwrap().is_none());
        assert!(s.suggest(&wake).unwrap().is_none());
        let (withdrawn, withdrawn_runs) = counter();
        assert!(s.suggest(&withdrawn).unwrap().is_none());
        s.stop_waiting(&withdrawn);
        assert!(!s.step(|| {}));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the step runs the wake-up once");
        assert_eq!(withdrawn_runs.load(Ordering::SeqCst), 0, "a withdrawn wake-up never runs");
        let Ok(Some(SuggestReply::Ask(ask))) = s.suggest(&wake) else {
            panic!("the step left an ask ready");
        };
        assert_eq!(ask.index, 0);
        assert_eq!(s.suggest(&wake).unwrap_err().code, ErrorCode::SuggestionPending);

        // Waiting for the next step, the session closes instead.
        let s = session("s-6", InMemoryMemoStore::new().into_shared());
        let (wake, runs) = counter();
        assert!(s.suggest(&wake).unwrap().is_none());
        assert!(s.close());
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the close runs the wake-up");
        assert_eq!(s.suggest(&wake).unwrap_err().code, ErrorCode::SessionClosed);
    }

    #[test]
    fn a_close_during_a_step_leaves_the_stepper_to_that_step() {
        let s = session("s-7", InMemoryMemoStore::new().into_shared());
        let held = lock(&s.stepper);
        assert!(s.close(), "close does not wait for the stepper");
        assert!(held.is_some(), "the holder's stepper is left in place");
        drop(held);
        assert!(!s.step(|| {}));
        assert!(lock(&s.stepper).is_none(), "the next step drops it");
    }
}
