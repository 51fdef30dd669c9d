//! The session manager: admission, the compute pool, request handling,
//! and graceful shutdown.
//!
//! Concurrency model: the daemon has two kinds of thread, the reactor
//! and the compute workers. A session is plain data — its pipeline is a
//! [`RoboTuneStepper`](robotune::RoboTuneStepper) inside the
//! [`ServedSession`] — and no thread belongs to it. `create_session`
//! admits it (backpressure: once `workers + queue_capacity` sessions are
//! live, a typed `overloaded` error) and queues a job to step it. A fixed
//! pool of compute workers (spawned by [`serve`](crate::server::serve))
//! pops those jobs: each runs one step — the stored tell into the
//! stepper, then its next ask — and is free again. `observe` stores the
//! tell and queues the next step, so the compute stays off the request
//! path; `suggest` returns the ready ask, or parks as data until the
//! step wakes it or [`ServiceOptions::suggest_timeout`] passes. Any
//! number of sessions can hold an outstanding ask while their clients
//! run Spark; `workers` bounds only how many are computed at once.
//!
//! Shutdown: the flag flips, every live session is closed (its stepper
//! dropped, writing nothing to the store), workers drain the job queue,
//! and the server checkpoints the shared store. In-flight requests get
//! responses; new sessions are refused.

use crate::flight::FlightRecorder;
use crate::protocol::{
    self, config_to_wire, error_frame, ok_frame, ErrorCode, MetricsFormat, ProtoError, Request,
};
use crate::session::{ServedSession, SessionOutcome, SessionSpec, SessionState, SuggestReply, Wake};
use robotune::SharedMemoStore;
use robotune_obs::{HistSummary, RollingWindow, Snapshot};
use robotune_space::spark::spark_space;
use robotune_space::ConfigSpace;
use serde_json::{json, Map, Value};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<'a, T: ?Sized>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tunables for the service.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Compute worker threads: how many sessions are stepped at once.
    pub workers: usize,
    /// Admission headroom beyond the workers: once `workers +
    /// queue_capacity` sessions are live (created and neither finished
    /// nor closed), `create_session` answers `overloaded`.
    pub queue_capacity: usize,
    /// How long one `suggest` waits for the pipeline's next ask before
    /// answering a retryable `timeout` error.
    pub suggest_timeout: Duration,
    /// How many recent suggest/observe requests the rolling SLO
    /// percentiles in `health` cover.
    pub slo_window: usize,
    /// Where failure flight-recorder dumps are written; `None` disables
    /// the recorder.
    pub flight_dir: Option<PathBuf>,
    /// Unused: the reactor answers every request, and nothing reads
    /// this; kept so that callers which set it still build.
    pub dispatch_workers: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 4,
            queue_capacity: 64,
            suggest_timeout: Duration::from_secs(30),
            slo_window: 256,
            flight_dir: None,
            dispatch_workers: 8,
        }
    }
}

/// Rolling request-latency windows behind one lock; samples are
/// nanoseconds.
struct SloWindows {
    suggest: RollingWindow,
    observe: RollingWindow,
}

/// Hosts every session and dispatches protocol requests.
pub struct SessionManager {
    opts: ServiceOptions,
    store: SharedMemoStore,
    spaces: Vec<(String, Arc<ConfigSpace>)>,
    sessions: Mutex<HashMap<String, Arc<ServedSession>>>,
    /// Sessions waiting for a compute worker, queued when (telemetry on).
    jobs: Mutex<VecDeque<(Arc<ServedSession>, Option<Instant>)>>,
    jobs_cv: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Compute workers stepping a session right now.
    busy: AtomicU64,
    /// Sessions created and neither finished nor closed.
    live: AtomicU64,
    slo: Mutex<SloWindows>,
    flight: Option<FlightRecorder>,
}

impl SessionManager {
    /// Builds a manager over a shared memo store. The Spark space is
    /// pre-registered as `"spark"`.
    pub fn new(opts: ServiceOptions, store: SharedMemoStore) -> Self {
        let flight = opts.flight_dir.as_ref().and_then(|dir| {
            FlightRecorder::new(dir)
                .map_err(|e| {
                    robotune_obs::incr("service.flight.errors", 1);
                    robotune_obs::mark("service.flight.errors", || {
                        serde_json::json!({ "error": e.clone() })
                    });
                })
                .ok()
        });
        let slo_window = opts.slo_window.max(1);
        SessionManager {
            opts,
            store,
            spaces: vec![("spark".to_string(), Arc::new(spark_space()))],
            sessions: Mutex::new(HashMap::new()),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            busy: AtomicU64::new(0),
            live: AtomicU64::new(0),
            slo: Mutex::new(SloWindows {
                suggest: RollingWindow::new(slo_window),
                observe: RollingWindow::new(slo_window),
            }),
            flight,
        }
    }

    /// The configured options.
    pub fn options(&self) -> &ServiceOptions {
        &self.opts
    }

    /// The shared memo store.
    pub fn store(&self) -> SharedMemoStore {
        self.store.clone()
    }

    /// Registers an additional named configuration space.
    pub fn register_space(&mut self, name: impl Into<String>, space: Arc<ConfigSpace>) {
        self.spaces.push((name.into(), space));
    }

    fn space(&self, name: &str) -> Option<Arc<ConfigSpace>> {
        self.spaces.iter().find(|(n, _)| n == name).map(|(_, s)| s.clone())
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Requests shutdown: refuse new sessions, close live ones, wake
    /// idle workers. The store checkpoint happens in
    /// [`serve`](crate::server::serve) once the workers have drained.
    pub fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        robotune_obs::incr("service.shutdowns", 1);
        let sessions: Vec<_> = lock(&self.sessions).values().cloned().collect();
        for session in sessions {
            self.close(&session);
        }
        self.jobs_cv.notify_all();
    }

    /// One compute worker: pop step jobs and run each until shutdown
    /// drains the queue. With telemetry on, each step records how long
    /// it waited in the queue, in nanoseconds, as `service.step_wait`.
    pub fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock(&self.jobs);
                loop {
                    if let Some(s) = q.pop_front() {
                        break Some(s);
                    }
                    if self.is_shutting_down() {
                        break None;
                    }
                    q = self.jobs_cv.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let Some((session, queued)) = job else {
                return;
            };
            if let Some(queued) = queued {
                let _scope = session.scope().enter();
                robotune_obs::record("service.step_wait", queued.elapsed().as_nanos() as f64);
            }
            let busy = self.busy.fetch_add(1, Ordering::Relaxed) + 1;
            robotune_obs::record("service.sessions_active", busy as f64);
            let finished = session.step(|| {
                self.live.fetch_sub(1, Ordering::Relaxed);
            });
            let busy = self.busy.fetch_sub(1, Ordering::Relaxed) - 1;
            robotune_obs::record("service.sessions_active", busy as f64);
            if finished {
                robotune_obs::incr("service.sessions_finished", 1);
                // Finished but with failed evaluations: the fault paths
                // fired — leave a black box anyway.
                if session.stats().failed > 0 {
                    self.dump_flight(&session, "fault_injection");
                }
            }
        }
    }

    /// Queues a job to step `session`.
    fn schedule(&self, session: Arc<ServedSession>) {
        let queued = robotune_obs::is_enabled().then(Instant::now);
        lock(&self.jobs).push_back((session, queued));
        self.jobs_cv.notify_one();
    }

    /// Closes `session`; a live one leaves a `cancelled` flight dump.
    fn close(&self, session: &ServedSession) {
        if session.close() {
            self.live.fetch_sub(1, Ordering::Relaxed);
            robotune_obs::incr("service.sessions_cancelled", 1);
            self.dump_flight(session, "cancelled");
        }
    }

    /// Writes a flight-recorder dump for `session`, if a recorder is
    /// configured. Never fails the caller.
    fn dump_flight(&self, session: &ServedSession, reason: &str) {
        let Some(flight) = self.flight.as_ref() else {
            return;
        };
        match flight.dump(session, reason) {
            Ok(path) => {
                robotune_obs::incr("service.flight.dumps", 1);
                robotune_obs::mark("service.flight.dump", || {
                    serde_json::json!({
                        "session": session.id.clone(),
                        "reason": reason,
                        "path": path.display().to_string(),
                    })
                });
            }
            Err(e) => {
                robotune_obs::incr("service.flight.errors", 1);
                robotune_obs::mark("service.flight.errors", || {
                    serde_json::json!({ "session": session.id.clone(), "error": e.clone() })
                });
            }
        }
    }

    /// Step jobs waiting for a compute worker.
    pub fn queue_depth(&self) -> usize {
        lock(&self.jobs).len()
    }

    /// Handles one raw request line, returning the rendered response
    /// frame (without trailing newline), parking the calling thread
    /// while a `suggest` waits; the daemon's reactor parks none.
    pub fn handle_line(&self, line: &str) -> String {
        let me = std::thread::current();
        let wake: Wake = Arc::new(move || me.unpark());
        let mut handled = self.handle(line, &wake);
        loop {
            match handled {
                Handled::Answer(response) => return response,
                Handled::Parked(parked) => {
                    // An unpark before the park makes it return at once.
                    let left = parked.deadline.saturating_duration_since(Instant::now());
                    std::thread::park_timeout(left);
                    handled = self.resume(parked, &wake);
                }
            }
        }
    }

    /// Handles one raw request line without waiting: a `suggest` whose
    /// ask is not ready comes back parked, with `wake` registered.
    pub(crate) fn handle(&self, line: &str, wake: &Wake) -> Handled {
        let started = Instant::now();
        let frame = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                let code = match e.kind() {
                    serde_json::ErrorKind::SizeLimit => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::MalformedFrame,
                };
                robotune_obs::incr("service.req_errors", 1);
                return Handled::Answer(render(error_frame(
                    &Value::Null,
                    &ProtoError::new(code, format!("bad frame: {e}")),
                )));
            }
        };
        let (id, parsed) = Request::parse(&frame);
        let req = match parsed {
            Ok(req) => req,
            Err(err) => {
                robotune_obs::incr("service.req_errors", 1);
                return Handled::Answer(render(error_frame(&id, &err)));
            }
        };
        let session = req.session_id().and_then(|sid| self.session(sid).ok());
        if let (Request::Suggest { .. }, Some(session)) = (&req, &session) {
            let deadline = started + self.opts.suggest_timeout;
            let parked = ParkedSuggest { id, session: Arc::clone(session), started, deadline };
            return self.resume(parked, wake);
        }
        let verb = verb_metric(&req);
        // Session-bearing verbs run inside the session's telemetry scope.
        let response = {
            let _scope = session.as_ref().map(|s| s.scope().enter());
            self.dispatch(&id, req)
        };
        self.answered(session.as_deref(), verb, started);
        Handled::Answer(render(response))
    }

    /// Tries a parked suggest again. Past its deadline it withdraws
    /// `wake` and answers the retryable `timeout`; the ask it waited for
    /// stays ready for the next `suggest`, at the same index.
    pub(crate) fn resume(&self, parked: ParkedSuggest, wake: &Wake) -> Handled {
        let (id, s) = (&parked.id, &parked.session);
        let response = {
            let _scope = s.scope().enter();
            match s.suggest(wake) {
                Ok(Some(reply)) => self.render_suggest(id, s, reply),
                Err(e) => error_frame(id, &e),
                Ok(None) if Instant::now() < parked.deadline => return Handled::Parked(parked),
                Ok(None) => {
                    s.stop_waiting(wake);
                    let msg = "pipeline produced no suggestion in time; retry";
                    error_frame(id, &ProtoError::new(ErrorCode::Timeout, msg))
                }
            }
        };
        self.answered(Some(s), SUGGEST, parked.started);
        Handled::Answer(render(response))
    }

    /// Counts an answered request once: its latency since first handled
    /// (in `s`'s scope too), its SLO window, and `service.requests`.
    fn answered(&self, s: Option<&ServedSession>, verb: &'static str, started: Instant) {
        let ns = started.elapsed().as_nanos() as f64;
        let scope = s.map(|s| s.scope().enter());
        robotune_obs::record(verb, ns);
        drop(scope);
        match verb {
            SUGGEST => lock(&self.slo).suggest.push(ns),
            OBSERVE => lock(&self.slo).observe.push(ns),
            _ => {}
        }
        robotune_obs::incr("service.requests", 1);
    }

    fn dispatch(&self, id: &Value, req: Request) -> Value {
        match req {
            Request::CreateSession { workload, space, seed, budget, profile } => {
                self.create_session(id, workload, &space, seed, budget, profile)
            }
            // A suggest for a known session went to `resume`.
            Request::Suggest { session } => error_frame(id, &unknown_session(&session)),
            Request::Observe { session, index, time_s, status } => {
                let observed = self.session(&session).and_then(|s| {
                    let observed = s.observe(index, time_s, status)?;
                    self.schedule(s);
                    Ok(observed)
                });
                match observed {
                    Err(e) => error_frame(id, &e),
                    Ok(observed) => ok_with(id, json!({"observed": observed})),
                }
            }
            Request::Best { session } => match self.session(&session) {
                Err(e) => error_frame(id, &e),
                Ok(s) => {
                    let (best_time_s, best_config) = s.best();
                    ok_with(
                        id,
                        json!({
                            "state": s.state().as_str(),
                            "best_time_s": best_time_s,
                            "best_config": best_config.map(|c| config_to_wire(s.space(), &c)),
                        }),
                    )
                }
            },
            Request::Status { session: Some(session) } => match self.session(&session) {
                Err(e) => error_frame(id, &e),
                Ok(s) => ok_with(id, session_row(&s)),
            },
            Request::Status { session: None } => self.server_status(id),
            Request::CloseSession { session } => match self.session(&session) {
                Err(e) => error_frame(id, &e),
                Ok(s) => {
                    self.close(&s);
                    ok_with(id, json!({"session": s.id.as_str(), "state": s.state().as_str()}))
                }
            },
            Request::Metrics { session, format } => self.metrics(id, session.as_deref(), format),
            Request::Health => self.health(id),
            Request::Diagnose { session } => match self.session(&session) {
                Err(e) => error_frame(id, &e),
                Ok(s) => {
                    let mut m = ok_frame(id);
                    crate::diagnose::extend_diagnose(&mut m, &s);
                    Value::Object(m)
                }
            },
            Request::Shutdown => {
                self.begin_shutdown();
                ok_with(id, json!({"draining": true}))
            }
        }
    }

    /// Answers `metrics`: the aggregate registry view, or one session's
    /// scoped view, as JSON or Prometheus text.
    fn metrics(&self, id: &Value, session: Option<&str>, format: MetricsFormat) -> Value {
        let (snap, scope_name, labels): (Snapshot, String, Vec<(String, String)>) = match session {
            None => (robotune_obs::snapshot(), "aggregate".to_string(), Vec::new()),
            Some(sid) => match self.session(sid) {
                Err(e) => return error_frame(id, &e),
                Ok(s) => {
                    let labels = vec![
                        ("session".to_string(), s.id.clone()),
                        ("workload".to_string(), s.spec.workload.clone()),
                    ];
                    (s.scope().snapshot(), s.id.clone(), labels)
                }
            },
        };
        let mut m = ok_frame(id);
        m.insert("scope".into(), Value::from(scope_name));
        m.insert("tracing_enabled".into(), Value::Bool(robotune_obs::is_enabled()));
        match format {
            MetricsFormat::Json => {
                let summaries = |named: &[(String, HistSummary)]| -> Map {
                    named.iter().map(|(n, s)| (n.clone(), summary_to_json(s))).collect()
                };
                let counters: Map =
                    snap.counters.iter().map(|(n, t)| (n.clone(), Value::from(*t))).collect();
                m.insert("counters".into(), Value::Object(counters));
                m.insert("hists".into(), Value::Object(summaries(&snap.hists)));
                m.insert("spans".into(), Value::Object(summaries(&snap.spans)));
            }
            MetricsFormat::Prometheus => {
                let label_refs: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                m.insert("format".into(), Value::from("prometheus"));
                m.insert(
                    "body".into(),
                    Value::from(robotune_obs::render_prometheus_labeled(&snap, &label_refs)),
                );
            }
        }
        Value::Object(m)
    }

    /// Answers `health`: liveness, compute pressure (busy workers,
    /// queued steps, live sessions), rolling SLO percentiles, and store
    /// durability lag.
    fn health(&self, id: &Value) -> Value {
        let snap = robotune_obs::snapshot();
        let store = self.store.status();
        // Degradation comes from the store itself (a shard whose WAL
        // appends are failing), not from telemetry counters: counters
        // are no-ops when tracing is disabled, and they never reset, so
        // a long-recovered hiccup would pin health at degraded forever.
        let degraded = store.degraded() || snap.counter("service.store.checkpoint_error") > 0;
        let status = if self.is_shutting_down() {
            "draining"
        } else if degraded {
            "degraded"
        } else {
            "ok"
        };
        let busy = self.busy.load(Ordering::Relaxed);
        let workers = self.opts.workers.max(1) as u64;
        let slo = {
            let slo = lock(&self.slo);
            json!({
                "window": slo.suggest.capacity() as u64,
                "suggest": window_to_json(&slo.suggest),
                "observe": window_to_json(&slo.observe),
            })
        };
        let shard_detail: Vec<Value> = store
            .shards
            .iter()
            .map(|s| {
                json!({
                    "shard": s.shard as u64,
                    "wal_lag": s.wal_lag,
                    "segments": s.segments,
                    "corrupt_segments": s.corrupt_segments,
                    "torn_tails": s.torn_tails,
                    "degraded": s.degraded,
                    "workloads": s.workloads,
                })
            })
            .collect();
        let store_json = json!({
            "wal_lag": self.store.wal_lag(),
            "workloads": self.store.workloads().len() as u64,
            "checkpoints": snap.counter("service.store.checkpoints"),
            "wal_errors": snap.counter("service.store.wal_error"),
            "checkpoint_errors": snap.counter("service.store.checkpoint_error"),
            "persistent": store.persistent,
            "shards": store.shards.len() as u64,
            "degraded": store.degraded(),
            "degraded_shards": store.degraded_shards(),
            "segments": store.segments(),
            "corrupt_segments": store.corrupt_segments(),
            "shard_detail": shard_detail,
        });
        ok_with(
            id,
            json!({
                "status": status,
                "workers": workers,
                "sessions_active": busy,
                "sessions_live": self.live.load(Ordering::Relaxed),
                "worker_utilization": (busy as f64 / workers as f64).min(1.0),
                "queue_depth": self.queue_depth() as u64,
                "queue_capacity": self.opts.queue_capacity as u64,
                "slo": slo,
                "store": store_json,
                "tracing_enabled": robotune_obs::is_enabled(),
                "flight_recorder": self.flight.as_ref().map(|f| f.dir().display().to_string()),
            }),
        )
    }

    fn create_session(
        &self,
        id: &Value,
        workload: String,
        space_name: &str,
        seed: u64,
        budget: usize,
        profile: protocol::Profile,
    ) -> Value {
        if self.is_shutting_down() {
            return error_frame(
                id,
                &ProtoError::new(ErrorCode::ShuttingDown, "server is draining"),
            );
        }
        let Some(space) = self.space(space_name) else {
            return error_frame(
                id,
                &ProtoError::new(
                    ErrorCode::UnknownSpace,
                    format!("no space named {space_name:?}"),
                ),
            );
        };
        let session_id = format!("s-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let session = ServedSession::new(
            session_id.clone(),
            SessionSpec { workload, budget, seed, profile },
            space,
            self.store.clone(),
        );
        {
            let mut sessions = lock(&self.sessions);
            let limit = (self.opts.workers.max(1) + self.opts.queue_capacity) as u64;
            let live = self.live.load(Ordering::Relaxed);
            if live >= limit {
                robotune_obs::incr("service.overloaded", 1);
                return error_frame(
                    id,
                    &ProtoError::new(
                        ErrorCode::Overloaded,
                        format!("{live} live sessions (limit {limit})"),
                    ),
                );
            }
            self.live.fetch_add(1, Ordering::Relaxed);
            sessions.insert(session_id.clone(), session.clone());
        }
        robotune_obs::incr("service.sessions_created", 1);
        self.schedule(session);
        ok_with(id, json!({"session": session_id, "state": SessionState::Running.as_str()}))
    }

    fn session(&self, id: &str) -> Result<Arc<ServedSession>, ProtoError> {
        lock(&self.sessions).get(id).cloned().ok_or_else(|| unknown_session(id))
    }

    fn render_suggest(&self, id: &Value, s: &ServedSession, reply: SuggestReply) -> Value {
        match reply {
            SuggestReply::Ask(ask) => ok_with(
                id,
                json!({
                    "type": "config",
                    "index": ask.index,
                    "cap_s": ask.cap_s,
                    "config": config_to_wire(s.space(), &ask.config),
                }),
            ),
            SuggestReply::Finished(out) => {
                ok_with(id, merge(json!({"type": "finished"}), outcome_json(s, &out)))
            }
        }
    }

    fn server_status(&self, id: &Value) -> Value {
        let mut sessions: Vec<Arc<ServedSession>> = lock(&self.sessions).values().cloned().collect();
        // HashMap iteration order is arbitrary; sort for stable output.
        sessions.sort_by(|a, b| a.id.cmp(&b.id));
        ok_with(
            id,
            json!({
                "shutting_down": self.is_shutting_down(),
                "workers": self.opts.workers as u64,
                "queue_depth": self.queue_depth() as u64,
                "sessions_active": self.busy.load(Ordering::Relaxed),
                "sessions_live": self.live.load(Ordering::Relaxed),
                "sessions": sessions.iter().map(|s| session_row(s)).collect::<Vec<_>>(),
                "store_workloads": self.store.workloads(),
            }),
        )
    }
}

/// What handling one request produced.
pub(crate) enum Handled {
    /// The rendered response frame (without trailing newline).
    Answer(String),
    Parked(ParkedSuggest),
}

/// A `suggest` that found no ask ready, held until it is retried.
pub(crate) struct ParkedSuggest {
    id: Value,
    session: Arc<ServedSession>,
    started: Instant,
    pub(crate) deadline: Instant,
}

fn unknown_session(id: &str) -> ProtoError {
    ProtoError::new(ErrorCode::UnknownSession, format!("no session {id:?}"))
}

/// An `ok` response frame carrying `body`'s fields after `id`/`ok`.
fn ok_with(id: &Value, body: Value) -> Value {
    merge(Value::Object(ok_frame(id)), body)
}

/// The fields of JSON object `a` followed by those of `b`.
fn merge(a: Value, b: Value) -> Value {
    let (Value::Object(mut m), Value::Object(b)) = (a, b) else {
        return Value::Null;
    };
    for (k, v) in b.iter() {
        m.insert(k.clone(), v.clone());
    }
    Value::Object(m)
}

/// One session's `status` row.
fn session_row(s: &ServedSession) -> Value {
    let stats = s.stats();
    json!({
        "session": s.id.as_str(),
        "state": s.state().as_str(),
        "workload": s.spec.workload.as_str(),
        "seed": s.spec.seed,
        "budget": s.spec.budget as u64,
        "profile": s.spec.profile.as_str(),
        "asked": stats.asked,
        "observed": stats.observed,
        "completed": stats.completed,
        "failed": stats.failed,
        "capped": stats.capped,
        "best_time_s": stats.best_time_s,
        "outcome": s.outcome().map(|out| outcome_json(s, &out)),
    })
}

fn outcome_json(s: &ServedSession, out: &SessionOutcome) -> Value {
    json!({
        "evals": out.evals as u64,
        "best_time_s": out.best_time_s,
        "best_config": out.best_config.as_ref().map(|c| config_to_wire(s.space(), c)),
        "warm_start": out.warm_start,
        "cache_hit": out.cache_hit,
        "selection_cost_s": out.selection_cost_s,
        "search_cost_s": out.search_cost_s,
    })
}

/// Renders a histogram summary as a JSON object (non-finite fields
/// serialize as `null`).
fn summary_to_json(s: &HistSummary) -> Value {
    json!({
        "count": s.count,
        "sum": s.sum,
        "mean": s.mean,
        "min": s.min,
        "max": s.max,
        "p50": s.p50,
        "p90": s.p90,
        "p99": s.p99,
    })
}

/// Renders a rolling latency window (ns samples) as millisecond
/// percentiles.
fn window_to_json(w: &RollingWindow) -> Value {
    json!({
        "count": w.len() as u64,
        "total": w.total(),
        "p50_ms": w.p50().map(|ns| ns / 1e6),
        "p99_ms": w.p99().map(|ns| ns / 1e6),
    })
}

/// The latency histograms that also feed the SLO windows.
const SUGGEST: &str = "service.req_ns.suggest";
const OBSERVE: &str = "service.req_ns.observe";

fn verb_metric(req: &Request) -> &'static str {
    match req {
        Request::CreateSession { .. } => "service.req_ns.create_session",
        Request::Suggest { .. } => SUGGEST,
        Request::Observe { .. } => OBSERVE,
        Request::Best { .. } => "service.req_ns.best",
        Request::Status { .. } => "service.req_ns.status",
        Request::CloseSession { .. } => "service.req_ns.close_session",
        Request::Metrics { .. } => "service.req_ns.metrics",
        Request::Health => "service.req_ns.health",
        Request::Diagnose { .. } => "service.req_ns.diagnose",
        Request::Shutdown => "service.req_ns.shutdown",
    }
}

pub(crate) fn render(v: Value) -> String {
    serde_json::to_string(&v).unwrap_or_else(|_| {
        // The value was built by us from valid pieces; this cannot
        // fail, but degrade to a protocol-shaped literal regardless.
        r#"{"id":null,"ok":false,"error":{"code":"internal","message":"render failure"}}"#
            .to_string()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune::InMemoryMemoStore;

    /// A manager with no compute workers running: created sessions stay
    /// live with their first step queued.
    fn manager() -> SessionManager {
        SessionManager::new(
            ServiceOptions {
                workers: 2,
                queue_capacity: 2,
                suggest_timeout: Duration::from_millis(20),
                ..ServiceOptions::default()
            },
            InMemoryMemoStore::new().into_shared(),
        )
    }

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    fn create(m: &SessionManager, workload: &str) -> Value {
        parse(&m.handle_line(&format!(
            r#"{{"verb":"create_session","workload":"{workload}","space":"spark","seed":1,"budget":5}}"#
        )))
    }

    #[test]
    fn create_reports_running_and_admission_is_typed() {
        let m = manager();
        let r1 = create(&m, "km");
        assert_eq!(r1["ok"], Value::Bool(true));
        assert_eq!(r1["state"].as_str(), Some("running"));
        // Workers 2 + headroom 2: four live sessions are admitted, the
        // fifth bounces.
        for w in ["pr", "cc", "lr"] {
            assert_eq!(create(&m, w)["ok"], Value::Bool(true), "{w}");
        }
        let r5 = create(&m, "ts");
        assert_eq!(r5["ok"], Value::Bool(false));
        assert_eq!(r5["error"]["code"].as_str(), Some("overloaded"));
        // Closing a live session makes room again.
        let sid = r1["session"].as_str().unwrap();
        let closed =
            parse(&m.handle_line(&format!(r#"{{"verb":"close_session","session":"{sid}"}}"#)));
        assert_eq!(closed["state"].as_str(), Some("closed"));
        assert_eq!(create(&m, "ts")["ok"], Value::Bool(true));
    }

    #[test]
    fn typed_errors_for_bad_frames_and_unknown_things() {
        let m = manager();
        for (line, code) in [
            ("{nope", "malformed_frame"),
            ("[]", "malformed_frame"),
            (r#"{"verb":"zap"}"#, "unknown_verb"),
            (r#"{"verb":"suggest","session":"s-99"}"#, "unknown_session"),
            (
                r#"{"verb":"create_session","workload":"x","space":"flink","seed":1,"budget":5}"#,
                "unknown_space",
            ),
        ] {
            let r = parse(&m.handle_line(line));
            assert_eq!(r["ok"], Value::Bool(false), "{line}");
            assert_eq!(r["error"]["code"].as_str(), Some(code), "{line}");
        }
    }

    #[test]
    fn shutdown_refuses_new_sessions_and_echoes_ids() {
        let m = manager();
        let r = parse(&m.handle_line(r#"{"id":"x-1","verb":"shutdown"}"#));
        assert_eq!(r["id"].as_str(), Some("x-1"));
        assert_eq!(r["draining"], Value::Bool(true));
        assert!(m.is_shutting_down());
        let r = parse(&m.handle_line(
            r#"{"verb":"create_session","workload":"km","space":"spark","seed":1,"budget":5}"#,
        ));
        assert_eq!(r["error"]["code"].as_str(), Some("shutting_down"));
    }

    #[test]
    fn metrics_answers_aggregate_and_per_session_views() {
        let m = manager();
        let agg = parse(&m.handle_line(r#"{"verb":"metrics"}"#));
        assert_eq!(agg["ok"], Value::Bool(true));
        assert_eq!(agg["scope"].as_str(), Some("aggregate"));
        assert!(agg["counters"].as_object().is_some());
        assert!(agg["hists"].as_object().is_some());
        assert!(agg["spans"].as_object().is_some());

        let r = parse(&m.handle_line(
            r#"{"verb":"create_session","workload":"km","space":"spark","seed":1,"budget":5}"#,
        ));
        let sid = r["session"].as_str().unwrap().to_string();
        let one = parse(&m.handle_line(&format!(r#"{{"verb":"metrics","session":"{sid}"}}"#)));
        assert_eq!(one["scope"].as_str(), Some(sid.as_str()));

        let prom = parse(&m.handle_line(
            &format!(r#"{{"verb":"metrics","session":"{sid}","format":"prometheus"}}"#),
        ));
        assert_eq!(prom["format"].as_str(), Some("prometheus"));
        assert!(prom["body"].as_str().is_some());

        let missing = parse(&m.handle_line(r#"{"verb":"metrics","session":"s-404"}"#));
        assert_eq!(missing["error"]["code"].as_str(), Some("unknown_session"));
    }

    #[test]
    fn health_reports_pressure_slo_and_store() {
        let m = manager();
        let sid = create(&m, "km")["session"].as_str().unwrap().to_string();
        let h = parse(&m.handle_line(r#"{"verb":"health"}"#));
        assert_eq!(h["ok"], Value::Bool(true));
        assert_eq!(h["status"].as_str(), Some("ok"));
        assert_eq!(h["workers"].as_u64(), Some(2));
        assert_eq!(h["queue_depth"].as_u64(), Some(1), "the first step waits for a worker");
        assert_eq!(h["queue_capacity"].as_u64(), Some(2));
        assert_eq!(h["sessions_active"].as_u64(), Some(0), "no worker is stepping");
        assert_eq!(h["sessions_live"].as_u64(), Some(1));
        assert_eq!(h["worker_utilization"].as_f64(), Some(0.0));
        assert_eq!(h["slo"]["window"].as_u64(), Some(256));
        assert_eq!(h["slo"]["suggest"]["count"].as_u64(), Some(0));
        assert_eq!(h["store"]["wal_lag"].as_u64(), Some(0));
        assert_eq!(h["flight_recorder"], Value::Null);

        // With no worker to compute the first ask, a suggest times out
        // (retryably) and still feeds the SLO window.
        let r = parse(&m.handle_line(&format!(r#"{{"verb":"suggest","session":"{sid}"}}"#)));
        assert_eq!(r["error"]["code"].as_str(), Some("timeout"));
        let h = parse(&m.handle_line(r#"{"verb":"health"}"#));
        assert_eq!(h["slo"]["suggest"]["count"].as_u64(), Some(1));
        assert!(h["slo"]["suggest"]["p50_ms"].as_f64().is_some());

        m.begin_shutdown();
        let h = parse(&m.handle_line(r#"{"verb":"health"}"#));
        assert_eq!(h["status"].as_str(), Some("draining"));
        assert_eq!(h["sessions_live"].as_u64(), Some(0), "shutdown closes live sessions");
    }

    #[test]
    fn status_covers_the_server_and_single_sessions() {
        let m = manager();
        let sid = create(&m, "km")["session"].as_str().unwrap().to_string();
        let server = parse(&m.handle_line(r#"{"verb":"status"}"#));
        assert_eq!(server["queue_depth"].as_u64(), Some(1));
        assert_eq!(server["sessions_live"].as_u64(), Some(1));
        assert_eq!(server["sessions_active"].as_u64(), Some(0));
        assert_eq!(server["sessions"][0]["session"].as_str(), Some(sid.as_str()));
        let one =
            parse(&m.handle_line(&format!(r#"{{"verb":"status","session":"{sid}"}}"#)));
        assert_eq!(one["state"].as_str(), Some("running"));
        assert_eq!(one["workload"].as_str(), Some("km"));
        assert_eq!(one["outcome"], Value::Null);
    }

    /// Drives one session through two steps on a compute worker — the
    /// first from its `create_session`, the second from an `observe` —
    /// and returns how many `service.step_wait` samples its scope saw.
    fn step_wait_samples() -> u64 {
        let m = SessionManager::new(
            ServiceOptions { suggest_timeout: Duration::from_secs(60), ..Default::default() },
            InMemoryMemoStore::new().into_shared(),
        );
        std::thread::scope(|scope| {
            scope.spawn(|| m.worker_loop());
            let sid = create(&m, "km")["session"].as_str().unwrap().to_string();
            let suggest = format!(r#"{{"verb":"suggest","session":"{sid}"}}"#);
            let ask = parse(&m.handle_line(&suggest));
            assert_eq!(ask["type"].as_str(), Some("config"), "{ask:?}");
            let observe = format!(
                r#"{{"verb":"observe","session":"{sid}","index":{},"time_s":10.0,"status":"completed"}}"#,
                ask["index"].as_u64().unwrap()
            );
            assert_eq!(parse(&m.handle_line(&observe))["ok"], Value::Bool(true));
            assert_eq!(parse(&m.handle_line(&suggest))["index"].as_u64(), Some(1));
            m.begin_shutdown();
            let session = m.session(&sid).unwrap();
            session.scope().snapshot().hist("service.step_wait").map_or(0, |h| h.count)
        })
    }

    #[test]
    fn step_wait_is_one_sample_per_step_and_none_with_telemetry_off() {
        assert_eq!(step_wait_samples(), 0, "telemetry off records nothing");
        robotune_obs::enable_null();
        let on = step_wait_samples();
        robotune_obs::disable();
        assert_eq!(on, 2, "one sample per step");
    }
}
