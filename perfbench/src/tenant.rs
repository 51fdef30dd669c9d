//! One simulated tenant of the daemon, independent of the transport that
//! carries its requests. Inside its session the tenant is a closed loop:
//! `create_session` → `suggest` → run the configuration on the simulator
//! (holding it for the think time) → `observe` → … → `finished`. A
//! `queued` answer is polled again after a fixed interval.

use std::time::{Duration, Instant};

use robotune_service::protocol::{config_from_wire, ObservedStatus};
use robotune_space::ConfigSpace;
use robotune_sparksim::SparkJob;
use robotune_tuners::Objective;
use serde_json::Value;

/// The request verbs a tenant sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `create_session`.
    Create = 0,
    /// `suggest`.
    Suggest = 1,
    /// `observe`.
    Observe = 2,
}

impl Verb {
    /// All verbs, indexable by `as usize`.
    pub const ALL: [Verb; 3] = [Verb::Create, Verb::Suggest, Verb::Observe];

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Create => "create_session",
            Verb::Suggest => "suggest",
            Verb::Observe => "observe",
        }
    }
}

/// One request line and its verb.
#[derive(Debug, Clone)]
pub struct Request {
    /// What the line asks.
    pub verb: Verb,
    /// The NDJSON frame, without its newline.
    pub line: String,
}

/// What a tenant does after a reply.
#[derive(Debug)]
pub enum Next {
    /// Send at once.
    Now(Request),
    /// Send after a delay (think time or queued poll).
    After(Duration, Request),
    /// The session finished.
    Done,
    /// The request failed; the tenant stops.
    Failed(String),
}

/// Client-side tallies shared by every tenant of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Round-trip times of answered requests, from when each was due,
    /// per verb, milliseconds. Suggests count only when answered with a
    /// configuration.
    pub rtt_ms: [Vec<f64>; 3],
    /// Requests sent, per verb.
    pub attempted: [u64; 3],
    /// Requests refused, failed or never answered, per verb.
    pub failed: [u64; 3],
    /// `queued` answers to suggest (wasted polls).
    pub queued: u64,
    /// Every suggest answered.
    pub suggests: u64,
    /// `create_session` due → first configuration, milliseconds.
    pub first_ask_ms: Vec<f64>,
}

/// A tenant's session as the client saw it end.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Evaluations the server recorded.
    pub evals_reported: u64,
    /// The server's best completed time.
    pub best_s: Option<f64>,
    /// Whether the selection came from the warmed cache.
    pub cache_hit: bool,
}

/// Fixed parameters of one tenant.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Memo-store workload key.
    pub key: String,
    /// Session seed.
    pub seed: u64,
    /// Evaluation budget.
    pub budget: usize,
    /// Options profile on the wire.
    pub profile: &'static str,
    /// How long each configuration is held before it is observed.
    pub think: Duration,
    /// Delay before polling again after `queued`.
    pub poll: Duration,
}

/// One tenant.
pub struct Tenant {
    spec: Spec,
    job: SparkJob,
    session: Option<String>,
    next_id: u64,
    /// When its `create_session` was due.
    pub created_due: Instant,
    /// `(time_s, completed)` of each evaluation it ran.
    pub evals: Vec<(f64, bool)>,
    /// Set once the session finished.
    pub finished: Option<Finished>,
}

impl Tenant {
    /// A tenant that will evaluate on `job`.
    pub fn new(spec: Spec, job: SparkJob, created_due: Instant) -> Self {
        Tenant {
            spec,
            job,
            session: None,
            next_id: 0,
            created_due,
            evals: Vec::new(),
            finished: None,
        }
    }

    fn frame(&mut self, verb: Verb, body: &str) -> Request {
        self.next_id += 1;
        Request {
            verb,
            line: format!(
                "{{\"id\":{},\"verb\":\"{}\"{body}}}",
                self.next_id,
                verb.name()
            ),
        }
    }

    fn suggest(&mut self) -> Request {
        let body = format!(
            ",\"session\":\"{}\"",
            self.session.as_deref().unwrap_or_default()
        );
        self.frame(Verb::Suggest, &body)
    }

    /// The opening request.
    pub fn create(&mut self) -> Request {
        let body = format!(
            ",\"workload\":\"{}\",\"space\":\"spark\",\"seed\":{},\"budget\":{},\"profile\":\"{}\"",
            self.spec.key, self.spec.seed, self.spec.budget, self.spec.profile
        );
        self.frame(Verb::Create, &body)
    }

    /// Handles the reply to a `verb` request that was due at `due` and
    /// answered at `now`.
    pub fn on_reply(
        &mut self,
        verb: Verb,
        reply: &str,
        due: Instant,
        now: Instant,
        space: &ConfigSpace,
        ledger: &mut Ledger,
    ) -> Next {
        let next = self.step(verb, reply, due, now, space, ledger);
        if let Next::Failed(_) = next {
            ledger.failed[verb as usize] += 1;
        }
        next
    }

    fn step(
        &mut self,
        verb: Verb,
        reply: &str,
        due: Instant,
        now: Instant,
        space: &ConfigSpace,
        ledger: &mut Ledger,
    ) -> Next {
        let v: Value = match serde_json::from_str(reply) {
            Ok(v) => v,
            Err(e) => return Next::Failed(format!("unparsable {} reply: {e}", verb.name())),
        };
        if v["ok"].as_bool() != Some(true) {
            return Next::Failed(format!("{} refused: {:?}", verb.name(), v["error"]));
        }
        let rtt_ms = now.duration_since(due).as_secs_f64() * 1e3;
        match verb {
            Verb::Create => {
                let Some(sid) = v["session"].as_str() else {
                    return Next::Failed("create_session: no session id".into());
                };
                ledger.rtt_ms[Verb::Create as usize].push(rtt_ms);
                self.session = Some(sid.to_string());
                Next::Now(self.suggest())
            }
            Verb::Observe => {
                ledger.rtt_ms[Verb::Observe as usize].push(rtt_ms);
                Next::Now(self.suggest())
            }
            Verb::Suggest => {
                ledger.suggests += 1;
                match v["type"].as_str() {
                    Some("queued") => {
                        ledger.queued += 1;
                        let again = self.suggest();
                        Next::After(self.spec.poll, again)
                    }
                    Some("config") => {
                        ledger.rtt_ms[Verb::Suggest as usize].push(rtt_ms);
                        if self.evals.is_empty() {
                            ledger
                                .first_ask_ms
                                .push(now.duration_since(self.created_due).as_secs_f64() * 1e3);
                        }
                        let (Some(index), Some(cap_s)) = (v["index"].as_u64(), v["cap_s"].as_f64())
                        else {
                            return Next::Failed("suggest: no index or cap".into());
                        };
                        let config = match config_from_wire(space, &v["config"]) {
                            Ok(c) => c,
                            Err(e) => return Next::Failed(format!("suggest: bad config: {e}")),
                        };
                        let eval = self.job.evaluate(&config, cap_s);
                        self.evals
                            .push((eval.time_s, eval.completed && !eval.failed));
                        let body = format!(
                            ",\"session\":\"{}\",\"index\":{index},\"time_s\":{:?},\"status\":\"{}\"",
                            self.session.as_deref().unwrap_or_default(),
                            eval.time_s,
                            ObservedStatus::of(&eval).as_str()
                        );
                        let observe = self.frame(Verb::Observe, &body);
                        if self.spec.think.is_zero() {
                            Next::Now(observe)
                        } else {
                            Next::After(self.spec.think, observe)
                        }
                    }
                    Some("finished") => {
                        self.finished = Some(Finished {
                            evals_reported: v["evals"].as_u64().unwrap_or(0),
                            best_s: v["best_time_s"].as_f64(),
                            cache_hit: v["cache_hit"].as_bool().unwrap_or(false),
                        });
                        Next::Done
                    }
                    other => Next::Failed(format!("suggest: unexpected type {other:?}")),
                }
            }
        }
    }

    /// The client-side best completed time.
    pub fn best_s(&self) -> Option<f64> {
        self.evals
            .iter()
            .filter(|e| e.1)
            .map(|e| e.0)
            .min_by(f64::total_cmp)
    }

    /// Simulated seconds spent until the first completed run within 5%
    /// of the session's own best.
    pub fn cost_to_5pct_s(&self) -> Option<f64> {
        let target = self.best_s()? * 1.05;
        let mut spent = 0.0;
        for &(t, completed) in &self.evals {
            spent += t;
            if completed && t <= target {
                return Some(spent);
            }
        }
        None
    }

    /// The session's budget.
    pub fn budget(&self) -> usize {
        self.spec.budget
    }
}
