//! The failure flight recorder: black-box JSONL post-mortems for
//! sessions that die badly.
//!
//! Every [`ServedSession`](crate::session::ServedSession) already keeps
//! the two things a post-mortem needs — a bounded ring of its recent
//! telemetry events (via its [`Scope`](robotune_obs::Scope)) and its
//! ask/tell configuration trajectory. When a session is cancelled,
//! errors out, or trips fault-injection paths, the manager asks the
//! [`FlightRecorder`] to dump both (plus the session spec, lifecycle
//! stats, and per-scope counters — including the `fault.*`/`retry.*`
//! families) as one self-describing JSONL file.
//!
//! ## Dump format (one JSON object per line)
//!
//! 1. `{"kind":"flight","version":1,"session":…,"reason":…,"state":…,
//!    "workload":…,"seed":…,"budget":…,"profile":…}` — header;
//! 2. `{"kind":"stats",…}` — ask/tell lifecycle counters;
//! 3. `{"kind":"counters","counters":{…}}` — the session scope's
//!    counter totals (empty when tracing was disabled);
//! 4. `{"kind":"fault_counters","counters":{…},"total":…}` — the
//!    `fault.*`/`retry.*` subset of the same totals (per
//!    [`robotune_faults::telemetry`]), pulled out so a post-mortem reader
//!    sees the failure story without scanning the full counter map;
//! 5. `{"kind":"diag","name":…,"iter":…,"data":{…}}` — the tuner-health
//!    diagnostic series from the scope ring (GP fits, acquisition
//!    rounds, rung outcomes), one line per sample in emission order with
//!    the *raw* iteration numbers so `experiments flightcheck` can
//!    verify per-series monotonicity;
//! 6. `{"kind":"ask","index":…,"cap_s":…,"config":{…}}` /
//!    `{"kind":"tell","index":…,"time_s":…,"status":…}` — the config
//!    trajectory in order;
//! 7. `{"kind":"event","event":{…}}` — the recent telemetry events
//!    (same schema as the `--trace` JSONL);
//! 8. `{"kind":"recorder","events_dropped":…,"trajectory_dropped":…}`
//!    — footer recording what the bounded buffers had to evict.
//!
//! Files are written to a temp name and renamed into place, so a
//! half-written dump is never observed under the final name.

use crate::protocol::config_to_wire;
use crate::session::{ServedSession, TrajectoryEntry};
use serde_json::{json, Map, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Format version written into every dump header.
pub const FLIGHT_FORMAT_VERSION: i64 = 1;

/// Writes per-session failure dumps into one directory.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    dir: PathBuf,
}

impl FlightRecorder {
    /// Creates the recorder (and its directory).
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create flight dir {}: {e}", dir.display()))?;
        Ok(FlightRecorder { dir })
    }

    /// The directory dumps land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Dumps `session`'s black box; returns the file written.
    pub fn dump(&self, session: &ServedSession, reason: &str) -> Result<PathBuf, String> {
        let path = self.dir.join(format!("flight-{}.jsonl", session.id));
        let tmp = self.dir.join(format!("flight-{}.jsonl.tmp", session.id));
        let mut out = Vec::new();
        for line in self.render_lines(session, reason) {
            let text = serde_json::to_string(&line)
                .map_err(|e| format!("encode flight line: {e}"))?;
            out.extend_from_slice(text.as_bytes());
            out.push(b'\n');
        }
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| format!("create {}: {e}", tmp.display()))?;
        file.write_all(&out)
            .and_then(|()| file.flush())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        drop(file);
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
        Ok(path)
    }

    fn render_lines(&self, session: &ServedSession, reason: &str) -> Vec<Value> {
        let stats = session.stats();
        let mut lines = vec![
            json!({
                "kind": "flight",
                "version": FLIGHT_FORMAT_VERSION,
                "session": session.id.as_str(),
                "reason": reason,
                "state": session.state().as_str(),
                "workload": session.spec.workload.as_str(),
                "seed": session.spec.seed,
                "budget": session.spec.budget as u64,
                "profile": session.spec.profile.as_str(),
            }),
            json!({
                "kind": "stats",
                "asked": stats.asked,
                "observed": stats.observed,
                "completed": stats.completed,
                "failed": stats.failed,
                "capped": stats.capped,
                "best_time_s": stats.best_time_s,
            }),
        ];

        // The scope's counters carry the fault/retry story for this
        // session (retry.attempt, retry.exhausted, bo.censored_observation,
        // …) when tracing is on; an empty object otherwise.
        let snap = session.scope().snapshot();
        let mut counters = Map::new();
        let mut fault_counters = Map::new();
        let mut fault_total = 0u64;
        for (name, total) in &snap.counters {
            counters.insert(name.clone(), Value::from(*total));
            if robotune_faults::telemetry::is_fault_related(name) {
                fault_counters.insert(name.clone(), Value::from(*total));
                fault_total += *total;
            }
        }
        lines.push(json!({"kind": "counters", "counters": counters}));
        lines.push(json!({
            "kind": "fault_counters",
            "counters": fault_counters,
            "total": fault_total,
        }));

        // Tuner-health samples get their own lines (in addition to the
        // raw `event` lines below) so a post-mortem reader — and
        // `experiments flightcheck` — can walk the series without
        // filtering the full event stream.
        for event in session.scope().recent_events() {
            if let robotune_obs::EventData::Diag { name, iter, data } = event.data {
                lines.push(json!({"kind": "diag", "name": name, "iter": iter, "data": data}));
            }
        }

        let (trajectory, trajectory_dropped) = session.trajectory();
        lines.extend(trajectory.iter().map(|entry| match entry {
            TrajectoryEntry::Ask(ask) => json!({
                "kind": "ask",
                "index": ask.index,
                "cap_s": ask.cap_s,
                "config": config_to_wire(session.space(), &ask.config),
            }),
            TrajectoryEntry::Tell { index, time_s, status } => json!({
                "kind": "tell",
                "index": *index,
                "time_s": *time_s,
                "status": status.as_str(),
            }),
        }));
        for event in session.scope().recent_events() {
            lines.push(json!({"kind": "event", "event": event.to_json()}));
        }
        lines.push(json!({
            "kind": "recorder",
            "events_dropped": session.scope().dropped_events(),
            "trajectory_dropped": trajectory_dropped,
        }));
        lines
    }
}
