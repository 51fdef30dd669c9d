//! A small blocking client for the service protocol, plus the drive
//! loop the load generator and the integration tests share.

use crate::protocol::{config_from_wire, ObservedStatus, Profile};
use robotune_space::{ConfigSpace, Configuration};
use robotune_tuners::Objective;
use serde_json::{Map, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Instant;

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, EOF).
    Io(std::io::Error),
    /// The server answered, but with `ok: false`. Carries the typed
    /// code and message.
    Protocol {
        /// The wire error code (e.g. `"overloaded"`).
        code: String,
        /// The human-oriented message.
        message: String,
    },
    /// The server's frame didn't have the promised shape.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol { code, message } => write!(f, "{code}: {message}"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One `suggest` answer.
#[derive(Debug, Clone)]
pub enum Suggestion {
    /// Run this configuration and observe the result.
    Config {
        /// Suggestion index to echo back in `observe`.
        index: u64,
        /// The decoded configuration.
        config: Configuration,
        /// Evaluation cap in seconds.
        cap_s: f64,
    },
    /// The session completed.
    Finished {
        /// Evaluations the BO session recorded.
        evals: u64,
        /// Best completed time.
        best_time_s: Option<f64>,
        /// Whether the initial design reused memoized configurations.
        warm_start: bool,
        /// Whether the parameter selection came from the shared cache.
        cache_hit: bool,
    },
}

/// A blocking NDJSON client over one TCP connection.
pub struct TuningClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl TuningClient {
    /// Connects to a running service.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(TuningClient { reader: BufReader::new(stream), writer, next_id: 0 })
    }

    /// Sends one request object and reads the matching response frame.
    /// Fills in a fresh `id` and checks the echo.
    pub fn request(&mut self, mut frame: Map) -> Result<Value, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        frame.insert("id".into(), Value::from(id));
        let mut line = serde_json::to_string(&Value::Object(frame))
            .map_err(|e| ClientError::BadResponse(format!("encode request: {e}")))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let v: Value = serde_json::from_str(response.trim_end())
            .map_err(|e| ClientError::BadResponse(format!("parse response: {e}")))?;
        if v.get("id").and_then(Value::as_u64) != Some(id) {
            return Err(ClientError::BadResponse(format!(
                "response id mismatch (want {id})"
            )));
        }
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            return Ok(v);
        }
        let code = v["error"]["code"].as_str().unwrap_or("missing_code").to_string();
        let message = v["error"]["message"].as_str().unwrap_or("").to_string();
        Err(ClientError::Protocol { code, message })
    }

    fn verb(verb: &str) -> Map {
        let mut m = Map::new();
        m.insert("verb".into(), Value::from(verb));
        m
    }

    fn session_verb(verb: &str, session: &str) -> Map {
        let mut m = Self::verb(verb);
        m.insert("session".into(), Value::from(session));
        m
    }

    /// Opens a session; returns its id.
    pub fn create_session(
        &mut self,
        workload: &str,
        space: &str,
        seed: u64,
        budget: usize,
        profile: Profile,
    ) -> Result<String, ClientError> {
        let mut m = Self::verb("create_session");
        m.insert("workload".into(), Value::from(workload));
        m.insert("space".into(), Value::from(space));
        m.insert("seed".into(), Value::from(seed));
        m.insert("budget".into(), Value::from(budget as u64));
        m.insert("profile".into(), Value::from(profile.as_str()));
        let v = self.request(m)?;
        v.get("session")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::BadResponse("create_session: no session id".into()))
    }

    /// Pulls the next suggestion, decoding the configuration over
    /// `space` (which must match the session's space).
    pub fn suggest(
        &mut self,
        session: &str,
        space: &ConfigSpace,
    ) -> Result<Suggestion, ClientError> {
        let v = self.request(Self::session_verb("suggest", session))?;
        match v.get("type").and_then(Value::as_str) {
            Some("config") => {
                let index = v
                    .get("index")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ClientError::BadResponse("suggest: no index".into()))?;
                let cap_s = v
                    .get("cap_s")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ClientError::BadResponse("suggest: no cap_s".into()))?;
                let config = v
                    .get("config")
                    .ok_or_else(|| ClientError::BadResponse("suggest: no config".into()))
                    .and_then(|c| {
                        config_from_wire(space, c)
                            .map_err(|e| ClientError::BadResponse(e.to_string()))
                    })?;
                Ok(Suggestion::Config { index, config, cap_s })
            }
            Some("finished") => Ok(Suggestion::Finished {
                evals: v.get("evals").and_then(Value::as_u64).unwrap_or(0),
                best_time_s: v.get("best_time_s").and_then(Value::as_f64),
                warm_start: v.get("warm_start").and_then(Value::as_bool).unwrap_or(false),
                cache_hit: v.get("cache_hit").and_then(Value::as_bool).unwrap_or(false),
            }),
            other => Err(ClientError::BadResponse(format!(
                "suggest: unexpected type {other:?}"
            ))),
        }
    }

    /// Reports a measurement for the pending suggestion.
    pub fn observe(
        &mut self,
        session: &str,
        index: u64,
        time_s: f64,
        status: ObservedStatus,
    ) -> Result<(), ClientError> {
        let mut m = Self::session_verb("observe", session);
        m.insert("index".into(), Value::from(index));
        m.insert("time_s".into(), Value::from(time_s));
        m.insert("status".into(), Value::from(status.as_str()));
        self.request(m).map(|_| ())
    }

    /// Fetches the best-so-far summary for a session.
    pub fn best(&mut self, session: &str) -> Result<Value, ClientError> {
        self.request(Self::session_verb("best", session))
    }

    /// Server-wide status frame.
    pub fn status(&mut self) -> Result<Value, ClientError> {
        self.request(Self::verb("status"))
    }

    /// Per-session status frame.
    pub fn session_status(&mut self, session: &str) -> Result<Value, ClientError> {
        self.request(Self::session_verb("status", session))
    }

    /// Cancels a session.
    pub fn close_session(&mut self, session: &str) -> Result<(), ClientError> {
        self.request(Self::session_verb("close_session", session)).map(|_| ())
    }

    /// Aggregate server metrics as structured JSON.
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.request(Self::verb("metrics"))
    }

    /// One session's scoped metrics as structured JSON.
    pub fn session_metrics(&mut self, session: &str) -> Result<Value, ClientError> {
        self.request(Self::session_verb("metrics", session))
    }

    /// Metrics rendered as Prometheus exposition text. `session` picks
    /// one session's scoped view; `None` is the aggregate registry.
    pub fn metrics_prometheus(&mut self, session: Option<&str>) -> Result<String, ClientError> {
        let mut m = Self::verb("metrics");
        if let Some(sid) = session {
            m.insert("session".into(), Value::from(sid));
        }
        m.insert("format".into(), Value::from("prometheus"));
        let v = self.request(m)?;
        v.get("body")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::BadResponse("metrics: no body".into()))
    }

    /// The server's health frame (workers, queue, SLO windows, store).
    pub fn health(&mut self) -> Result<Value, ClientError> {
        self.request(Self::verb("health"))
    }

    /// One session's tuner-health diagnostics (`diag.*` series,
    /// whitelisted counters, derived summary) under the versioned
    /// diagnose schema.
    pub fn diagnose(&mut self, session: &str) -> Result<Value, ClientError> {
        self.request(Self::session_verb("diagnose", session))
    }

    /// Asks the server to drain, checkpoint, and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(Self::verb("shutdown")).map(|_| ())
    }
}

/// What [`drive_session`] measured.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// The session id.
    pub session: String,
    /// Evaluations the client ran (asks observed).
    pub evals_run: u64,
    /// Evaluations the BO session recorded, per the finished summary.
    pub evals_recorded: u64,
    /// Best completed time per the finished summary.
    pub best_time_s: Option<f64>,
    /// Whether the session warm-started from memoized configurations.
    pub warm_start: bool,
    /// Whether the parameter selection came from the shared cache.
    pub cache_hit: bool,
    /// Wall-clock latency of each `suggest` round trip, seconds.
    pub suggest_latencies_s: Vec<f64>,
    /// Wall-clock latency of each `observe` round trip, seconds.
    pub observe_latencies_s: Vec<f64>,
}

/// Creates a session and drives it to completion against a local
/// objective: suggest → evaluate → observe until `finished`.
///
/// A `timeout` error retries the suggest. Any other protocol error
/// aborts the drive.
pub fn drive_session(
    client: &mut TuningClient,
    space: &ConfigSpace,
    objective: &mut dyn Objective,
    workload: &str,
    seed: u64,
    budget: usize,
    profile: Profile,
) -> Result<DriveReport, ClientError> {
    let session = client.create_session(workload, "spark", seed, budget, profile)?;
    let mut report = DriveReport {
        session: session.clone(),
        evals_run: 0,
        evals_recorded: 0,
        best_time_s: None,
        warm_start: false,
        cache_hit: false,
        suggest_latencies_s: Vec::new(),
        observe_latencies_s: Vec::new(),
    };
    loop {
        let t0 = Instant::now();
        let suggestion = match client.suggest(&session, space) {
            Ok(s) => s,
            Err(ClientError::Protocol { code, .. }) if code == "timeout" => continue,
            Err(e) => return Err(e),
        };
        report.suggest_latencies_s.push(t0.elapsed().as_secs_f64());
        match suggestion {
            Suggestion::Config { index, config, cap_s } => {
                let eval = objective.evaluate(&config, cap_s);
                let status = ObservedStatus::of(&eval);
                let t1 = Instant::now();
                client.observe(&session, index, eval.time_s, status)?;
                report.observe_latencies_s.push(t1.elapsed().as_secs_f64());
                report.evals_run += 1;
            }
            Suggestion::Finished { evals, best_time_s, warm_start, cache_hit } => {
                report.evals_recorded = evals;
                report.best_time_s = best_time_s;
                report.warm_start = warm_start;
                report.cache_hit = cache_hit;
                return Ok(report);
            }
        }
    }
}
