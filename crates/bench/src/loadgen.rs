//! Service load: `experiments loadgen`.
//!
//! Every simulated tenant is multiplexed onto **one** client thread
//! with the same poller the server uses (the workspace `mio` stand-in)
//! and the service crate's [`FrameDecoder`] for pipelined response
//! reassembly, so a run holds 10k+ tenants on one thread.
//!
//! Tenant `i` tunes `ALL_WORKLOADS[i % 5]` under the memo key
//! `wl-{i%5}` with session seed `seed + i` and its own simulated Spark
//! job (seed `(seed + i) ^ 0x5eed`, under `--faults` cluster chaos when
//! asked), so repeated runs against a persistent store exercise the
//! selection cache and memoized warm starts. Each tenant connects,
//! opens a session, and then lives the real tenant life: `suggest`
//! (backing off with jitter on a retryable `timeout`, or on the
//! `queued` answer older daemons gave), evaluate the suggested
//! configuration when one arrives, report `observe`, repeat until the
//! session finishes — then stays connected (an idle tenant must cost
//! the server nothing).
//!
//! Without `--rate` every tenant arrives at once; with it, tenants
//! arrive on a fixed schedule regardless of how fast the daemon answers
//! (*open loop* — the honest way to measure a service under load, since
//! a closed loop self-throttles exactly when the server degrades).
//! Without `--hold` the run lasts until every session has finished or
//! its tenant is dead; with it, the run stops `--hold` seconds after the
//! last arrival. Then it asserts:
//!
//! - **zero dropped connections** (no unexpected EOF/reset) and **zero
//!   wedged requests** (in flight longer than the server's own
//!   `suggest` timeout);
//! - every admitted tenant completed its `create_session` round trip —
//!   10k concurrent open sessions means 10k *answered* tenants;
//! - without `--hold`, every created session finished;
//! - with `--expect-warm`, at least one session's selection came from
//!   the store's cache (how CI proves the store survived a restart);
//! - optionally, the server's rolling suggest/observe SLO windows
//!   (the `health` verb) stay under `--slo-suggest-p99-ms` /
//!   `--slo-observe-p99-ms`.

use mio::{Events, Interest, Poll, Token};
use robotune_service::framing::{DecodedFrame, FrameDecoder};
use robotune_service::protocol::config_from_wire;
use robotune_service::{ObservedStatus, Profile, TuningClient};
use robotune_space::spark::spark_space;
use robotune_space::ConfigSpace;
use robotune_sparksim::{Dataset, FaultPlan, FaultProfile, SparkJob, ALL_WORKLOADS};
use robotune_stats::percentile;
use robotune_tuners::Objective;
use serde_json::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::fatal;

/// Flags for `experiments loadgen`.
pub struct LoadgenArgs {
    /// Daemon address.
    pub addr: String,
    /// Total simulated tenants.
    pub tenants: usize,
    /// Tenant arrivals per second; `None` = every tenant at once.
    pub rate: Option<f64>,
    /// Seconds to keep driving after the last arrival; `None` = until
    /// every session has finished.
    pub hold_s: Option<f64>,
    /// Per-session BO budget.
    pub budget: usize,
    /// Base re-poll interval after a `timeout` (or an older daemon's
    /// `queued`), milliseconds (jittered ±50% per poll so 10k tenants
    /// don't phase-lock).
    pub poll_ms: u64,
    /// Base RNG seed (tenant i uses `seed + i`).
    pub seed: u64,
    /// Fault profile injected into every tenant's simulated cluster.
    pub faults: FaultProfile,
    /// Fail the run unless at least one session hit the selection
    /// cache (the post-restart warm-start assertion).
    pub expect_warm: bool,
    /// Assert the server's rolling suggest p99 (from `health`) is at
    /// most this many milliseconds.
    pub slo_suggest_p99_ms: Option<f64>,
    /// Assert the server's rolling observe p99 is at most this.
    pub slo_observe_p99_ms: Option<f64>,
    /// Send `shutdown` when the run completes.
    pub shutdown: bool,
    /// Also write the machine-readable report (`openloop.json` shape)
    /// to this path.
    pub json_path: Option<std::path::PathBuf>,
}

impl Default for LoadgenArgs {
    fn default() -> Self {
        LoadgenArgs {
            addr: "127.0.0.1:7651".to_string(),
            tenants: 8,
            rate: None,
            hold_s: None,
            budget: 6,
            poll_ms: 400,
            seed: 9000,
            faults: FaultProfile::None,
            expect_warm: false,
            slo_suggest_p99_ms: None,
            slo_observe_p99_ms: None,
            shutdown: false,
            json_path: None,
        }
    }
}

fn take_value(flag: &str, v: Option<&String>) -> String {
    v.cloned().unwrap_or_else(|| fatal(format!("{flag} requires a value")))
}

/// Parses `experiments loadgen` flags.
pub fn parse_loadgen_args(rest: &[String]) -> LoadgenArgs {
    let mut args = LoadgenArgs::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        macro_rules! parse_next {
            ($flag:literal) => {
                take_value($flag, it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("{}: {e}", $flag)))
            };
        }
        match a.as_str() {
            "--addr" => args.addr = take_value("--addr HOST:PORT", it.next()),
            "--tenants" => args.tenants = parse_next!("--tenants N"),
            "--rate" => args.rate = Some(parse_next!("--rate ARRIVALS_PER_S")),
            "--hold" => args.hold_s = Some(parse_next!("--hold SECONDS")),
            "--budget" => args.budget = parse_next!("--budget N"),
            "--poll-ms" => args.poll_ms = parse_next!("--poll-ms MS"),
            "--seed" => args.seed = parse_next!("--seed N"),
            "--faults" => {
                args.faults = take_value("--faults <none|transient|hostile>", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(e));
            }
            "--expect-warm" => args.expect_warm = true,
            "--slo-suggest-p99-ms" => {
                args.slo_suggest_p99_ms = Some(parse_next!("--slo-suggest-p99-ms MS"));
            }
            "--slo-observe-p99-ms" => {
                args.slo_observe_p99_ms = Some(parse_next!("--slo-observe-p99-ms MS"));
            }
            "--shutdown" => args.shutdown = true,
            "--json" => args.json_path = Some(take_value("--json PATH", it.next()).into()),
            other => fatal(format!("loadgen: unknown flag {other}")),
        }
    }
    args
}

/// In-flight requests older than this count as wedged (and stop a run
/// without `--hold` from waiting on them); matches the server's default
/// `suggest_timeout` — nothing legitimate takes longer.
const STALL_LIMIT: Duration = Duration::from_secs(30);
/// Event buffer per poll.
const EVENTS_PER_LOOP: usize = 4096;
/// Read scratch size.
const READ_CHUNK: usize = 16 * 1024;

/// Where one tenant's state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `create_session` sent, response pending.
    AwaitCreate,
    /// `suggest` sent, response pending.
    AwaitSuggest,
    /// `observe` sent, response pending.
    AwaitObserve,
    /// Backoff: the timer heap owns the next suggest.
    Idle,
    /// Session finished; connection stays open, tenant stays silent.
    Done,
    /// Connection failed or protocol error; counted, inert.
    Dead,
}

struct Tenant {
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    outbuf: Vec<u8>,
    cursor: usize,
    write_armed: bool,
    phase: Phase,
    session: Option<String>,
    job: SparkJob,
    next_id: u64,
    sent_at: Instant,
    rng: u64,
}

/// Everything the run counts.
#[derive(Default)]
struct Stats {
    connect_failures: usize,
    dropped: usize,
    wedged: usize,
    protocol_errors: usize,
    overloaded: usize,
    created: usize,
    finished: usize,
    /// Connected tenants that finished or went inert.
    settled: usize,
    cache_hits: usize,
    warm_starts: usize,
    evals: u64,
    queued_polls: u64,
    requests: u64,
    responses: u64,
    open_now: isize,
    peak_open: isize,
    create_rtt_ms: Vec<f64>,
    suggest_rtt_ms: Vec<f64>,
    observe_rtt_ms: Vec<f64>,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl Tenant {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.cursor
    }

    /// Queues one frame and pushes as much as the socket takes now.
    fn send(&mut self, frame: &str, stats: &mut Stats) {
        self.outbuf.extend_from_slice(frame.as_bytes());
        self.outbuf.push(b'\n');
        self.sent_at = Instant::now();
        stats.requests += 1;
        self.flush(stats);
    }

    fn flush(&mut self, stats: &mut Stats) {
        let Some(stream) = self.stream.as_ref() else { return };
        while self.cursor < self.outbuf.len() {
            match (&*stream).write(&self.outbuf[self.cursor..]) {
                Ok(0) => {
                    self.die_dropped(stats);
                    return;
                }
                Ok(n) => self.cursor += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.die_dropped(stats);
                    return;
                }
            }
        }
        if self.cursor == self.outbuf.len() {
            self.outbuf.clear();
            self.cursor = 0;
        }
    }

    fn die_dropped(&mut self, stats: &mut Stats) {
        if !self.settled() {
            stats.dropped += 1;
            self.retire(stats);
        }
    }

    /// Removes this tenant from the open-session census and goes inert.
    fn retire(&mut self, stats: &mut Stats) {
        if !self.settled() {
            stats.settled += 1;
            if self.session.is_some() {
                stats.open_now -= 1;
            }
        }
        self.phase = Phase::Dead;
    }

    /// Nothing more will happen on this tenant.
    fn settled(&self) -> bool {
        matches!(self.phase, Phase::Done | Phase::Dead)
    }

    /// Awaiting a response past the server's own timeout.
    fn wedged(&self) -> bool {
        matches!(self.phase, Phase::AwaitCreate | Phase::AwaitSuggest | Phase::AwaitObserve)
            && self.sent_at.elapsed() > STALL_LIMIT
    }

    fn jittered_poll(&mut self, base_ms: u64) -> Duration {
        // ±50% deterministic jitter so tenants spread their polls.
        let base = base_ms.max(1);
        let jitter = xorshift(&mut self.rng) % base.max(1);
        Duration::from_millis(base / 2 + jitter)
    }
}

fn frame_create(id: u64, key: &str, seed: u64, budget: usize) -> String {
    format!(
        "{{\"id\":{id},\"verb\":\"create_session\",\"workload\":\"{key}\",\"space\":\"spark\",\
         \"seed\":{seed},\"budget\":{budget},\"profile\":\"{}\"}}",
        Profile::Fast.as_str()
    )
}

fn frame_suggest(id: u64, session: &str) -> String {
    format!("{{\"id\":{id},\"verb\":\"suggest\",\"session\":\"{session}\"}}")
}

fn frame_observe(id: u64, session: &str, index: u64, time_s: f64, status: &str) -> String {
    format!(
        "{{\"id\":{id},\"verb\":\"observe\",\"session\":\"{session}\",\"index\":{index},\
         \"time_s\":{time_s},\"status\":\"{status}\"}}"
    )
}

/// The aggregate outcome of one load-generation run.
pub struct LoadgenReport {
    /// The flags the run used.
    args_summary: String,
    stats: Stats,
    wall_s: f64,
    /// The server's `health` frame at the end of the run.
    health: Option<Value>,
    /// Human-readable assertion failures; empty means the run passed.
    pub failures: Vec<String>,
}

impl LoadgenReport {
    /// Renders the markdown summary.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut md = String::from("## Service load generation\n\n");
        md.push_str(&format!("{}\n\n", self.args_summary));
        md.push_str(&format!(
            "connections: {} opened, {} connect failures, {} dropped, {} wedged\n",
            s.created + s.overloaded + s.protocol_errors,
            s.connect_failures,
            s.dropped,
            s.wedged
        ));
        md.push_str(&format!(
            "sessions: {} created (peak {} concurrently open), {} finished, {} evals observed\n",
            s.created, s.peak_open, s.finished, s.evals
        ));
        md.push_str(&format!(
            "finished sessions: {} selection cache hits, {} memoized warm starts\n",
            s.cache_hits, s.warm_starts
        ));
        md.push_str(&format!(
            "requests: {} sent, {} answered ({:.0} req/s over {:.1}s); {} queued polls\n\n",
            s.requests,
            s.responses,
            s.responses as f64 / self.wall_s.max(1e-9),
            self.wall_s,
            s.queued_polls
        ));
        md.push_str("| client RTT (ms) | p50 | p99 | n |\n|---|---|---|---|\n");
        for (name, samples) in [
            ("create_session", &s.create_rtt_ms),
            ("suggest", &s.suggest_rtt_ms),
            ("observe", &s.observe_rtt_ms),
        ] {
            md.push_str(&format!(
                "| {name} | {:.2} | {:.2} | {} |\n",
                percentile(samples, 50.0),
                percentile(samples, 99.0),
                samples.len()
            ));
        }
        if let Some(h) = &self.health {
            let window = |verb: &str| {
                let w = &h["slo"][verb];
                format!(
                    "p50 {} / p99 {} over {} samples",
                    w["p50_ms"].as_f64().map_or("—".into(), |v| format!("{v:.2}ms")),
                    w["p99_ms"].as_f64().map_or("—".into(), |v| format!("{v:.2}ms")),
                    w["count"].as_u64().unwrap_or(0)
                )
            };
            md.push_str(&format!(
                "\nserver SLO windows (health): suggest {}; observe {}\n",
                window("suggest"),
                window("observe")
            ));
            md.push_str(&format!(
                "server: status={} workers={} busy={} live={} steps_queued={}\n",
                h["status"].as_str().unwrap_or("?"),
                h["workers"].as_u64().unwrap_or(0),
                h["sessions_active"].as_u64().unwrap_or(0),
                h["sessions_live"].as_u64().unwrap_or(0),
                h["queue_depth"].as_u64().unwrap_or(0),
            ));
        }
        if self.failures.is_empty() {
            md.push_str("\nassertions: all passed\n");
        } else {
            md.push_str("\nassertions FAILED:\n");
            for f in &self.failures {
                md.push_str(&format!("  - {f}\n"));
            }
        }
        md
    }

    /// Renders the machine-readable report (`openloop.json`): the
    /// tenant/wedge census, per-verb RTT p50/p99, and the client RTT
    /// distributions in the BENCH manifest's metric-series shape (via
    /// [`crate::campaign::series_to_json`]) so the same tooling that
    /// reads `BENCH_*.json` series can read a load run.
    pub fn to_json(&self) -> Value {
        use crate::campaign::{series_to_json, summarize, Direction, SeriesSamples};
        let s = &self.stats;
        let mut census = serde_json::Map::new();
        for (k, v) in [
            ("tenants_connect_failed", s.connect_failures),
            ("connections_dropped", s.dropped),
            ("requests_wedged", s.wedged),
            ("protocol_errors", s.protocol_errors),
            ("sessions_overloaded", s.overloaded),
            ("sessions_created", s.created),
            ("sessions_finished", s.finished),
            ("cache_hits", s.cache_hits),
            ("warm_starts", s.warm_starts),
        ] {
            census.insert(k.into(), Value::from(v as u64));
        }
        census.insert("evals_observed".into(), Value::from(s.evals));
        census.insert("queued_polls".into(), Value::from(s.queued_polls));
        census.insert("requests_sent".into(), Value::from(s.requests));
        census.insert("responses".into(), Value::from(s.responses));
        census.insert("peak_open_sessions".into(), Value::from(s.peak_open.max(0) as u64));

        let mut rtt = serde_json::Map::new();
        let mut series = Vec::new();
        for (name, samples) in [
            ("openloop.create_rtt_ms", &s.create_rtt_ms),
            ("openloop.suggest_rtt_ms", &s.suggest_rtt_ms),
            ("openloop.observe_rtt_ms", &s.observe_rtt_ms),
        ] {
            let verb = name
                .trim_start_matches("openloop.")
                .trim_end_matches("_rtt_ms");
            let mut v = serde_json::Map::new();
            v.insert("n".into(), Value::from(samples.len() as u64));
            v.insert(
                "p50_ms".into(),
                if samples.is_empty() {
                    Value::Null
                } else {
                    Value::from(percentile(samples, 50.0))
                },
            );
            v.insert(
                "p99_ms".into(),
                if samples.is_empty() {
                    Value::Null
                } else {
                    Value::from(percentile(samples, 99.0))
                },
            );
            rtt.insert(verb.to_string(), Value::Object(v));
            series.push(series_to_json(&summarize(&SeriesSamples {
                name,
                unit: "ms",
                direction: Direction::Lower,
                samples: samples.clone(),
            })));
        }
        series.push(series_to_json(&summarize(&SeriesSamples {
            name: "openloop.throughput_req_per_s",
            unit: "req/s",
            direction: Direction::Higher,
            samples: vec![s.responses as f64 / self.wall_s.max(1e-9)],
        })));

        let mut m = serde_json::Map::new();
        m.insert("kind".into(), Value::from("robotune.openloop"));
        m.insert("schema_version".into(), Value::from(1u64));
        m.insert("args".into(), Value::from(self.args_summary.as_str()));
        m.insert("wall_s".into(), Value::from(self.wall_s));
        m.insert(
            "req_per_s".into(),
            Value::from(s.responses as f64 / self.wall_s.max(1e-9)),
        );
        m.insert("census".into(), Value::Object(census));
        m.insert("rtt_ms".into(), Value::Object(rtt));
        m.insert("series".into(), Value::Array(series));
        m.insert(
            "server_health".into(),
            self.health.clone().unwrap_or(Value::Null),
        );
        m.insert(
            "failures".into(),
            Value::Array(self.failures.iter().map(|f| Value::from(f.as_str())).collect()),
        );
        m.insert("passed".into(), Value::Bool(self.failures.is_empty()));
        Value::Object(m)
    }
}

fn connect_with_retry(addr: &str) -> Option<TcpStream> {
    for attempt in 0..5 {
        match TcpStream::connect(addr) {
            Ok(s) => return Some(s),
            Err(_) if attempt < 4 => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
    }
    None
}

/// Runs the multiplexed tenants against a live daemon.
#[allow(clippy::too_many_lines)]
pub fn run_loadgen(args: &LoadgenArgs) -> Result<LoadgenReport, String> {
    let space: Arc<ConfigSpace> = Arc::new(spark_space());
    let mut poll = Poll::new().map_err(|e| format!("poller: {e}"))?;
    let mut events = Events::with_capacity(EVENTS_PER_LOOP);
    let mut tenants: Vec<Tenant> = Vec::with_capacity(args.tenants);
    let mut timers: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    let mut stats = Stats::default();

    let start = Instant::now();
    let interarrival = args.rate.filter(|r| *r > 0.0).map_or(0.0, |r| 1.0 / r);
    let ramp = Duration::from_secs_f64(interarrival * args.tenants as f64);
    let deadline = args.hold_s.map(|h| start + ramp + Duration::from_secs_f64(h.max(0.0)));
    let mut next_arrival = 0usize;
    let mut next_stall_check = start + STALL_LIMIT;

    loop {
        let now = Instant::now();
        if let Some(d) = deadline {
            if now >= d {
                break;
            }
        } else if next_arrival == args.tenants {
            // Without a hold, run until every tenant has settled. A
            // wedged request never settles, so once a second the wait
            // also ends when everything else has settled (and the
            // census below fails the run).
            if stats.connect_failures + stats.settled == args.tenants {
                break;
            }
            if now >= next_stall_check {
                next_stall_check = now + Duration::from_secs(1);
                if tenants.iter().all(|t| t.settled() || t.wedged()) {
                    break;
                }
            }
        }

        // Admit every tenant whose arrival time has come.
        while next_arrival < args.tenants
            && now >= start + Duration::from_secs_f64(interarrival * next_arrival as f64)
        {
            let i = next_arrival;
            next_arrival += 1;
            let wl = i % ALL_WORKLOADS.len();
            let seed = args.seed + i as u64;
            let mut job =
                SparkJob::new((*space).clone(), ALL_WORKLOADS[wl], Dataset::D1, seed ^ 0x5eed);
            if args.faults != FaultProfile::None {
                job = job.with_faults(FaultPlan::from_profile(args.faults, seed ^ 0xfa17));
            }
            let mut tenant = Tenant {
                stream: None,
                decoder: FrameDecoder::new(),
                outbuf: Vec::new(),
                cursor: 0,
                write_armed: false,
                phase: Phase::Dead,
                session: None,
                job,
                next_id: 0,
                sent_at: now,
                rng: args.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            match connect_with_retry(&args.addr) {
                None => stats.connect_failures += 1,
                Some(stream) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err()
                        || poll.register(&stream, Token(i), Interest::READABLE).is_err()
                    {
                        stats.connect_failures += 1;
                    } else {
                        tenant.stream = Some(stream);
                        tenant.phase = Phase::AwaitCreate;
                        tenant.next_id += 1;
                        let frame =
                            frame_create(tenant.next_id, &format!("wl-{wl}"), seed, args.budget);
                        tenant.send(&frame, &mut stats);
                    }
                }
            }
            tenants.push(tenant);
        }

        // Fire due suggest timers.
        while let Some(&Reverse((due, i))) = timers.peek() {
            if due > now {
                break;
            }
            timers.pop();
            let t = &mut tenants[i];
            if t.phase == Phase::Idle {
                if let Some(session) = t.session.clone() {
                    t.next_id += 1;
                    t.phase = Phase::AwaitSuggest;
                    let frame = frame_suggest(t.next_id, &session);
                    t.send(&frame, &mut stats);
                }
            }
        }

        // Sleep until the next arrival, the next timer, or a tick.
        let mut timeout = Duration::from_millis(100);
        if let Some(d) = deadline {
            timeout = timeout.min(d.saturating_duration_since(now));
        }
        if next_arrival < args.tenants {
            let due = start + Duration::from_secs_f64(interarrival * next_arrival as f64);
            timeout = timeout.min(due.saturating_duration_since(now));
        }
        if let Some(&Reverse((due, _))) = timers.peek() {
            timeout = timeout.min(due.saturating_duration_since(now));
        }
        poll.poll(&mut events, Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| format!("poll: {e}"))?;

        for event in &events {
            let Token(i) = event.token();
            let Some(t) = tenants.get_mut(i) else { continue };
            if t.phase == Phase::Dead {
                continue;
            }
            if event.is_writable() && t.pending_out() > 0 {
                t.flush(&mut stats);
            }
            if event.is_readable() {
                drive_reads(t, i, &space, args, &mut stats, &mut timers);
            }
            // Re-arm write interest only while a partial frame is stuck.
            let want_write = t.pending_out() > 0;
            if want_write != t.write_armed {
                if let Some(stream) = t.stream.as_ref() {
                    let interest = if want_write {
                        Interest::READABLE | Interest::WRITABLE
                    } else {
                        Interest::READABLE
                    };
                    if poll.reregister(stream, Token(i), interest).is_ok() {
                        t.write_armed = want_write;
                    }
                }
            }
        }
    }

    // Teardown census: anything still awaiting a response past the
    // server's own timeout is wedged; shorter waits are just in flight.
    stats.wedged = tenants.iter().filter(|t| t.wedged()).count();
    let wall_s = start.elapsed().as_secs_f64();
    drop(tenants); // close every simulated tenant's socket

    // The server's own ledger, over a fresh blocking connection.
    let health = TuningClient::connect(args.addr.as_str())
        .and_then(|mut c| c.health())
        .map_err(|e| format!("health after run: {e}"))?;

    let mut failures = Vec::new();
    let admitted = args.tenants - stats.connect_failures;
    if stats.connect_failures > 0 {
        failures.push(format!("{} tenants failed to connect", stats.connect_failures));
    }
    if stats.dropped > 0 {
        failures.push(format!("{} connections dropped by the server", stats.dropped));
    }
    if stats.wedged > 0 {
        failures.push(format!("{} requests wedged past {STALL_LIMIT:?}", stats.wedged));
    }
    if stats.overloaded > 0 {
        failures.push(format!(
            "{} sessions refused as overloaded (raise serve --workers + --queue above --tenants)",
            stats.overloaded
        ));
    }
    if stats.protocol_errors > 0 {
        failures.push(format!("{} tenants hit protocol errors", stats.protocol_errors));
    }
    if stats.created < admitted {
        failures.push(format!(
            "only {} of {admitted} connected tenants completed create_session",
            stats.created
        ));
    }
    if args.hold_s.is_none() && stats.finished < stats.created {
        failures.push(format!(
            "only {} of {} created sessions finished",
            stats.finished, stats.created
        ));
    }
    if args.expect_warm && stats.cache_hits == 0 {
        failures.push("--expect-warm set but no session hit the selection cache".into());
    }
    let assert_slo = |failures: &mut Vec<String>, verb: &str, cap_ms: f64| {
        let w = &health["slo"][verb];
        match (w["count"].as_u64().unwrap_or(0), w["p99_ms"].as_f64()) {
            (0, _) | (_, None) => {
                failures.push(format!("SLO window for {verb} is empty — nothing to assert"));
            }
            (_, Some(p99)) if p99 > cap_ms => {
                failures.push(format!("{verb} p99 {p99:.2}ms exceeds the {cap_ms:.2}ms SLO"));
            }
            _ => {}
        }
    };
    if let Some(cap) = args.slo_suggest_p99_ms {
        assert_slo(&mut failures, "suggest", cap);
    }
    if let Some(cap) = args.slo_observe_p99_ms {
        assert_slo(&mut failures, "observe", cap);
    }

    if args.shutdown {
        TuningClient::connect(args.addr.as_str())
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    let arrivals = match args.rate {
        Some(rate) => format!("at {rate}/s ({:.1}s ramp)", ramp.as_secs_f64()),
        None => "all at once".into(),
    };
    let hold = match args.hold_s {
        Some(h) => format!("{h:.1}s hold"),
        None => "until finished".into(),
    };
    Ok(LoadgenReport {
        args_summary: format!(
            "{} tenants {arrivals}, {hold}, budget {}, faults {}, poll {}ms, seed {}",
            args.tenants,
            args.budget,
            args.faults.name(),
            args.poll_ms,
            args.seed
        ),
        stats,
        wall_s,
        health: Some(health),
        failures,
    })
}

/// Reads everything available for one tenant and advances its state
/// machine per response.
fn drive_reads(
    t: &mut Tenant,
    i: usize,
    space: &ConfigSpace,
    args: &LoadgenArgs,
    stats: &mut Stats,
    timers: &mut BinaryHeap<Reverse<(Instant, usize)>>,
) {
    let mut scratch = [0u8; READ_CHUNK];
    let mut frames = Vec::new();
    let mut eof = false;
    {
        let Some(stream) = t.stream.as_ref() else { return };
        loop {
            match (&*stream).read(&mut scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => t.decoder.push(&scratch[..n], &mut frames),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
    }
    for frame in frames {
        let DecodedFrame::Line(bytes) = frame else { continue };
        let Ok(text) = String::from_utf8(bytes) else {
            stats.protocol_errors += 1;
            t.retire(stats);
            return;
        };
        let Ok(v): Result<Value, _> = serde_json::from_str(&text) else {
            stats.protocol_errors += 1;
            t.retire(stats);
            return;
        };
        stats.responses += 1;
        let rtt_ms = t.sent_at.elapsed().as_secs_f64() * 1e3;
        step(t, i, v, rtt_ms, space, args, stats, timers);
        if t.settled() {
            break;
        }
    }
    if eof {
        t.die_dropped(stats);
    }
}

/// One response → the tenant's next move.
#[allow(clippy::too_many_arguments)]
fn step(
    t: &mut Tenant,
    i: usize,
    v: Value,
    rtt_ms: f64,
    space: &ConfigSpace,
    args: &LoadgenArgs,
    stats: &mut Stats,
    timers: &mut BinaryHeap<Reverse<(Instant, usize)>>,
) {
    let ok = v["ok"].as_bool() == Some(true);
    let code = v["error"]["code"].as_str().unwrap_or("");
    match t.phase {
        Phase::AwaitCreate => {
            stats.create_rtt_ms.push(rtt_ms);
            if ok {
                if let Some(sid) = v["session"].as_str() {
                    t.session = Some(sid.to_string());
                    stats.created += 1;
                    stats.open_now += 1;
                    stats.peak_open = stats.peak_open.max(stats.open_now);
                    // First suggest goes out immediately; it waits
                    // for the session's first step.
                    t.next_id += 1;
                    t.phase = Phase::AwaitSuggest;
                    let frame = frame_suggest(t.next_id, sid.to_string().as_str());
                    t.send(&frame, stats);
                    return;
                }
            }
            if code == "overloaded" {
                stats.overloaded += 1;
            } else {
                stats.protocol_errors += 1;
            }
            t.retire(stats);
        }
        Phase::AwaitSuggest => {
            stats.suggest_rtt_ms.push(rtt_ms);
            if !ok {
                if code == "timeout" {
                    // Retryable by contract: back off and poll again.
                    t.phase = Phase::Idle;
                    let delay = t.jittered_poll(args.poll_ms);
                    timers.push(Reverse((Instant::now() + delay, i)));
                } else {
                    stats.protocol_errors += 1;
                    t.retire(stats);
                }
                return;
            }
            match v["type"].as_str() {
                Some("queued") => {
                    stats.queued_polls += 1;
                    t.phase = Phase::Idle;
                    let delay = t.jittered_poll(args.poll_ms);
                    timers.push(Reverse((Instant::now() + delay, i)));
                }
                Some("config") => {
                    let (Some(index), Some(cap_s)) =
                        (v["index"].as_u64(), v["cap_s"].as_f64())
                    else {
                        stats.protocol_errors += 1;
                        t.retire(stats);
                        return;
                    };
                    let Ok(config) = config_from_wire(space, &v["config"]) else {
                        stats.protocol_errors += 1;
                        t.retire(stats);
                        return;
                    };
                    let Some(session) = t.session.clone() else {
                        t.retire(stats);
                        return;
                    };
                    // The evaluation is the simulated Spark run — fast
                    // enough to do inline on the multiplexer thread.
                    let eval = t.job.evaluate(&config, cap_s);
                    let status = ObservedStatus::of(&eval);
                    t.next_id += 1;
                    t.phase = Phase::AwaitObserve;
                    let frame = frame_observe(
                        t.next_id,
                        &session,
                        index,
                        eval.time_s,
                        status.as_str(),
                    );
                    t.send(&frame, stats);
                }
                Some("finished") => {
                    stats.finished += 1;
                    stats.settled += 1;
                    stats.cache_hits += usize::from(v["cache_hit"].as_bool() == Some(true));
                    stats.warm_starts += usize::from(v["warm_start"].as_bool() == Some(true));
                    stats.open_now -= 1;
                    t.phase = Phase::Done;
                }
                _ => {
                    stats.protocol_errors += 1;
                    t.retire(stats);
                }
            }
        }
        Phase::AwaitObserve => {
            stats.observe_rtt_ms.push(rtt_ms);
            if !ok {
                stats.protocol_errors += 1;
                t.retire(stats);
                return;
            }
            stats.evals += 1;
            if let Some(session) = t.session.clone() {
                // Straight back to suggest: the next ask needs GP
                // compute, so this is the request that exercises the
                // real suggest path in the SLO window.
                t.next_id += 1;
                t.phase = Phase::AwaitSuggest;
                let frame = frame_suggest(t.next_id, &session);
                t.send(&frame, stats);
            }
        }
        Phase::Idle | Phase::Done | Phase::Dead => {
            // Unsolicited frame: the server never pushes, so this is a
            // protocol violation.
            stats.protocol_errors += 1;
            t.retire(stats);
        }
    }
}

/// Entry point for `experiments loadgen`; returns the exit code.
pub fn loadgen_main(rest: &[String]) -> i32 {
    let args = parse_loadgen_args(rest);
    match run_loadgen(&args) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = &args.json_path {
                let text = serde_json::to_string(&report.to_json())
                    .unwrap_or_else(|e| format!("{{\"error\":\"render: {e}\"}}"));
                if let Err(e) = std::fs::write(path, text + "\n") {
                    eprintln!("loadgen: write {}: {e}", path.display());
                    return 1;
                }
                println!("wrote {}", path.display());
            }
            i32::from(!report.failures.is_empty())
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            1
        }
    }
}
