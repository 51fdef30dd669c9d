//! Service benchmarking: the `experiments serve` daemon runner and the
//! `experiments loadgen` multi-tenant load generator.
//!
//! `serve` boots a `robotune-service` daemon on loopback (optionally
//! with a persistent store directory and a `--flight-dir` failure
//! flight recorder; scoped telemetry is on by default) and blocks until
//! a client sends the `shutdown` verb. `loadgen` connects N concurrent
//! simulated tenants — each drives a full ask/tell session against its
//! own simulated Spark job, optionally under `--faults` cluster chaos —
//! and reports throughput, client-side request-latency percentiles,
//! the *server's* per-tenant suggest/observe percentiles (from each
//! session's scoped metrics), and per-session accounting (warm-start
//! and selection-cache hits, which is how the CI smoke job proves the
//! store survived a restart).

use robotune::InMemoryMemoStore;
use robotune_service::client::drive_session;
use robotune_service::{
    serve, DriveReport, PersistentMemoStore, Profile, ServiceOptions, SessionManager, TuningClient,
};
use robotune_space::spark::spark_space;
use robotune_sparksim::{Dataset, FaultPlan, FaultProfile, SparkJob, ALL_WORKLOADS};
use robotune_stats::percentile;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::report::fatal;

/// Flags for `experiments serve`.
pub struct ServeArgs {
    /// Loopback port (0 = OS-assigned).
    pub port: u16,
    /// Persistent store directory; in-memory when absent.
    pub store: Option<PathBuf>,
    /// Compute workers that step sessions.
    pub workers: usize,
    /// Admission headroom: `overloaded` once `workers + queue` sessions
    /// are live.
    pub queue: usize,
    /// Reactor dispatch threads; `None` = workers + 8, which keeps
    /// cheap traffic (status, health) flowing even when `workers`
    /// dispatchers wait inside a `suggest` for a step.
    pub dispatch: Option<usize>,
    /// Failure flight-recorder directory; disabled when absent.
    pub flight_dir: Option<PathBuf>,
    /// Leave tracing off (per-session metrics and flight dumps will be
    /// empty; the `metrics`/`health` verbs still answer).
    pub no_telemetry: bool,
}

/// Flags for `experiments loadgen`.
pub struct LoadgenArgs {
    /// Daemon address.
    pub addr: String,
    /// Concurrent tenants.
    pub tenants: usize,
    /// Per-session BO budget.
    pub budget: usize,
    /// Base RNG seed (tenant i uses `seed + i`).
    pub seed: u64,
    /// Send `shutdown` once every tenant finishes.
    pub shutdown: bool,
    /// Exit non-zero unless at least one session hit the selection
    /// cache (the post-restart warm-start assertion).
    pub expect_warm: bool,
    /// Fault profile injected into every tenant's simulated cluster.
    pub faults: FaultProfile,
}

fn take_value(flag: &str, v: Option<&String>) -> String {
    v.cloned().unwrap_or_else(|| fatal(format!("{flag} requires a value")))
}

/// Parses `experiments serve` flags.
pub fn parse_serve_args(rest: &[String]) -> ServeArgs {
    let mut args = ServeArgs {
        port: 7651,
        store: None,
        workers: 4,
        queue: 64,
        dispatch: None,
        flight_dir: None,
        no_telemetry: false,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                args.port = take_value("--port N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--port: {e}")));
            }
            "--store" => args.store = Some(PathBuf::from(take_value("--store DIR", it.next()))),
            "--workers" => {
                args.workers = take_value("--workers N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--workers: {e}")));
            }
            "--queue" => {
                args.queue = take_value("--queue N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--queue: {e}")));
            }
            "--dispatch" => {
                args.dispatch = Some(
                    take_value("--dispatch N", it.next())
                        .parse()
                        .unwrap_or_else(|e| fatal(format!("--dispatch: {e}"))),
                );
            }
            "--flight-dir" => {
                args.flight_dir = Some(PathBuf::from(take_value("--flight-dir DIR", it.next())));
            }
            "--no-telemetry" => args.no_telemetry = true,
            other => fatal(format!("serve: unknown flag {other}")),
        }
    }
    args
}

/// Parses `experiments loadgen` flags.
pub fn parse_loadgen_args(rest: &[String]) -> LoadgenArgs {
    let mut args = LoadgenArgs {
        addr: "127.0.0.1:7651".to_string(),
        tenants: 8,
        budget: 6,
        seed: 9000,
        shutdown: false,
        expect_warm: false,
        faults: FaultProfile::None,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = take_value("--addr HOST:PORT", it.next()),
            "--tenants" => {
                args.tenants = take_value("--tenants N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--tenants: {e}")));
            }
            "--budget" => {
                args.budget = take_value("--budget N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--budget: {e}")));
            }
            "--seed" => {
                args.seed = take_value("--seed N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--seed: {e}")));
            }
            "--shutdown" => args.shutdown = true,
            "--expect-warm" => args.expect_warm = true,
            "--faults" => {
                args.faults = take_value("--faults <none|transient|hostile>", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(e));
            }
            other => fatal(format!("loadgen: unknown flag {other}")),
        }
    }
    args
}

/// Boots the daemon and serves until a `shutdown` verb drains it.
/// Returns the process exit code.
pub fn serve_main(rest: &[String]) -> i32 {
    let args = parse_serve_args(rest);
    // Scoped telemetry is bit-transparent and within the 2% overhead
    // budget, so the daemon runs with it on by default: per-session
    // `metrics` views and flight-recorder dumps need the event stream.
    if args.no_telemetry {
        eprintln!("telemetry: disabled (--no-telemetry)");
    } else {
        robotune_obs::enable_null();
        eprintln!("telemetry: enabled (null sink; per-session scopes live)");
    }
    let store = match &args.store {
        Some(dir) => match PersistentMemoStore::open(dir) {
            Ok(s) => {
                eprintln!("store: {} (persistent)", dir.display());
                s.into_shared()
            }
            Err(e) => fatal(format!("--store {}: {e}", dir.display())),
        },
        None => InMemoryMemoStore::new().into_shared(),
    };
    if let Some(dir) = &args.flight_dir {
        eprintln!("flight recorder: {}", dir.display());
    }
    let manager = SessionManager::new(
        ServiceOptions {
            workers: args.workers,
            queue_capacity: args.queue,
            flight_dir: args.flight_dir.clone(),
            dispatch_workers: args.dispatch.unwrap_or(args.workers + 8),
            ..ServiceOptions::default()
        },
        store,
    );
    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => fatal(format!("bind 127.0.0.1:{}: {e}", args.port)),
    };
    match listener.local_addr() {
        Ok(addr) => println!("robotune-service listening on {addr}"),
        Err(e) => fatal(format!("local_addr: {e}")),
    }
    match serve(listener, &manager) {
        Ok(()) => {
            println!("drained and checkpointed; bye");
            0
        }
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

/// Server-side request-latency percentiles for one session, read from
/// its scoped metrics (the `service.req_ns.*` histograms) after the
/// drive finishes. `None` when the daemon runs with telemetry off.
#[derive(Debug, Clone, Copy)]
pub struct ServerLatencies {
    /// Server-side `suggest` handling p50, milliseconds.
    pub suggest_p50_ms: f64,
    /// Server-side `suggest` handling p99, milliseconds.
    pub suggest_p99_ms: f64,
    /// Server-side `observe` handling p50, milliseconds.
    pub observe_p50_ms: f64,
    /// Server-side `observe` handling p99, milliseconds.
    pub observe_p99_ms: f64,
}

/// One tenant's outcome: the client-side drive report plus the server's
/// own view of the same session.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// What the client measured.
    pub drive: DriveReport,
    /// What the server measured for this session, when telemetry is on.
    pub server: Option<ServerLatencies>,
}

/// Pulls p50/p99 (in ms) of one `service.req_ns.*` histogram out of a
/// session-scoped `metrics` frame.
fn req_percentiles(metrics: &serde_json::Value, name: &str) -> Option<(f64, f64)> {
    let h = metrics.get("hists")?.get(name)?;
    if h.get("count")?.as_u64()? == 0 {
        return None;
    }
    Some((h.get("p50")?.as_f64()? / 1e6, h.get("p99")?.as_f64()? / 1e6))
}

fn server_latencies(metrics: &serde_json::Value) -> Option<ServerLatencies> {
    let (suggest_p50_ms, suggest_p99_ms) = req_percentiles(metrics, "service.req_ns.suggest")?;
    let (observe_p50_ms, observe_p99_ms) =
        req_percentiles(metrics, "service.req_ns.observe").unwrap_or((f64::NAN, f64::NAN));
    Some(ServerLatencies { suggest_p50_ms, suggest_p99_ms, observe_p50_ms, observe_p99_ms })
}

/// Aggregates one load-generation run.
pub struct LoadgenReport {
    /// Per-tenant reports.
    pub reports: Vec<TenantReport>,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_s: f64,
}

impl LoadgenReport {
    /// Sessions whose parameter selection came from the shared cache.
    pub fn warm_hits(&self) -> usize {
        self.reports.iter().filter(|r| r.drive.cache_hit).count()
    }

    /// Renders the markdown summary table.
    pub fn render(&self) -> String {
        let mut suggests: Vec<f64> = Vec::new();
        let mut observes: Vec<f64> = Vec::new();
        let mut requests = 0usize;
        for t in &self.reports {
            let r = &t.drive;
            suggests.extend(r.suggest_latencies_s.iter().map(|s| s * 1e3));
            observes.extend(r.observe_latencies_s.iter().map(|s| s * 1e3));
            // +2: create_session and the final finished-suggest.
            requests += r.suggest_latencies_s.len() + r.observe_latencies_s.len() + 2;
        }
        let throughput = requests as f64 / self.wall_s.max(1e-9);
        // `percentile` already returns NaN on an empty (or all-NaN)
        // slice, which renders as the table's "no data" marker.
        let mut md = String::from("## Service load generation\n\n");
        md.push_str(&format!(
            "{} tenants, {} requests in {:.2}s — {:.0} req/s\n\n",
            self.reports.len(),
            requests,
            self.wall_s,
            throughput
        ));
        md.push_str("| metric | p50 | p90 | p99 |\n|---|---|---|---|\n");
        md.push_str(&format!(
            "| suggest latency (ms) | {:.2} | {:.2} | {:.2} |\n",
            percentile(&suggests, 50.0),
            percentile(&suggests, 90.0),
            percentile(&suggests, 99.0)
        ));
        md.push_str(&format!(
            "| observe latency (ms) | {:.2} | {:.2} | {:.2} |\n\n",
            percentile(&observes, 50.0),
            percentile(&observes, 90.0),
            percentile(&observes, 99.0)
        ));
        md.push_str(
            "| session | workload | evals | best (s) | selection | initial design | server suggest p50/p99 (ms) | server observe p50/p99 (ms) |\n|---|---|---|---|---|---|---|---|\n",
        );
        let pair = |p50: f64, p99: f64| {
            if p50.is_nan() {
                "—".to_string()
            } else {
                format!("{p50:.2} / {p99:.2}")
            }
        };
        for (tenant, t) in self.reports.iter().enumerate() {
            let r = &t.drive;
            let (srv_suggest, srv_observe) = match &t.server {
                Some(s) => (
                    pair(s.suggest_p50_ms, s.suggest_p99_ms),
                    pair(s.observe_p50_ms, s.observe_p99_ms),
                ),
                None => ("—".to_string(), "—".to_string()),
            };
            md.push_str(&format!(
                "| {} | wl-{} | {} | {} | {} | {} | {} | {} |\n",
                r.session,
                tenant % ALL_WORKLOADS.len(),
                r.evals_recorded,
                r.best_time_s.map_or("—".to_string(), |b| format!("{b:.1}")),
                if r.cache_hit { "cache hit" } else { "cold" },
                if r.warm_start { "memoized" } else { "LHS" },
                srv_suggest,
                srv_observe,
            ));
        }
        md.push_str(&format!(
            "\nwarm sessions: {} of {}\n",
            self.warm_hits(),
            self.reports.len()
        ));
        md
    }
}

/// Runs `tenants` concurrent simulated tenants against a live daemon.
///
/// Tenant `i` tunes workload `ALL_WORKLOADS[i % 5]` under the memo key
/// `wl-<i%5>`, so repeated runs against a persistent store exercise the
/// selection cache and memoized warm starts.
pub fn run_loadgen(args: &LoadgenArgs) -> Result<LoadgenReport, String> {
    let space = Arc::new(spark_space());
    let started = Instant::now();
    let mut slots: Vec<Option<Result<TenantReport, String>>> = Vec::new();
    slots.resize_with(args.tenants, || None);
    std::thread::scope(|scope| {
        for (tenant, slot) in slots.iter_mut().enumerate() {
            let space = space.clone();
            let addr = args.addr.clone();
            let budget = args.budget;
            let seed = args.seed + tenant as u64;
            let faults = args.faults;
            scope.spawn(move || {
                let workload = ALL_WORKLOADS[tenant % ALL_WORKLOADS.len()];
                let key = format!("wl-{}", tenant % ALL_WORKLOADS.len());
                let mut job =
                    SparkJob::new((*space).clone(), workload, Dataset::D1, seed ^ 0x5eed);
                if faults != FaultProfile::None {
                    job = job.with_faults(FaultPlan::from_profile(faults, seed ^ 0xfa17));
                }
                *slot = Some(
                    TuningClient::connect(addr.as_str())
                        .map_err(|e| format!("tenant {tenant}: connect: {e}"))
                        .and_then(|mut client| {
                            let drive = drive_session(
                                &mut client,
                                &space,
                                &mut job,
                                &key,
                                seed,
                                budget,
                                Profile::Fast,
                            )
                            .map_err(|e| format!("tenant {tenant}: {e}"))?;
                            // The server's own latency ledger for this
                            // session; best-effort (older daemons and
                            // telemetry-off runs answer without hists).
                            let server = client
                                .session_metrics(&drive.session)
                                .ok()
                                .as_ref()
                                .and_then(server_latencies);
                            Ok(TenantReport { drive, server })
                        }),
                );
            });
        }
    });
    let mut reports = Vec::with_capacity(args.tenants);
    for slot in slots {
        reports.push(slot.ok_or("tenant thread vanished")??);
    }
    Ok(LoadgenReport { reports, wall_s: started.elapsed().as_secs_f64() })
}

/// Entry point for `experiments loadgen`. Returns the exit code.
///
/// `--open-loop` switches to the single-threaded open-loop multiplexer
/// in [`crate::openloop`] (10k+ tenants, arrival rates, server-side SLO
/// assertions); everything else runs the closed-loop thread-per-tenant
/// driver below.
pub fn loadgen_main(rest: &[String]) -> i32 {
    if rest.iter().any(|a| a == "--open-loop") {
        let filtered: Vec<String> =
            rest.iter().filter(|a| a.as_str() != "--open-loop").cloned().collect();
        return crate::openloop::open_loop_main(&filtered);
    }
    let args = parse_loadgen_args(rest);
    let report = match run_loadgen(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return 1;
        }
    };
    print!("{}", report.render());
    let mut code = 0;
    if args.expect_warm && report.warm_hits() == 0 {
        eprintln!("loadgen: --expect-warm set but no session hit the selection cache");
        code = 1;
    }
    if args.shutdown {
        match TuningClient::connect(args.addr.as_str()).and_then(|mut c| c.shutdown()) {
            Ok(()) => println!("sent shutdown; daemon is draining"),
            Err(e) => {
                eprintln!("loadgen: shutdown: {e}");
                code = 1;
            }
        }
    }
    code
}
