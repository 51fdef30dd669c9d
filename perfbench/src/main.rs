//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune-paper|serve-bo|serve-slow> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end list [`END_TO_END`]; with
//! `--trace 1` they are the per-layer list [`PER_LAYER`], measured by a
//! separate traced run that records spans around the benchmark's own
//! calls into each layer. A layer the workload does not drive reports 0.
//! Exits 2 on bad arguments. See `perfbench/README.md` for the workloads
//! and for which end-to-end metric each layer metric should move.

mod probes;
mod report;
mod serve;
mod tenant;
mod trace;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

use report::{Metrics, Outcome};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tune_wall_s", "s"),
    ("best_runtime_geomean_s", "s"),
    ("suggest_ms_p50", "ms"),
    ("completed_sessions_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. The
/// `quality.*` and `latency.*` entries are end-to-end quantities too
/// seed- or host-sensitive on this benchmark's run length to carry a
/// regression bound; they are reported here, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("quality.cost_to_5pct_s", "s"),
    ("latency.suggest_ms.p95", "ms"),
    ("latency.suggest_ms.p99", "ms"),
    ("latency.first_ask_ms.p50", "ms"),
    ("latency.first_ask_ms.p90", "ms"),
    ("latency.first_ask_ms.p99", "ms"),
    ("gp.refit_ms.p50", "ms"),
    ("gp.refit_ms.p99", "ms"),
    ("gp.refit_ms.total", "ms"),
    ("bo.acq_ms.p50", "ms"),
    ("bo.acq_ms.p99", "ms"),
    ("bo.acq_ms.total", "ms"),
    ("select.samples_ms", "ms"),
    ("select.forest_ms", "ms"),
    ("sampling.design_ms", "ms"),
    ("core.evaluate_us.p50", "us"),
    ("core.evaluate_us.total", "us"),
    ("sparksim.eval_us.p50", "us"),
    ("sparksim.eval_us.total", "us"),
    ("sparksim.evals", "count"),
    ("memo.read_us", "us"),
    ("memo.write_us", "us"),
    ("memo.hit_ratio", "ratio"),
    ("tune.unattributed_ms", "ms"),
    ("tune.traced_wall_ms", "ms"),
    ("service.handle_ms.create_session.p50", "ms"),
    ("service.handle_ms.create_session.p99", "ms"),
    ("service.handle_ms.suggest.p50", "ms"),
    ("service.handle_ms.suggest.p99", "ms"),
    ("service.handle_ms.observe.p50", "ms"),
    ("service.handle_ms.observe.p99", "ms"),
    ("service.wire_ms.create_session", "ms"),
    ("service.wire_ms.suggest", "ms"),
    ("service.wire_ms.observe", "ms"),
    ("service.observe_ms.p50", "ms"),
    ("service.observe_ms.p99", "ms"),
    ("service.queued_ratio", "ratio"),
    ("service.queue_depth.p50", "count"),
    ("service.queue_depth.max", "count"),
    ("store.read_us.p50", "us"),
    ("store.write_us.p50", "us"),
    ("store.write_us.p99", "us"),
    ("store.writes", "count"),
    ("loadgen.lag_ms.p99", "ms"),
    ("req.warmup.attempted", "count"),
    ("req.warmup.failed", "count"),
    ("req.run.create_session.attempted", "count"),
    ("req.run.create_session.failed", "count"),
    ("req.run.suggest.attempted", "count"),
    ("req.run.suggest.failed", "count"),
    ("req.run.observe.attempted", "count"),
    ("req.run.observe.failed", "count"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where traces and scratch stores go: under the build directory, inside
/// the checkout.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("perfbench")
}

/// Writes a traced run's spans next to the build output.
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let path = work_dir().join(format!("trace-{workload}.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Keeps exactly the metrics of `list`, in its order, with its units; a
/// layer the workload does not drive reports 0.
fn select(
    metrics: &Metrics,
    list: &[(&str, &'static str)],
    zero_ok: bool,
    o: &mut Vec<String>,
) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in list {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if zero_ok => 0.0,
            None => {
                o.push(format!("metric {name} was not measured"));
                f64::NAN
            }
        };
        out.put(name, value, unit);
    }
    out
}

static HOST_CPUS: OnceLock<usize> = OnceLock::new();

/// CPUs the process could use before it pinned itself (the `nproc` that
/// sizes the load generator's connections).
pub fn host_cpus() -> usize {
    *HOST_CPUS.get().unwrap_or(&1)
}

/// Pins the calling thread, and with it every thread spawned later, to the
/// first CPU it may run on.
///
/// On the 2-vCPU hosts the baseline comes from, the second vCPU lends
/// uneven throughput (it often shares a physical core): the same tuning set
/// took 17 s in one minute and 24 s a few minutes later, and two threads of
/// a fixed kernel ran 1.1× or 2× slower than one. Pinned, a run depends only
/// on one CPU's speed, so the parallel paths are not measured here.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // cpu_set_t layout glibc expects; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let first = (0..mask.len() * 64)
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("empty affinity mask")?;
    let mut one = [0u64; 16];
    one[first / 64] = 1 << (first % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<(), String> {
    Err("CPU pinning is only implemented on Linux".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    HOST_CPUS.get_or_init(|| cpus);
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("perfbench: running unpinned: {e}");
    }
    let mut outcome: Outcome = match args.workload.as_str() {
        "tune-paper" => tune::run(args.seed, args.seconds, args.trace),
        "serve-bo" => serve::run(&serve::SERVE_BO, args.seed, args.seconds, args.trace),
        "serve-slow" => serve::run(&serve::SERVE_SLOW, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (tune-paper, serve-bo, serve-slow)");
            return ExitCode::from(2);
        }
    };
    outcome
        .metrics
        .put("peak_rss_mb", report::peak_rss_mb(), "MiB");
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut errors = std::mem::take(&mut outcome.errors);
    outcome.metrics = select(&outcome.metrics, list, args.trace, &mut errors);
    outcome.errors = errors;
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", report::render(&outcome));
    ExitCode::SUCCESS
}
