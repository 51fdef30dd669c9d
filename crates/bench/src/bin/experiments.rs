//! Experiment driver: one subcommand per paper table/figure.
//!
//! ```text
//! experiments <cmd> [--reps N] [--budget N] [--out DIR] [--trace FILE]
//!                   [--profile FILE]
//!
//!   fig2       model-comparison CV R² (Fig. 2)
//!   fig3       best-config execution time vs baselines (Fig. 3)
//!   fig4       search cost vs baselines (Fig. 4)
//!   fig5       evaluation-time distributions (Fig. 5)
//!   fig6       best-so-far curves, cold vs memoized (Fig. 6)
//!   fig7       selection recall vs sample count (Fig. 7)
//!   fig8       cores-vs-memory sampling scatter (Fig. 8)
//!   fig9       GP response-surface snapshots (Fig. 9)
//!   tab2       iterations-to-within-x% (Table 2)
//!   default    tuned vs Spark factory default (§5.2)
//!   ablation   all five design-choice ablations
//!   chaos      resilience report under fault injection
//!   mf         multi-fidelity cost-to-within-5% vs ROBOTune and RS
//!   all        everything above + regenerate EXPERIMENTS.md fodder
//!
//! experiments bench   [--quick] [--reps N] [--out DIR] [--campaign NAME]
//!                     [--check --baseline FILE [--manifest FILE]]
//!                     [--validate FILE] [--tolerance PCT]
//! experiments serve   [--port N] [--store DIR] [--workers N] [--queue N]
//!                     [--flight-dir DIR] [--no-telemetry]
//! experiments loadgen [--addr HOST:PORT] [--tenants N] [--rate R]
//!                     [--hold S] [--budget N] [--poll-ms N] [--seed N]
//!                     [--faults none|transient|hostile] [--expect-warm]
//!                     [--slo-suggest-p99-ms MS] [--slo-observe-p99-ms MS]
//!                     [--shutdown] [--json PATH]
//! experiments top     [--addr HOST:PORT] [--interval-ms N] [--once]
//! experiments doctor  [--addr HOST:PORT] [--session ID]... [--json]
//!                     [--expect RULE]... [--slo-ms MS]
//! experiments store   <inspect|verify|compact> --dir PATH
//! experiments flightcheck <flight.jsonl>...
//! ```
//!
//! `experiments doctor` fetches each session's `diagnose` payload plus
//! the server `health` frame and runs the rule-based tuner-health
//! detectors (stalled convergence, ill-conditioned kernels, fallback
//! storms, lengthscale collapse, WAL lag, SLO burn); `--expect RULE`
//! makes the run an assertion that the named rule fired, and
//! `--slo-ms MS` sets the suggest-p99 target the `slo_burn` rule
//! checks against (default 1000).
//!
//! Every grid-backed command accepts `--faults <none|transient|hostile>`
//! to run the whole evaluation under deterministic cluster fault
//! injection (same schedule for every tuner in a cell).
//!
//! `--trace FILE` streams raw events as JSONL; `--profile FILE` buffers
//! the same span stream and writes Chrome trace-event JSON (load it in
//! Perfetto or `chrome://tracing`) plus a per-span self-time breakdown.
//! The two compose: pass both and the event stream is teed.
//!
//! `experiments bench` runs the calibrated perf campaigns and writes a
//! versioned `BENCH_<campaign>.json` manifest; see `crates/bench/src/campaign.rs`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;
use std::sync::Arc;

use robotune_bench::exp::{ablation, defaults, fig2, fig5, fig6, fig7, fig8, fig9, tab2, GridResults};
use robotune_bench::report::{fatal, write_results};
use robotune_bench::{run_baseline, run_robotune_sequence, TunerKind};
use robotune_sparksim::{Dataset, FaultProfile, Workload};

struct Args {
    reps: usize,
    budget: usize,
    out: PathBuf,
    trace: Option<PathBuf>,
    profile: Option<PathBuf>,
    faults: FaultProfile,
}

fn parse_args(rest: &[String]) -> Args {
    let mut args = Args {
        reps: 5,
        budget: 100,
        out: PathBuf::from("results"),
        trace: None,
        profile: None,
        faults: FaultProfile::None,
    };
    let mut it = rest.iter();
    let value = |flag: &str, v: Option<&String>| -> String {
        v.cloned().unwrap_or_else(|| fatal(format!("{flag} requires a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                args.reps = value("--reps N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--reps: {e}")));
            }
            "--budget" => {
                args.budget = value("--budget N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--budget: {e}")));
            }
            "--out" => args.out = PathBuf::from(value("--out DIR", it.next())),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace FILE", it.next()))),
            "--profile" => {
                args.profile = Some(PathBuf::from(value("--profile FILE", it.next())));
            }
            "--faults" => {
                let p = value("--faults <none|transient|hostile>", it.next());
                args.faults = p.parse().unwrap_or_else(|e| fatal(e));
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or("help");

    // The service subcommands take their own flags; hand them off
    // before the experiment-grid parser sees (and rejects) them.
    let rest = argv.get(1..).unwrap_or(&[]);
    match cmd {
        "bench" => std::process::exit(robotune_bench::campaign::bench_main(rest)),
        "serve" => std::process::exit(robotune_bench::serve::serve_main(rest)),
        "loadgen" => std::process::exit(robotune_bench::loadgen::loadgen_main(rest)),
        "top" => std::process::exit(robotune_bench::introspect::top_main(rest)),
        "doctor" => std::process::exit(robotune_bench::doctor::doctor_main(rest)),
        "store" => std::process::exit(robotune_bench::storecmd::store_main(rest)),
        "flightcheck" => std::process::exit(robotune_bench::introspect::flightcheck_main(rest)),
        _ => {}
    }

    let args = parse_args(rest);

    // `--trace` streams JSONL; `--profile` buffers for the Chrome trace
    // export. Both at once tee the event stream to the two sinks.
    let profile_sink =
        args.profile.as_ref().map(|_| Arc::new(robotune_obs::ChromeTraceSink::default()));
    let mut sinks: Vec<Arc<dyn robotune_obs::EventSink>> = Vec::new();
    if let Some(path) = &args.trace {
        match robotune_obs::JsonlSink::create(path) {
            Ok(s) => sinks.push(Arc::new(s)),
            Err(e) => fatal(format!("--trace {}: {e}", path.display())),
        }
        eprintln!("tracing to {}", path.display());
    }
    if let Some(sink) = &profile_sink {
        sinks.push(sink.clone());
    }
    match sinks.len() {
        0 => {}
        1 => robotune_obs::enable(sinks.remove(0)),
        _ => robotune_obs::enable(Arc::new(robotune_obs::TeeSink::new(sinks))),
    }

    dispatch(cmd, &args);

    if args.trace.is_some() || args.profile.is_some() {
        robotune_obs::flush();
        eprint!("{}", robotune_obs::Report::from_global().render());
        if let (Some(path), Some(sink)) = (&args.profile, &profile_sink) {
            eprint!("{}", sink.render_self_time());
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    fatal(format!("--profile {}: {e}", path.display()));
                }
            }
            if let Err(e) = sink.write_to(path) {
                fatal(format!("--profile {}: {e}", path.display()));
            }
            eprintln!(
                "profile written to {} — load it in Perfetto (ui.perfetto.dev) or chrome://tracing",
                path.display()
            );
        }
        robotune_obs::disable();
    }
}

fn dispatch(cmd: &str, args: &Args) {
    match cmd {
        "fig2" => emit(args, "fig2", fig2::run()),
        "fig3" | "fig4" | "fig5" | "fig6" | "tab2" | "fig8" => {
            let grid = run_grid(args);
            grid_outputs(cmd, args, &grid);
        }
        "fig7" => emit(args, "fig7", fig7::run(5)),
        "fig9" => {
            let (md, csvs) = fig9::run();
            print!("{md}");
            write_results(&args.out, "fig9", &md, None);
            for (name, csv) in csvs {
                write_csv(&args.out, &name, &csv);
            }
        }
        "default" => emit(args, "default", defaults::run(args.budget)),
        "extras" => {
            let md = run_extras(args);
            print!("{md}");
            write_results(&args.out, "extras", &md, None);
        }
        "ablation" => {
            let md = run_ablations(args);
            print!("{md}");
            write_results(&args.out, "ablation", &md, None);
        }
        "chaos" => {
            emit(args, "chaos", run_chaos(args));
        }
        "mf" => {
            use robotune_bench::exp::mf;
            emit(args, "mf", mf::run(args.reps, args.budget, args.faults));
        }
        "all" => run_all(args),
        "calibrate" => calibrate(),
        "debug-select" => debug_select(),
        "debug-dist" => debug_dist(),
        _ => {
            eprintln!(
                "usage: experiments <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|tab2|default|ablation|extras|chaos|mf|all> \
                 [--reps N] [--budget N] [--out DIR] [--trace FILE] [--profile FILE] [--faults none|transient|hostile]\n\
                 \x20      (extras is the early-stopping study: EarlyStop off vs on, KM-D1)\n\
                 \x20      experiments bench [--quick] [--reps N] [--out DIR] [--campaign NAME] [--check --baseline FILE [--manifest FILE]] [--validate FILE] [--tolerance PCT]\n\
                 \x20      experiments serve [--port N] [--store DIR] [--workers N] [--queue N] [--flight-dir DIR] [--no-telemetry]\n\
                 \x20      experiments loadgen [--addr HOST:PORT] [--tenants N] [--rate R] [--hold S] [--budget N] [--poll-ms N] [--seed N] [--faults none|transient|hostile] [--expect-warm] [--slo-suggest-p99-ms MS] [--slo-observe-p99-ms MS] [--shutdown] [--json PATH]\n\
                 \x20      experiments top [--addr HOST:PORT] [--interval-ms N] [--once]\n\
                 \x20      experiments store <inspect|verify|compact> --dir PATH\n\
                 \x20      experiments flightcheck <flight.jsonl>..."
            );
            std::process::exit(2);
        }
    }
}

fn emit(args: &Args, name: &str, (md, json): (String, serde_json::Value)) {
    print!("{md}");
    write_results(&args.out, name, &md, Some(&json));
}

/// Writes one CSV export next to the markdown results, aborting with a
/// diagnostic on I/O failure (the harness cannot continue without it).
fn write_csv(out: &std::path::Path, name: &str, csv: &str) {
    if let Err(e) = std::fs::create_dir_all(out) {
        fatal(format!("create {}: {e}", out.display()));
    }
    let path = out.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, csv) {
        fatal(format!("write {}: {e}", path.display()));
    }
}

fn run_grid(args: &Args) -> GridResults {
    eprintln!(
        "running the evaluation grid: 4 tuners x 5 workloads x 3 datasets x {} reps, budget {}, faults: {}",
        args.reps, args.budget, args.faults
    );
    GridResults::run_with_faults(args.reps, args.budget, args.faults)
}

/// Resilience report: the full tuner grid under each fault profile, with
/// the accounting a chaos drill needs — completion/kill/failure mix,
/// retry-inflated search cost, and whether ROBOTune still beats RS.
/// Returns markdown plus the machine-readable tallies.
fn run_chaos(args: &Args) -> (String, serde_json::Value) {
    use robotune_bench::exp::chaos;
    chaos::run(args.reps, args.budget)
}

fn grid_outputs(cmd: &str, args: &Args, grid: &GridResults) {
    match cmd {
        "fig3" => {
            let md = grid.render_fig3();
            print!("{md}");
            write_results(&args.out, "fig3", &md, Some(&grid.to_json()));
        }
        "fig4" => {
            let md = grid.render_fig4();
            print!("{md}");
            write_results(&args.out, "fig4", &md, Some(&grid.to_json()));
        }
        "fig5" => {
            let md = fig5::render(grid);
            print!("{md}");
            write_results(&args.out, "fig5", &md, None);
        }
        "fig6" => {
            let (md, json) = fig6::render(grid);
            print!("{md}");
            write_results(&args.out, "fig6", &md, Some(&json));
        }
        "tab2" => {
            let (md, json) = tab2::render(grid);
            print!("{md}");
            write_results(&args.out, "tab2", &md, Some(&json));
        }
        "fig8" => {
            let (md, csvs) = fig8::render(grid);
            print!("{md}");
            write_results(&args.out, "fig8", &md, None);
            for (name, csv) in csvs {
                write_csv(&args.out, &name, &csv);
            }
        }
        _ => unreachable!(),
    }
}

fn run_extras(args: &Args) -> String {
    robotune_bench::exp::extras::early_stopping(args.reps, args.budget)
}

fn run_ablations(args: &Args) -> String {
    let mut md = String::new();
    md.push_str(&ablation::acquisitions(args.reps, args.budget));
    md.push('\n');
    md.push_str(&ablation::memoization(args.reps, args.budget));
    md.push('\n');
    md.push_str(&ablation::init_design(args.reps, args.budget));
    md.push('\n');
    md.push_str(&ablation::grouped_mda(args.reps));
    md.push('\n');
    md.push_str(&ablation::full_dim(args.reps, args.budget));
    md
}

fn run_all(args: &Args) {
    let grid = run_grid(args);
    for cmd in ["fig3", "fig4", "fig5", "fig6", "tab2", "fig8"] {
        grid_outputs(cmd, args, &grid);
    }
    emit(args, "fig2", fig2::run());
    emit(args, "fig7", fig7::run(5));
    let (md9, csvs9) = fig9::run();
    print!("{md9}");
    write_results(&args.out, "fig9", &md9, None);
    for (name, csv) in csvs9 {
        write_csv(&args.out, &name, &csv);
    }
    emit(args, "default", defaults::run(args.budget));
    let abl = run_ablations(args);
    print!("{abl}");
    write_results(&args.out, "ablation", &abl, None);
    let extras = run_extras(args);
    print!("{extras}");
    write_results(&args.out, "extras", &extras, None);
    emit(args, "mf", robotune_bench::exp::mf::run(args.reps, args.budget, args.faults));
    eprintln!("\nall experiment outputs written under {}/", args.out.display());
}

/// Quick shape check: one rep of each tuner on three workloads.
fn calibrate() {
    for w in [Workload::PageRank, Workload::KMeans, Workload::TeraSort] {
        println!("== {:?} D1 (budget 100) ==", w);
        let rt = run_robotune_sequence(
            w,
            &[Dataset::D1, Dataset::D3],
            100,
            0,
            robotune::RoboTuneOptions::default(),
        );
        for r in &rt {
            println!(
                "  ROBOTune {:?}: best={:?} cost={:.0} sel_cost={:.0}",
                r.dataset, r.best_time, r.search_cost, r.selection_cost
            );
        }
        for kind in TunerKind::BASELINES {
            let r = run_baseline(kind, w, Dataset::D1, 100, 0);
            println!(
                "  {:>10} {:?}: best={:?} cost={:.0}",
                r.tuner, r.dataset, r.best_time, r.search_cost
            );
        }
    }
}

/// Prints the ranked grouped importances per workload.
fn debug_select() {
    use robotune::select::ParameterSelector;
    use robotune_sparksim::SparkJob;
    let space = robotune_space::spark::spark_space();
    for w in robotune_sparksim::ALL_WORKLOADS {
        let mut job = SparkJob::new(space.clone(), w, Dataset::D1, 11);
        let selector = ParameterSelector::default();
        let mut rng = robotune_stats::rng_from_seed(5);
        let result = selector.select(&space, &mut job, &mut rng);
        println!(
            "== {:?}: oob_r2={:.3}, selected={:?}",
            w,
            result.oob_r2,
            result.selected_names(&space)
        );
        for g in result.importances.iter().take(12) {
            println!("   {:>28}  {:.4}", g.name, g.importance);
        }
    }
}

/// Prints the outcome distribution of 300 random configs per workload.
fn debug_dist() {
    use robotune_space::SearchSpace;
    use robotune_sparksim::{Outcome, SparkJob};
    let space = robotune_space::spark::spark_space();
    let mut rng = robotune_stats::rng_from_seed(3);
    use rand::Rng;
    for w in robotune_sparksim::ALL_WORKLOADS {
        let job = SparkJob::new(space.clone(), w, Dataset::D1, 11).with_noise(0.0);
        let (mut oom, mut launch, mut capped) = (0, 0, 0);
        let mut times = Vec::new();
        for _ in 0..300 {
            let pt: Vec<f64> = (0..space.dim()).map(|_| rng.gen::<f64>()).collect();
            let r = job.dry_run(&space.decode(&pt));
            match r.outcome {
                Outcome::Completed(t) if t > 480.0 => capped += 1,
                Outcome::Completed(t) => times.push(t),
                Outcome::Oom { .. } => oom += 1,
                Outcome::LaunchFailure => launch += 1,
            }
        }
        let pct = |q: f64| robotune_stats::percentile(&times, q);
        println!(
            "{:>4}: oom={:3} launch={:2} capped={:3} ok={:3}  p10={:6.0} p50={:6.0} p90={:6.0} min={:5.0}",
            w.short_name(),
            oom,
            launch,
            capped,
            times.len(),
            pct(10.0),
            pct(50.0),
            pct(90.0),
            pct(0.0)
        );
    }
}
