//! `tune-paper`: the paper's own protocol (§5.3–5.4) run in-process.
//!
//! The fixed session set is PR, KM, CC, LR and TS, each tuned cold on D1
//! (Random-Forests selection) and then warm on D2 (selection-cache hit
//! plus four memoized configurations), budget 100, default options, one
//! in-memory store per sequence — exactly `run_robotune_sequence` at
//! `rep = 2·seed` and `2·seed + 1`. The untraced pass calls `RoboTune::tune_workload`. The
//! traced pass drives the same pipeline step by step through the public
//! pieces `tune_workload` is made of, with a span around each call, and
//! must reproduce the untraced trajectories bit for bit.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use robotune::{
    resolve_selection, InMemoryMemoStore, ParameterSelector, RoboTune, RoboTuneEngine,
    RoboTuneOptions, SharedMemoStore,
};
use robotune_bench::runner::seed_for;
use robotune_space::spark::spark_space;
use robotune_space::ConfigSpace;
use robotune_sparksim::{Dataset, SparkJob, Workload, ALL_WORKLOADS};
use robotune_stats::rng_from_seed;
use robotune_tuners::{Objective, TuningSession};

use crate::probes::{Probe, TimedStore};
use crate::report::{geomean, pct, Outcome};
use crate::trace;

/// Evaluations per session (§5.3).
pub const BUDGET: usize = 100;
const DATASETS: [Dataset; 2] = [Dataset::D1, Dataset::D2];
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 101;

/// One finished session, reduced to what the metrics and checks need.
#[derive(Debug, Clone)]
struct SessionRun {
    label: String,
    best_s: Option<f64>,
    cost_to_5pct_s: Option<f64>,
    /// Hash of the selection and every (point, outcome) bit.
    fingerprint: u64,
    evals: usize,
    /// Session start → first configuration; `None` for cold sessions,
    /// whose first ask is a selection sample rather than a tuning point.
    first_ask_ms: Option<f64>,
    ask_gaps_ms: Vec<f64>,
}

/// The inputs of one set, built by set-up.
struct Inputs {
    space: Arc<ConfigSpace>,
    opts: RoboTuneOptions,
    /// Per sequence: workload, session seed, and a fresh job for each
    /// dataset (cloned by every pass, so each pass replays the same noise).
    cells: Vec<(Workload, u64, [SparkJob; 2])>,
}

/// Independent D1→D2 sequences per workload in one set.
const REPS_PER_SET: u64 = 2;

/// Builds the set for `seed`: repetitions `2·seed` and `2·seed + 1` of
/// `run_robotune_sequence` for every workload.
fn setup(seed: u64) -> Inputs {
    let space = Arc::new(spark_space());
    let opts = RoboTuneOptions::default();
    let mut cells = Vec::new();
    for rep in seed * REPS_PER_SET..(seed + 1) * REPS_PER_SET {
        for &w in &ALL_WORKLOADS {
            let s = seed_for(w, Dataset::D1, "ROBOTune", rep as usize);
            let jobs = DATASETS
                .map(|d| SparkJob::new((*space).clone(), w, d, s ^ (d.index() as u64 + 0xABCD)));
            cells.push((w, s, jobs));
        }
    }
    Inputs { space, opts, cells }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn summarize(
    label: String,
    session: &TuningSession,
    selected: &[usize],
    selection_cost_s: f64,
    probe: &Probe<'_>,
) -> SessionRun {
    let mut h = Fnv::new();
    for &i in selected {
        h.mix(i as u64);
    }
    h.mix(selection_cost_s.to_bits());
    for r in &session.records {
        for x in &r.point {
            h.mix(x.to_bits());
        }
        h.mix(r.eval.time_s.to_bits());
        h.mix(u64::from(r.eval.completed) | u64::from(r.eval.failed) << 1);
        h.mix(r.cap_s.to_bits());
    }
    let best_s = session.best_time();
    SessionRun {
        label,
        best_s,
        cost_to_5pct_s: best_s
            .and_then(|b| session.cost_to_within_of(b, 0.05))
            .map(|c| c + selection_cost_s),
        fingerprint: h.0,
        evals: session.len(),
        first_ask_ms: probe.first_ask_ms.filter(|_| selection_cost_s == 0.0),
        ask_gaps_ms: probe.ask_gaps_ms.clone(),
    }
}

/// One untraced pass over the set through `RoboTune::tune_workload`.
fn run_set(inputs: &Inputs) -> Vec<SessionRun> {
    let mut out = Vec::new();
    for (w, seed, jobs) in &inputs.cells {
        let mut tuner = RoboTune::new(inputs.opts.clone());
        let mut rng = rng_from_seed(*seed);
        for (d, job) in DATASETS.iter().zip(jobs) {
            let mut job = job.clone();
            let key = w.short_name();
            let skip = if tuner.knows_selection(key) {
                0
            } else {
                inputs.opts.selector.generic_samples
            };
            let mut probe = Probe::new(&mut job, skip);
            let o = tuner.tune_workload(&inputs.space, key, &mut probe, BUDGET, &mut rng);
            out.push(summarize(
                format!("{key}-{d:?}"),
                &o.session,
                &o.selected,
                o.selection_cost_s,
                &probe,
            ));
        }
    }
    out
}

/// `RoboTune::tune_workload`, step by step, with a span around each
/// call into a layer. Returns `(session, selected, selection_cost_s)`.
fn traced_session(
    opts: &RoboTuneOptions,
    store: &SharedMemoStore,
    space: &Arc<ConfigSpace>,
    key: &str,
    objective: &mut dyn Objective,
    budget: usize,
    rng: &mut StdRng,
) -> (TuningSession, Vec<usize>, f64) {
    let cached = store
        .selection(key)
        .and_then(|names| resolve_selection(&names, space));
    let (selected, selection_cost_s) = match cached {
        Some(sel) => (sel, 0.0),
        None => {
            let selector = ParameterSelector::new(opts.selector.clone());
            let (x, y, cost) = {
                let _s = trace::span("select.samples");
                selector.collect_samples(space, objective, rng)
            };
            let result = {
                let _s = trace::span("select.forest");
                selector.select_from_data(space, &x, &y, rng)
            };
            let mut sel = result.selected.clone();
            if sel.is_empty() {
                // The same top-three-groups fallback `tune_workload` uses
                // when nothing clears the importance threshold.
                sel = result
                    .importances
                    .iter()
                    .take(3)
                    .flat_map(|g| g.members.iter().copied())
                    .collect();
                sel.sort_unstable();
                sel.dedup();
            }
            let names = sel
                .iter()
                .map(|&i| space.params()[i].name.clone())
                .collect();
            store.put_selection(key, names);
            (sel, cost)
        }
    };
    let sub = space.subspace(&selected, space.default_configuration());
    let mut recent = store.best_recent(key, opts.sampler.memo_configs);
    recent.retain(|(c, _)| c.len() == space.len());
    let design = {
        let _s = trace::span("sampling.design");
        opts.sampler.initial_design(&sub, &recent, rng)
    };
    let mut engine = RoboTuneEngine::new(sub, opts.engine.clone());
    for point in design.points.into_iter().take(budget) {
        let _s = trace::span("core.evaluate");
        engine.evaluate_point(point, objective);
    }
    while engine.session().len() < budget {
        // `refit` fits exactly the model `suggest` would fit first, with
        // the same draws, so the split leaves the trajectory unchanged.
        {
            let _s = trace::span("gp.refit");
            engine.refit(rng);
        }
        let point = {
            let _s = trace::span("bo.acq");
            engine.suggest(rng)
        };
        let _s = trace::span("core.evaluate");
        engine.evaluate_point(point, objective);
    }
    let session = engine.session().clone();
    let mut completed: Vec<_> = session
        .records
        .iter()
        .filter(|r| r.eval.completed)
        .collect();
    completed.sort_by(|a, b| a.eval.time_s.total_cmp(&b.eval.time_s));
    for r in completed.into_iter().take(opts.sampler.memo_configs) {
        store.record_config(key, r.config.clone(), r.eval.time_s);
    }
    (session, selected, selection_cost_s)
}

/// One traced pass over the set. Returns the sessions, the spans and the
/// timed stores' logs.
fn run_set_traced(inputs: &Inputs) -> (Vec<SessionRun>, Vec<trace::Span>, Vec<Arc<TimedStore>>) {
    let mut out = Vec::new();
    let mut stores = Vec::new();
    trace::start();
    {
        let _root = trace::span("tune.set");
        for (w, seed, jobs) in &inputs.cells {
            let timed = Arc::new(TimedStore::new(InMemoryMemoStore::new().into_shared()));
            let store: SharedMemoStore = timed.clone();
            stores.push(timed);
            let mut rng = rng_from_seed(*seed);
            for (d, job) in DATASETS.iter().zip(jobs) {
                let _s = trace::span("tune.session");
                let mut job = job.clone();
                let key = w.short_name();
                let skip = if store.has_selection(key) {
                    0
                } else {
                    inputs.opts.selector.generic_samples
                };
                let mut probe = Probe::new(&mut job, skip);
                let (session, selected, cost) = traced_session(
                    &inputs.opts,
                    &store,
                    &inputs.space,
                    key,
                    &mut probe,
                    BUDGET,
                    &mut rng,
                );
                out.push(summarize(
                    format!("{key}-{d:?}"),
                    &session,
                    &selected,
                    cost,
                    &probe,
                ));
            }
        }
    }
    (out, trace::finish(), stores)
}

/// Checks that two passes produced the same trajectories bit for bit.
fn same_trajectories(o: &mut Outcome, what: &str, a: &[SessionRun], b: &[SessionRun]) {
    o.check(a.len() == b.len(), || {
        format!("{what}: {} vs {} sessions", a.len(), b.len())
    });
    for (x, y) in a.iter().zip(b) {
        o.check(x.fingerprint == y.fingerprint, || {
            format!(
                "{what}: {} trajectory differs ({:016x} vs {:016x})",
                x.label, x.fingerprint, y.fingerprint
            )
        });
    }
}

/// A flat objective selects nothing, so both paths must take the
/// top-three fallback and still agree bit for bit.
fn check_fallback(o: &mut Outcome) {
    let space = Arc::new(spark_space());
    let opts = RoboTuneOptions::fast();
    let flat = |_: &robotune_space::Configuration| 42.0;
    let mut a = robotune_tuners::FnObjective::new(flat);
    let mut rng = rng_from_seed(7);
    let reference = RoboTune::new(opts.clone()).tune_workload(&space, "flat", &mut a, 24, &mut rng);
    let store = InMemoryMemoStore::new().into_shared();
    let mut b = robotune_tuners::FnObjective::new(flat);
    let mut rng = rng_from_seed(7);
    let (session, selected, _) =
        traced_session(&opts, &store, &space, "flat", &mut b, 24, &mut rng);
    let took_fallback = reference
        .selection
        .as_ref()
        .is_some_and(|s| s.selected.is_empty());
    o.check(took_fallback, || {
        "flat objective did not exercise the empty-selection fallback".into()
    });
    o.check(selected == reference.selected, || {
        "fallback selection differs".into()
    });
    let points = |s: &TuningSession| -> Vec<u64> {
        s.records
            .iter()
            .flat_map(|r| r.point.iter().map(|x| x.to_bits()))
            .collect()
    };
    o.check(points(&session) == points(&reference.session), || {
        "fallback trajectory differs".into()
    });
}

/// Runs the workload; `traced` selects the per-layer metrics.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(setup(seed));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let inputs = setup(seed);

    if traced {
        return run_traced(o, &inputs);
    }

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Vec<SessionRun>> = None;
    let mut first_ask = Vec::new();
    let mut gaps = Vec::new();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds as f64 {
        let t = Instant::now();
        let sessions = run_set(&inputs);
        walls.push(t.elapsed().as_secs_f64());
        o.attempted += sessions.len() as u64;
        for s in &sessions {
            first_ask.extend(s.first_ask_ms);
            gaps.extend_from_slice(&s.ask_gaps_ms);
            o.check(s.evals == BUDGET, || {
                format!("{} ran {} of {BUDGET} evaluations", s.label, s.evals)
            });
        }
        match &first {
            None => first = Some(sessions),
            Some(f) => same_trajectories(&mut o, "repeat", f, &sessions),
        }
    }
    let sessions = first.unwrap_or_default();
    let bests: Vec<f64> = sessions.iter().filter_map(|s| s.best_s).collect();
    o.check(bests.len() == sessions.len(), || {
        "a session completed no configuration".into()
    });
    let wall = pct(&walls, 50.0);
    eprintln!(
        "tune-paper: {} sets, set wall p50 {wall:.3}s (min {:.3}s, max {:.3}s), {} budgeted asks",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        gaps.len()
    );
    eprintln!(
        "  suggest ms p50/75/90/95/99 {}",
        crate::report::spread(&gaps)
    );
    eprintln!(
        "  first ask ms p50/75/90/95/99 {}",
        crate::report::spread(&first_ask)
    );
    let m = &mut o.metrics;
    m.put("tune_wall_s", wall, "s");
    m.put("best_runtime_geomean_s", geomean(&bests), "s");
    m.put("suggest_ms_p50", pct(&gaps, 50.0), "ms");
    m.put(
        "completed_sessions_per_s",
        sessions.len() as f64 / wall,
        "1/s",
    );
    m.put("setup_s", pct(&setup_s, 50.0), "s");
    o
}

fn run_traced(mut o: Outcome, inputs: &Inputs) -> Outcome {
    check_fallback(&mut o);
    let t = Instant::now();
    let plain = run_set(inputs);
    let plain_wall = t.elapsed().as_secs_f64();
    let (traced, spans, stores) = run_set_traced(inputs);
    o.attempted += (plain.len() + traced.len()) as u64;
    same_trajectories(&mut o, "traced vs tune_workload", &plain, &traced);
    if let Err(e) = trace::check_nesting(&spans) {
        o.errors.push(e);
    }
    let layers = trace::by_name(&spans);
    let root_ns = spans.first().map_or(0, trace::Span::busy_ns);
    let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
    o.check(self_sum == root_ns, || {
        format!("self times sum to {self_sum} ns, traced wall is {root_ns} ns")
    });
    let traced_wall = root_ns as f64 / 1e9;
    crate::write_trace("tune-paper", &spans);

    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let gaps: Vec<f64> = plain
        .iter()
        .flat_map(|s| s.ask_gaps_ms.iter().copied())
        .collect();
    let first_ask: Vec<f64> = plain.iter().filter_map(|s| s.first_ask_ms).collect();
    let m = &mut o.metrics;
    m.put(
        "quality.cost_to_5pct_s",
        plain.iter().filter_map(|s| s.cost_to_5pct_s).sum(),
        "s",
    );
    m.put("latency.suggest_ms.p95", pct(&gaps, 95.0), "ms");
    m.put("latency.suggest_ms.p99", pct(&gaps, 99.0), "ms");
    m.put("latency.first_ask_ms.p50", pct(&first_ask, 50.0), "ms");
    m.put("latency.first_ask_ms.p90", pct(&first_ask, 90.0), "ms");
    m.put("latency.first_ask_ms.p99", pct(&first_ask, 99.0), "ms");
    for (layer, metric) in [("gp.refit", "gp.refit_ms"), ("bo.acq", "bo.acq_ms")] {
        let l = get(layer);
        m.put(format!("{metric}.p50"), pct(&l.busy_ms, 50.0), "ms");
        m.put(format!("{metric}.p99"), pct(&l.busy_ms, 99.0), "ms");
        m.put(format!("{metric}.total"), l.busy_ns as f64 / 1e6, "ms");
    }
    m.put(
        "select.samples_ms",
        get("select.samples").self_ns as f64 / 1e6,
        "ms",
    );
    m.put(
        "select.forest_ms",
        get("select.forest").busy_ns as f64 / 1e6,
        "ms",
    );
    m.put(
        "sampling.design_ms",
        get("sampling.design").busy_ns as f64 / 1e6,
        "ms",
    );
    let ev = get("core.evaluate");
    m.put("core.evaluate_us.p50", pct(&ev.self_ms, 50.0) * 1e3, "us");
    m.put("core.evaluate_us.total", ev.self_ns as f64 / 1e3, "us");
    let sim = get("sparksim.eval");
    m.put("sparksim.eval_us.p50", pct(&sim.busy_ms, 50.0) * 1e3, "us");
    m.put("sparksim.eval_us.total", sim.busy_ns as f64 / 1e3, "us");
    m.put("sparksim.evals", sim.count as f64, "count");
    let (mut reads, mut writes, mut lookups, mut hits) = (Vec::new(), Vec::new(), 0, 0);
    for s in &stores {
        let log = s.log();
        reads.extend(log.read_us);
        writes.extend(log.write_us);
        lookups += log.lookups;
        hits += log.hits;
    }
    m.put("memo.read_us", reads.iter().sum(), "us");
    m.put("memo.write_us", writes.iter().sum(), "us");
    m.put(
        "memo.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let glue = get("tune.set").self_ns + get("tune.session").self_ns;
    m.put("tune.unattributed_ms", glue as f64 / 1e6, "ms");
    m.put("tune.traced_wall_ms", traced_wall * 1e3, "ms");
    // The wall difference between the two passes is mostly host noise at
    // this span density, so the overhead is the calibrated cost of the
    // spans actually recorded.
    m.put(
        "trace.overhead_pct",
        trace::cost_per_span_ns() * spans.len() as f64 / root_ns.max(1) as f64 * 100.0,
        "%",
    );
    eprintln!(
        "tune-paper traced: plain {plain_wall:.3}s, traced {traced_wall:.3}s, {} spans",
        spans.len()
    );
    o
}
