//! The ask/tell stepper against `tune_workload`: a manual drive must
//! reproduce it bit for bit — trajectory, outcome, store writes and the
//! RNG state left behind — and a stepper dropped part-way must leave
//! the store untouched.

use std::sync::Arc;

use rand::rngs::StdRng;
use robotune::{
    ConcurrentMemoStore, InMemoryMemoStore, RoboTune, RoboTuneOptions, RoboTuneOutcome,
    RoboTuneStepper, SharedMemoStore, Step,
};
use robotune_space::spark::{names, spark_space};
use robotune_space::{ConfigSpace, Configuration};
use robotune_sparksim::{Dataset, FaultPlan, FaultProfile, SparkJob, Workload};
use robotune_stats::rng_from_seed;
use robotune_tuners::{Evaluation, FnObjective, Objective};

/// Cores, memory and parallelism matter; optimum ≈ 70 s.
fn synthetic() -> impl FnMut(&Configuration) -> f64 {
    let space = spark_space();
    let cores = space.index_of(names::EXECUTOR_CORES).unwrap();
    let mem = space.index_of(names::EXECUTOR_MEMORY).unwrap();
    let par = space.index_of(names::DEFAULT_PARALLELISM).unwrap();
    move |c: &Configuration| {
        let cores_v = c.get(cores).as_int() as f64;
        let mem_v = c.get(mem).as_int() as f64;
        let par_v = c.get(par).as_int() as f64;
        60.0 + 300.0 / cores_v
            + 60.0 * (mem_v / 49_152.0 - 1.0).abs()
            + 0.05 * (par_v - 400.0).abs()
    }
}

/// One evaluation record: point bits, rendered config, cap bits, time
/// bits, completed, failed, attempts.
type RecordBits = (Vec<u64>, String, u64, u64, bool, bool, u32);

/// Everything a session leaves behind, in exactly comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    records: Vec<RecordBits>,
    selected: Vec<usize>,
    selection: Option<(Vec<usize>, u64)>,
    warm_start: bool,
    selection_cost_bits: u64,
}

fn fingerprint(space: &ConfigSpace, out: &RoboTuneOutcome) -> Fingerprint {
    Fingerprint {
        records: out
            .session
            .records
            .iter()
            .map(|r| {
                (
                    r.point.iter().map(|x| x.to_bits()).collect(),
                    r.config.render(space),
                    r.cap_s.to_bits(),
                    r.eval.time_s.to_bits(),
                    r.eval.completed,
                    r.eval.failed,
                    r.eval.attempts,
                )
            })
            .collect(),
        selected: out.selected.clone(),
        selection: out
            .selection
            .as_ref()
            .map(|s| (s.selected.clone(), s.oob_r2.to_bits())),
        warm_start: out.warm_start,
        selection_cost_bits: out.selection_cost_s.to_bits(),
    }
}

/// The store's contents for `workload`.
fn store_view(
    space: &ConfigSpace,
    store: &dyn ConcurrentMemoStore,
    workload: &str,
) -> (Option<Vec<String>>, Vec<(String, u64)>) {
    let recent = store
        .best_recent(workload, usize::MAX)
        .iter()
        .map(|(c, t)| (c.render(space), t.to_bits()))
        .collect();
    (store.selection(workload), recent)
}

/// Drives a stepper with the fast options over `store` by hand: ask,
/// evaluate, tell, until done.
fn drive(
    store: SharedMemoStore,
    space: &Arc<ConfigSpace>,
    workload: &str,
    objective: &mut dyn Objective,
    budget: usize,
    rng: &mut StdRng,
) -> RoboTuneOutcome {
    let opts = RoboTuneOptions::fast();
    let space = Arc::clone(space);
    let mut stepper = RoboTuneStepper::new(opts, store, space, workload, budget, rng.clone());
    loop {
        match stepper.ask() {
            Step::Ask { config, cap_s } => {
                // Asking again before telling repeats the same ask.
                match stepper.ask() {
                    Step::Ask {
                        config: again,
                        cap_s: cap_again,
                    } => {
                        assert_eq!(again, config);
                        assert_eq!(cap_again.to_bits(), cap_s.to_bits());
                    }
                    Step::Done(_) => panic!("a repeated ask must not finish the session"),
                }
                let eval = objective.evaluate(&config, cap_s);
                stepper.tell(eval);
            }
            Step::Done(out) => {
                *rng = stepper.into_rng();
                return out;
            }
        }
    }
}

/// Runs the same cold-then-warm sequence through `tune_workload` and
/// through a manual drive, each over its own store and one RNG, and
/// asserts they agree in every bit.
fn assert_drive_matches(
    make_objective: &dyn Fn(usize) -> Box<dyn Objective>,
    budgets: &[usize],
    seed: u64,
) -> Vec<RoboTuneOutcome> {
    let space = Arc::new(spark_space());
    let mut reference = RoboTune::new(RoboTuneOptions::fast());
    let manual = InMemoryMemoStore::new().into_shared();
    let mut rng_a = rng_from_seed(seed);
    let mut rng_b = rng_from_seed(seed);
    let mut outs = Vec::new();
    for (i, &budget) in budgets.iter().enumerate() {
        let mut obj_a = make_objective(i);
        let mut obj_b = make_objective(i);
        let a = reference.tune_workload(&space, "wl", obj_a.as_mut(), budget, &mut rng_a);
        let b = drive(Arc::clone(&manual), &space, "wl", obj_b.as_mut(), budget, &mut rng_b);
        assert_eq!(
            fingerprint(&space, &a),
            fingerprint(&space, &b),
            "session {i} diverged"
        );
        assert_eq!(
            rng_a, rng_b,
            "session {i} left the RNG in a different state"
        );
        assert_eq!(
            store_view(&space, reference.store().as_ref(), "wl"),
            store_view(&space, manual.as_ref(), "wl"),
            "session {i} wrote a different store"
        );
        outs.push(a);
    }
    outs
}

#[test]
fn manual_drive_equals_tune_workload_cold_then_warm() {
    let outs = assert_drive_matches(
        &|_| Box::new(FnObjective::new(synthetic())),
        &[30, 30],
        11,
    );
    assert!(
        outs[0].selection.is_some() && !outs[0].warm_start,
        "first session is cold"
    );
    assert!(
        outs[1].selection.is_none() && outs[1].warm_start,
        "second session is warm"
    );
}

#[test]
fn manual_drive_equals_tune_workload_on_the_empty_selection_fallback() {
    let outs = assert_drive_matches(
        &|_| Box::new(FnObjective::new(|_: &Configuration| 42.0)),
        &[24],
        7,
    );
    let selection = outs[0].selection.as_ref().expect("cold session selects");
    assert!(
        selection.selected.is_empty(),
        "a flat surface selects nothing"
    );
    assert!(
        !outs[0].selected.is_empty(),
        "the fallback tunes the top groups"
    );
}

#[test]
fn manual_drive_equals_tune_workload_with_transient_failures_and_retries() {
    let space = spark_space();
    let outs = assert_drive_matches(
        &|i| {
            Box::new(
                SparkJob::new(space.clone(), Workload::KMeans, Dataset::D1, 5 + i as u64)
                    .with_faults(FaultPlan::from_profile(
                        FaultProfile::Transient,
                        5 + i as u64,
                    )),
            )
        },
        &[25, 25],
        3,
    );
    let retried = outs
        .iter()
        .flat_map(|o| &o.session.records)
        .filter(|r| r.eval.attempts > 1)
        .count();
    assert!(
        retried > 0,
        "the transient profile must exercise the retry path"
    );
}

#[test]
fn manual_drive_equals_tune_workload_with_a_budget_below_the_design() {
    let outs = assert_drive_matches(
        &|_| Box::new(FnObjective::new(synthetic())),
        &[5, 3],
        19,
    );
    assert_eq!(outs[0].session.len(), 5);
    assert_eq!(outs[1].session.len(), 3);
}

/// Asks and tells `n` times, then drops the stepper.
fn abandon_after(n: usize) -> Arc<dyn ConcurrentMemoStore> {
    let space = Arc::new(spark_space());
    let store = InMemoryMemoStore::new().into_shared();
    let opts = RoboTuneOptions::fast();
    let mut stepper =
        RoboTuneStepper::new(opts, Arc::clone(&store), space, "dropped", 40, rng_from_seed(2));
    let mut f = synthetic();
    for _ in 0..n {
        match stepper.ask() {
            Step::Ask { config, cap_s } => {
                let t = f(&config);
                stepper.tell(if t <= cap_s {
                    Evaluation::completed(t)
                } else {
                    Evaluation::capped(cap_s)
                });
            }
            Step::Done(_) => panic!("budget 40 cannot finish in {n} asks"),
        }
    }
    drop(stepper);
    store
}

#[test]
fn a_dropped_stepper_leaves_the_store_untouched() {
    let selection_samples = RoboTuneOptions::fast().selector.generic_samples;
    // Mid-selection, and mid-BO (selection done, design run, BO asks made).
    for n in [selection_samples / 2, selection_samples + 30] {
        let store = abandon_after(n);
        assert!(
            store.workloads().is_empty(),
            "after {n} asks the store must be empty"
        );
        assert!(!store.has_selection("dropped") && !store.has_configs("dropped"));
    }
}
