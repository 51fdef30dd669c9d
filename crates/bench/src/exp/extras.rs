//! The one experiment on an extension beyond the paper's evaluation
//! (flagged as such in DESIGN.md): automated early stopping.

use robotune::engine::{EarlyStop, RoboTuneEngine, RoboTuneEngineOptions};
use robotune::select::ParameterSelector;
use robotune::MemoizedSampler;
use robotune_sparksim::{Dataset, SparkJob, Workload};
use robotune_stats::{mean, rng_from_seed};

use crate::runner::par_map;

/// Early stopping: budget actually consumed and best found, KM-D1.
pub fn early_stopping(reps: usize, budget: usize) -> String {
    let space = crate::runner::space();
    // Shared selection so both arms search the same subspace.
    let sub = {
        let mut job = SparkJob::new((*space).clone(), Workload::KMeans, Dataset::D1, 0xE5);
        let mut rng = rng_from_seed(0xE5);
        let sel = ParameterSelector::default().select(&space, &mut job, &mut rng);
        space.subspace(&sel.selected, space.default_configuration())
    };
    let sub_ref = &sub;
    let results = par_map(
        (0..reps).flat_map(|r| [(r, false), (r, true)]).collect::<Vec<_>>(),
        |(rep, stop)| {
            let mut opts = RoboTuneEngineOptions::default();
            if stop {
                opts.early_stop = Some(EarlyStop::default());
            }
            let mut job = SparkJob::new(
                (*space).clone(),
                Workload::KMeans,
                Dataset::D1,
                0xE6 + rep as u64,
            );
            let mut rng = rng_from_seed(0xE7 + rep as u64);
            let design = MemoizedSampler::default().initial_design(sub_ref, &[], &mut rng);
            let session =
                RoboTuneEngine::new(sub_ref.clone(), opts).run(&mut job, design.points, budget, &mut rng);
            (stop, session.len(), session.best_time(), session.search_cost())
        },
    );
    let agg = |stop: bool| {
        let rows: Vec<&(bool, usize, Option<f64>, f64)> =
            results.iter().filter(|r| r.0 == stop).collect();
        (
            mean(&rows.iter().map(|r| r.1 as f64).collect::<Vec<_>>()),
            mean(&rows.iter().filter_map(|r| r.2).collect::<Vec<_>>()),
            mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>()),
        )
    };
    let (off_evals, off_best, off_cost) = agg(false);
    let (on_evals, on_best, on_cost) = agg(true);
    format!(
        "## Extension — automated early stopping (KM-D1, patience 25 / 1%)\n\n\
         | arm | evaluations used | mean best (s) | mean cost (s) |\n|---|---|---|---|\n\
         | off (paper protocol) | {off_evals:.0} | {off_best:.0} | {off_cost:.0} |\n\
         | on | {on_evals:.0} | {on_best:.0} | {on_cost:.0} |\n\n\
         Early stopping should save a large share of the budget at a\n\
         negligible best-time penalty on plateau workloads like KMeans.\n"
    )
}
