//! Experiments on the implemented extensions (not part of the paper's
//! evaluation, flagged as such in DESIGN.md): the pattern-search tuner,
//! automated early stopping, and the ARD kernel.

use robotune::engine::{EarlyStop, RoboTuneEngine, RoboTuneEngineOptions};
use robotune::select::ParameterSelector;
use robotune::MemoizedSampler;
use robotune_gp::{fit_gp, fit_gp_ard, HyperFitOptions};
use robotune_ml::r2_score;
use robotune_sparksim::{Dataset, SparkJob, Workload};
use robotune_stats::{mean, rng_from_seed};
use robotune_tuners::{Objective, PatternSearch, Tuner};

use crate::report::markdown_table;
use crate::runner::{par_map, run_baseline, run_robotune_sequence, TunerKind};

/// Pattern search vs the paper's tuners on PR-D1.
pub fn pattern_search(reps: usize, budget: usize) -> String {
    let results = par_map((0..reps).collect::<Vec<_>>(), |rep| {
        let space = crate::runner::space();
        let mut job = SparkJob::new(
            (*space).clone(),
            Workload::PageRank,
            Dataset::D1,
            0xE0 + rep as u64,
        );
        let mut rng = rng_from_seed(0xE1 + rep as u64);
        let ps = PatternSearch::default()
            .tune(space.as_ref(), &mut job, budget, &mut rng);
        let rs = run_baseline(TunerKind::RandomSearch, Workload::PageRank, Dataset::D1, budget, rep);
        let rt = run_robotune_sequence(
            Workload::PageRank,
            &[Dataset::D1],
            budget,
            rep,
            robotune::RoboTuneOptions::default(),
        );
        (ps.best_time(), rs.best_time, rt[0].best_time)
    });
    let col = |i: usize| -> f64 {
        mean(
            &results
                .iter()
                .filter_map(|r| match i {
                    0 => r.0,
                    1 => r.1,
                    _ => r.2,
                })
                .collect::<Vec<_>>(),
        )
    };
    format!(
        "## Extension — pattern search on the full 44-D space (PR-D1)\n\n\
         | tuner | mean best (s) |\n|---|---|\n\
         | PatternSearch | {:.0} |\n| RS | {:.0} |\n| ROBOTune | {:.0} |\n\n\
         §1's expectation: direct search converges slowly in high\n\
         dimension, landing near Random Search.\n",
        col(0),
        col(1),
        col(2)
    )
}

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

/// ARD vs isotropic GP on held-out simulator data over a selected
/// subspace.
pub fn ard_kernel(reps: usize) -> String {
    let space = crate::runner::space();
    let sub = {
        let mut job = SparkJob::new((*space).clone(), Workload::PageRank, Dataset::D1, 0xE8);
        let mut rng = rng_from_seed(0xE8);
        let sel = ParameterSelector::default().select(&space, &mut job, &mut rng);
        space.subspace(&sel.selected, space.default_configuration())
    };
    let sub_ref = &sub;
    let scores = par_map((0..reps).collect::<Vec<_>>(), |rep| {
        let mut job = SparkJob::new(
            (*space).clone(),
            Workload::PageRank,
            Dataset::D1,
            0xE9 + rep as u64,
        );
        let mut rng = rng_from_seed(0xEA + rep as u64);
        let make = |n: usize, rng: &mut rand::rngs::StdRng, job: &mut SparkJob| {
            let pts = robotune_sampling::lhs_maximin(n, robotune_space::SearchSpace::dim(sub_ref), rng, 8);
            let ys: Vec<f64> = pts
                .iter()
                .map(|p| {
                    let c = robotune_space::SearchSpace::decode(sub_ref, p);
                    job.evaluate(&c, 480.0).objective_value(480.0)
                })
                .collect();
            (pts, ys)
        };
        let (xtr, ytr) = make(50, &mut rng, &mut job);
        let (xte, yte) = make(40, &mut rng, &mut job);
        // A 50-point LHS training set fits in practice; degrade to NaN
        // scores (which propagate into the table) rather than panic.
        let (Ok(iso), Ok(ard)) = (
            fit_gp(&xtr, &ytr, &HyperFitOptions::default(), None, &mut rng),
            fit_gp_ard(&xtr, &ytr, &HyperFitOptions::default(), &mut rng),
        ) else {
            return (f64::NAN, f64::NAN);
        };
        let pred_iso: Vec<f64> = xte.iter().map(|p| iso.predict(p).0).collect();
        let pred_ard: Vec<f64> = xte.iter().map(|p| ard.predict(p).0).collect();
        (r2_score(&yte, &pred_iso), r2_score(&yte, &pred_ard))
    });
    let iso = mean(&scores.iter().map(|s| s.0).collect::<Vec<_>>());
    let ard = mean(&scores.iter().map(|s| s.1).collect::<Vec<_>>());
    let mut md = String::from(
        "## Extension — ARD vs isotropic Matérn 5/2 (PR-D1 subspace, 50 train / 40 test)\n\n",
    );
    md.push_str(&markdown_table(
        &["kernel", "held-out R²"],
        &[
            vec!["isotropic (paper)".into(), format!("{iso:.3}")],
            vec!["ARD".into(), format!("{ard:.3}")],
        ],
    ));
    md
}
