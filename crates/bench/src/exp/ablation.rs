//! Ablations of the design choices DESIGN.md calls out.

use std::sync::Arc;

use rand::Rng;
use robotune::engine::{RoboTuneEngine, RoboTuneEngineOptions};
use robotune::select::{ParameterSelector, SelectorOptions};
use robotune::{MemoizedSampler, RoboTune, RoboTuneOptions};
use robotune_bo::AcquisitionKind;
use robotune_space::{ConfigSpace, SearchSpace};
use robotune_sparksim::{Dataset, SparkJob, Workload};
use robotune_stats::{mean, rng_from_seed};

use crate::report::markdown_table;
use crate::runner::par_map;

fn job(space: &ConfigSpace, w: Workload, d: Dataset, seed: u64) -> SparkJob {
    SparkJob::new(space.clone(), w, d, seed)
}

/// Selected-subspace helper: run selection once, reuse across arms so the
/// comparison isolates the BO engine variant.
fn selected_subspace(space: &Arc<ConfigSpace>, w: Workload, seed: u64) -> robotune_space::Subspace {
    let mut j = job(space, w, Dataset::D1, seed);
    let mut rng = rng_from_seed(seed);
    let sel = ParameterSelector::default().select(space, &mut j, &mut rng);
    let selected = if sel.selected.is_empty() {
        sel.importances[0].members.clone()
    } else {
        sel.selected
    };
    space.subspace(&selected, space.default_configuration())
}

/// GP-Hedge portfolio vs each single acquisition, PR-D1.
pub fn acquisitions(reps: usize, budget: usize) -> String {
    let space = crate::runner::space();
    let sub = selected_subspace(&space, Workload::PageRank, 0xAB1);
    let arms: Vec<(&str, Option<AcquisitionKind>)> = vec![
        ("Hedge (paper)", None),
        ("EI only", Some(AcquisitionKind::Ei)),
        ("PI only", Some(AcquisitionKind::Pi)),
        ("LCB only", Some(AcquisitionKind::Lcb)),
    ];
    let cells: Vec<(usize, usize)> = (0..arms.len())
        .flat_map(|a| (0..reps).map(move |r| (a, r)))
        .collect();
    let sub_ref = &sub;
    let arms_ref = &arms;
    let results = par_map(cells, |(a, rep)| {
        let mut opts = RoboTuneEngineOptions::default();
        opts.bo.acquisition_override = arms_ref[a].1;
        let mut j = job(&space, Workload::PageRank, Dataset::D1, 0xAB2 + rep as u64);
        let mut rng = rng_from_seed(0xAB3 + a as u64 * 97 + rep as u64);
        let mut design_rng = rng_from_seed(0xAB4 + rep as u64); // shared design per rep
        let design = MemoizedSampler::default().initial_design(sub_ref, &[], &mut design_rng);
        let session = RoboTuneEngine::new(sub_ref.clone(), opts)
            .run(&mut j, design.points, budget, &mut rng);
        (a, session.best_time(), session.search_cost())
    });
    let mut rows = Vec::new();
    for (a, (name, _)) in arms.iter().enumerate() {
        let bests: Vec<f64> = results
            .iter()
            .filter(|(ai, _, _)| *ai == a)
            .filter_map(|(_, b, _)| *b)
            .collect();
        let costs: Vec<f64> = results
            .iter()
            .filter(|(ai, _, _)| *ai == a)
            .map(|(_, _, c)| *c)
            .collect();
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", mean(&bests)),
            format!("{:.0}", mean(&costs)),
        ]);
    }
    let mut md = String::from(
        "## Ablation — GP-Hedge portfolio vs single acquisitions (PR-D1)\n\n",
    );
    md.push_str(&markdown_table(&["acquisition", "mean best (s)", "mean cost (s)"], &rows));
    md
}

/// Memoized warm start (16 LHS + 4 memo) vs pure 20-point LHS on PR-D3.
pub fn memoization(reps: usize, budget: usize) -> String {
    let results = par_map((0..reps).collect::<Vec<_>>(), |rep| {
        // Warm arm: D1 then D3 with the shared framework instance.
        let warm = crate::runner::run_robotune_sequence(
            Workload::PageRank,
            &[Dataset::D1, Dataset::D3],
            budget,
            rep,
            RoboTuneOptions::default(),
        );
        // Cold arm: D3 directly (fresh instance, no memo for D3).
        let cold = crate::runner::run_robotune_sequence(
            Workload::PageRank,
            &[Dataset::D3],
            budget,
            rep + 1000,
            RoboTuneOptions::default(),
        );
        (
            warm[1].session.iterations_to_within(0.05),
            cold[0].session.iterations_to_within(0.05),
            warm[1].best_time,
            cold[0].best_time,
        )
    });
    let warm_it: Vec<f64> = results.iter().filter_map(|r| r.0).map(|i| i as f64).collect();
    let cold_it: Vec<f64> = results.iter().filter_map(|r| r.1).map(|i| i as f64).collect();
    let warm_best: Vec<f64> = results.iter().filter_map(|r| r.2).collect();
    let cold_best: Vec<f64> = results.iter().filter_map(|r| r.3).collect();
    format!(
        "## Ablation — memoized warm start vs cold start (PR-D3)\n\n\
         | arm | iters to within 5% | mean best (s) |\n|---|---|---|\n\
         | warm (16 LHS + 4 memoized) | {:.0} | {:.0} |\n\
         | cold (20 LHS) | {:.0} | {:.0} |\n\n\
         Paper: 21 iterations warm vs 58 cold on PR.\n",
        mean(&warm_it),
        mean(&warm_best),
        mean(&cold_it),
        mean(&cold_best),
    )
}

/// LHS initial design vs uniform-random initial design, PR-D1.
pub fn init_design(reps: usize, budget: usize) -> String {
    let space = crate::runner::space();
    let sub = selected_subspace(&space, Workload::PageRank, 0xAB7);
    let sub_ref = &sub;
    let results = par_map(
        (0..reps).flat_map(|r| [(r, true), (r, false)]).collect::<Vec<_>>(),
        |(rep, use_lhs)| {
            let mut j = job(&space, Workload::PageRank, Dataset::D1, 0xAB8 + rep as u64);
            let mut rng = rng_from_seed(0xAB9 + rep as u64 * 2 + use_lhs as u64);
            let design = if use_lhs {
                robotune_sampling::lhs_maximin(20, sub_ref.dim(), &mut rng, 16)
            } else {
                (0..20)
                    .map(|_| (0..sub_ref.dim()).map(|_| rng.gen::<f64>()).collect())
                    .collect()
            };
            let session = RoboTuneEngine::new(sub_ref.clone(), RoboTuneEngineOptions::default())
                .run(&mut j, design, budget, &mut rng);
            (use_lhs, session.best_time())
        },
    );
    let best = |lhs: bool| -> f64 {
        mean(
            &results
                .iter()
                .filter(|(l, _)| *l == lhs)
                .filter_map(|(_, b)| *b)
                .collect::<Vec<_>>(),
        )
    };
    format!(
        "## Ablation — LHS vs uniform-random BO initialisation (PR-D1)\n\n\
         | init | mean best (s) |\n|---|---|\n| LHS (paper) | {:.0} |\n| random | {:.0} |\n",
        best(true),
        best(false)
    )
}

/// Grouped (collinearity-aware) MDA vs naive per-column permutation:
/// selection stability across seeds.
pub fn grouped_mda(seeds: usize) -> String {
    let space = crate::runner::space();
    let selector = ParameterSelector::new(SelectorOptions::default());
    let runs = par_map((0..seeds as u64).collect::<Vec<_>>(), |s| {
        let mut j = job(&space, Workload::PageRank, Dataset::D1, 0xAC0 + s);
        let mut rng = rng_from_seed(0xAC1 + s);
        let (x, y, _) = selector.collect_samples(&space, &mut j, &mut rng);

        // Grouped (paper).
        let grouped = selector.select_from_data(&space, &x, &y, &mut rng).selected;

        // Naive: singleton groups only.
        let naive_groups: Vec<(String, Vec<usize>)> = (0..space.len())
            .map(|i| (space.params()[i].name.clone(), vec![i]))
            .collect();
        let mut fit_rng = rng_from_seed(0xAC2 + s);
        let forest = robotune_ml::RandomForest::fit(
            &x,
            &y,
            &selector.options().forest,
            &mut fit_rng,
        );
        let imp = robotune_ml::grouped_permutation_importance(
            &forest,
            &x,
            &y,
            &naive_groups,
            selector.options().repeats,
            &mut fit_rng,
        );
        let naive: Vec<usize> = imp
            .iter()
            .filter(|g| g.importance >= selector.options().threshold)
            .flat_map(|g| g.members.iter().copied())
            .collect();
        (grouped, naive)
    });

    let jaccard = |sets: Vec<&Vec<usize>>| -> f64 {
        let mut scores = Vec::new();
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                let a: std::collections::HashSet<_> = sets[i].iter().collect();
                let b: std::collections::HashSet<_> = sets[j].iter().collect();
                let inter = a.intersection(&b).count() as f64;
                let union = a.union(&b).count() as f64;
                scores.push(if union > 0.0 { inter / union } else { 1.0 });
            }
        }
        mean(&scores)
    };
    let grouped_stability = jaccard(runs.iter().map(|r| &r.0).collect());
    let naive_stability = jaccard(runs.iter().map(|r| &r.1).collect());
    let grouped_sizes = mean(&runs.iter().map(|r| r.0.len() as f64).collect::<Vec<_>>());
    let naive_sizes = mean(&runs.iter().map(|r| r.1.len() as f64).collect::<Vec<_>>());
    format!(
        "## Ablation — grouped vs naive MDA permutation (PR-D1, {seeds} seeds)\n\n\
         | variant | selection stability (mean pairwise Jaccard) | mean set size |\n\
         |---|---|---|\n| grouped (paper) | {grouped_stability:.2} | {grouped_sizes:.1} |\n\
         | naive per-column | {naive_stability:.2} | {naive_sizes:.1} |\n\n\
         Grouped permutation keeps collinear parameters together, which\n\
         stabilises the selected set across repeated selection runs.\n",
    )
}

/// Dimension reduction vs BO over the full 44-dimensional space, PR-D1.
pub fn full_dim(reps: usize, budget: usize) -> String {
    let space = crate::runner::space();
    let sub = selected_subspace(&space, Workload::PageRank, 0xAD0);
    let all_dims: Vec<usize> = (0..space.len()).collect();
    let full = space.subspace(&all_dims, space.default_configuration());
    let arms = [("selected subspace (paper)", &sub), ("all 44 dimensions", &full)];

    let cells: Vec<(usize, usize)> = (0..2).flat_map(|a| (0..reps).map(move |r| (a, r))).collect();
    let results = par_map(cells, |(a, rep)| {
        let mut j = job(&space, Workload::PageRank, Dataset::D1, 0xAD1 + rep as u64);
        let mut rng = rng_from_seed(0xAD2 + a as u64 * 131 + rep as u64);
        let design = robotune_sampling::lhs_maximin(20, arms[a].1.dim(), &mut rng, 16);
        let mut opts = RoboTuneEngineOptions::default();
        if a == 1 {
            opts.bo = opts.bo.for_full_space();
        }
        let session =
            RoboTuneEngine::new(arms[a].1.clone(), opts).run(&mut j, design, budget, &mut rng);
        (a, session.best_time())
    });
    let mut rows = Vec::new();
    for (a, (name, _)) in arms.iter().enumerate() {
        let bests: Vec<f64> = results
            .iter()
            .filter(|(ai, _)| *ai == a)
            .filter_map(|(_, b)| *b)
            .collect();
        rows.push(vec![name.to_string(), format!("{:.0}", mean(&bests))]);
    }
    let mut md = String::from(
        "## Ablation — RF dimension reduction vs BO on all 44 dimensions (PR-D1)\n\n",
    );
    md.push_str(&markdown_table(&["search space", "mean best (s)"], &rows));
    md.push_str("\nHigh-dimensional GPs struggle (§3.1); reduction should win.\n");
    md
}

/// Shared RoboTune pipeline wrapper used by a couple of arms above.
#[allow(dead_code)]
fn pipeline_best(space: &Arc<ConfigSpace>, w: Workload, d: Dataset, budget: usize, seed: u64) -> Option<f64> {
    let mut tuner = RoboTune::new(RoboTuneOptions::default());
    let mut j = job(space, w, d, seed);
    let mut rng = rng_from_seed(seed);
    tuner
        .tune_workload(space, w.short_name(), &mut j, budget, &mut rng)
        .session
        .best_time()
}
