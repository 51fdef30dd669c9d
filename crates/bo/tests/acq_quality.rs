//! Acquisition-search quality: the gradient refinement against the
//! derivative-free search it replaced.
//!
//! The oracle below is the coordinate pattern search `refine` ran before
//! the posterior had a gradient: from the same best `refine_top`
//! candidates of the same shared draw, steps of 0.1 halved six times,
//! each trial point clamped into the unit cube and kept only if it
//! raises the acquisition. On a fixed corpus of posteriors shaped like
//! the tuner's — GP fits on LHS points over selected subspaces of the
//! Spark configuration space (2 to 8 parameters, 20 to 100 runs), scored
//! by the simulator, failed and capped runs recorded at the 480 s
//! penalty — the acquisition value at the point `refine` returns must
//! reach at least the oracle's (to 1e-9 relative) at the median and at
//! the 10th percentile, for each of PI, EI and LCB.

use std::sync::Arc;

use robotune_bo::optimize::{draw_candidates, refine, NegatedAcquisition, OptimizeOptions};
use robotune_bo::ALL_ACQUISITIONS;
use robotune_gp::{fit_gp, GpModel, HyperFitOptions, Matern52};
use robotune_space::spark::{names, spark_space};
use robotune_space::SearchSpace;
use robotune_sparksim::{Dataset, SparkJob, Workload};
use robotune_stats::rng_from_seed;
use robotune_tuners::Objective;

/// Per-evaluation cap, and the penalty a failed or capped run records.
const CAP_S: f64 = 480.0;

/// Selected subspaces take the first `dim` of these.
const PARAMETERS: [&str; 8] = [
    names::EXECUTOR_CORES,
    names::EXECUTOR_MEMORY,
    names::EXECUTOR_INSTANCES,
    names::DEFAULT_PARALLELISM,
    names::MEMORY_FRACTION,
    names::EXECUTOR_MEMORY_OVERHEAD,
    names::SHUFFLE_FILE_BUFFER,
    names::REDUCER_MAX_SIZE_IN_FLIGHT,
];

/// The former search: rank the candidates by `scores`, then from each of
/// the best `opts.refine_top` run a coordinate pattern search (initial
/// step 0.1, six halvings) under the pointwise `score`, and return the
/// best point found.
fn pattern_search<F: Fn(&[f64]) -> f64>(
    candidates: &[Vec<f64>],
    scores: &[f64],
    score: F,
    opts: &OptimizeOptions,
) -> Vec<f64> {
    let dim = candidates[0].len();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    order.truncate(opts.refine_top.max(1));
    let mut best = (scores[order[0]], candidates[order[0]].clone());
    for i in order {
        let (mut fx, mut x) = (scores[i], candidates[i].clone());
        let mut step = 0.1;
        for _ in 0..=6 {
            let mut improved = true;
            while improved {
                improved = false;
                for d in 0..dim {
                    for dir in [-1.0, 1.0] {
                        let orig = x[d];
                        let cand = (orig + dir * step).clamp(0.0, 1.0);
                        if cand == orig {
                            continue;
                        }
                        x[d] = cand;
                        let f = score(&x);
                        if f > fx {
                            fx = f;
                            improved = true;
                        } else {
                            x[d] = orig;
                        }
                    }
                }
            }
            step *= 0.5;
        }
        if fx > best.0 {
            best = (fx, x);
        }
    }
    best.1
}

/// One corpus entry: a GP fitted to a workload's runtimes at `n` LHS
/// points of a `dim`-parameter subspace around the default
/// configuration, with the incumbent.
struct Posterior {
    label: String,
    model: GpModel<Matern52>,
    best: f64,
    penalised: usize,
}

fn posterior(workload: Workload, dataset: Dataset, dim: usize, n: usize, seed: u64) -> Posterior {
    let space = Arc::new(spark_space());
    let selected: Vec<usize> = PARAMETERS[..dim]
        .iter()
        .map(|name| space.index_of(name).expect("parameter in the Spark space"))
        .collect();
    let sub = space.subspace(&selected, space.default_configuration());
    let mut rng = rng_from_seed(seed);
    let x = robotune_sampling::lhs(n, dim, &mut rng);
    let mut job = SparkJob::new((*space).clone(), workload, dataset, seed);
    let mut penalised = 0;
    let y: Vec<f64> = x
        .iter()
        .map(|p| {
            let eval = job.evaluate(&sub.decode(p), CAP_S);
            penalised += usize::from(!eval.completed);
            eval.objective_value(CAP_S)
        })
        .collect();
    let best = y.iter().copied().fold(f64::INFINITY, f64::min);
    let model = fit_gp(&x, &y, &HyperFitOptions::default(), &mut rng).expect("fit");
    Posterior {
        label: format!("{workload:?}-{dataset:?} dim={dim} n={n} seed={seed}"),
        model,
        best,
        penalised,
    }
}

/// The `q`-quantile (nearest rank) of `v`, sorted ascending.
fn quantile(v: &[f64], q: f64) -> f64 {
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Per-acquisition tally of relative gaps `(bfgs − oracle) / |oracle|`.
#[derive(Default)]
struct Tally {
    gaps: Vec<f64>,
    worst: Option<(f64, String, f64, f64)>,
}

#[test]
fn gradient_refinement_matches_or_beats_the_pattern_search() {
    // Debug builds run one posterior per (workload, dim, size) and one
    // draw on each; release runs five posteriors and three draws.
    let (reps, draws): (u64, u64) = if cfg!(debug_assertions) {
        (1, 1)
    } else {
        (5, 3)
    };
    let opts = OptimizeOptions::default();
    let (xi, kappa) = (0.01, 1.96);
    let mut tallies: [Tally; 3] = Default::default();
    let mut penalised_sets = 0;
    let mut sets = 0;
    for (w, workload) in [Workload::PageRank, Workload::KMeans, Workload::TeraSort]
        .into_iter()
        .enumerate()
    {
        for dim in [2, 4, 6, 8] {
            for n in [20, 50, 100] {
                for rep in 0..reps {
                    let seed = 10_000 * w as u64 + 100 * dim as u64 + n as u64 + 1000 * rep;
                    let dataset = if rep % 2 == 0 {
                        Dataset::D1
                    } else {
                        Dataset::D2
                    };
                    let post = posterior(workload, dataset, dim, n, seed);
                    sets += 1;
                    penalised_sets += usize::from(post.penalised > 0);
                    let mut rng = rng_from_seed(seed ^ 0xac9);
                    for _ in 0..draws {
                        let candidates = draw_candidates(dim, &opts, &mut rng);
                        let batch = post.model.predict_batch(&candidates);
                        for (tally, kind) in tallies.iter_mut().zip(ALL_ACQUISITIONS) {
                            let acq = NegatedAcquisition {
                                model: &post.model,
                                kind,
                                best: post.best,
                                xi,
                                kappa,
                            };
                            let value = |p: &[f64]| {
                                let (mean, var) = post.model.predict(p);
                                acq.score(mean, var)
                            };
                            let scores: Vec<f64> = batch
                                .iter()
                                .map(|&(mean, var)| acq.score(mean, var))
                                .collect();
                            let found = value(&refine(&candidates, &scores, &acq, &opts));
                            let oracle = value(&pattern_search(&candidates, &scores, value, &opts));
                            let gap = (found - oracle) / oracle.abs().max(f64::MIN_POSITIVE);
                            if tally.worst.as_ref().is_none_or(|w| gap < w.0) {
                                tally.worst = Some((gap, post.label.clone(), found, oracle));
                            }
                            tally.gaps.push(gap);
                        }
                    }
                }
            }
        }
    }
    assert!(penalised_sets > 0, "the corpus must include censored runs");
    println!("{sets} posteriors ({penalised_sets} with penalised runs)");
    for (tally, kind) in tallies.iter_mut().zip(ALL_ACQUISITIONS) {
        let gaps = &mut tally.gaps;
        gaps.sort_by(f64::total_cmp);
        let (median, p10) = (quantile(gaps, 0.5), quantile(gaps, 0.1));
        let won = gaps.iter().filter(|&&g| g > 1e-9).count();
        let lost = gaps.iter().filter(|&&g| g < -1e-9).count();
        let name = kind.name();
        if let Some((gap, label, found, oracle)) = &tally.worst {
            println!(
                "{name}: {} nominations, won {won}, lost {lost}, median gap {median:e}, \
                 p10 {p10:e}; worst {label}: {found:e} vs oracle {oracle:e} ({:+.1}%)",
                gaps.len(),
                gap * 100.0
            );
        }
        assert!(median >= -1e-9, "{name}: median gap {median:e}");
        assert!(p10 >= -1e-9, "{name}: p10 gap {p10:e}");
    }
}
