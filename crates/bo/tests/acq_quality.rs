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
//!
//! `BoEngine` searches a smaller draw plus carried starts: last round's
//! three nominees and the incumbent. A second corpus of tuning-shaped
//! sequences, in which the GP grows by one observation per round, holds
//! that carried search to the same rule against both the former
//! 256-point draw and the oracle.

use std::sync::Arc;

use robotune_bo::optimize::{carry, draw_candidates, refine, NegatedAcquisition, OptimizeOptions};
use robotune_bo::AcquisitionKind;
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
    let model = fit_gp(&x, &y, &HyperFitOptions::default(), None, &mut rng).expect("fit");
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

/// The draw every suggest scored before the search carried starts.
const FORMER_DRAW: usize = 256;

/// The carried draw sizes the growing corpus compares.
const CARRIED_DRAWS: [usize; 3] = [64, 96, 128];

/// Relative gap of `found` over `reference`.
fn rel_gap(found: f64, reference: f64) -> f64 {
    (found - reference) / reference.abs().max(f64::MIN_POSITIVE)
}

fn acquisition(
    model: &GpModel<Matern52>,
    kind: AcquisitionKind,
    best: f64,
) -> NegatedAcquisition<'_> {
    NegatedAcquisition {
        model,
        kind,
        best,
        xi: 0.01,
        kappa: 1.96,
    }
}

/// The acquisition search as `BoEngine` runs it: `candidates` scored in
/// one posterior pass, then each acquisition refines its best few.
/// Returns each acquisition's nominee with its candidates' scores.
fn nominate(
    model: &GpModel<Matern52>,
    best: f64,
    candidates: &[Vec<f64>],
    opts: &OptimizeOptions,
) -> [(Vec<f64>, Vec<f64>); 3] {
    let batch = model.predict_batch(candidates);
    ALL_ACQUISITIONS.map(|kind| {
        let acq = acquisition(model, kind, best);
        let scores: Vec<f64> = batch.iter().map(|&(m, v)| acq.score(m, v)).collect();
        (refine(candidates, &scores, &acq, opts), scores)
    })
}

/// One tuning-shaped session on a `dim`-parameter subspace: a 20-point
/// LHS design, then one observation per round, refitted as `BoEngine`
/// does (a warm hyperfit every 5 observations, a Cholesky refit at the
/// last hyperparameters in between).
struct Session {
    job: SparkJob,
    sub: robotune_space::Subspace,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    model: Option<GpModel<Matern52>>,
    fit_rng: rand::rngs::StdRng,
}

impl Session {
    fn new(workload: Workload, dataset: Dataset, dim: usize, seed: u64) -> Self {
        const DESIGN: usize = 20;
        let space = Arc::new(spark_space());
        let selected: Vec<usize> = PARAMETERS[..dim]
            .iter()
            .map(|name| space.index_of(name).expect("parameter in the Spark space"))
            .collect();
        let sub = space.subspace(&selected, space.default_configuration());
        let job = SparkJob::new((*space).clone(), workload, dataset, seed);
        let mut fit_rng = rng_from_seed(seed);
        let design = robotune_sampling::lhs(DESIGN, dim, &mut fit_rng);
        let mut session = Session {
            job,
            sub,
            xs: Vec::new(),
            ys: Vec::new(),
            model: None,
            fit_rng,
        };
        for x in design {
            session.observe(x);
        }
        session
    }

    fn observe(&mut self, x: Vec<f64>) {
        let eval = self.job.evaluate(&self.sub.decode(&x), CAP_S);
        self.ys.push(eval.objective_value(CAP_S));
        self.xs.push(x);
    }

    /// Refits the posterior over every observation; returns it with the
    /// incumbent's point and value.
    fn refit(&mut self, round: usize) -> (GpModel<Matern52>, Vec<f64>, f64) {
        let last = self.model.take();
        let cheap = match &last {
            Some(m) if !round.is_multiple_of(5) => {
                GpModel::fit(self.xs.clone(), &self.ys, *m.kernel(), m.noise()).ok()
            }
            _ => None,
        };
        let model = cheap.unwrap_or_else(|| {
            let warm = last.map(|m| {
                [
                    m.kernel().length_scale.ln(),
                    m.kernel().variance.ln(),
                    m.noise().ln(),
                ]
            });
            let opts = HyperFitOptions::default();
            fit_gp(&self.xs, &self.ys, &opts, warm, &mut self.fit_rng).expect("fit")
        });
        let (x, &y) = self
            .xs
            .iter()
            .zip(&self.ys)
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("a design");
        (model, x.clone(), y)
    }
}

/// Relative gaps of one search against the former 256-point search and
/// against the oracle.
#[derive(Default)]
struct Gaps {
    former: Vec<f64>,
    oracle: Vec<f64>,
}

#[test]
fn carried_search_on_growing_posteriors_matches_the_former_draw() {
    // Every carried draw size runs its own sessions. Each round, on the
    // session's posterior, three searches run from independent draws:
    // the carried search (`size` random points, then the size's own
    // nominees from the round before and the incumbent, ranked together
    // as `BoEngine` ranks them), the former 256-point search, and a
    // control — the former search again on another draw. The oracle is
    // the pattern search from the former search's starts. The session
    // then observes the carried search's nominee of the acquisition
    // whose turn it is. Debug builds run one session per workload and 8
    // rounds; release runs three per (workload, dim) and 40.
    let (reps, rounds, dims): (u64, usize, &[usize]) = if cfg!(debug_assertions) {
        (1, 8, &[4])
    } else {
        (3, 40, &[3, 5, 8])
    };
    let former = OptimizeOptions {
        candidates: FORMER_DRAW,
        ..OptimizeOptions::default()
    };
    // tallies[size][acquisition] = (carried search, control)
    let mut tallies: Vec<[(Gaps, Gaps); 3]> =
        CARRIED_DRAWS.iter().map(|_| Default::default()).collect();
    for (w, workload) in [Workload::PageRank, Workload::KMeans, Workload::TeraSort]
        .into_iter()
        .enumerate()
    {
        for &dim in dims {
            for rep in 0..reps {
                let seed = 70_000 + 10_000 * w as u64 + 100 * dim as u64 + rep;
                let dataset = if rep % 2 == 0 {
                    Dataset::D1
                } else {
                    Dataset::D2
                };
                for (k, &size) in CARRIED_DRAWS.iter().enumerate() {
                    let opts = OptimizeOptions {
                        candidates: size,
                        ..OptimizeOptions::default()
                    };
                    let mut session = Session::new(workload, dataset, dim, seed);
                    let mut rngs = [0xac9, 0xc0, 0x0e].map(|s| rng_from_seed(seed ^ s));
                    let mut carried: Vec<Vec<f64>> = Vec::new();
                    for round in 0..rounds {
                        let (model, incumbent, best) = session.refit(round);
                        let full = draw_candidates(dim, &former, &mut rngs[0]);
                        let reference = nominate(&model, best, &full, &former);
                        let control_draw = draw_candidates(dim, &former, &mut rngs[1]);
                        let control = nominate(&model, best, &control_draw, &former);
                        let mut candidates = draw_candidates(dim, &opts, &mut rngs[2]);
                        carry(
                            &mut candidates,
                            size,
                            carried.into_iter().chain([incumbent]),
                        );
                        let found = nominate(&model, best, &candidates, &opts);
                        for (a, kind) in ALL_ACQUISITIONS.into_iter().enumerate() {
                            let acq = acquisition(&model, kind, best);
                            let at = |p: &[f64]| {
                                let (mean, var) = model.predict(p);
                                acq.score(mean, var)
                            };
                            let oracle = at(&pattern_search(&full, &reference[a].1, at, &former));
                            let former_value = at(&reference[a].0);
                            let (ours, theirs) = &mut tallies[k][a];
                            for (gaps, nominee) in [(ours, &found[a].0), (theirs, &control[a].0)] {
                                gaps.former.push(rel_gap(at(nominee), former_value));
                                gaps.oracle.push(rel_gap(at(nominee), oracle));
                            }
                        }
                        carried = found.into_iter().map(|(nominee, _)| nominee).collect();
                        session.model = Some(model);
                        session.observe(carried[round % 3].clone());
                    }
                }
            }
        }
    }
    // At the median the carried search must reach the former search and
    // the oracle (to 1e-9 relative). At the 10th percentile it must reach
    // them to 1e-9 or fall no further below them than the control does:
    // the former search on another draw misses their value by a few
    // percent there, so "p10 ≥ −1e-9" alone would test draw luck, not the
    // search. That verdict is printed too.
    let default_draw = OptimizeOptions::default().candidates;
    assert!(
        CARRIED_DRAWS.contains(&default_draw),
        "the default draw {default_draw} is not in the corpus"
    );
    let mut failures = Vec::new();
    for (k, &size) in CARRIED_DRAWS.iter().enumerate() {
        for ((ours, theirs), kind) in tallies[k].iter_mut().zip(ALL_ACQUISITIONS) {
            let mut line = format!("draw {size} + carried, {}:", kind.name());
            let (mut holds, mut strict) = (true, true);
            for (label, g, c) in [
                ("former", &mut ours.former, &mut theirs.former),
                ("oracle", &mut ours.oracle, &mut theirs.oracle),
            ] {
                g.sort_by(f64::total_cmp);
                c.sort_by(f64::total_cmp);
                let (median, p10, control) = (quantile(g, 0.5), quantile(g, 0.1), quantile(c, 0.1));
                let lost = g.iter().filter(|&&v| v < -1e-9).count();
                line += &format!(
                    " vs {label}: median {median:.1e}, p10 {p10:.1e} (control {control:.1e}), \
                     lost {lost} of {};",
                    g.len()
                );
                holds &= median >= -1e-9 && (p10 >= -1e-9 || p10 >= control);
                strict &= median >= -1e-9 && p10 >= -1e-9;
            }
            let verdict = match (holds, strict) {
                (true, true) => "holds, also at p10 ≥ −1e-9",
                (true, false) => "holds",
                _ => "fails",
            };
            println!("{line} {verdict}");
            if size == default_draw && !holds {
                failures.push(line);
            }
        }
    }
    assert!(failures.is_empty(), "the default draw fails: {failures:#?}");
}
