//! Hyperfit quality: the gradient-based ML-II fit against the
//! derivative-free fit it replaced.
//!
//! The oracle below is the multi-start Nelder–Mead search `fit_gp` ran
//! before it had a likelihood gradient: the same default start plus the
//! same random restarts drawn from the same RNG, 120 likelihood
//! evaluations per start, each evaluation clamped into the search box.
//! On a fixed corpus of training sets shaped like the tuner's — LHS
//! points over a selected subspace of the Spark configuration space,
//! scored by the simulator, failed and capped runs recorded at the 480 s
//! penalty — the quasi-Newton fit must reach at least the oracle's log
//! marginal likelihood (to 1e-6) at the median and at the 10th
//! percentile.
//!
//! The tuner refits a training set that grows a few observations at a
//! time, each fit warm-started from the previous one. A second corpus of
//! such sequences holds the warm fits to the same rule.

use std::sync::Arc;

use robotune_gp::{fit_gp, HyperFitOptions, Matern52, PreparedData};
use robotune_space::spark::{names, spark_space};
use robotune_space::{ConfigSpace, SearchSpace, Subspace};
use robotune_sparksim::{Dataset, SparkJob, Workload};
use robotune_stats::rng_from_seed;
use robotune_tuners::Objective;

/// Per-evaluation cap, and the penalty a failed or capped run records.
const CAP_S: f64 = 480.0;

/// Nelder–Mead simplex minimisation from `x0` with initial step `step`:
/// reflection 1, expansion 2, contraction ½, shrink ½; stops after
/// `max_evals` evaluations or once the simplex is both flat (spread
/// below `tol`) and collapsed. NaN counts as +∞. Returns the best point
/// and its value.
fn nelder_mead<F>(mut f: F, x0: &[f64], step: f64, max_evals: usize, tol: f64) -> (Vec<f64>, f64)
where
    F: FnMut(&[f64]) -> f64,
{
    let dim = x0.len();
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(dim + 1);
    let fx0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), fx0));
    for d in 0..dim {
        let mut p = x0.to_vec();
        p[d] += step;
        let fp = eval(&p, &mut evals);
        simplex.push((p, fp));
    }

    while evals < max_evals {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let spread = simplex[dim].1 - simplex[0].1;
        let diameter = simplex[1..]
            .iter()
            .map(|(p, _)| {
                p.iter()
                    .zip(&simplex[0].0)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        if spread.abs() < tol && diameter < 1e-7 {
            break;
        }

        let mut centroid = vec![0.0; dim];
        for (p, _) in &simplex[..dim] {
            for (c, &v) in centroid.iter_mut().zip(p) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= dim as f64;
        }
        let worst = simplex[dim].clone();
        let lerp = |t: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&worst.0)
                .map(|(&c, &w)| c + t * (c - w))
                .collect()
        };

        let refl = lerp(1.0);
        let f_refl = eval(&refl, &mut evals);
        if f_refl < simplex[0].1 {
            let exp = lerp(2.0);
            let f_exp = eval(&exp, &mut evals);
            simplex[dim] = if f_exp < f_refl {
                (exp, f_exp)
            } else {
                (refl, f_refl)
            };
        } else if f_refl < simplex[dim - 1].1 {
            simplex[dim] = (refl, f_refl);
        } else {
            let (base, f_base) = if f_refl < worst.1 {
                (refl.clone(), f_refl)
            } else {
                (worst.0.clone(), worst.1)
            };
            let contr: Vec<f64> = centroid
                .iter()
                .zip(&base)
                .map(|(&c, &b)| c + 0.5 * (b - c))
                .collect();
            let f_contr = eval(&contr, &mut evals);
            if f_contr < f_base {
                simplex[dim] = (contr, f_contr);
            } else {
                let best = simplex[0].0.clone();
                for v in simplex.iter_mut().skip(1) {
                    for (vi, &bi) in v.0.iter_mut().zip(&best) {
                        *vi = bi + 0.5 * (*vi - bi);
                    }
                    v.1 = eval(&v.0.clone(), &mut evals);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    simplex.swap_remove(0)
}

/// The oracle's best log marginal likelihood: `fit_gp`'s former search
/// (same starts from the same RNG, Nelder–Mead with step 0.7, 120
/// evaluations per start, tolerance 1e-8, parameters clamped into the
/// box), evaluated at the clamped winner.
fn oracle_lml(x: &[Vec<f64>], y: &[f64], opts: &HyperFitOptions, seed: u64) -> f64 {
    use rand::Rng;
    let mut rng = rng_from_seed(seed);
    let mut starts = vec![vec![(0.5f64).ln(), 0.0, (1e-3f64).ln()]];
    for _ in 0..opts.restarts {
        starts.push(vec![
            rng.gen_range(opts.log_length_bounds.0..opts.log_length_bounds.1),
            rng.gen_range(opts.log_variance_bounds.0..opts.log_variance_bounds.1),
            rng.gen_range(opts.log_noise_bounds.0..opts.log_noise_bounds.1),
        ]);
    }
    let data = PreparedData::prepare(x.to_vec(), y).expect("valid training set");
    let lml = |theta: &[f64]| -> f64 {
        let ll = theta[0].clamp(opts.log_length_bounds.0, opts.log_length_bounds.1);
        let lv = theta[1].clamp(opts.log_variance_bounds.0, opts.log_variance_bounds.1);
        let ln = theta[2].clamp(opts.log_noise_bounds.0, opts.log_noise_bounds.1);
        data.log_marginal(&Matern52::new(ll.exp(), lv.exp()), ln.exp())
            .unwrap_or(f64::NEG_INFINITY)
    };
    starts
        .iter()
        .map(|s| nelder_mead(|t| -lml(t), s, 0.7, opts.evals_per_restart, 1e-8))
        .filter(|(_, fx)| fx.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(f64::NEG_INFINITY, |(theta, _)| lml(&theta))
}

/// One corpus entry: a workload's runtimes at `n` LHS points of a
/// 5-parameter subspace (executor sizing, parallelism, memory fraction)
/// around the default configuration.
struct TrainingSet {
    label: String,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    penalised: usize,
}

/// The Spark space and its 5-parameter subspace the corpus samples.
fn subspace() -> (Arc<ConfigSpace>, Subspace) {
    let space = Arc::new(spark_space());
    let selected: Vec<usize> = [
        names::EXECUTOR_CORES,
        names::EXECUTOR_MEMORY,
        names::EXECUTOR_INSTANCES,
        names::DEFAULT_PARALLELISM,
        names::MEMORY_FRACTION,
    ]
    .iter()
    .map(|name| space.index_of(name).expect("parameter in the Spark space"))
    .collect();
    let sub = space.subspace(&selected, space.default_configuration());
    (space, sub)
}

fn training_set(workload: Workload, dataset: Dataset, n: usize, seed: u64) -> TrainingSet {
    let (space, sub) = subspace();
    let mut rng = rng_from_seed(seed);
    let x = robotune_sampling::lhs(n, sub.dim(), &mut rng);
    let mut job = SparkJob::new((*space).clone(), workload, dataset, seed);
    let mut penalised = 0;
    let y = x
        .iter()
        .map(|p| {
            let eval = job.evaluate(&sub.decode(p), CAP_S);
            penalised += usize::from(!eval.completed);
            eval.objective_value(CAP_S)
        })
        .collect();
    TrainingSet {
        label: format!("{workload:?}-{dataset:?} n={n} seed={seed}"),
        x,
        y,
        penalised,
    }
}

/// A sequence of training sets shaped like a tuning session's: an LHS
/// design of `DESIGN` points over the same 5-parameter subspace as
/// [`training_set`], then observations arriving `GROWTH` at a time up to
/// `n`, alternately near the incumbent (a Gaussian step of 0.05 per
/// coordinate, as an exploiting acquisition proposes) and uniform (as an
/// exploring one does). Returns the design and every prefix the tuner
/// would refit on.
fn growing_sets(workload: Workload, dataset: Dataset, n: usize, seed: u64) -> Vec<TrainingSet> {
    use rand::Rng;
    const DESIGN: usize = 20;
    const GROWTH: usize = 5;
    let mut set = training_set(workload, dataset, DESIGN, seed);
    let (space, sub) = subspace();
    let mut job = SparkJob::new((*space).clone(), workload, dataset, seed + 1);
    let mut rng = rng_from_seed(seed + 1);
    let mut prefixes = Vec::new();
    loop {
        prefixes.push(TrainingSet {
            label: format!("{workload:?}-{dataset:?} n={} seed={seed}", set.y.len()),
            x: set.x.clone(),
            y: set.y.clone(),
            penalised: set.penalised,
        });
        if set.y.len() >= n {
            return prefixes;
        }
        for k in 0..GROWTH {
            let best = set
                .y
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            let p: Vec<f64> = if k % 2 == 0 {
                set.x[best]
                    .iter()
                    .map(|&v| {
                        (v + 0.05 * robotune_stats::standard_normal(&mut rng)).clamp(0.0, 1.0)
                    })
                    .collect()
            } else {
                (0..sub.dim()).map(|_| rng.gen::<f64>()).collect()
            };
            let eval = job.evaluate(&sub.decode(&p), CAP_S);
            set.penalised += usize::from(!eval.completed);
            set.y.push(eval.objective_value(CAP_S));
            set.x.push(p);
        }
    }
}

/// The `q`-quantile (nearest rank) of `v`, sorted ascending.
fn quantile(v: &[f64], q: f64) -> f64 {
    v[((v.len() - 1) as f64 * q).round() as usize]
}

#[test]
fn gradient_fit_matches_or_beats_the_nelder_mead_oracle() {
    // Debug builds run one set per (workload, size); release runs five.
    let reps: u64 = if cfg!(debug_assertions) { 1 } else { 5 };
    let opts = HyperFitOptions::default();
    let mut gaps = Vec::new();
    let mut worst: Option<(f64, String, f64, f64)> = None;
    let mut penalised_sets = 0;
    for (w, workload) in [Workload::PageRank, Workload::KMeans, Workload::TeraSort]
        .into_iter()
        .enumerate()
    {
        for n in [20, 40, 60, 100] {
            for rep in 0..reps {
                let seed = 1000 * w as u64 + 10 * n as u64 + rep;
                let dataset = if rep % 2 == 0 {
                    Dataset::D1
                } else {
                    Dataset::D2
                };
                let set = training_set(workload, dataset, n, seed);
                penalised_sets += usize::from(set.penalised > 0);
                let oracle = oracle_lml(&set.x, &set.y, &opts, seed);
                let fitted = fit_gp(&set.x, &set.y, &opts, None, &mut rng_from_seed(seed))
                    .expect("fit")
                    .log_marginal_likelihood();
                let gap = fitted - oracle;
                if worst.as_ref().is_none_or(|w| gap < w.0) {
                    worst = Some((gap, set.label.clone(), fitted, oracle));
                }
                gaps.push(gap);
            }
        }
    }
    gaps.sort_by(f64::total_cmp);
    let (median, p10) = (quantile(&gaps, 0.5), quantile(&gaps, 0.1));
    let better = gaps.iter().filter(|&&g| g > 1e-6).count();
    let worse = gaps.iter().filter(|&&g| g < -1e-6).count();
    if let Some((gap, label, fitted, oracle)) = &worst {
        println!(
            "{} sets ({penalised_sets} with penalised runs): median gap {median:e}, p10 {p10:e}, \
             better by >1e-6 in {better}, worse in {worse}; worst {label}: \
             LML {fitted} vs oracle {oracle} (gap {gap:e})",
            gaps.len()
        );
    }
    assert!(penalised_sets > 0, "the corpus must include censored runs");
    assert!(median >= -1e-6, "median LML gap {median:e}");
    assert!(p10 >= -1e-6, "p10 LML gap {p10:e}");
}

#[test]
fn warm_fits_on_growing_sets_match_or_beat_the_nelder_mead_oracle() {
    // Each sequence refits 20 → 100 observations in steps of 5, the first
    // fit cold and every later one warm from its predecessor, as
    // `BoEngine` does. Debug builds run one sequence per workload;
    // release runs five.
    let reps: u64 = if cfg!(debug_assertions) { 1 } else { 5 };
    let opts = HyperFitOptions::default();
    let mut gaps = Vec::new();
    let mut worst: Option<(f64, String, f64, f64)> = None;
    for (w, workload) in [Workload::PageRank, Workload::KMeans, Workload::TeraSort]
        .into_iter()
        .enumerate()
    {
        for rep in 0..reps {
            let seed = 5000 + 1000 * w as u64 + rep;
            let dataset = if rep % 2 == 0 {
                Dataset::D1
            } else {
                Dataset::D2
            };
            let mut rng = rng_from_seed(seed);
            let mut theta = None;
            for (k, set) in growing_sets(workload, dataset, 100, seed)
                .iter()
                .enumerate()
            {
                let m = fit_gp(&set.x, &set.y, &opts, theta, &mut rng).expect("fit");
                let warm = theta.is_some();
                theta = Some([
                    m.kernel().length_scale.ln(),
                    m.kernel().variance.ln(),
                    m.noise().ln(),
                ]);
                if !warm {
                    continue;
                }
                let fitted = m.log_marginal_likelihood();
                let oracle = oracle_lml(&set.x, &set.y, &opts, seed * 100 + k as u64);
                let gap = fitted - oracle;
                if worst.as_ref().is_none_or(|w| gap < w.0) {
                    worst = Some((gap, set.label.clone(), fitted, oracle));
                }
                gaps.push(gap);
            }
        }
    }
    gaps.sort_by(f64::total_cmp);
    let (median, p10) = (quantile(&gaps, 0.5), quantile(&gaps, 0.1));
    let better = gaps.iter().filter(|&&g| g > 1e-6).count();
    let worse = gaps.iter().filter(|&&g| g < -1e-6).count();
    let worse_nat = gaps.iter().filter(|&&g| g < -1.0).count();
    if let Some((gap, label, fitted, oracle)) = &worst {
        println!(
            "{} warm fits: median gap {median:e}, p10 {p10:e}, better by >1e-6 in {better}, \
             worse in {worse} (by >1 nat in {worse_nat}); worst {label}: \
             LML {fitted} vs oracle {oracle} (gap {gap:e})",
            gaps.len()
        );
    }
    assert!(median >= -1e-6, "median LML gap {median:e}");
    assert!(p10 >= -1e-6, "p10 LML gap {p10:e}");
}
