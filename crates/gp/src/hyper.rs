//! Maximum-likelihood GP hyperparameter fitting.
//!
//! Optimises `(log ℓ, log σ², log σ_n²)` of a Matérn 5/2 + white-noise GP
//! (for ARD, one `log ℓ` per dimension) by multi-start bounded
//! quasi-Newton ([`robotune_linalg::bfgs`]) on the log marginal
//! likelihood and its analytic gradient
//! ([`PreparedData::log_marginal_grad`]) — the ML-II
//! fit scikit-learn's GP regressor performs with L-BFGS-B. Targets are
//! standardised inside [`crate::model::GpModel`], so the same search box
//! works across workloads.
//!
//! Every likelihood evaluation shares the same training set, so the
//! pairwise distances and standardised targets are computed **once**
//! ([`PreparedData`]). The restarts are independent, so they run on
//! scoped threads ([`FitStrategy::Parallel`]) with a deterministic best-of
//! selection (lowest negative log-marginal-likelihood, lowest restart
//! index on ties): the chosen hyperparameters are byte-identical to the
//! serial path. The start points are drawn from the caller's RNG *before*
//! any work, so the RNG stream does not depend on how the fit went.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;
use robotune_linalg::bfgs::{minimize, Minimum, Objective};

use crate::error::GpError;
use crate::kernel::{Kernel, Matern52, Matern52Ard};
use crate::model::GpModel;
use crate::prepared::{LikelihoodAt, PreparedData};

/// Monotone sequence number shared by every `diag.gp.fit` event in the
/// process, so per-session subsequences of the series stay monotone too.
/// Telemetry only: touched exclusively while tracing is enabled.
static FIT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Emits one structured `diag.gp.fit` tuner-health event for a
/// successful fit: the learned hyperparameters plus the kernel's
/// numerical conditioning (jitter consumed, condition estimate) and
/// whether the documented fallback values had to be used. Free when
/// tracing is disabled.
fn emit_fit_diag<K: Kernel>(
    scales: &[f64],
    variance: f64,
    fallback: bool,
    warm: bool,
    m: &GpModel<K>,
) {
    if !robotune_obs::is_enabled() {
        return;
    }
    let iter = FIT_SEQ.fetch_add(1, Ordering::Relaxed);
    robotune_obs::diag("diag.gp.fit", iter, || {
        serde_json::json!({
            "lengthscales": scales,
            "variance": variance,
            "noise": m.noise(),
            "n": m.n_observations() as u64,
            "jitter": m.jitter(),
            "cond": m.cond_estimate(),
            "fallback": fallback,
            "warm": warm,
        })
    });
}

/// Documented safe-fallback length scale used when optimisation produces
/// no usable candidate.
pub const FALLBACK_LENGTH_SCALE: f64 = 0.5;
/// Documented safe-fallback signal variance (standardised-target units).
pub const FALLBACK_VARIANCE: f64 = 1.0;
/// Documented safe-fallback white-noise variance. Deliberately smaller
/// than the `1e-3` default *start* point: a fallback should trust the data
/// it has rather than inflate the noise floor.
pub const FALLBACK_NOISE: f64 = 1e-4;

/// How [`fit_gp`] / [`fit_gp_ard`] execute their multi-start restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitStrategy {
    /// Restarts run on `std::thread::scope` threads, one per start and
    /// not capped at the CPU count, whenever there is more than one start
    /// and `host_parallelism()` (the CPUs this process may use, read
    /// once) is above 1; otherwise serially on the calling thread. The
    /// default.
    #[default]
    Parallel,
    /// Restarts run serially on the calling thread. Same arithmetic as
    /// [`FitStrategy::Parallel`]; results are byte-identical.
    Serial,
}

/// Options for [`fit_gp`].
#[derive(Debug, Clone)]
pub struct HyperFitOptions {
    /// Number of random restarts in addition to the default start point.
    /// A warm [`fit_gp`] (one given the previous fit's hyperparameters)
    /// starts from those instead of the default point and draws one
    /// random restart, or none when this is 0.
    pub restarts: usize,
    /// Likelihood evaluation budget per restart (a cap: a restart usually
    /// converges well before it).
    pub evals_per_restart: usize,
    /// Bounds on `log ℓ` (unit-cube length scales).
    pub log_length_bounds: (f64, f64),
    /// Bounds on `log σ²`.
    pub log_variance_bounds: (f64, f64),
    /// Bounds on `log σ_n²`.
    pub log_noise_bounds: (f64, f64),
    /// Execution strategy for the restarts.
    pub strategy: FitStrategy,
}

impl Default for HyperFitOptions {
    fn default() -> Self {
        HyperFitOptions {
            restarts: 3,
            evals_per_restart: 120,
            // ℓ from ~0.02 to ~7.4 in unit-cube units.
            log_length_bounds: (-4.0, 2.0),
            // σ² from ~0.05 to ~20 (targets are standardised).
            log_variance_bounds: (-3.0, 3.0),
            // σ_n² from ~5e-5 to ~1: measured runtimes are noisy, never exact.
            log_noise_bounds: (-10.0, 0.0),
            strategy: FitStrategy::default(),
        }
    }
}

/// The search box over `dim_scales` log length scales, log variance and
/// log noise.
fn log_param_bounds(opts: &HyperFitOptions, dim_scales: usize) -> Vec<(f64, f64)> {
    let mut b = vec![opts.log_length_bounds; dim_scales];
    b.push(opts.log_variance_bounds);
    b.push(opts.log_noise_bounds);
    b
}

/// The start points of one fit, all taken from `rng` before any fitting
/// work. A cold fit (`warm` is `None`) starts from the default point plus
/// `opts.restarts` uniform draws from the box; a warm fit from `warm`
/// clamped into the box plus at most one draw.
fn draw_starts<R: Rng + ?Sized>(
    bounds: &[(f64, f64)],
    opts: &HyperFitOptions,
    warm: Option<&[f64]>,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    let (start, draws) = match warm {
        Some(theta) => (
            theta
                .iter()
                .zip(bounds)
                .map(|(&t, &(lo, hi))| t.clamp(lo, hi))
                .collect(),
            opts.restarts.min(1),
        ),
        None => {
            let mut start = vec![(0.5f64).ln(); bounds.len() - 2];
            start.push(0.0);
            start.push((1e-3f64).ln());
            (start, opts.restarts)
        }
    };
    let mut starts = vec![start];
    for _ in 0..draws {
        starts.push(
            bounds
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..hi))
                .collect(),
        );
    }
    starts
}

/// Minimises the negative log marginal likelihood of `data` from every
/// start, serially or on scoped threads, and returns the best point. The
/// result vector is indexed by start, independent of thread scheduling,
/// so the selection is deterministic either way.
fn best_restart(
    data: &PreparedData,
    starts: &[Vec<f64>],
    bounds: &[(f64, f64)],
    parallel: bool,
    evals: usize,
) -> Option<Vec<f64>> {
    let neg_lml = NegLml(data);
    let workers = if parallel {
        crate::host_parallelism()
    } else {
        1
    };
    let results: Vec<Minimum> = if workers > 1 && starts.len() > 1 {
        // Carry the caller's trace context across the scoped-thread
        // boundary so each restart's span links back to the enclosing
        // `gp.hyperfit` span instead of rendering as an orphan.
        let ctx = robotune_obs::TraceCtx::current();
        let neg_lml = &neg_lml;
        std::thread::scope(|s| {
            let handles: Vec<_> = starts
                .iter()
                .map(|st| {
                    s.spawn(move || {
                        let _trace = robotune_obs::adopt(ctx);
                        let _span = robotune_obs::span("gp.hyperfit_restart");
                        minimize(neg_lml, st, bounds, evals)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    } else {
        starts
            .iter()
            .map(|st| minimize(&neg_lml, st, bounds, evals))
            .collect()
    };
    for r in &results {
        robotune_obs::incr("gp.hyperfit_restart", 1);
        robotune_obs::record("gp.hyperfit_evals", r.evals as f64);
    }
    select_best(results)
}

/// The negative log marginal likelihood of a training set, in
/// log-hyperparameters: what the hyperfit minimises.
struct NegLml<'a>(&'a PreparedData);

impl Objective for NegLml<'_> {
    type At = LikelihoodAt;

    fn value(&self, theta: &[f64]) -> Option<(f64, LikelihoodAt)> {
        let at = self.0.log_marginal_at(theta).ok()?;
        Some((-at.lml, at))
    }

    fn gradient(&self, at: LikelihoodAt, g: &mut [f64]) {
        self.0.gradient(at, g);
        g.iter_mut().for_each(|v| *v = -*v);
    }
}

/// Picks the restart with the best (lowest) finite negative LML. Ties
/// break on the lowest restart index.
fn select_best(results: Vec<Minimum>) -> Option<Vec<f64>> {
    let mut best: Option<(f64, Vec<f64>)> = None;
    for r in results {
        if r.fx.is_finite()
            && best
                .as_ref()
                .is_none_or(|(b, _)| r.fx.total_cmp(b) == std::cmp::Ordering::Less)
        {
            best = Some((r.fx, r.x));
        }
    }
    best.map(|(_, t)| t)
}

/// Fits the model at the optimised `theta`, or — counted under
/// `gp.hyperfit_fallback` — at the documented fallback values when no
/// restart produced a finite likelihood or the optimum fails to factor.
/// A fallback that cannot be factored either is
/// [`GpError::HyperFitFailed`].
fn fit_or_fallback<K: crate::prepared::CachedKernel>(
    data: &PreparedData,
    theta: Option<Vec<f64>>,
    kernel: impl Fn(&[f64]) -> K,
    fallback_kernel: K,
) -> (Result<GpModel<K>, GpError>, bool) {
    let p = data.n_log_params();
    if let Some(t) = theta {
        if let Ok(m) = GpModel::fit_prepared(data, kernel(&t), t[p - 1].exp()) {
            return (Ok(m), false);
        }
    }
    robotune_obs::incr("gp.hyperfit_fallback", 1);
    let fitted =
        GpModel::fit_prepared(data, fallback_kernel, FALLBACK_NOISE).map_err(|e| match e {
            GpError::Singular(le) => GpError::HyperFitFailed(le),
            other => other,
        });
    (fitted, true)
}

/// Fits a Matérn 5/2 + white-noise GP with ML-II hyperparameters.
///
/// Returns the fitted model with the best marginal likelihood found over
/// all restarts. Falls back to the documented defaults
/// ([`FALLBACK_LENGTH_SCALE`] = 0.5, [`FALLBACK_VARIANCE`] = 1,
/// [`FALLBACK_NOISE`] = 1e-4) — counted under `gp.hyperfit_fallback` — if
/// no optimised candidate can be factored, and to a typed [`GpError`],
/// never a panic, when even the fallback cannot be factored or the inputs
/// are unusable (empty set, NaN targets).
///
/// `warm` is the previous fit's `[log ℓ, log σ², log σ_n²]` when the
/// caller refits a training set grown by a few points, whose optimum is
/// rarely far from the last one; the fit then starts there (see
/// [`HyperFitOptions::restarts`]). `None` is a cold fit.
pub fn fit_gp<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    y: &[f64],
    opts: &HyperFitOptions,
    warm: Option<[f64; 3]>,
    rng: &mut R,
) -> Result<GpModel<Matern52>, GpError> {
    let _span = robotune_obs::span("gp.hyperfit");
    let bounds = log_param_bounds(opts, 1);
    let starts = draw_starts(&bounds, opts, warm.as_ref().map(|t| t.as_slice()), rng);
    let data = PreparedData::prepare(x.to_vec(), y)?;
    let parallel = opts.strategy == FitStrategy::Parallel;
    let theta = best_restart(&data, &starts, &bounds, parallel, opts.evals_per_restart);
    let (fitted, fallback) = fit_or_fallback(
        &data,
        theta,
        |t| Matern52::new(t[0].exp(), t[1].exp()),
        Matern52::new(FALLBACK_LENGTH_SCALE, FALLBACK_VARIANCE),
    );
    if let Ok(m) = &fitted {
        let k = m.kernel();
        emit_fit_diag(&[k.length_scale], k.variance, fallback, warm.is_some(), m);
    }
    fitted
}

/// Fits an ARD Matérn 5/2 + white-noise GP with ML-II hyperparameters:
/// `d` log length scales plus log variance and log noise, optimised like
/// a cold [`fit_gp`] from the same kind of starts. Uses the same distance
/// cache, parallel restarts, documented fallback values and
/// `gp.hyperfit_fallback` accounting. Degenerate inputs yield a typed
/// [`GpError`], never a panic.
pub fn fit_gp_ard<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    y: &[f64],
    opts: &HyperFitOptions,
    rng: &mut R,
) -> Result<GpModel<Matern52Ard>, GpError> {
    let _span = robotune_obs::span("gp.hyperfit_ard");
    let Some(first) = x.first() else {
        return Err(GpError::InvalidInput(
            "cannot fit a GP on zero observations",
        ));
    };
    let d = first.len();
    if d == 0 {
        return Err(GpError::InvalidInput(
            "cannot fit an ARD kernel on zero dimensions",
        ));
    }
    let bounds = log_param_bounds(opts, d);
    let starts = draw_starts(&bounds, opts, None, rng);
    let data = PreparedData::prepare_ard(x.to_vec(), y)?;
    // ARD has d+2 parameters; scale the evaluation budget with dimension.
    let evals = opts.evals_per_restart * (1 + d / 2);
    let parallel = opts.strategy == FitStrategy::Parallel;
    let theta = best_restart(&data, &starts, &bounds, parallel, evals);
    let (fitted, fallback) = fit_or_fallback(
        &data,
        theta,
        |t| Matern52Ard::new(t[..d].iter().map(|v| v.exp()).collect(), t[d].exp()),
        Matern52Ard::new(vec![FALLBACK_LENGTH_SCALE; d], FALLBACK_VARIANCE),
    );
    if let Ok(m) = &fitted {
        let k = m.kernel();
        emit_fit_diag(&k.length_scales, k.variance, fallback, false, m);
    }
    fitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_stats::rng_from_seed;

    #[test]
    fn fitted_model_beats_bad_fixed_hyperparameters() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 9.0).sin() * 2.0).collect();
        let mut rng = rng_from_seed(1);
        let fitted = fit_gp(&x, &y, &HyperFitOptions::default(), None, &mut rng).expect("fit");
        let clumsy = GpModel::fit(x.clone(), &y, Matern52::new(5.0, 0.1), 0.5).unwrap();
        assert!(
            fitted.log_marginal_likelihood() > clumsy.log_marginal_likelihood(),
            "ML-II fit should dominate an arbitrary kernel"
        );
    }

    #[test]
    fn fitted_model_predicts_held_out_points() {
        let x: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 24.0]).collect();
        let f = |t: f64| (t * 7.0).sin() + 0.3 * t;
        let y: Vec<f64> = x.iter().map(|p| f(p[0])).collect();
        let mut rng = rng_from_seed(2);
        let m = fit_gp(&x, &y, &HyperFitOptions::default(), None, &mut rng).expect("fit");
        for q in [0.13, 0.47, 0.81] {
            let (mu, _) = m.predict(&[q]);
            assert!((mu - f(q)).abs() < 0.1, "at {q}: {mu} vs {}", f(q));
        }
    }

    #[test]
    fn noisy_data_yields_nonzero_noise_estimate() {
        let mut rng = rng_from_seed(3);
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| p[0] * 2.0 + 0.3 * robotune_stats::standard_normal(&mut rng))
            .collect();
        let m = fit_gp(&x, &y, &HyperFitOptions::default(), None, &mut rng).expect("fit");
        assert!(m.noise() > 1e-4, "noise estimate {} too small", m.noise());
    }

    #[test]
    fn ard_learns_to_ignore_an_irrelevant_dimension() {
        use rand::Rng as _;
        let mut rng = rng_from_seed(5);
        // y depends on x0 only; x1 is noise.
        let x: Vec<Vec<f64>> = (0..35)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 7.0).sin()).collect();
        let m = fit_gp_ard(&x, &y, &HyperFitOptions::default(), &mut rng).expect("fit");
        let scales = &m.kernel().length_scales;
        assert!(
            scales[1] > 2.0 * scales[0],
            "irrelevant dimension should get a longer scale: {scales:?}"
        );
    }

    #[test]
    fn ard_marginal_likelihood_at_least_matches_isotropic_on_anisotropic_data() {
        use rand::Rng as _;
        let mut rng = rng_from_seed(6);
        let x: Vec<Vec<f64>> = (0..30)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        // Fast variation along x0, slow along x1.
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 12.0).sin() + 0.3 * p[1]).collect();
        let iso = fit_gp(&x, &y, &HyperFitOptions::default(), None, &mut rng).expect("fit");
        let ard = fit_gp_ard(&x, &y, &HyperFitOptions::default(), &mut rng).expect("fit");
        assert!(
            ard.log_marginal_likelihood() >= iso.log_marginal_likelihood() - 1.0,
            "ARD ({}) should not lose badly to isotropic ({})",
            ard.log_marginal_likelihood(),
            iso.log_marginal_likelihood()
        );
    }

    #[test]
    fn works_at_higher_dimension() {
        let mut rng = rng_from_seed(4);
        use rand::Rng as _;
        let x: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..5).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| p[0] * 3.0 - p[1] + (p[2] * 4.0).cos())
            .collect();
        let m = fit_gp(&x, &y, &HyperFitOptions::default(), None, &mut rng).expect("fit");
        // Sanity: posterior at a training point tracks its target.
        let (mu, _) = m.predict(&x[0]);
        assert!((mu - y[0]).abs() < 0.5);
    }

    #[test]
    fn near_singular_design_matrix_is_an_error_or_fallback_never_a_panic() {
        // A memoized sampler that keeps replaying the incumbent produces a
        // design matrix of identical rows. With the noise floor allowed to
        // reach ~0 this is the classic path to a non-PD kernel. Whatever
        // happens, it must be a typed result, not a process abort.
        let mut rng = rng_from_seed(11);
        let x: Vec<Vec<f64>> = vec![vec![0.25, 0.75]; 12];
        let y: Vec<f64> = (0..12).map(|i| 3.0 + 1e-12 * i as f64).collect();
        let opts = HyperFitOptions {
            // Force the optimiser towards zero noise so jitter is the only
            // line of defence.
            log_noise_bounds: (-40.0, -39.0),
            ..HyperFitOptions::default()
        };
        match fit_gp(&x, &y, &opts, None, &mut rng) {
            Ok(m) => {
                let (mu, var) = m.predict(&[0.25, 0.75]);
                assert!(mu.is_finite() && var.is_finite());
            }
            Err(e) => assert!(
                matches!(e, GpError::Singular(_) | GpError::HyperFitFailed(_)),
                "unexpected error kind: {e:?}"
            ),
        }
    }

    #[test]
    fn empty_input_yields_typed_error_from_both_fitters() {
        let mut rng = rng_from_seed(1);
        let r = fit_gp_ard(&[], &[], &HyperFitOptions::default(), &mut rng);
        assert!(matches!(r, Err(GpError::InvalidInput(_))));
        let r = fit_gp(&[], &[], &HyperFitOptions::default(), None, &mut rng);
        assert!(matches!(r, Err(GpError::InvalidInput(_))));
    }

    /// Every fit on degenerate input is `Ok` with hyperparameters inside
    /// the box, or a typed error — and replays bit for bit, serially, in
    /// parallel, and on a second call.
    #[test]
    fn degenerate_inputs_give_in_box_fits_or_typed_errors_and_replay() {
        let line = |n: usize| -> Vec<Vec<f64>> {
            (0..n).map(|i| vec![i as f64 / n as f64, 0.3]).collect()
        };
        let cases = [
            ("flat targets", line(15), vec![7.5; 15]),
            (
                "duplicate rows",
                vec![vec![0.4, 0.6]; 10],
                (0..10).map(|i| i as f64).collect(),
            ),
            (
                "duplicates, equal targets",
                vec![vec![0.4, 0.6]; 10],
                vec![2.0; 10],
            ),
            ("n = 1", line(1), vec![3.0]),
            ("n = 2", line(2), vec![3.0, -1.0]),
            ("n = 2, one point", vec![vec![0.5, 0.5]; 2], vec![3.0, -1.0]),
        ];
        let opts = HyperFitOptions::default();
        let inside = |v: f64, (lo, hi): (f64, f64)| v.is_finite() && (lo..=hi).contains(&v.ln());
        for (name, x, y) in &cases {
            // Both fits, plus every hyperparameter's bits (or the error)
            // for the replay comparisons.
            let fit = |strategy: FitStrategy| {
                let opts = HyperFitOptions {
                    strategy,
                    ..opts.clone()
                };
                let iso = fit_gp(x, y, &opts, None, &mut rng_from_seed(3));
                let ard = fit_gp_ard(x, y, &opts, &mut rng_from_seed(3));
                let iso_bits = iso.as_ref().map(|m| {
                    [m.kernel().length_scale, m.kernel().variance, m.noise()].map(f64::to_bits)
                });
                let ard_bits = ard.as_ref().map(|m| {
                    let k = m.kernel();
                    let mut v: Vec<u64> = k.length_scales.iter().map(|l| l.to_bits()).collect();
                    v.extend([k.variance.to_bits(), m.noise().to_bits()]);
                    v
                });
                let bits = format!("{iso_bits:?} {ard_bits:?}");
                (iso, ard, bits)
            };
            let (iso, ard, bits) = fit(FitStrategy::Serial);
            assert_eq!(bits, fit(FitStrategy::Serial).2, "{name}: serial replay");
            assert_eq!(bits, fit(FitStrategy::Parallel).2, "{name}: parallel");
            match iso {
                Ok(m) => {
                    let k = m.kernel();
                    assert!(
                        inside(k.length_scale, opts.log_length_bounds),
                        "{name}: ℓ {k:?}"
                    );
                    assert!(
                        inside(k.variance, opts.log_variance_bounds),
                        "{name}: σ² {k:?}"
                    );
                    assert!(
                        inside(m.noise(), opts.log_noise_bounds),
                        "{name}: σ_n² {}",
                        m.noise()
                    );
                    assert!(m.predict(&[0.5, 0.5]).0.is_finite(), "{name}");
                }
                Err(e) => assert!(
                    matches!(e, GpError::Singular(_) | GpError::HyperFitFailed(_)),
                    "{name}: {e:?}"
                ),
            }
            match ard {
                Ok(m) => {
                    let k = m.kernel();
                    assert!(
                        k.length_scales
                            .iter()
                            .all(|&l| inside(l, opts.log_length_bounds)),
                        "{name}: {k:?}"
                    );
                    assert!(
                        inside(k.variance, opts.log_variance_bounds),
                        "{name}: {k:?}"
                    );
                    assert!(
                        inside(m.noise(), opts.log_noise_bounds),
                        "{name}: σ_n² {}",
                        m.noise()
                    );
                }
                Err(e) => assert!(
                    matches!(e, GpError::Singular(_) | GpError::HyperFitFailed(_)),
                    "{name}: {e:?}"
                ),
            }
        }
    }

    fn equivalence_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::Rng as _;
        let mut rng = rng_from_seed(42);
        let x: Vec<Vec<f64>> = (0..22)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin() + p[1] * p[1]).collect();
        (x, y)
    }

    #[test]
    fn all_strategies_yield_byte_identical_models() {
        let (x, y) = equivalence_data();
        let fit_with = |strategy: FitStrategy| {
            let mut rng = rng_from_seed(9);
            let opts = HyperFitOptions {
                strategy,
                ..HyperFitOptions::default()
            };
            fit_gp(&x, &y, &opts, None, &mut rng).expect("fit")
        };
        let serial = fit_with(FitStrategy::Serial);
        for strategy in [FitStrategy::Serial, FitStrategy::Parallel] {
            let m = fit_with(strategy);
            assert_eq!(
                m.kernel().length_scale,
                serial.kernel().length_scale,
                "{strategy:?} length scale"
            );
            assert_eq!(
                m.kernel().variance,
                serial.kernel().variance,
                "{strategy:?}"
            );
            assert_eq!(m.noise(), serial.noise(), "{strategy:?}");
            assert_eq!(
                m.log_marginal_likelihood(),
                serial.log_marginal_likelihood(),
                "{strategy:?}"
            );
            for q in [[0.2, 0.4], [0.7, 0.1], [0.55, 0.95]] {
                assert_eq!(m.predict(&q), serial.predict(&q), "{strategy:?} at {q:?}");
            }
        }
    }

    #[test]
    fn ard_strategies_yield_byte_identical_models() {
        let (x, y) = equivalence_data();
        let fit_with = |strategy: FitStrategy| {
            let mut rng = rng_from_seed(13);
            let opts = HyperFitOptions {
                strategy,
                restarts: 2,
                evals_per_restart: 60,
                ..HyperFitOptions::default()
            };
            fit_gp_ard(&x, &y, &opts, &mut rng).expect("fit")
        };
        let serial = fit_with(FitStrategy::Serial);
        for strategy in [FitStrategy::Serial, FitStrategy::Parallel] {
            let m = fit_with(strategy);
            assert_eq!(m.kernel().length_scales, serial.kernel().length_scales);
            assert_eq!(m.kernel().variance, serial.kernel().variance);
            assert_eq!(m.noise(), serial.noise());
            assert_eq!(
                m.log_marginal_likelihood(),
                serial.log_marginal_likelihood()
            );
        }
    }
}
