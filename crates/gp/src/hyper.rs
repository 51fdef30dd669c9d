//! Maximum-likelihood GP hyperparameter fitting.
//!
//! Optimises `(log ℓ, log σ², log σ_n²)` of a Matérn 5/2 + white-noise GP
//! by multi-start bounded quasi-Newton ([`robotune_linalg::bfgs`]) on the
//! log marginal likelihood and its analytic gradient
//! ([`PreparedData::log_marginal_grad`]) — the ML-II fit scikit-learn's GP
//! regressor performs with L-BFGS-B. Targets are standardised inside
//! [`crate::model::GpModel`], so the same search box works across
//! workloads.
//!
//! Every likelihood evaluation shares the same training set, so the
//! pairwise distances and standardised targets are computed **once**
//! ([`PreparedData`]). The restarts run one after another on the calling
//! thread, and the best one wins (lowest negative log-marginal-likelihood,
//! lowest restart index on ties). A daemon gets its parallelism from
//! running many sessions at once, not from threads inside one fit. The
//! start points are drawn from the caller's RNG *before* any work, so the
//! RNG stream does not depend on how the fit went.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;
use robotune_linalg::bfgs::{minimize, Minimum, Objective};

use crate::error::GpError;
use crate::kernel::Matern52;
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
fn emit_fit_diag(m: &GpModel<Matern52>, fallback: bool, warm: bool) {
    if !robotune_obs::is_enabled() {
        return;
    }
    let iter = FIT_SEQ.fetch_add(1, Ordering::Relaxed);
    let k = m.kernel();
    robotune_obs::diag("diag.gp.fit", iter, || {
        serde_json::json!({
            "lengthscales": [k.length_scale],
            "variance": k.variance,
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
        }
    }
}

/// The start points of one fit, all taken from `rng` before any fitting
/// work. A cold fit (`warm` is `None`) starts from the default point plus
/// `opts.restarts` uniform draws from the box; a warm fit from `warm`
/// clamped into the box plus at most one draw.
fn draw_starts<R: Rng + ?Sized>(
    bounds: &[(f64, f64); 3],
    opts: &HyperFitOptions,
    warm: Option<[f64; 3]>,
    rng: &mut R,
) -> Vec<[f64; 3]> {
    let (start, draws) = match warm {
        Some(theta) => (
            std::array::from_fn(|i| theta[i].clamp(bounds[i].0, bounds[i].1)),
            opts.restarts.min(1),
        ),
        None => ([(0.5f64).ln(), 0.0, (1e-3f64).ln()], opts.restarts),
    };
    let mut starts = vec![start];
    for _ in 0..draws {
        starts.push(bounds.map(|(lo, hi)| rng.gen_range(lo..hi)));
    }
    starts
}

/// Minimises the negative log marginal likelihood of `data` from every
/// start, in order, and returns the best point.
fn best_restart(
    data: &PreparedData,
    starts: &[[f64; 3]],
    bounds: &[(f64, f64)],
    evals: usize,
) -> Option<Vec<f64>> {
    select_best(starts.iter().map(|st| {
        let r = minimize(&NegLml(data), st, bounds, evals);
        robotune_obs::incr("gp.hyperfit_restart", 1);
        robotune_obs::record("gp.hyperfit_evals", r.evals as f64);
        r
    }))
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
fn select_best(results: impl Iterator<Item = Minimum>) -> Option<Vec<f64>> {
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
fn fit_or_fallback(
    data: &PreparedData,
    theta: Option<Vec<f64>>,
) -> (Result<GpModel<Matern52>, GpError>, bool) {
    if let Some(t) = theta {
        let kernel = Matern52::new(t[0].exp(), t[1].exp());
        if let Ok(m) = GpModel::fit_prepared(data, kernel, t[2].exp()) {
            return (Ok(m), false);
        }
    }
    robotune_obs::incr("gp.hyperfit_fallback", 1);
    let fallback = Matern52::new(FALLBACK_LENGTH_SCALE, FALLBACK_VARIANCE);
    let fitted = GpModel::fit_prepared(data, fallback, FALLBACK_NOISE).map_err(|e| match e {
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
    let bounds = [
        opts.log_length_bounds,
        opts.log_variance_bounds,
        opts.log_noise_bounds,
    ];
    let starts = draw_starts(&bounds, opts, warm, rng);
    let data = PreparedData::prepare(x.to_vec(), y)?;
    let theta = best_restart(&data, &starts, &bounds, opts.evals_per_restart);
    let (fitted, fallback) = fit_or_fallback(&data, theta);
    if let Ok(m) = &fitted {
        emit_fit_diag(m, fallback, warm.is_some());
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
    fn empty_input_yields_a_typed_error() {
        let mut rng = rng_from_seed(1);
        let r = fit_gp(&[], &[], &HyperFitOptions::default(), None, &mut rng);
        assert!(matches!(r, Err(GpError::InvalidInput(_))));
    }

    /// Every fit on degenerate input is `Ok` with hyperparameters inside
    /// the box, or a typed error — and replays bit for bit on a second
    /// call.
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
            // The fit, plus every hyperparameter's bits (or the error) for
            // the replay comparison.
            let fit = || {
                let iso = fit_gp(x, y, &opts, None, &mut rng_from_seed(3));
                let bits = format!(
                    "{:?}",
                    iso.as_ref().map(|m| {
                        [m.kernel().length_scale, m.kernel().variance, m.noise()]
                            .map(f64::to_bits)
                    })
                );
                (iso, bits)
            };
            let (iso, bits) = fit();
            assert_eq!(bits, fit().1, "{name}: replay");
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

    /// FNV-1a over a sequence of `f64` bit patterns.
    fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// A cold fit's hyperparameters, likelihood and posterior at three
    /// points, pinned bit for bit. The constant was recorded when the
    /// restarts could still run on threads, from the serial path, so it
    /// also proves that removing the threaded path moved no bit.
    #[test]
    fn fit_replays_the_recorded_model_bit_for_bit() {
        let (x, y) = equivalence_data();
        let m = fit_gp(&x, &y, &HyperFitOptions::default(), None, &mut rng_from_seed(9))
            .expect("fit");
        let k = m.kernel();
        let mut bits = vec![k.length_scale, k.variance, m.noise(), m.log_marginal_likelihood()];
        for q in [[0.2, 0.4], [0.7, 0.1], [0.55, 0.95]] {
            let (mean, var) = m.predict(&q);
            bits.extend([mean, var]);
        }
        assert_eq!(fnv(bits), FIT_PIN, "the cold fit moved");
    }

    const FIT_PIN: u64 = 0x1485_8bd2_b1c6_addc;
}
