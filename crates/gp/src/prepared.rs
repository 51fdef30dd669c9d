//! Training-set-fixed precomputation for the GP hot path.
//!
//! ML-II hyperparameter fitting evaluates many `(ℓ, σ², σ_n²)` candidates
//! against the *same* training set: the pairwise distances and the
//! standardised targets never change between candidates, only the kernel
//! hyperparameters do. [`PreparedData`] computes those invariants once;
//! [`PreparedData::log_marginal`] then scores one candidate with a
//! lower-triangle kernel-matrix fill straight from the cache plus one
//! Cholesky factorisation, and [`PreparedData::log_marginal_grad`] adds
//! the likelihood's gradient in log-hyperparameters from the same
//! factorisation — no coordinate clones, no re-standardisation, no model
//! construction.
//!
//! Every cached evaluation is **bit-identical** to the direct one:
//! [`Matern52`] evaluates from coordinates through the same
//! hyperparameter-free pair statistic this module caches
//! ([`Matern52::eval_sqrt5_dist`]), so a model fitted from the cache
//! equals one fitted from the coordinates.

use robotune_linalg::{sq_dist, Cholesky, Matrix};

use crate::error::GpError;
use crate::kernel::{sqrt5_dist, Matern52};

/// Precomputed quantities of a fixed training set, reused across all
/// hyperparameter candidates of one fit.
#[derive(Debug, Clone)]
pub struct PreparedData {
    pub(crate) x: Vec<Vec<f64>>,
    /// `√5 · ‖x_i − x_j‖` strictly below the diagonal (`j < i`), the
    /// Matérn argument before `/ ℓ`; zeros elsewhere.
    r5: Matrix,
    pub(crate) y_norm: Vec<f64>,
    pub(crate) y_mean: f64,
    pub(crate) y_std: f64,
}

impl PreparedData {
    /// Validates and preprocesses a training set: standardised targets
    /// plus the pairwise `√5 · ‖x_i − x_j‖` cache.
    ///
    /// Returns the same typed [`GpError::InvalidInput`] cases as
    /// [`crate::model::GpModel::fit`].
    pub fn prepare(x: Vec<Vec<f64>>, y: &[f64]) -> Result<Self, GpError> {
        if x.len() != y.len() {
            return Err(GpError::InvalidInput("x/y length mismatch"));
        }
        if x.is_empty() {
            return Err(GpError::InvalidInput(
                "cannot fit a GP on zero observations",
            ));
        }
        if x.iter().any(|p| p.len() != x[0].len()) {
            return Err(GpError::InvalidInput("observations differ in dimension"));
        }
        if !y.iter().all(|v| v.is_finite()) {
            return Err(GpError::InvalidInput("non-finite target"));
        }

        let n = y.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|&v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
        let y_std = if var > 0.0 { var.sqrt() } else { 1.0 };
        let y_norm: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();

        let mut r5 = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                r5[(i, j)] = sqrt5_dist(sq_dist(&x[i], &x[j]));
            }
        }

        Ok(PreparedData {
            x,
            r5,
            y_norm,
            y_mean,
            y_std,
        })
    }

    /// Builds the (lower-triangle plus diagonal) kernel matrix
    /// `K + σ_n² I` from the cache. The Cholesky factorisation only reads
    /// the lower triangle, so the upper triangle is left unfilled — half
    /// the kernel evaluations of a full build.
    pub(crate) fn kernel_matrix(&self, kernel: &Matern52, noise: f64) -> Matrix {
        let n = self.x.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                k[(i, j)] = kernel.eval_sqrt5_dist(self.r5[(i, j)]);
            }
            k[(i, i)] = kernel.variance + noise;
        }
        k
    }

    /// Log marginal likelihood of `(kernel, noise)` on the prepared data,
    /// without constructing a model: one cached kernel-matrix fill, one
    /// Cholesky (with the standard jitter escalation), one solve.
    ///
    /// Bit-identical to
    /// `GpModel::fit(x, y, kernel, noise)?.log_marginal_likelihood()`.
    pub fn log_marginal(&self, kernel: &Matern52, noise: f64) -> Result<f64, GpError> {
        if !noise.is_finite() || noise < 0.0 {
            return Err(GpError::InvalidInput("noise variance must be non-negative"));
        }
        robotune_obs::incr("gp.distcache_hit", 1);
        let mut k = self.kernel_matrix(kernel, noise);
        let chol = factor_with_jitter(&mut k)?;
        let alpha = chol.solve(&self.y_norm);
        let n = self.y_norm.len() as f64;
        let fit: f64 = self.y_norm.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        Ok(-0.5 * fit - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln())
    }

    /// Log marginal likelihood of the Matérn 5/2 + white-noise GP at the
    /// log-hyperparameters `theta = [log ℓ, log σ², log σ_n²]`, writing its
    /// gradient with respect to `theta` into `grad`.
    ///
    /// One kernel fill evaluates each pair's `e^{−s}` once and derives
    /// both `K` and `∂K/∂log ℓ` from it; then one Cholesky (same jitter
    /// escalation as every fit), `α = K⁻¹ỹ` and `K⁻¹` once, and each
    /// component is `½ tr((ααᵀ − K⁻¹) ∂K/∂θ)`. `K` is built exactly as
    /// [`Matern52`] builds it, so the value is bit-identical to
    /// [`PreparedData::log_marginal`] at the same hyperparameters. Added
    /// jitter is treated as a constant.
    pub fn log_marginal_grad(&self, theta: &[f64], grad: &mut [f64]) -> Result<f64, GpError> {
        if grad.len() != theta.len() {
            return Err(GpError::InvalidInput(
                "gradient and hyperparameter vectors differ in length",
            ));
        }
        let at = self.log_marginal_at(theta)?;
        let lml = at.lml;
        self.gradient(at, grad);
        Ok(lml)
    }

    /// The value half of [`PreparedData::log_marginal_grad`]: the log
    /// marginal likelihood at `theta`, plus the factorisation that
    /// [`PreparedData::gradient`] finishes from. A line search that
    /// rejects the point never pays for the gradient.
    pub(crate) fn log_marginal_at(&self, theta: &[f64]) -> Result<LikelihoodAt, GpError> {
        let [log_l, log_v, log_n] = theta else {
            return Err(GpError::InvalidInput(
                "hyperparameter vector has the wrong length",
            ));
        };
        let (length, variance, noise) = (log_l.exp(), log_v.exp(), log_n.exp());
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if !positive(variance) || !noise.is_finite() || !positive(length) {
            return Err(GpError::InvalidInput("hyperparameters out of range"));
        }
        robotune_obs::incr("gp.distcache_hit", 1);
        let n = self.x.len();
        // K in the lower triangle (all the Cholesky reads) and, from the
        // same e^{−s}, ∂K/∂log ℓ = σ²·s²(1 + s)/3·e^{−s} in the upper one.
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                let s = self.r5[(i, j)] / length;
                let e = (-s).exp();
                k[(i, j)] = variance * (1.0 + s + s * s / 3.0) * e;
                k[(j, i)] = variance * (s * s * (1.0 + s) / 3.0) * e;
            }
            k[(i, i)] = variance + noise;
        }
        let (chol, jitter) = factor_with_jitter_tracked(&mut k)?;
        let alpha = chol.solve(&self.y_norm);
        let nf = n as f64;
        let fit: f64 = self.y_norm.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let lml = -0.5 * fit - 0.5 * chol.log_det() - 0.5 * nf * (2.0 * std::f64::consts::PI).ln();
        Ok(LikelihoodAt {
            lml,
            noise,
            k,
            chol,
            alpha,
            fit,
            jitter,
        })
    }

    /// The gradient half of [`PreparedData::log_marginal_grad`]: writes
    /// `∂ log p(ỹ | θ) / ∂θ` at the point `at` was evaluated at.
    pub(crate) fn gradient(&self, at: LikelihoodAt, grad: &mut [f64]) {
        let LikelihoodAt {
            noise,
            k,
            chol,
            alpha,
            fit,
            jitter,
            ..
        } = at;
        let n = alpha.len();
        // W = ααᵀ − K⁻¹ is symmetric, so the length-scale component is
        // Σ_{i>j} W_ij ∂K_ij (the diagonal does not depend on ℓ). The
        // signal part of K is K − (σ_n² + jitter)·I and tr(W K) = ỹᵀα − n,
        // so the σ² component needs only tr(W). That form also stays
        // accurate when the jitter makes K⁻¹'s entries huge and W · K
        // cancels.
        let kinv = chol.into_inverse_lower();
        let mut trace_w = 0.0;
        let mut g_ls = 0.0;
        for i in 0..n {
            let ai = alpha[i];
            trace_w += ai * ai - kinv[(i, i)];
            for (j, (&inv, &aj)) in kinv.row(i)[..i].iter().zip(&alpha[..i]).enumerate() {
                g_ls += (ai * aj - inv) * k[(j, i)];
            }
        }
        grad[0] = g_ls;
        grad[1] = 0.5 * (fit - n as f64 - (noise + jitter) * trace_w);
        grad[2] = 0.5 * noise * trace_w;
    }
}

/// One likelihood evaluation of [`PreparedData::log_marginal_at`]:
/// its value and what [`PreparedData::gradient`] reuses.
#[derive(Debug)]
pub(crate) struct LikelihoodAt {
    /// The log marginal likelihood.
    pub(crate) lml: f64,
    noise: f64,
    /// `K` below the diagonal, `∂K/∂log ℓ` above it.
    k: Matrix,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// `ỹᵀα`.
    fit: f64,
    jitter: f64,
}

/// Factors `k` (lower triangle), escalating a diagonal jitter from
/// `1e-10` by ×10 up to `1e-2` when the matrix is numerically singular —
/// the shared retry loop of every GP fit path.
pub(crate) fn factor_with_jitter(k: &mut Matrix) -> Result<Cholesky, GpError> {
    factor_with_jitter_tracked(k).map(|(c, _)| c)
}

/// Like [`factor_with_jitter`], additionally reporting the total jitter
/// that had to be added to the diagonal before the factorisation
/// succeeded (`0.0` when it worked first try) — the raw material of the
/// `diag.gp.fit` conditioning diagnostics.
pub(crate) fn factor_with_jitter_tracked(k: &mut Matrix) -> Result<(Cholesky, f64), GpError> {
    let mut jitter = 1e-10;
    let mut added = 0.0;
    loop {
        match Cholesky::factor(k) {
            Ok(c) => return Ok((c, added)),
            Err(e) => {
                robotune_obs::incr("gp.chol_retry", 1);
                if jitter > 1e-2 {
                    return Err(GpError::Singular(e));
                }
                k.add_diagonal(jitter);
                added += jitter;
                jitter *= 10.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GpModel;

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![i as f64 / 11.0, (i as f64 * 0.37).fract()])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 5.0).sin() + p[1]).collect();
        (x, y)
    }

    #[test]
    fn cached_log_marginal_is_bit_identical_to_model_fit() {
        let (x, y) = toy();
        let data = PreparedData::prepare(x.clone(), &y).unwrap();
        for (l, v, n) in [(0.5, 1.0, 1e-3), (0.1, 2.0, 1e-6), (3.0, 0.2, 0.1)] {
            let kernel = Matern52::new(l, v);
            let cached = data.log_marginal(&kernel, n).unwrap();
            let direct = GpModel::fit(x.clone(), &y, kernel, n)
                .unwrap()
                .log_marginal_likelihood();
            assert_eq!(cached, direct, "ℓ={l} σ²={v} σ_n²={n}");
        }
    }

    /// Checks `log_marginal_grad` at `theta` against a fourth-order
    /// central difference (step 1e-2): each component within 1e-5 of the
    /// difference, relative to its magnitude or to 1, whichever is larger.
    /// Also checks the value is bit-identical to `log_marginal`.
    fn check_gradient(data: &PreparedData, theta: &[f64]) {
        let p = theta.len();
        let mut grad = vec![0.0; p];
        let lml = data.log_marginal_grad(theta, &mut grad).unwrap();
        let direct = data.log_marginal(
            &Matern52::new(theta[0].exp(), theta[1].exp()),
            theta[2].exp(),
        );
        assert_eq!(lml, direct.unwrap(), "θ = {theta:?}");
        let mut scratch = vec![0.0; p];
        let mut at = |i: usize, step: f64| {
            let mut t = theta.to_vec();
            t[i] += step;
            data.log_marginal_grad(&t, &mut scratch).unwrap()
        };
        let h = 1e-2;
        for (i, &gi) in grad.iter().enumerate() {
            let fd =
                (8.0 * (at(i, h) - at(i, -h)) - (at(i, 2.0 * h) - at(i, -2.0 * h))) / (12.0 * h);
            let err = (gi - fd).abs() / fd.abs().max(1.0);
            assert!(
                err <= 1e-5,
                "θ = {theta:?}, component {i}: {gi} vs {fd} (err {err:e})"
            );
        }
    }

    /// The default hyperfit box: log ℓ, log σ², log σ_n².
    const BOX: [(f64, f64); 3] = [(-4.0, 2.0), (-3.0, 3.0), (-10.0, 0.0)];

    #[test]
    fn isotropic_gradient_matches_finite_differences() {
        let (x, y) = toy();
        let data = PreparedData::prepare(x, &y).unwrap();
        let interior = [(0.5f64).ln(), 0.0, (1e-3f64).ln()];
        for theta in [interior, [-1.9, 0.7, -4.0], [0.8, -1.2, -0.5]] {
            check_gradient(&data, &theta);
        }
        // Each parameter on each of its bounds, the others interior.
        for (i, &(lo, hi)) in BOX.iter().enumerate() {
            for b in [lo, hi] {
                let mut theta = [-1.0, 0.3, -5.0];
                theta[i] = b;
                check_gradient(&data, &theta);
            }
        }
    }

    #[test]
    fn gradient_holds_on_the_jitter_path() {
        // Every point twice with equal targets and a noise floor far below
        // the first jitter step: the factorisation needs jitter, which the
        // gradient treats as a constant.
        let (x, y) = toy();
        let x2: Vec<Vec<f64>> = x.iter().chain(&x).cloned().collect();
        let y2: Vec<f64> = y.iter().chain(&y).copied().collect();
        let theta = [-1.2f64, -1.5, -40.0];
        let data = PreparedData::prepare(x2, &y2).unwrap();
        let m = GpModel::fit_prepared(
            &data,
            Matern52::new(theta[0].exp(), theta[1].exp()),
            theta[2].exp(),
        )
        .unwrap();
        assert!(
            m.jitter() > 0.0,
            "the duplicate set must take the jitter path"
        );
        check_gradient(&data, &theta);
    }

    #[test]
    fn gradient_rejects_a_wrong_length_or_unusable_theta() {
        let (x, y) = toy();
        let data = PreparedData::prepare(x, &y).unwrap();
        let mut g = [0.0; 3];
        assert!(matches!(
            data.log_marginal_grad(&[0.0; 4], &mut [0.0; 4]),
            Err(GpError::InvalidInput(_))
        ));
        assert!(matches!(
            data.log_marginal_grad(&[f64::NAN, 0.0, 0.0], &mut g),
            Err(GpError::InvalidInput(_))
        ));
        assert!(matches!(
            data.log_marginal_grad(&[0.0, 800.0, 0.0], &mut g),
            Err(GpError::InvalidInput(_))
        ));
    }

    #[test]
    fn prepare_rejects_degenerate_inputs_with_typed_errors() {
        assert!(matches!(
            PreparedData::prepare(Vec::new(), &[]),
            Err(GpError::InvalidInput(_))
        ));
        assert!(matches!(
            PreparedData::prepare(vec![vec![0.0]], &[f64::NAN]),
            Err(GpError::InvalidInput(_))
        ));
        assert!(matches!(
            PreparedData::prepare(vec![vec![0.0]], &[1.0, 2.0]),
            Err(GpError::InvalidInput(_))
        ));
        let data = PreparedData::prepare(vec![vec![0.0], vec![1.0]], &[0.0, 1.0]).unwrap();
        assert!(matches!(
            data.log_marginal(&Matern52::new(1.0, 1.0), -1.0),
            Err(GpError::InvalidInput(_))
        ));
    }
}
