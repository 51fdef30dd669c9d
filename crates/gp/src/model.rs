//! GP posterior inference.

use std::time::Instant;

use robotune_linalg::Matrix;

use crate::error::GpError;
use crate::kernel::{Kernel, Matern52};
use crate::prepared::{factor_with_jitter_tracked, PreparedData};

/// A fitted Gaussian-process regression model.
///
/// Targets are standardised internally (zero mean, unit variance) so the
/// kernel's signal-variance hyperparameter has a consistent meaning across
/// workloads whose runtimes differ by orders of magnitude. The model adds
/// `noise` to the kernel diagonal — the *white noise* term of the paper's
/// covariance — plus an escalating numerical jitter if the Cholesky
/// factorisation struggles.
#[derive(Debug, Clone)]
pub struct GpModel<K: Kernel> {
    /// Training inputs, dimension-major: `xt[d * n + i]` is coordinate
    /// `d` of observation `i`, the layout [`Kernel::eval_row`] streams.
    xt: Vec<f64>,
    kernel: K,
    noise: f64,
    /// The Cholesky factor `L`, column-major: row `k` holds column `k`
    /// of `L` (entries before `k` are zero).
    l_cols: Matrix,
    log_det: f64,
    /// Total diagonal jitter the factorisation needed (0 when none).
    jitter: f64,
    /// `K⁻¹ ỹ` over standardised targets.
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    /// Standardised targets, kept for the marginal likelihood.
    y_norm: Vec<f64>,
}

/// Solves `L v = b` in place, `l_cols` holding `L` column-major.
///
/// Columns are applied two at a time to every later row, each of which
/// takes its column-`k` term and then its column-`k + 1` term. So each
/// `b[i]` still starts from itself, subtracts its terms in ascending `k`,
/// then divides by `L[i][i]`: the same operations, in the same order, as
/// the row-by-row [`robotune_linalg::Cholesky::solve_lower`].
fn solve_lower_cols(l_cols: &Matrix, b: &mut [f64]) {
    let n = b.len();
    let mut k = 0;
    while k + 1 < n {
        let c0 = &l_cols.row(k)[k..];
        let c1 = &l_cols.row(k + 1)[k + 1..];
        let y0 = b[k] / c0[0];
        b[k] = y0;
        let y1 = (b[k + 1] - c0[1] * y0) / c1[0];
        b[k + 1] = y1;
        for ((bi, &l0), &l1) in b[k + 2..].iter_mut().zip(&c0[2..]).zip(&c1[1..]) {
            *bi = (*bi - l0 * y0) - l1 * y1;
        }
        k += 2;
    }
    if k < n {
        b[k] /= l_cols[(k, k)];
    }
}

/// Solves `Lᵀ w = b` in place (back-substitution), `l_cols` holding `L`
/// column-major: row `k` of `l_cols` is row `k` of `Lᵀ`, so each step is
/// one contiguous dot product.
fn solve_upper_cols(l_cols: &Matrix, b: &mut [f64]) {
    for k in (0..b.len()).rev() {
        let row = &l_cols.row(k)[k..];
        let later = lane_sum(&row[1..], &b[k + 1..], |l, w| l * w);
        b[k] = (b[k] - later) / row[0];
    }
}

/// `Σ f(xᵢ, yᵢ)` over paired slices, kept in four interleaved partial
/// sums. A single running sum waits on one addition per term; four keep
/// the adder busy, which more than halves the cost of the posterior
/// gradient's sums. The order is fixed, so the result is deterministic.
#[inline(always)]
fn lane_sum(x: &[f64], y: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
    let mut lanes = [0.0; 4];
    let full = x.len().min(y.len()) / 4 * 4;
    for (xs, ys) in x[..full].chunks_exact(4).zip(y[..full].chunks_exact(4)) {
        for ((lane, &xi), &yi) in lanes.iter_mut().zip(xs).zip(ys) {
            *lane += f(xi, yi);
        }
    }
    for (l, (&xi, &yi)) in x[full..].iter().zip(&y[full..]).enumerate() {
        lanes[l] += f(xi, yi);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// The posterior at one query point from [`GpModel::predict_at`], with
/// what [`GpModel::predict_grad`] needs to differentiate it there.
#[derive(Debug, Clone)]
pub struct PosteriorAt {
    /// Posterior mean, bit-identical to [`GpModel::predict`]'s.
    pub mean: f64,
    /// Posterior variance, bit-identical to [`GpModel::predict`]'s.
    pub var: f64,
    /// `L⁻¹k*`, then each training point's `(1 + s)·e^{−s}`, then the
    /// query point: `n + n + dim` words in one allocation.
    buf: Vec<f64>,
}

/// `x` transposed into one contiguous run per dimension.
fn dimension_major(x: &[Vec<f64>]) -> Vec<f64> {
    let dim = x.first().map_or(0, Vec::len);
    (0..dim).flat_map(|d| x.iter().map(move |p| p[d])).collect()
}

impl<K: Kernel> GpModel<K> {
    /// Fits the GP to observations `(x, y)`.
    ///
    /// `noise` is the white-noise *variance* on standardised targets. If
    /// the kernel matrix is numerically singular the jitter escalates from
    /// `1e-10` by ×10 up to `1e-2` before giving up.
    ///
    /// Returns [`GpError::InvalidInput`] on empty or mismatched inputs,
    /// non-finite targets, or negative noise — degenerate sessions must
    /// never panic the tuning pipeline.
    pub fn fit(x: Vec<Vec<f64>>, y: &[f64], kernel: K, noise: f64) -> Result<Self, GpError> {
        let _span = robotune_obs::span("gp.fit");
        let t0 = robotune_obs::is_enabled().then(Instant::now);
        if x.len() != y.len() {
            return Err(GpError::InvalidInput("x/y length mismatch"));
        }
        if x.is_empty() {
            return Err(GpError::InvalidInput("cannot fit a GP on zero observations"));
        }
        if x.iter().any(|p| p.len() != x[0].len()) {
            return Err(GpError::InvalidInput("observations differ in dimension"));
        }
        if !y.iter().all(|v| v.is_finite()) {
            return Err(GpError::InvalidInput("non-finite target"));
        }
        if !noise.is_finite() || noise < 0.0 {
            return Err(GpError::InvalidInput("noise variance must be non-negative"));
        }

        let n = y.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|&v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
        let y_std = if var > 0.0 { var.sqrt() } else { 1.0 };
        let y_norm: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();

        // The Cholesky only reads the lower triangle, so only that half is
        // built — half the kernel evaluations of the old full build, same
        // factor bit for bit.
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                k[(i, j)] = kernel.eval(&x[i], &x[j]);
            }
            k[(i, i)] = kernel.diag(&x[i]) + noise;
        }

        let (chol, jitter) = factor_with_jitter_tracked(&mut k)?;
        let alpha = chol.solve(&y_norm);
        if let Some(t) = t0 {
            robotune_obs::record("gp.fit_ns", t.elapsed().as_nanos() as f64);
        }

        Ok(GpModel {
            xt: dimension_major(&x),
            kernel,
            noise,
            l_cols: chol.l().transpose(),
            log_det: chol.log_det(),
            jitter,
            alpha,
            y_mean,
            y_std,
            y_norm,
        })
    }

    /// Number of training observations.
    pub fn n_observations(&self) -> usize {
        self.alpha.len()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The white-noise variance (standardised-target units).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Total numerical jitter the Cholesky factorisation had to add to
    /// the kernel diagonal (`0.0` for a cleanly conditioned fit).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Cheap condition-number estimate of the kernel matrix: the squared
    /// ratio of the largest to smallest Cholesky diagonal entry. Exact
    /// for diagonal matrices, a useful order-of-magnitude indicator
    /// otherwise — large values flag near-singular kernels (lengthscale
    /// collapse, duplicated observations).
    pub fn cond_estimate(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for i in 0..self.l_cols.rows() {
            let d = self.l_cols[(i, i)].abs();
            min = min.min(d);
            max = max.max(d);
        }
        if min > 0.0 && min.is_finite() {
            (max / min) * (max / min)
        } else {
            f64::INFINITY
        }
    }

    /// Posterior mean and variance of the *latent* function at `q`, in the
    /// original target units. Variance is clamped at zero from below.
    ///
    /// # Panics
    ///
    /// Panics if `q` does not match the training inputs' dimension.
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        self.predict_with(q, &mut vec![0.0; self.alpha.len()])
    }

    /// [`GpModel::predict`] with a caller-provided kernel-row buffer of
    /// length `n`.
    fn predict_with(&self, q: &[f64], k: &mut [f64]) -> (f64, f64) {
        self.kernel.eval_row(q, &self.xt, k);
        self.posterior_from_row(q, k)
    }

    /// Posterior mean and variance at `q` from its kernel row `k`,
    /// leaving `L⁻¹k` in `k`.
    fn posterior_from_row(&self, q: &[f64], k: &mut [f64]) -> (f64, f64) {
        let mu_norm: f64 = k.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        // var = k(q,q) − ‖L⁻¹ k*‖².
        solve_lower_cols(&self.l_cols, k);
        let var_norm = (self.kernel.diag(q) - k.iter().map(|x| x * x).sum::<f64>()).max(0.0);
        (
            mu_norm * self.y_std + self.y_mean,
            var_norm * self.y_std * self.y_std,
        )
    }

    /// Posterior standard deviation at `q` (original units).
    pub fn predict_std(&self, q: &[f64]) -> f64 {
        self.predict(q).1.sqrt()
    }

    /// Posterior mean and variance at every query point, each
    /// bit-identical to [`GpModel::predict`] on that point, through one
    /// reused kernel-row buffer.
    ///
    /// # Panics
    ///
    /// Panics if a query does not match the training inputs' dimension.
    pub fn predict_batch(&self, qs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let mut k = vec![0.0; self.alpha.len()];
        qs.iter().map(|q| self.predict_with(q, &mut k)).collect()
    }

    /// Log marginal likelihood of the standardised data under the model:
    /// `−½ ỹᵀα − ½ log|K| − n/2 · log 2π`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.y_norm.len() as f64;
        let fit: f64 = self.y_norm.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        -0.5 * fit - 0.5 * self.log_det - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }
}

impl GpModel<Matern52> {
    /// [`GpModel::predict`] at `q`, bit for bit, keeping what
    /// [`GpModel::predict_grad`] needs: `L⁻¹k*` and each training point's
    /// slope factor ([`Matern52::eval_row_with_slope`]), so the gradient
    /// evaluates no exponential.
    ///
    /// # Panics
    ///
    /// Panics if `q` does not match the training inputs' dimension.
    pub fn predict_at(&self, q: &[f64]) -> PosteriorAt {
        let n = self.alpha.len();
        let mut buf = vec![0.0; 2 * n + q.len()];
        let (k, rest) = buf.split_at_mut(n);
        let (slope, query) = rest.split_at_mut(n);
        self.kernel.eval_row_with_slope(q, &self.xt, k, slope);
        query.copy_from_slice(q);
        let (mean, var) = self.posterior_from_row(q, k);
        PosteriorAt { mean, var, buf }
    }

    /// The gradients of the posterior mean and variance in the query
    /// point `at` was evaluated at: `∂μ/∂q` into `dmean`, `∂σ²/∂q` into
    /// `dvar`, in original target units.
    ///
    /// With `∂k_i/∂q` from [`Matern52::eval_row_with_slope`],
    /// `∂μ/∂q = y_std·Σ α_i ∂k_i/∂q` and
    /// `∂σ²/∂q = −2·y_std²·Σ w_i ∂k_i/∂q`, where `w = L⁻ᵀ(L⁻¹k*)` costs
    /// one back-substitution on top of the solve [`GpModel::predict_at`]
    /// already did. Where the variance is clamped at zero its gradient
    /// is zero.
    ///
    /// # Panics
    ///
    /// Panics unless `dmean` and `dvar` have the query's dimension.
    pub fn predict_grad(&self, at: PosteriorAt, dmean: &mut [f64], dvar: &mut [f64]) {
        let n = self.alpha.len();
        let PosteriorAt { var, mut buf, .. } = at;
        let (w, rest) = buf.split_at_mut(n);
        let (slope, q) = rest.split_at_mut(n);
        assert!(
            dmean.len() == q.len() && dvar.len() == q.len(),
            "predict_grad: one gradient entry per dimension"
        );
        solve_upper_cols(&self.l_cols, w);
        // Each point's weight in the two sums: α_i·(1 + s_i)e^{−s_i} and
        // w_i·(1 + s_i)e^{−s_i}, overwriting the slope and w.
        for ((wi, si), &ai) in w.iter_mut().zip(slope.iter_mut()).zip(&self.alpha) {
            *wi *= *si;
            *si *= ai;
        }
        let ls = self.kernel.length_scale;
        let dk = -self.kernel.variance * 5.0 / (3.0 * ls * ls);
        let mean_scale = self.y_std * dk;
        let var_scale = if var > 0.0 { -2.0 * self.y_std * self.y_std * dk } else { 0.0 };
        for (d, col) in self.xt.chunks_exact(n).enumerate() {
            let offsets = |weights: &[f64]| lane_sum(col, weights, |x, c| c * (q[d] - x));
            dmean[d] = mean_scale * offsets(slope);
            dvar[d] = var_scale * offsets(w);
        }
    }

    /// Fits the GP from a [`PreparedData`] cache, skipping re-validation,
    /// re-standardisation and distance recomputation. Bit-identical to
    /// [`GpModel::fit`] on the same `(x, y, kernel, noise)`.
    pub fn fit_prepared(data: &PreparedData, kernel: Matern52, noise: f64) -> Result<Self, GpError> {
        let _span = robotune_obs::span("gp.fit");
        let t0 = robotune_obs::is_enabled().then(Instant::now);
        if !noise.is_finite() || noise < 0.0 {
            return Err(GpError::InvalidInput("noise variance must be non-negative"));
        }
        robotune_obs::incr("gp.distcache_hit", 1);
        let mut k = data.kernel_matrix(&kernel, noise);
        let (chol, jitter) = factor_with_jitter_tracked(&mut k)?;
        let alpha = chol.solve(&data.y_norm);
        if let Some(t) = t0 {
            robotune_obs::record("gp.fit_ns", t.elapsed().as_nanos() as f64);
        }
        Ok(GpModel {
            xt: dimension_major(&data.x),
            kernel,
            noise,
            l_cols: chol.l().transpose(),
            log_det: chol.log_det(),
            jitter,
            alpha,
            y_mean: data.y_mean,
            y_std: data.y_std,
            y_norm: data.y_norm.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Matern52;

    fn toy_model(noise: f64) -> GpModel<Matern52> {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin() * 3.0 + 10.0).collect();
        GpModel::fit(x, &y, Matern52::new(0.3, 1.0), noise).unwrap()
    }

    #[test]
    fn interpolates_training_points_with_tiny_noise() {
        let m = toy_model(1e-8);
        for i in 0..8 {
            let x = i as f64 / 7.0;
            let truth = (x * 6.0).sin() * 3.0 + 10.0;
            let (mu, var) = m.predict(&[x]);
            assert!((mu - truth).abs() < 1e-3, "mu {mu} vs {truth}");
            assert!(var < 1e-4, "variance at a training point should vanish, got {var}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let m = toy_model(1e-6);
        let (_, var_near) = m.predict(&[0.5]);
        let (_, var_far) = m.predict(&[3.0]);
        assert!(var_far > var_near * 10.0, "near {var_near}, far {var_far}");
    }

    #[test]
    fn far_field_reverts_to_prior_mean() {
        let m = toy_model(1e-6);
        let (mu, var) = m.predict(&[100.0]);
        // Prior mean on standardised targets is 0 → original-unit y_mean.
        let y_mean: f64 = (0..8)
            .map(|i| ((i as f64 / 7.0) * 6.0).sin() * 3.0 + 10.0)
            .sum::<f64>()
            / 8.0;
        assert!((mu - y_mean).abs() < 1e-6);
        // And the variance approaches the prior variance (in y units).
        assert!(var > 0.5);
    }

    #[test]
    fn noise_smooths_interpolation() {
        let exact = toy_model(1e-8);
        let noisy = toy_model(0.5);
        // With substantial white noise, the posterior no longer pins the
        // training targets exactly.
        let (mu_e, _) = exact.predict(&[0.0]);
        let (mu_n, _) = noisy.predict(&[0.0]);
        let truth = 10.0;
        assert!((mu_e - truth).abs() < (mu_n - truth).abs());
    }

    #[test]
    fn lml_prefers_reasonable_hyperparameters() {
        let x: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 8.0).sin()).collect();
        let good = GpModel::fit(x.clone(), &y, Matern52::new(0.2, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        let bad_short = GpModel::fit(x.clone(), &y, Matern52::new(1e-3, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        let bad_long = GpModel::fit(x, &y, Matern52::new(50.0, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        assert!(good > bad_short, "good {good} vs too-short {bad_short}");
        assert!(good > bad_long, "good {good} vs too-long {bad_long}");
    }

    #[test]
    fn constant_targets_do_not_blow_up() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let y = vec![4.2; 5];
        let m = GpModel::fit(x, &y, Matern52::new(1.0, 1.0), 1e-6).unwrap();
        let (mu, var) = m.predict(&[2.5]);
        assert!((mu - 4.2).abs() < 1e-6);
        assert!(var.is_finite());
    }

    #[test]
    fn duplicate_inputs_survive_via_jitter() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        let y = vec![1.0, 1.1, 0.9];
        // Zero declared noise forces the jitter path.
        let m = GpModel::fit(x, &y, Matern52::new(0.5, 1.0), 0.0).unwrap();
        let (mu, _) = m.predict(&[0.5]);
        assert!((mu - 1.0).abs() < 0.05);
    }

    #[test]
    fn empty_fit_rejected_with_typed_error() {
        let r = GpModel::fit(Vec::new(), &[], Matern52::new(1.0, 1.0), 0.0);
        assert!(matches!(r, Err(GpError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn nan_target_rejected_with_typed_error() {
        let x = vec![vec![0.1], vec![0.9]];
        let y = vec![1.0, f64::NAN];
        let r = GpModel::fit(x, &y, Matern52::new(1.0, 1.0), 1e-4);
        assert!(matches!(r, Err(GpError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn predict_batch_is_bit_identical_to_pointwise_predict() {
        let m = toy_model(1e-4);
        // One kernel-row buffer serves the whole batch; no query may see
        // another's leftovers.
        let qs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 * 0.017 - 0.5]).collect();
        let batch = m.predict_batch(&qs);
        assert_eq!(batch.len(), qs.len());
        for (q, &(bmu, bvar)) in qs.iter().zip(&batch) {
            let (mu, var) = m.predict(q);
            assert_eq!(bmu, mu, "mean at {q:?}");
            assert_eq!(bvar, var, "variance at {q:?}");
        }
        assert!(m.predict_batch(&[]).is_empty());
    }

    /// Training input `i` of [`gradient_model`].
    fn gradient_input(i: usize) -> Vec<f64> {
        let t = i as f64;
        vec![(t * 0.37).fract(), (t * 0.61 + 0.1).fract(), (t * 0.23 + 0.5).fract()]
    }

    /// A 3-D fit on runtime-scale targets (so `y_std` and `y_mean`
    /// matter), optionally with every training row duplicated.
    fn gradient_model(duplicate: bool, noise: f64) -> GpModel<Matern52> {
        let mut x: Vec<Vec<f64>> = (0..20).map(gradient_input).collect();
        if duplicate {
            x.extend(x.clone());
        }
        let y: Vec<f64> = x
            .iter()
            .map(|p| 100.0 + 30.0 * (4.0 * p[0]).sin() - 20.0 * p[1] * p[2])
            .collect();
        GpModel::fit(x, &y, Matern52::new(0.4, 1.3), noise).unwrap()
    }

    /// Fourth-order central differences of the posterior mean and
    /// variance at `q`, step `h`.
    fn fd_posterior(m: &GpModel<Matern52>, q: &[f64], h: f64) -> (Vec<f64>, Vec<f64>) {
        let mut dmean = vec![0.0; q.len()];
        let mut dvar = vec![0.0; q.len()];
        for d in 0..q.len() {
            let at = |t: f64| {
                let mut p = q.to_vec();
                p[d] += t;
                m.predict(&p)
            };
            let (p2, p1, m1, m2) = (at(2.0 * h), at(h), at(-h), at(-2.0 * h));
            dmean[d] = (-p2.0 + 8.0 * p1.0 - 8.0 * m1.0 + m2.0) / (12.0 * h);
            dvar[d] = (-p2.1 + 8.0 * p1.1 - 8.0 * m1.1 + m2.1) / (12.0 * h);
        }
        (dmean, dvar)
    }

    /// `‖analytic − fd‖∞ ≤ 1e-6 · max(‖fd‖∞, floor)`: relative to the
    /// gradient's largest component, with a floor for a gradient that
    /// vanishes (a variance minimum on a training input).
    fn assert_close(what: &str, analytic: &[f64], fd: &[f64], floor: f64) {
        let scale = fd.iter().fold(floor, |m, v| m.max(v.abs()));
        for (a, f) in analytic.iter().zip(fd) {
            assert!(
                (a - f).abs() <= 1e-6 * scale,
                "{what}: analytic {analytic:?} vs differences {fd:?}"
            );
        }
    }

    #[test]
    fn posterior_gradient_matches_central_differences() {
        let clean = gradient_model(false, 1e-4);
        let jittered = gradient_model(true, 0.0);
        assert!(jittered.jitter() > 0.0, "duplicate rows must take the jitter path");
        let queries = [
            vec![0.31, 0.52, 0.77],
            vec![0.9, 0.15, 0.4],
            vec![0.0, 0.45, 0.6],
            vec![1.0, 1.0, 0.0],
            gradient_input(3),
        ];
        for (name, m) in [("clean", &clean), ("jitter", &jittered)] {
            for q in &queries {
                let at = m.predict_at(q);
                assert_eq!((at.mean, at.var), m.predict(q), "{name}: value half moved");
                let mut dmean = vec![0.0; 3];
                let mut dvar = vec![0.0; 3];
                m.predict_grad(at, &mut dmean, &mut dvar);
                let (fd_mean, fd_var) = fd_posterior(m, q, 1e-4);
                // Differences of values near 100 round at ~1e-14/h = 1e-10.
                assert_close(&format!("{name} ∂µ at {q:?}"), &dmean, &fd_mean, 1e-3);
                assert_close(&format!("{name} ∂σ² at {q:?}"), &dvar, &fd_var, 1e-3);
            }
        }
    }

    #[test]
    fn fit_prepared_is_bit_identical_to_fit() {
        use crate::prepared::PreparedData;
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0, (i * i) as f64 / 81.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] * 2.0 - (p[1] * 4.0).cos()).collect();
        let data = PreparedData::prepare(x.clone(), &y).unwrap();
        let kernel = Matern52::new(0.4, 1.1);
        let fast = GpModel::fit_prepared(&data, kernel, 1e-3).unwrap();
        let slow = GpModel::fit(x, &y, kernel, 1e-3).unwrap();
        assert_eq!(
            fast.log_marginal_likelihood(),
            slow.log_marginal_likelihood()
        );
        for q in [[0.2, 0.3], [0.9, 0.1], [1.5, -0.4]] {
            assert_eq!(fast.predict(&q), slow.predict(&q));
        }
    }
}
