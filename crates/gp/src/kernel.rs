//! Stationary covariance kernels.

use robotune_linalg::sq_dist;

/// A positive-definite covariance function over unit-cube points.
pub trait Kernel {
    /// Covariance between two points.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Prior variance at a point, `k(x, x)`. Stationary kernels override
    /// this with a constant.
    fn diag(&self, a: &[f64]) -> f64 {
        self.eval(a, a)
    }

    /// Covariances between `q` and `out.len()` points stored
    /// dimension-major (`xt[d * out.len() + i]` is coordinate `d` of
    /// point `i`): `out[i]` is bit-identical to `self.eval(q, x_i)`.
    ///
    /// This is the posterior's kernel row. The built-in kernels compute it
    /// in whole-row passes (distance, then scaling, then the covariance)
    /// that the compiler can vectorise.
    ///
    /// # Panics
    ///
    /// Panics if `xt.len() != q.len() * out.len()`.
    fn eval_row(&self, q: &[f64], xt: &[f64], out: &mut [f64]);
}

/// `out[i] = Σ_d term(d, q_d − x_{d,i})` for points stored dimension-major,
/// each sum taken in ascending `d` like [`sq_dist`].
#[inline(always)]
fn dim_sums(q: &[f64], xt: &[f64], out: &mut [f64], term: impl Fn(usize, f64) -> f64) {
    let n = out.len();
    assert_eq!(xt.len(), q.len() * n, "eval_row: dimension mismatch");
    out.fill(0.0);
    if n == 0 {
        return;
    }
    for (d, (&qd, col)) in q.iter().zip(xt.chunks_exact(n)).enumerate() {
        for (o, &x) in out.iter_mut().zip(col) {
            *o += term(d, qd - x);
        }
    }
}

/// `σ²·(1 + s + s²/3)·exp(−s)`: Matérn 5/2 at the scaled distance
/// `s = √5·r/ℓ`, shared by the isotropic and ARD kernels.
#[inline(always)]
fn matern52_of(variance: f64, s: f64) -> f64 {
    variance * (1.0 + s + s * s / 3.0) * (-s).exp()
}

/// Matérn 5/2: `σ²·(1 + √5 r/ℓ + 5r²/(3ℓ²))·exp(−√5 r/ℓ)`.
///
/// Twice mean-square differentiable — smooth enough for gradient-flavoured
/// acquisition optimisation yet not unrealistically smooth for measured
/// runtimes; the standard choice for tuning objectives (Snoek et al. 2012,
/// CherryPick, and this paper's §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52 {
    /// Isotropic length scale ℓ (> 0).
    pub length_scale: f64,
    /// Signal variance σ² (> 0).
    pub variance: f64,
}

impl Matern52 {
    /// Creates the kernel, validating positivity.
    ///
    /// # Panics
    ///
    /// Panics unless both hyperparameters are positive and finite.
    pub fn new(length_scale: f64, variance: f64) -> Self {
        assert!(
            length_scale > 0.0 && length_scale.is_finite(),
            "length_scale must be positive"
        );
        assert!(variance > 0.0 && variance.is_finite(), "variance must be positive");
        Matern52 {
            length_scale,
            variance,
        }
    }
}

/// `√5 · ‖a − b‖` from the squared distance — the hyperparameter-free
/// half of the Matérn 5/2 argument, which [`crate::PreparedData`] caches
/// per training pair.
#[inline]
pub fn sqrt5_dist(d2: f64) -> f64 {
    5.0_f64.sqrt() * d2.sqrt()
}

impl Matern52 {
    /// Covariance as a function of the *squared* Euclidean distance.
    /// [`Kernel::eval`] delegates here.
    #[inline]
    pub fn eval_sq_dist(&self, d2: f64) -> f64 {
        self.eval_sqrt5_dist(sqrt5_dist(d2))
    }

    /// Covariance as a function of `r5 = √5 · ‖a − b‖` ([`sqrt5_dist`]).
    ///
    /// This is the distance-cache entry point: [`Matern52::eval_sq_dist`]
    /// computes `s = (√5 · r) / ℓ` through it, so evaluating from a cached
    /// `r5` is bit-identical to evaluating from the coordinates, minus a
    /// square root and a multiply per pair.
    #[inline]
    pub fn eval_sqrt5_dist(&self, r5: f64) -> f64 {
        matern52_of(self.variance, r5 / self.length_scale)
    }
}

impl Matern52 {
    /// [`Kernel::eval_row`] into `out`, bit for bit, plus each point's
    /// slope factor `(1 + s_i)·e^{−s_i}` into `slope`, from the same
    /// `e^{−s_i}`. The row's gradient in `q` is
    /// `∂k_i/∂q_d = −σ²·5/(3ℓ²)·(1 + s_i)·e^{−s_i}·(q_d − x_{d,i})`,
    /// which has no singularity at `s = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `xt.len() != q.len() * out.len()` or `slope` is shorter
    /// than `out`.
    pub fn eval_row_with_slope(&self, q: &[f64], xt: &[f64], out: &mut [f64], slope: &mut [f64]) {
        assert!(slope.len() >= out.len(), "eval_row_with_slope: slope too short");
        dim_sums(q, xt, out, |_, d| d * d);
        for v in out.iter_mut() {
            *v = sqrt5_dist(*v) / self.length_scale;
        }
        for (v, sl) in out.iter_mut().zip(slope) {
            let s = *v;
            let e = (-s).exp();
            *v = self.variance * (1.0 + s + s * s / 3.0) * e;
            *sl = (1.0 + s) * e;
        }
    }
}

impl Kernel for Matern52 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq_dist(sq_dist(a, b))
    }

    fn eval_row(&self, q: &[f64], xt: &[f64], out: &mut [f64]) {
        dim_sums(q, xt, out, |_, d| d * d);
        for v in out.iter_mut() {
            *v = sqrt5_dist(*v) / self.length_scale;
        }
        for v in out.iter_mut() {
            *v = matern52_of(self.variance, *v);
        }
    }

    fn diag(&self, _a: &[f64]) -> f64 {
        self.variance
    }
}

/// Matérn 5/2 with Automatic Relevance Determination: one length scale
/// per input dimension.
///
/// ARD lets the marginal likelihood stretch irrelevant dimensions flat
/// (large ℓᵢ), which suits BO over a selected subspace where the
/// surviving parameters still differ widely in influence. The paper's
/// implementation uses an isotropic kernel; ARD is provided as the
/// natural extension and compared in the `gp-ard` ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52Ard {
    /// Per-dimension length scales (all > 0).
    pub length_scales: Vec<f64>,
    /// Signal variance σ² (> 0).
    pub variance: f64,
}

impl Matern52Ard {
    /// Creates the kernel, validating positivity.
    ///
    /// # Panics
    ///
    /// Panics if any length scale or the variance is non-positive or
    /// non-finite, or if `length_scales` is empty.
    pub fn new(length_scales: Vec<f64>, variance: f64) -> Self {
        assert!(!length_scales.is_empty(), "need at least one dimension");
        assert!(
            length_scales.iter().all(|&l| l > 0.0 && l.is_finite()),
            "length scales must be positive"
        );
        assert!(variance > 0.0 && variance.is_finite(), "variance must be positive");
        Matern52Ard {
            length_scales,
            variance,
        }
    }

    /// The isotropic kernel with this ARD kernel's geometric-mean length
    /// scale — useful as a comparison baseline.
    pub fn to_isotropic(&self) -> Matern52 {
        let log_mean = self.length_scales.iter().map(|l| l.ln()).sum::<f64>()
            / self.length_scales.len() as f64;
        Matern52::new(log_mean.exp(), self.variance)
    }
}

impl Matern52Ard {
    /// Covariance as a function of the *scaled* squared distance
    /// `Σ_k ((a_k − b_k)/ℓ_k)²`. [`Kernel::eval`] delegates here, so
    /// evaluating from cached per-dimension differences is bit-identical
    /// to evaluating from the coordinates.
    #[inline]
    pub fn eval_scaled_sq_dist(&self, r2: f64) -> f64 {
        matern52_of(self.variance, sqrt5_dist(r2))
    }
}

impl Kernel for Matern52Ard {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.length_scales.len(), "dimension mismatch");
        let r2: f64 = a
            .iter()
            .zip(b)
            .zip(&self.length_scales)
            .map(|((&x, &y), &l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum();
        self.eval_scaled_sq_dist(r2)
    }

    fn eval_row(&self, q: &[f64], xt: &[f64], out: &mut [f64]) {
        assert_eq!(q.len(), self.length_scales.len(), "eval_row: dimension mismatch");
        dim_sums(q, xt, out, |k, d| {
            let d = d / self.length_scales[k];
            d * d
        });
        for v in out.iter_mut() {
            *v = sqrt5_dist(*v);
        }
        for v in out.iter_mut() {
            *v = matern52_of(self.variance, *v);
        }
    }

    fn diag(&self, _a: &[f64]) -> f64 {
        self.variance
    }
}

/// Squared-exponential (RBF): `σ²·exp(−r²/(2ℓ²))`. Included for ablations
/// against the Matérn choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquaredExp {
    /// Isotropic length scale ℓ (> 0).
    pub length_scale: f64,
    /// Signal variance σ² (> 0).
    pub variance: f64,
}

impl SquaredExp {
    /// Creates the kernel, validating positivity.
    ///
    /// # Panics
    ///
    /// Panics unless both hyperparameters are positive and finite.
    pub fn new(length_scale: f64, variance: f64) -> Self {
        assert!(
            length_scale > 0.0 && length_scale.is_finite(),
            "length_scale must be positive"
        );
        assert!(variance > 0.0 && variance.is_finite(), "variance must be positive");
        SquaredExp {
            length_scale,
            variance,
        }
    }
}

impl SquaredExp {
    /// Covariance as a function of the squared Euclidean distance (the
    /// distance-cache entry point; [`Kernel::eval`] delegates here).
    #[inline]
    pub fn eval_sq_dist(&self, d2: f64) -> f64 {
        self.variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

impl Kernel for SquaredExp {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq_dist(sq_dist(a, b))
    }

    fn eval_row(&self, q: &[f64], xt: &[f64], out: &mut [f64]) {
        dim_sums(q, xt, out, |_, d| d * d);
        for v in out.iter_mut() {
            *v = self.eval_sq_dist(*v);
        }
    }

    fn diag(&self, _a: &[f64]) -> f64 {
        self.variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matern_at_zero_distance_is_variance() {
        let k = Matern52::new(0.5, 2.0);
        let x = [0.1, 0.2, 0.3];
        assert!((k.eval(&x, &x) - 2.0).abs() < 1e-12);
        assert!((k.diag(&x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matern_decays_monotonically() {
        let k = Matern52::new(0.3, 1.0);
        let origin = [0.0];
        let mut prev = k.eval(&origin, &origin);
        for i in 1..20 {
            let v = k.eval(&origin, &[i as f64 * 0.1]);
            assert!(v < prev, "kernel must decay with distance");
            assert!(v > 0.0);
            prev = v;
        }
    }

    #[test]
    fn matern_is_symmetric() {
        let k = Matern52::new(0.7, 1.3);
        let a = [0.1, 0.9];
        let b = [0.4, 0.2];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn longer_length_scale_means_slower_decay() {
        let short = Matern52::new(0.1, 1.0);
        let long = Matern52::new(1.0, 1.0);
        let a = [0.0];
        let b = [0.5];
        assert!(long.eval(&a, &b) > short.eval(&a, &b));
    }

    #[test]
    fn rbf_upper_bounds_matern_at_matched_params() {
        // The SE kernel is smoother and decays slower near zero distance.
        let m = Matern52::new(0.5, 1.0);
        let s = SquaredExp::new(0.5, 1.0);
        let a = [0.0];
        let b = [0.1];
        assert!(s.eval(&a, &b) > m.eval(&a, &b));
    }

    #[test]
    #[should_panic(expected = "length_scale must be positive")]
    fn rejects_bad_length_scale() {
        Matern52::new(0.0, 1.0);
    }

    #[test]
    fn ard_with_equal_scales_matches_isotropic() {
        let iso = Matern52::new(0.4, 1.5);
        let ard = Matern52Ard::new(vec![0.4, 0.4, 0.4], 1.5);
        let a = [0.1, 0.5, 0.9];
        let b = [0.3, 0.2, 0.8];
        assert!((iso.eval(&a, &b) - ard.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn ard_long_scale_flattens_a_dimension() {
        let ard = Matern52Ard::new(vec![0.2, 100.0], 1.0);
        let a = [0.5, 0.0];
        let b_move_relevant = [0.7, 0.0];
        let b_move_irrelevant = [0.5, 1.0];
        // Moving along the long-scale axis barely changes covariance.
        assert!(ard.eval(&a, &b_move_irrelevant) > 0.999);
        assert!(ard.eval(&a, &b_move_relevant) < 0.9);
    }

    #[test]
    fn ard_to_isotropic_uses_geometric_mean() {
        let ard = Matern52Ard::new(vec![0.1, 10.0], 2.0);
        let iso = ard.to_isotropic();
        assert!((iso.length_scale - 1.0).abs() < 1e-12);
        assert_eq!(iso.variance, 2.0);
    }

    #[test]
    #[should_panic(expected = "length scales must be positive")]
    fn ard_rejects_bad_scales() {
        Matern52Ard::new(vec![0.5, -1.0], 1.0);
    }
}
