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
    /// This is the posterior's kernel row. [`Matern52`] computes it in
    /// whole-row passes (distance, then scaling, then the covariance) that
    /// the compiler can vectorise.
    ///
    /// # Panics
    ///
    /// Panics if `xt.len() != q.len() * out.len()`.
    fn eval_row(&self, q: &[f64], xt: &[f64], out: &mut [f64]);
}

/// `out[i] = ‖q − x_i‖²` for points stored dimension-major, each sum
/// taken in ascending `d` like [`sq_dist`].
#[inline(always)]
fn sq_dists(q: &[f64], xt: &[f64], out: &mut [f64]) {
    let n = out.len();
    assert_eq!(xt.len(), q.len() * n, "eval_row: dimension mismatch");
    out.fill(0.0);
    if n == 0 {
        return;
    }
    for (&qd, col) in q.iter().zip(xt.chunks_exact(n)) {
        for (o, &x) in out.iter_mut().zip(col) {
            let d = qd - x;
            *o += d * d;
        }
    }
}

/// `σ²·(1 + s + s²/3)·exp(−s)`: Matérn 5/2 at the scaled distance
/// `s = √5·r/ℓ`.
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
        sq_dists(q, xt, out);
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
        sq_dists(q, xt, out);
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
    #[should_panic(expected = "length_scale must be positive")]
    fn rejects_bad_length_scale() {
        Matern52::new(0.0, 1.0);
    }
}
