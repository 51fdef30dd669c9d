//! Training-set-fixed precomputation for the GP hot path.
//!
//! ML-II hyperparameter fitting evaluates hundreds of `(ℓ, σ², σ_n²)`
//! candidates against the *same* training set: the pairwise distances and
//! the standardised targets never change between candidates, only the
//! kernel hyperparameters do. The pre-optimisation code nevertheless
//! cloned the coordinates and rebuilt the distance matrix on every
//! Nelder–Mead likelihood evaluation. [`PreparedData`] computes those
//! invariants once; [`PreparedData::log_marginal`] then scores one
//! candidate with a lower-triangle kernel-matrix fill straight from the
//! cache plus one Cholesky factorisation — no coordinate clones, no
//! re-standardisation, no model construction.
//!
//! Every cached evaluation is **bit-identical** to the direct one: the
//! kernels' [`Kernel::eval`] implementations compute the same
//! hyperparameter-free pair statistic this module caches and pass it
//! through the same entry point, so a fixed seed replays the exact same
//! hyperparameter trajectory whether or not the cache is used.

use robotune_linalg::{sq_dist, Cholesky, Matrix};

use crate::error::GpError;
use crate::kernel::{sqrt5_dist, Kernel, Matern52, Matern52Ard};

/// Kernels that can evaluate a training-pair covariance from
/// [`PreparedData`]'s cached pairwise statistics.
pub trait CachedKernel: Kernel {
    /// Covariance between training points `i` and `j` (callers only ask
    /// for the lower triangle, `j ≤ i`), bit-identical to
    /// `self.eval(&x[i], &x[j])`.
    fn eval_cached(&self, data: &PreparedData, i: usize, j: usize) -> f64;
}

impl CachedKernel for Matern52 {
    fn eval_cached(&self, data: &PreparedData, i: usize, j: usize) -> f64 {
        match &data.pairs {
            Pairs::Isotropic(r5) => self.eval_sqrt5_dist(r5[(i, j)]),
            // Prepared for ARD (see [`PreparedData::prepare_ard`]): fall
            // back to the direct evaluation — correct, just uncached.
            Pairs::Ard(_) => self.eval(&data.x[i], &data.x[j]),
        }
    }
}

impl CachedKernel for Matern52Ard {
    fn eval_cached(&self, data: &PreparedData, i: usize, j: usize) -> f64 {
        match &data.pairs {
            Pairs::Ard(diffs) if diffs.len() == self.length_scales.len() => {
                let r2: f64 = diffs
                    .iter()
                    .zip(&self.length_scales)
                    .map(|(m, &l)| {
                        let d = m[(i, j)] / l;
                        d * d
                    })
                    .sum();
                self.eval_scaled_sq_dist(r2)
            }
            _ => self.eval(&data.x[i], &data.x[j]),
        }
    }
}

/// The hyperparameter-free pair statistics of one training set
/// (lower triangle, `j < i`; the diagonal stays zero).
#[derive(Debug, Clone)]
enum Pairs {
    /// `√5 · ‖x_i − x_j‖`, the isotropic Matérn argument before `/ ℓ`.
    Isotropic(Matrix),
    /// Per-dimension signed differences `x_i[k] − x_j[k]`.
    Ard(Vec<Matrix>),
}

/// Precomputed quantities of a fixed training set, reused across all
/// hyperparameter candidates of one fit.
#[derive(Debug, Clone)]
pub struct PreparedData {
    pub(crate) x: Vec<Vec<f64>>,
    pairs: Pairs,
    pub(crate) y_norm: Vec<f64>,
    pub(crate) y_mean: f64,
    pub(crate) y_std: f64,
}

impl PreparedData {
    /// Validates and preprocesses a training set for isotropic kernels:
    /// standardised targets plus the pairwise `√5 · ‖x_i − x_j‖` cache.
    ///
    /// Returns the same typed [`GpError::InvalidInput`] cases as
    /// [`crate::model::GpModel::fit`].
    pub fn prepare(x: Vec<Vec<f64>>, y: &[f64]) -> Result<Self, GpError> {
        Self::new(x, y, false)
    }

    /// Like [`PreparedData::prepare`], but caching the per-dimension
    /// differences an ARD kernel needs instead of the isotropic distances.
    pub fn prepare_ard(x: Vec<Vec<f64>>, y: &[f64]) -> Result<Self, GpError> {
        Self::new(x, y, true)
    }

    fn new(x: Vec<Vec<f64>>, y: &[f64], with_diffs: bool) -> Result<Self, GpError> {
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

        let n = y.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|&v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
        let y_std = if var > 0.0 { var.sqrt() } else { 1.0 };
        let y_norm: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();

        let pairs = if with_diffs {
            let dim = x[0].len();
            Pairs::Ard(
                (0..dim)
                    .map(|k| lower_triangle(n, |i, j| x[i][k] - x[j][k]))
                    .collect(),
            )
        } else {
            Pairs::Isotropic(lower_triangle(n, |i, j| sqrt5_dist(sq_dist(&x[i], &x[j]))))
        };

        Ok(PreparedData {
            x,
            pairs,
            y_norm,
            y_mean,
            y_std,
        })
    }

    /// Number of training observations.
    pub fn n_observations(&self) -> usize {
        self.x.len()
    }

    /// The training inputs.
    pub fn x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Builds the (lower-triangle plus diagonal) kernel matrix
    /// `K + σ_n² I` from the cache. The Cholesky factorisation only reads
    /// the lower triangle, so the upper triangle is left unfilled — half
    /// the kernel evaluations of a full build.
    pub(crate) fn kernel_matrix<K: CachedKernel>(&self, kernel: &K, noise: f64) -> Matrix {
        let n = self.x.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                k[(i, j)] = kernel.eval_cached(self, i, j);
            }
            k[(i, i)] = kernel.diag(&self.x[i]) + noise;
        }
        k
    }

    /// Log marginal likelihood of `(kernel, noise)` on the prepared data,
    /// without constructing a model: one cached kernel-matrix fill, one
    /// Cholesky (with the standard jitter escalation), one solve.
    ///
    /// Bit-identical to
    /// `GpModel::fit(x, y, kernel, noise)?.log_marginal_likelihood()`.
    pub fn log_marginal<K: CachedKernel>(&self, kernel: &K, noise: f64) -> Result<f64, GpError> {
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
}

/// An `n × n` matrix holding `f(i, j)` strictly below the diagonal and
/// zeros elsewhere.
fn lower_triangle(n: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            m[(i, j)] = f(i, j);
        }
    }
    m
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

    #[test]
    fn cached_ard_log_marginal_is_bit_identical_to_model_fit() {
        let (x, y) = toy();
        let data = PreparedData::prepare_ard(x.clone(), &y).unwrap();
        let kernel = Matern52Ard::new(vec![0.3, 1.2], 1.5);
        let cached = data.log_marginal(&kernel, 1e-4).unwrap();
        let direct = GpModel::fit(x, &y, kernel, 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        assert_eq!(cached, direct);
    }

    #[test]
    fn ard_kernel_without_diff_cache_falls_back_to_direct_eval() {
        let (x, y) = toy();
        // prepare() (no per-dimension diffs) must still give correct ARD
        // answers through the coordinate fallback.
        let plain = PreparedData::prepare(x.clone(), &y).unwrap();
        let ard = PreparedData::prepare_ard(x, &y).unwrap();
        let kernel = Matern52Ard::new(vec![0.4, 0.9], 1.0);
        assert_eq!(
            plain.log_marginal(&kernel, 1e-3).unwrap(),
            ard.log_marginal(&kernel, 1e-3).unwrap()
        );
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
