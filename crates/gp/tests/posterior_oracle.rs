//! The GP posterior against a reference implementation: `predict` and
//! `predict_batch` must return the reference's mean and variance bit for
//! bit, for every training-set size and dimension below.
//!
//! The reference is the straightforward posterior: it fits with the same
//! standardisation, lower-triangle kernel matrix and jitter escalation as
//! `GpModel::fit`, builds the kernel row with `Kernel::eval` per training
//! point, and solves with the row-by-row `Cholesky::solve_lower`.

use rand::Rng;
use robotune_gp::{GpModel, Kernel, Matern52};
use robotune_linalg::{Cholesky, Matrix};
use robotune_stats::rng_from_seed;

struct Reference<K> {
    x: Vec<Vec<f64>>,
    kernel: K,
    chol: Cholesky,
    jitter: f64,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl<K: Kernel + Clone> Reference<K> {
    fn fit(x: &[Vec<f64>], y: &[f64], kernel: &K, noise: f64) -> Self {
        let n = y.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|&v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
        let y_std = if var > 0.0 { var.sqrt() } else { 1.0 };
        let y_norm: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                k[(i, j)] = kernel.eval(&x[i], &x[j]);
            }
            k[(i, i)] = kernel.diag(&x[i]) + noise;
        }
        let (mut step, mut jitter) = (1e-10, 0.0);
        let chol = loop {
            match Cholesky::factor(&k) {
                Ok(c) => break c,
                Err(e) => {
                    assert!(step <= 1e-2, "reference fit failed: {e:?}");
                    k.add_diagonal(step);
                    jitter += step;
                    step *= 10.0;
                }
            }
        };
        let alpha = chol.solve(&y_norm);
        Reference {
            x: x.to_vec(),
            kernel: kernel.clone(),
            chol,
            jitter,
            alpha,
            y_mean,
            y_std,
        }
    }

    fn predict(&self, q: &[f64]) -> (f64, f64) {
        let n = self.x.len();
        let mut kstar = Vec::with_capacity(n);
        for xi in &self.x {
            kstar.push(self.kernel.eval(q, xi));
        }
        let mu_norm: f64 = kstar.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let v = self.chol.solve_lower(&kstar);
        let var_norm = (self.kernel.diag(q) - v.iter().map(|x| x * x).sum::<f64>()).max(0.0);
        (
            mu_norm * self.y_std + self.y_mean,
            var_norm * self.y_std * self.y_std,
        )
    }
}

fn bits(p: (f64, f64)) -> (u64, u64) {
    (p.0.to_bits(), p.1.to_bits())
}

/// Fits `kernel` on `(x, y)` both ways and compares the posterior at
/// random interior points, far-away points and every training point.
/// Returns the jitter the fit needed.
fn check<K: Kernel + Clone + Sync>(label: &str, x: &[Vec<f64>], y: &[f64], kernel: K, noise: f64) -> f64 {
    let dim = x[0].len();
    let model = GpModel::fit(x.to_vec(), y, kernel.clone(), noise).expect("well-posed fit");
    let reference = Reference::fit(x, y, &kernel, noise);
    assert_eq!(model.jitter().to_bits(), reference.jitter.to_bits(), "{label}: jitter");

    let mut rng = rng_from_seed(x.len() as u64 * 31 + dim as u64);
    let mut queries: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    for far in [-3.0, 5.0, 40.0] {
        queries.push(vec![far; dim]);
    }
    queries.extend(x.iter().cloned());

    let batch = model.predict_batch(&queries);
    assert_eq!(batch.len(), queries.len(), "{label}: batch length");
    for (q, &b) in queries.iter().zip(&batch) {
        let want = bits(reference.predict(q));
        assert_eq!(bits(model.predict(q)), want, "{label}: predict at {q:?}");
        assert_eq!(bits(b), want, "{label}: predict_batch at {q:?}");
    }
    model.jitter()
}

fn data(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = rng_from_seed(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y = x
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(i, v)| ((i + 2) as f64 * v).sin())
                .sum::<f64>()
                * 40.0
                + 300.0
        })
        .collect();
    (x, y)
}

#[test]
fn posterior_matches_the_reference_bit_for_bit() {
    for n in [1usize, 2, 3, 17, 64, 101] {
        for dim in 1..=6 {
            let (x, y) = data(n, dim, (n * 10 + dim) as u64);
            let label = format!("n={n} dim={dim}");
            check(&format!("{label} Matern52"), &x, &y, Matern52::new(0.3, 1.2), 1e-4);
        }
    }
}

#[test]
fn posterior_matches_the_reference_on_the_jitter_path() {
    // Duplicated rows and zero declared noise make the kernel matrix
    // singular, so the fit escalates its diagonal jitter.
    for dim in [1usize, 3, 6] {
        let (base, _) = data(9, dim, 90 + dim as u64);
        let x: Vec<Vec<f64>> = base.iter().chain(&base).cloned().collect();
        let y: Vec<f64> = (0..x.len()).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let label = format!("duplicates dim={dim}");
        let jitter = check(&format!("{label} Matern52"), &x, &y, Matern52::new(0.5, 1.0), 0.0);
        assert!(jitter > 0.0, "{label}: the fit never needed jitter");
    }
}
