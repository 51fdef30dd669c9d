//! Property-based tests of GP regression.

use proptest::prelude::*;
use robotune_gp::{GpModel, Kernel, Matern52};

fn grid_x(n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|i| vec![i as f64 / n.max(2) as f64]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matrices_are_positive_semidefinite(
        pts in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 2..15),
        ell in 0.05f64..3.0,
        var in 0.1f64..5.0,
    ) {
        // Check PSD via the quadratic form with random weights.
        let k = Matern52::new(ell, var);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let w: Vec<f64> = (0..pts.len()).map(|_| rng.gen::<f64>() - 0.5).collect();
            let mut q = 0.0;
            for (i, wi) in w.iter().enumerate() {
                for (j, wj) in w.iter().enumerate() {
                    q += wi * wj * k.eval(&pts[i], &pts[j]);
                }
            }
            prop_assert!(q >= -1e-8, "negative quadratic form {q}");
        }
    }

    #[test]
    fn posterior_variance_never_exceeds_the_prior(
        ys in proptest::collection::vec(-50.0f64..50.0, 3..20),
        q in 0.0f64..1.0,
        ell in 0.05f64..2.0,
    ) {
        let x = grid_x(ys.len());
        let kernel = Matern52::new(ell, 1.0);
        let m = GpModel::fit(x, &ys, kernel, 1e-4).expect("conditioning handled");
        let (_, var) = m.predict(&[q]);
        // Prior variance in original units is σ²·y_std²; conditioning on
        // data can only shrink it (up to jitter slack).
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let y_var = ys.iter().map(|&v| (v - y_mean).powi(2)).sum::<f64>() / ys.len() as f64;
        let prior = 1.0 * y_var.max(1.0);
        prop_assert!(var <= prior * 1.01 + 1e-6, "posterior {var} above prior {prior}");
    }

    #[test]
    fn adding_an_observation_shrinks_variance_there(
        ys in proptest::collection::vec(-10.0f64..10.0, 4..15),
        q in 0.05f64..0.95,
    ) {
        let x = grid_x(ys.len());
        let kernel = Matern52::new(0.3, 1.0);
        let before = GpModel::fit(x.clone(), &ys, kernel, 1e-4).expect("fit");
        let (mu_q, var_before) = before.predict(&[q]);

        let mut x2 = x;
        x2.push(vec![q]);
        let mut ys2 = ys.clone();
        ys2.push(mu_q);
        let after = GpModel::fit(x2, &ys2, kernel, 1e-4).expect("fit");
        let (_, var_after) = after.predict(&[q]);
        prop_assert!(var_after <= var_before + 1e-6);
    }

    #[test]
    fn lml_is_finite_for_any_reasonable_data(
        ys in proptest::collection::vec(-100.0f64..100.0, 2..25),
        ell in 0.05f64..3.0,
        noise in 1e-6f64..0.5,
    ) {
        let x = grid_x(ys.len());
        let m = GpModel::fit(x, &ys, Matern52::new(ell, 1.0), noise).expect("fit");
        prop_assert!(m.log_marginal_likelihood().is_finite());
    }
}
