//! Property-based tests of the dense linear algebra.

use proptest::prelude::*;
use robotune_linalg::{dot, sq_dist, Cholesky, LinalgError, Matrix};

/// Random SPD matrix `B Bᵀ + n·I` of the given size.
fn spd(n: usize, seed: u64) -> Matrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let b = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() - 0.5);
    let mut a = b.mat_mul(&b.transpose());
    a.add_diagonal(n as f64);
    a
}

/// Random symmetric, strictly diagonally dominant (hence SPD) matrix —
/// O(n²) to build, so the bitwise sweep below can reach large sizes.
fn dominant_spd(n: usize, seed: u64) -> Matrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let v = rng.gen::<f64>() - 0.5;
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
        a[(i, i)] = n as f64 * (0.5 + rng.gen::<f64>());
    }
    a
}

/// The row-by-row Cholesky–Banachiewicz loop: the bitwise oracle for the
/// blocked [`Cholesky::factor`].
fn naive_factor(a: &Matrix) -> Result<Matrix, usize> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(i);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Row-by-row forward substitution: the bitwise oracle for the blocked
/// [`Cholesky::solve_lower`].
fn naive_solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; b.len()];
    for i in 0..b.len() {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    y
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn blocked_factor_and_solve_are_bit_identical_to_the_row_loop() {
    // Every size up to 131 covers each remainder of the 4-row block.
    for n in 1..=131usize {
        let a = dominant_spd(n, n as u64);
        let ch = Cholesky::factor(&a).expect("SPD by construction");
        let oracle = naive_factor(&a).expect("SPD by construction");
        assert_eq!(bits(ch.l().as_slice()), bits(oracle.as_slice()), "factor, n = {n}");
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
        assert_eq!(
            bits(&ch.solve_lower(&rhs)),
            bits(&naive_solve_lower(&oracle, &rhs)),
            "solve_lower, n = {n}"
        );
    }
}

#[test]
fn blocked_factor_fails_at_the_same_pivot_as_the_row_loop() {
    for n in [1usize, 2, 5, 8, 13, 60, 101] {
        for broken in [0, n / 2, n - 1] {
            let mut a = dominant_spd(n, 7 + n as u64);
            // A large off-diagonal coupling makes the Schur complement at
            // `broken` negative (or, at row 0, a negative pivot outright).
            if broken == 0 {
                a[(0, 0)] = -1.0;
            } else {
                a[(broken, broken - 1)] = 3.0 * n as f64;
                a[(broken - 1, broken)] = 3.0 * n as f64;
            }
            let expected = naive_factor(&a).expect_err("broken by construction");
            match Cholesky::factor(&a) {
                Err(LinalgError::NotPositiveDefinite(i)) => {
                    assert_eq!(i, expected, "n = {n}, broken = {broken}");
                }
                other => panic!("n = {n}: expected pivot {expected}, got {other:?}"),
            }
        }
    }
}

proptest! {
    #[test]
    fn cholesky_reconstructs_spd_matrices(n in 1usize..25, seed in 0u64..500) {
        let a = spd(n, seed);
        let ch = Cholesky::factor(&a).expect("SPD by construction");
        prop_assert!(ch.reconstruct().max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn cholesky_solve_satisfies_the_system(n in 1usize..25, seed in 0u64..500) {
        let a = spd(n, seed);
        let ch = Cholesky::factor(&a).expect("SPD");
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64) - n as f64 / 2.0).collect();
        let x = ch.solve(&rhs);
        let back = a.mat_vec(&x);
        for (r, b) in rhs.iter().zip(&back) {
            prop_assert!((r - b).abs() < 1e-6, "residual {r} vs {b}");
        }
    }

    #[test]
    fn log_det_matches_the_product_of_pivots(n in 1usize..20, seed in 0u64..500) {
        let a = spd(n, seed);
        let ch = Cholesky::factor(&a).expect("SPD");
        // |A| = Π L[i][i]² — verify via the factor itself.
        let direct: f64 = (0..n).map(|i| ch.l()[(i, i)].ln() * 2.0).sum();
        prop_assert!((ch.log_det() - direct).abs() < 1e-10);
        prop_assert!(ch.log_det().is_finite());
    }

    #[test]
    fn matmul_is_associative_enough(
        dims in (1usize..8, 1usize..8, 1usize..8),
        seed in 0u64..200,
    ) {
        use rand::{Rng, SeedableRng};
        let (m, k, n) = dims;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, k, |_, _| rng.gen::<f64>() - 0.5);
        let b = Matrix::from_fn(k, n, |_, _| rng.gen::<f64>() - 0.5);
        let c = Matrix::from_fn(n, 3, |_, _| rng.gen::<f64>() - 0.5);
        let left = a.mat_mul(&b).mat_mul(&c);
        let right = a.mat_mul(&b.mat_mul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn transpose_respects_matvec(m in 1usize..10, n in 1usize..10, seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() - 0.5);
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
        // ⟨A x, y⟩ = ⟨x, Aᵀ y⟩.
        let lhs = dot(&a.mat_vec(&x), &y);
        let rhs = dot(&x, &a.transpose().mat_vec(&y));
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn sq_dist_is_a_metric_squared(
        a in proptest::collection::vec(-10.0f64..10.0, 1..8),
        t in -10.0f64..10.0,
    ) {
        prop_assert_eq!(sq_dist(&a, &a), 0.0);
        let b: Vec<f64> = a.iter().map(|&x| x + t).collect();
        let expect = t * t * a.len() as f64;
        prop_assert!((sq_dist(&a, &b) - expect).abs() < 1e-8);
        prop_assert!((sq_dist(&a, &b) - sq_dist(&b, &a)).abs() < 1e-12);
    }
}
