//! Cholesky factorisation of symmetric positive-definite matrices.

use crate::{LinalgError, Matrix};

/// Rows eliminated per pass by [`Cholesky::factor`] and
/// [`Cholesky::solve_lower`].
const BLOCK: usize = 4;

/// `sums[t] -= Σ_k m[(first + t, k)] · x[k]` over `k < x.len()`, in
/// ascending `k`: one independent chain per row, all sharing each load of
/// `x[k]`. Plain multiply-then-subtract (no fused multiply-add), so each
/// chain rounds exactly like the scalar loop.
fn sub_dots(sums: &mut [f64], m: &Matrix, first: usize, x: &[f64]) {
    match sums.len() {
        4 => chains::<4>(sums, m, first, x),
        3 => chains::<3>(sums, m, first, x),
        2 => chains::<2>(sums, m, first, x),
        rows => {
            for t in 0..rows {
                chains::<1>(&mut sums[t..=t], m, first + t, x);
            }
        }
    }
}

/// `y += a · x` elementwise.
#[inline(always)]
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (v, &xj) in y.iter_mut().zip(x) {
        *v += a * xj;
    }
}

#[inline(always)]
fn chains<const R: usize>(sums: &mut [f64], m: &Matrix, first: usize, x: &[f64]) {
    let rows: [&[f64]; R] = std::array::from_fn(|t| &m.row(first + t)[..x.len()]);
    let mut s: [f64; R] = std::array::from_fn(|t| sums[t]);
    for (k, &v) in x.iter().enumerate() {
        for t in 0..R {
            s[t] -= rows[t][k] * v;
        }
    }
    sums[..R].copy_from_slice(&s);
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// This is the numerical core of GP regression: the kernel matrix is
/// factored once per model fit, after which posterior means, variances and
/// the log marginal likelihood are all cheap triangular solves.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers may leave the
    /// upper triangle unspecified. Fails with
    /// [`LinalgError::NotPositiveDefinite`] when a pivot becomes
    /// non-positive — GP callers respond by increasing the jitter.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        // Rows are eliminated BLOCK at a time: for each column j, every
        // block row r ≥ j computes
        //   L[r][j] = (A[r][j] − Σ_{k<j} L[r][k]·L[j][k]) / L[j][j]
        // (square root instead of division on the diagonal) as its own
        // dot-product chain, all chains sharing each load of row j. Every
        // chain still starts from A[r][j] and subtracts its terms in
        // ascending k, so each entry is bit-identical to the row-by-row
        // loop, and a failing pivot is reported at the same row.
        for i0 in (0..n).step_by(BLOCK) {
            let end = (i0 + BLOCK).min(n);
            let mut j = 0;
            if end - i0 == BLOCK {
                // Full block, columns solved in earlier blocks: two
                // columns per pass, so each load of L[r][k] feeds two
                // chains. Column j+1's chain takes its k = j term after
                // L[r][j] is final, last, as in the row loop.
                while j + 1 < i0 {
                    let mut s0: [f64; BLOCK] = std::array::from_fn(|t| a[(i0 + t, j)]);
                    let mut s1: [f64; BLOCK] = std::array::from_fn(|t| a[(i0 + t, j + 1)]);
                    let rows: [&[f64]; BLOCK] = std::array::from_fn(|t| &l.row(i0 + t)[..j]);
                    let (x0, x1) = (&l.row(j)[..j], &l.row(j + 1)[..j]);
                    for k in 0..j {
                        let (v0, v1) = (x0[k], x1[k]);
                        for t in 0..BLOCK {
                            let lrk = rows[t][k];
                            s0[t] -= lrk * v0;
                            s1[t] -= lrk * v1;
                        }
                    }
                    let (ljj, lj1j, lj1j1) = (l[(j, j)], l[(j + 1, j)], l[(j + 1, j + 1)]);
                    for t in 0..BLOCK {
                        let lrj = s0[t] / ljj;
                        l[(i0 + t, j)] = lrj;
                        l[(i0 + t, j + 1)] = (s1[t] - lrj * lj1j) / lj1j1;
                    }
                    j += 2;
                }
            }
            for j in j..end {
                let first = j.max(i0);
                let mut sums = [0.0; BLOCK];
                for (s, r) in sums.iter_mut().zip(first..end) {
                    *s = a[(r, j)];
                }
                sub_dots(&mut sums[..end - first], &l, first, &l.row(j)[..j]);
                let mut rest = &sums[..end - first];
                if j >= i0 {
                    let d = rest[0];
                    if d <= 0.0 || !d.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite(j));
                    }
                    l[(j, j)] = d.sqrt();
                    rest = &rest[1..];
                }
                let ljj = l[(j, j)];
                let below = end - rest.len();
                for (r, &s) in (below..end).zip(rest) {
                    l[(r, j)] = s / ljj;
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    #[inline]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor's dimension.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower: rhs length mismatch");
        let mut y = vec![0.0; n];
        // BLOCK rows per pass: the already-solved prefix y[..i0] is
        // eliminated from all block rows at once (one chain per row,
        // sharing each load of y[k]), then each chain is finished over
        // the block's own columns. Per row the terms are still subtracted
        // from b[i] in ascending k — bit-identical to the row-by-row loop.
        for i0 in (0..n).step_by(BLOCK) {
            let end = (i0 + BLOCK).min(n);
            let mut sums = [0.0; BLOCK];
            sums[..end - i0].copy_from_slice(&b[i0..end]);
            sub_dots(&mut sums[..end - i0], &self.l, i0, &y[..i0]);
            for (i, &partial) in (i0..end).zip(&sums) {
                let row = self.l.row(i);
                let mut sum = partial;
                for k in i0..i {
                    sum -= row[k] * y[k];
                }
                y[i] = sum / row[i];
            }
        }
        y
    }

    /// Solves `Lᵀ x = y` by backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` does not match the factor's dimension.
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve_upper: rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, xk) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self.l[(k, i)] * xk;
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b` (i.e. `L Lᵀ x = b`).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log |A| = 2 Σ log L[i][i]`, needed by the GP marginal likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// The lower triangle of `A⁻¹` (entries above the diagonal are zero),
    /// as `L⁻ᵀ L⁻¹`, computed in the factor's own storage with O(n)
    /// scratch. The GP likelihood gradient needs every entry of `K⁻¹`,
    /// so it pays for this once per evaluation.
    pub fn into_inverse_lower(self) -> Matrix {
        let mut x = self.l;
        let n = x.rows();
        let mut acc = vec![0.0; n];
        // X = L⁻¹ by forward substitution over L's rows: row i becomes
        // −(Σ_{k<i} L[i][k] · X[k]) / L[i][i] plus 1 / L[i][i] on the
        // diagonal. Rows above i already hold X, which is zero beyond
        // column k in row k; row i still holds L until it is written.
        for i in 0..n {
            let acc = &mut acc[..i];
            acc.fill(0.0);
            for k in 0..i {
                axpy(&mut acc[..=k], x[(i, k)], &x.row(k)[..=k]);
            }
            let inv = 1.0 / x[(i, i)];
            let row = x.row_mut(i);
            for (v, &a) in row[..i].iter_mut().zip(acc.iter()) {
                *v = a * -inv;
            }
            row[i] = inv;
        }
        // A⁻¹[i][j] = Σ_{k≥i} X[k][i] · X[k][j] for j ≤ i. Row i of the
        // result reads rows k ≥ i of X only, so ascending i never reads a
        // row it has already overwritten. Four rows of X per pass, so each
        // entry is loaded and stored once per four terms.
        for i in 0..n {
            let acc = &mut acc[..=i];
            let own = &x.row(i)[..=i];
            let c = own[i];
            for (a, &v) in acc.iter_mut().zip(own) {
                *a = v * c;
            }
            let mut k = i + 1;
            while k + 4 <= n {
                let (r0, r1) = (&x.row(k)[..=i], &x.row(k + 1)[..=i]);
                let (r2, r3) = (&x.row(k + 2)[..=i], &x.row(k + 3)[..=i]);
                let (c0, c1, c2, c3) = (r0[i], r1[i], r2[i], r3[i]);
                let rows = acc.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3);
                for ((((a, &p), &q), &r), &s) in rows {
                    *a += c0 * p + c1 * q + c2 * r + c3 * s;
                }
                k += 4;
            }
            for k in k..n {
                let r = &x.row(k)[..=i];
                axpy(acc, r[i], r);
            }
            x.row_mut(i)[..=i].copy_from_slice(acc);
        }
        x
    }

    /// Reconstructs `A = L Lᵀ` (mainly for testing).
    pub fn reconstruct(&self) -> Matrix {
        let lt = self.l.transpose();
        self.l.mat_mul(&lt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        Matrix::from_vec(
            3,
            3,
            vec![4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0],
        )
    }

    #[test]
    fn factor_known_matrix() {
        // Classic example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let ch = Cholesky::factor(&spd_example()).unwrap();
        let l = ch.l();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
        assert!(l[(0, 1)] == 0.0 && l[(0, 2)] == 0.0 && l[(1, 2)] == 0.0);
    }

    #[test]
    fn reconstruct_matches_input() {
        let a = spd_example();
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd_example();
        let ch = Cholesky::factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let back = a.mat_vec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            assert!((bi - yi).abs() < 1e-9, "residual too large");
        }
    }

    #[test]
    fn log_det_known() {
        // det = (2*1*3)^2 = 36 → log det = ln 36.
        let ch = Cholesky::factor(&spd_example()).unwrap();
        assert!((ch.log_det() - 36.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite(i)) => assert_eq!(i, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn random_spd_round_trip() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        for n in [1usize, 2, 5, 12, 30] {
            // Build SPD as B Bᵀ + n·I.
            let b = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() - 0.5);
            let mut a = b.mat_mul(&b.transpose());
            a.add_diagonal(n as f64);
            let ch = Cholesky::factor(&a).expect("SPD by construction");
            assert!(ch.reconstruct().max_abs_diff(&a) < 1e-8);
            let rhs: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            let x = ch.solve(&rhs);
            let back = a.mat_vec(&x);
            for (r, y) in rhs.iter().zip(&back) {
                assert!((r - y).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn into_inverse_lower_inverts_random_spd_matrices() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for n in [1usize, 2, 3, 7, 30] {
            let b = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() - 0.5);
            let mut a = b.mat_mul(&b.transpose());
            a.add_diagonal(n as f64);
            let lower = Cholesky::factor(&a)
                .expect("SPD by construction")
                .into_inverse_lower();
            let inv = Matrix::from_fn(n, n, |i, j| lower[(i.max(j), i.min(j))]);
            assert!(
                a.mat_mul(&inv).max_abs_diff(&Matrix::identity(n)) < 1e-10,
                "n = {n}"
            );
            assert!((0..n).all(|i| (i + 1..n).all(|j| lower[(i, j)] == 0.0)));
        }
    }
}
