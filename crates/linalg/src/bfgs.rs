//! Bounded quasi-Newton minimisation: projected BFGS on a box.
//!
//! Minimises a smooth function of a handful of variables inside a box,
//! given its analytic gradient: the setting scikit-learn and
//! scikit-optimize hand to L-BFGS-B. The GP hyperfit minimises the
//! negative log marginal likelihood over log-hyperparameters with it, and
//! the BO engine refines acquisition optima over the unit cube. At two to
//! a few dozen variables a dense BFGS Hessian estimate with an active set
//! at the bounds does the same job in a page of code. The stopping rules
//! are `fmin_l_bfgs_b`'s defaults.
//!
//! Every step is plain arithmetic on its inputs (no clock, no shared
//! state), so one start always gives the same bits.

use crate::{Cholesky, Matrix};

/// Stop when the projected gradient's ∞-norm falls below this (`pgtol`).
const PG_TOL: f64 = 1e-5;
/// Stop when one step lowers `f` by less than this, relative to
/// `max(|f|, 1)` (`factr = 1e7` times machine epsilon).
const REL_TOL: f64 = 1e7 * f64::EPSILON;
/// Sufficient-decrease constant of the Armijo line search.
const ARMIJO_C1: f64 = 1e-4;
/// Step halvings before a line search gives up.
const MAX_HALVINGS: usize = 30;

/// A function to minimise, evaluated in two steps so that the line
/// search pays for a gradient only at the points it accepts.
pub trait Objective {
    /// What [`Objective::gradient`] needs from a value evaluation.
    type At;
    /// The value at `x`, or `None` where the function is undefined.
    fn value(&self, x: &[f64]) -> Option<(f64, Self::At)>;
    /// Writes the gradient at the point `at` was evaluated at into `g`.
    fn gradient(&self, at: Self::At, g: &mut [f64]);
}

/// Result of one [`minimize`] run.
#[derive(Debug)]
pub struct Minimum {
    /// Best point found (inside the box).
    pub x: Vec<f64>,
    /// Objective value at `x` (`+∞` if not even the start was finite).
    pub fx: f64,
    /// Value evaluations consumed (each accepted one also computed the
    /// gradient).
    pub evals: usize,
}

/// Minimises `f` over the box `bounds` from `x0` (projected into the box
/// first). An undefined or non-finite value marks an infeasible point,
/// which the line search backs away from. Stops after `max_evals` value
/// evaluations, when the projected gradient is below `PG_TOL` (1e-5), when a
/// step's relative decrease is below `REL_TOL` (1e7·ε), or when no descent
/// step is found.
///
/// A variable sits in the active set while it is at a bound and its
/// gradient points out of the box; the search direction is the
/// quasi-Newton step over the free variables only, from a BFGS Hessian
/// estimate that is reset to the identity whenever it stops yielding
/// descent.
///
/// # Panics
///
/// Panics if `bounds` and `x0` differ in length or a bound has `lo > hi`.
pub fn minimize<O: Objective>(
    f: &O,
    x0: &[f64],
    bounds: &[(f64, f64)],
    max_evals: usize,
) -> Minimum {
    assert_eq!(x0.len(), bounds.len(), "one bound per variable");
    let n = x0.len();
    // The value at x, and the gradient into g if the value is finite and
    // `accept`s it; `None` (g unusable) otherwise.
    let eval = |x: &[f64], g: &mut [f64], accept: &dyn Fn(f64) -> bool| -> Option<f64> {
        let (fx, at) = f.value(x)?;
        if !fx.is_finite() || !accept(fx) {
            return None;
        }
        f.gradient(at, g);
        g.iter().all(|v| v.is_finite()).then_some(fx)
    };

    let mut x: Vec<f64> = x0
        .iter()
        .zip(bounds)
        .map(|(&v, &(lo, hi))| v.clamp(lo, hi))
        .collect();
    let mut g = vec![0.0; n];
    let mut evals = 1;
    let Some(mut fx) = eval(&x, &mut g, &|_| true) else {
        return Minimum {
            x,
            fx: f64::INFINITY,
            evals,
        };
    };

    // Hessian estimate, row-major; `fresh` while it is the identity and
    // no curvature pair has updated it yet. Keeping B (not its inverse)
    // makes the reduced step exact when bounds fix some variables: the
    // free block solves B_FF d = −g_F, where (B⁻¹)_FF would ignore the
    // coupling to the fixed ones.
    let mut b = Matrix::identity(n);
    let mut fresh = true;
    let mut d = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    let mut g_new = vec![0.0; n];
    let mut free = vec![true; n];
    while evals < max_evals {
        let mut pg = 0.0f64;
        for i in 0..n {
            let (lo, hi) = bounds[i];
            // The projected gradient: how far a unit steepest-descent
            // step moves variable i before the box stops it.
            let room = if g[i] > 0.0 { x[i] - lo } else { hi - x[i] };
            pg = pg.max(g[i].abs().min(room));
            free[i] = room > 0.0 || g[i] == 0.0;
        }
        if pg < PG_TOL {
            break;
        }

        if !newton_direction(&b, &g, &free, &mut d) {
            b = Matrix::identity(n);
            fresh = true;
            newton_direction(&b, &g, &free, &mut d);
        }
        if fresh {
            // No curvature information yet: cap the first step at one
            // unit of the variables, as L-BFGS-B caps its first.
            let longest = d.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if longest > 1.0 {
                d.iter_mut().for_each(|v| *v /= longest);
            }
        }

        // Armijo backtracking along the projected path x(t) = P(x + t·d).
        let mut t = 1.0;
        let mut accepted = None;
        for _ in 0..MAX_HALVINGS {
            if evals >= max_evals {
                break;
            }
            let mut decrease = 0.0;
            for i in 0..n {
                x_new[i] = (x[i] + t * d[i]).clamp(bounds[i].0, bounds[i].1);
                decrease += g[i] * (x_new[i] - x[i]);
            }
            if x_new == x {
                break;
            }
            evals += 1;
            let armijo = |v: f64| v <= fx + ARMIJO_C1 * decrease.min(0.0);
            accepted = eval(&x_new, &mut g_new, &armijo);
            if accepted.is_some() {
                break;
            }
            t *= 0.5;
        }
        let Some(f_new) = accepted else {
            if fresh {
                break;
            }
            // A stale curvature estimate can point almost along a
            // contour: retry once from steepest descent.
            b = Matrix::identity(n);
            fresh = true;
            continue;
        };

        let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = g_new.iter().zip(&g).map(|(a, b)| a - b).collect();
        let relative = (fx - f_new) / fx.abs().max(f_new.abs()).max(1.0);
        std::mem::swap(&mut x, &mut x_new);
        std::mem::swap(&mut g, &mut g_new);
        fx = f_new;
        if relative <= REL_TOL {
            break;
        }
        let sy = dot(&s, &y);
        let yy = dot(&y, &y);
        if sy > 1e-10 * dot(&s, &s).sqrt() * yy.sqrt() {
            if fresh {
                // Scale the identity to the observed curvature before
                // the first update (Shanno–Phua).
                for i in 0..n {
                    b.row_mut(i).iter_mut().for_each(|v| *v *= yy / sy);
                }
            }
            bfgs_update(&mut b, &s, &y, sy);
            fresh = false;
        }
    }
    Minimum { x, fx, evals }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `B_FF d_F = −g_F` over the free variables (`d` is zero on the
/// active ones). Returns `false`, leaving `d` unusable, when `B_FF` is
/// not numerically positive definite or `d` is not a descent direction.
fn newton_direction(b: &Matrix, g: &[f64], free: &[bool], d: &mut [f64]) -> bool {
    let n = g.len();
    let idx: Vec<usize> = (0..n).filter(|&i| free[i]).collect();
    let reduced = Matrix::from_fn(idx.len(), idx.len(), |r, c| b[(idx[r], idx[c])]);
    let Ok(chol) = Cholesky::factor(&reduced) else {
        return false;
    };
    let rhs: Vec<f64> = idx.iter().map(|&i| -g[i]).collect();
    d.fill(0.0);
    for (&i, v) in idx.iter().zip(chol.solve(&rhs)) {
        d[i] = v;
    }
    let slope = dot(g, d);
    slope < 0.0 && slope.is_finite()
}

/// The BFGS Hessian update `B ← B − B s sᵀ B / sᵀBs + y yᵀ / sᵀy`.
fn bfgs_update(b: &mut Matrix, s: &[f64], y: &[f64], sy: f64) {
    let n = s.len();
    let bs: Vec<f64> = (0..n).map(|i| dot(b.row(i), s)).collect();
    let sbs = dot(s, &bs);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] += y[i] * y[j] / sy - bs[i] * bs[j] / sbs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closure returning the value and writing the gradient, evaluated
    /// eagerly.
    struct Smooth<F>(F);

    impl<F: Fn(&[f64], &mut [f64]) -> f64> Objective for Smooth<F> {
        type At = Vec<f64>;
        fn value(&self, x: &[f64]) -> Option<(f64, Vec<f64>)> {
            let mut g = vec![0.0; x.len()];
            let v = (self.0)(x, &mut g);
            Some((v, g))
        }
        fn gradient(&self, at: Vec<f64>, g: &mut [f64]) {
            g.copy_from_slice(&at);
        }
    }

    fn minimize<F: Fn(&[f64], &mut [f64]) -> f64>(
        f: &F,
        x0: &[f64],
        bounds: &[(f64, f64)],
        max_evals: usize,
    ) -> Minimum {
        super::minimize(&Smooth(f), x0, bounds, max_evals)
    }

    fn quadratic(x: &[f64], g: &mut [f64]) -> f64 {
        g[0] = 2.0 * (x[0] - 3.0);
        g[1] = 20.0 * (x[1] + 1.0);
        (x[0] - 3.0).powi(2) + 10.0 * (x[1] + 1.0).powi(2)
    }

    #[test]
    fn minimises_an_interior_quadratic() {
        let r = minimize(&quadratic, &[0.0, 0.0], &[(-10.0, 10.0); 2], 200);
        assert!(
            (r.x[0] - 3.0).abs() < 1e-5 && (r.x[1] + 1.0).abs() < 1e-5,
            "{:?}",
            r.x
        );
        assert!(r.evals < 40, "{} evaluations", r.evals);
    }

    #[test]
    fn stops_on_an_active_bound() {
        // The unconstrained minimum (3, −1) lies outside x0 ≤ 1.
        let r = minimize(&quadratic, &[0.0, 0.0], &[(-10.0, 1.0), (-10.0, 10.0)], 200);
        assert_eq!(r.x[0], 1.0);
        assert!((r.x[1] + 1.0).abs() < 1e-5, "{:?}", r.x);
    }

    #[test]
    fn handles_rosenbrock() {
        let rosen = |x: &[f64], g: &mut [f64]| {
            g[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            g[1] = 200.0 * (x[1] - x[0] * x[0]);
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        };
        let r = minimize(&rosen, &[-1.2, 1.0], &[(-5.0, 5.0); 2], 500);
        assert!(r.fx < 1e-8, "Rosenbrock residual {}", r.fx);
    }

    #[test]
    fn respects_the_evaluation_budget_and_the_box() {
        let r = minimize(&quadratic, &[50.0, -50.0], &[(-10.0, 10.0); 2], 5);
        assert!(r.evals <= 5);
        assert!(r.x.iter().all(|v| (-10.0..=10.0).contains(v)));
    }

    #[test]
    fn infeasible_points_are_backed_away_from_and_a_bad_start_is_infinite() {
        // Infinite for x < 0.5: the line search must halve back into the
        // feasible region rather than accept the step.
        let walled = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 0.25);
            if x[0] < 0.5 {
                f64::INFINITY
            } else {
                (x[0] - 0.25).powi(2)
            }
        };
        let r = minimize(&walled, &[3.0], &[(-5.0, 5.0)], 200);
        assert!(r.fx.is_finite() && r.x[0] >= 0.5, "{r:?}");
        let r = minimize(
            &|_: &[f64], _: &mut [f64]| f64::NAN,
            &[0.0],
            &[(-1.0, 1.0)],
            10,
        );
        assert_eq!((r.fx, r.evals), (f64::INFINITY, 1));
    }
}
