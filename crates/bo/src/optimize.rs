//! Acquisition maximisation over the unit hypercube.
//!
//! As scikit-optimize does with `acq_optimizer="lbfgs"`: score a batch of
//! random candidates under the posterior, then run a bounded quasi-Newton
//! search on the analytic acquisition gradient from the best few. The
//! search is [`robotune_gp::bfgs`]'s projected BFGS on the unit cube,
//! each start capped at [`EVALS_PER_START`] value evaluations; the
//! gradient comes from [`GpModel::predict_grad`] through
//! [`AcquisitionKind::score_slopes`].
//!
//! The two phases are separate calls, [`draw_candidates`] and [`refine`],
//! so that several acquisitions can share one candidate draw and one
//! posterior pass over it, as scikit-optimize's `gp_hedge` does. Unlike
//! scikit-optimize, [`carry`] can append points kept from the previous
//! round to the draw, so they compete for the local phase's starts.

use rand::Rng;
use robotune_gp::bfgs::{minimize, Objective};
use robotune_gp::{GpModel, Matern52, PosteriorAt};

use crate::acquisition::AcquisitionKind;

/// Value evaluations one BFGS start may spend. Most starts stop on their
/// own after 10–20; PI converges slowest, and a cap of 30 left it behind
/// the former pattern search too often (DESIGN.md, "Gradient acquisition
/// refinement").
pub const EVALS_PER_START: usize = 60;

/// Options for [`draw_candidates`] and [`refine`].
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Random candidates scored in the global phase.
    pub candidates: usize,
    /// How many of the top candidates start a local search.
    pub refine_top: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            candidates: 128,
            refine_top: 3,
        }
    }
}

/// The global phase's random scatter: `opts.candidates` uniform points in
/// `[0, 1]^dim`, drawn point by point, coordinate by coordinate.
///
/// # Panics
///
/// Panics if `dim == 0` or the candidate budget is zero.
pub fn draw_candidates<R: Rng + ?Sized>(
    dim: usize,
    opts: &OptimizeOptions,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    assert!(dim > 0, "dimension must be positive");
    assert!(opts.candidates > 0, "need at least one candidate");
    (0..opts.candidates)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect()
}

/// Appends each `carried` point to `candidates` unless an earlier carried
/// point (one after the first `drawn`) equals it, so a point carried
/// twice — a nominee that became the incumbent — takes one start, not
/// two. Consumes no randomness.
pub fn carry(
    candidates: &mut Vec<Vec<f64>>,
    drawn: usize,
    carried: impl IntoIterator<Item = Vec<f64>>,
) {
    for point in carried {
        if !candidates[drawn..].contains(&point) {
            candidates.push(point);
        }
    }
}

/// One acquisition under a fitted posterior, negated so that
/// [`minimize`] maximises it; its gradient is the chain rule through the
/// posterior mean and variance.
#[derive(Debug, Clone, Copy)]
pub struct NegatedAcquisition<'a> {
    /// The fitted surrogate.
    pub model: &'a GpModel<Matern52>,
    /// Which acquisition.
    pub kind: AcquisitionKind,
    /// The incumbent (lowest observed value).
    pub best: f64,
    /// PI/EI exploration margin ξ.
    pub xi: f64,
    /// LCB confidence multiplier κ.
    pub kappa: f64,
}

impl NegatedAcquisition<'_> {
    /// The (higher-is-better) acquisition score at a posterior mean and
    /// variance.
    pub fn score(&self, mean: f64, var: f64) -> f64 {
        self.kind.score(mean, var.sqrt(), self.best, self.xi, self.kappa)
    }
}

impl Objective for NegatedAcquisition<'_> {
    type At = PosteriorAt;

    fn value(&self, x: &[f64]) -> Option<(f64, PosteriorAt)> {
        let at = self.model.predict_at(x);
        Some((-self.score(at.mean, at.var), at))
    }

    fn gradient(&self, at: PosteriorAt, g: &mut [f64]) {
        let (by_mean, by_var) =
            self.kind
                .score_slopes(at.mean, at.var.sqrt(), self.best, self.xi, self.kappa);
        let mut dvar = vec![0.0; g.len()];
        self.model.predict_grad(at, g, &mut dvar);
        for (gi, dv) in g.iter_mut().zip(&dvar) {
            *gi = -(by_mean * *gi + by_var * dv);
        }
    }
}

/// The local phase: ranks `candidates` by `scores` (descending, ties in
/// candidate order), starts a projected BFGS on `[0, 1]^dim` minimising
/// `negated` from each of the best `opts.refine_top`, and returns the
/// best candidate or end point. `scores[i]` must be the negation of
/// `negated`'s value at `candidates[i]`, so an end point wins only by
/// improving on it. Consumes no randomness.
///
/// # Panics
///
/// Panics if `candidates` is empty or `scores` differs from it in length.
pub fn refine<O: Objective>(
    candidates: &[Vec<f64>],
    scores: &[f64],
    negated: &O,
    opts: &OptimizeOptions,
) -> Vec<f64> {
    assert!(!candidates.is_empty(), "need at least one candidate");
    assert_eq!(scores.len(), candidates.len(), "one score per candidate");
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    order.truncate(opts.refine_top.max(1));

    let unit = vec![(0.0, 1.0); candidates[0].len()];
    let mut best = (scores[order[0]], candidates[order[0]].clone());
    for i in order {
        let end = minimize(negated, &candidates[i], &unit, EVALS_PER_START);
        if -end.fx > best.0 {
            best = (-end.fx, end.x);
        }
    }
    best.1
}
