//! The ask/tell BO engine (paper Algorithm 1).
//!
//! One [`BoEngine::suggest`] + [`BoEngine::observe`] round trip performs
//! lines 9–13 of the paper's Algorithm 1: fit a GP on the priors, let each
//! acquisition in the portfolio nominate its optimum from one shared
//! candidate draw, Hedge-select the point to evaluate, and (on the next
//! fit) reward every acquisition with the negated posterior mean at its
//! own nominee.

use std::time::Instant;

use rand::Rng;
use robotune_gp::hyper::{fit_gp, HyperFitOptions};
use robotune_gp::kernel::Matern52;
use robotune_gp::model::GpModel;

use crate::acquisition::{AcquisitionKind, ALL_ACQUISITIONS};
use crate::error::EngineError;
use crate::hedge::Hedge;
use crate::optimize::{carry, draw_candidates, refine, NegatedAcquisition, OptimizeOptions};

/// BO engine configuration.
#[derive(Debug, Clone)]
pub struct BoOptions {
    /// PI/EI exploration margin ξ (paper §4: 0.01).
    pub xi: f64,
    /// LCB confidence multiplier κ (paper §4: 1.96).
    pub kappa: f64,
    /// Hedge learning rate η.
    pub hedge_eta: f64,
    /// Hyperparameter fitting options.
    pub hyper: HyperFitOptions,
    /// Acquisition-maximisation options.
    pub optimize: OptimizeOptions,
    /// Re-optimise GP hyperparameters every this many new observations
    /// (the Cholesky refit itself happens every round).
    pub refit_every: usize,
    /// Points closer than this (∞-norm) to an existing observation are
    /// nudged randomly to keep the kernel matrix well conditioned.
    pub dedup_tol: f64,
    /// Force a single acquisition function instead of the Hedge portfolio
    /// (the paper's design calls for Hedge; this exists for ablations).
    pub acquisition_override: Option<AcquisitionKind>,
}

impl Default for BoOptions {
    fn default() -> Self {
        BoOptions {
            xi: 0.01,
            kappa: 1.96,
            hedge_eta: 1.0,
            hyper: HyperFitOptions::default(),
            optimize: OptimizeOptions::default(),
            refit_every: 5,
            dedup_tol: 1e-6,
            acquisition_override: None,
        }
    }
}

impl BoOptions {
    /// These options for BO over a full, unreduced space rather than a
    /// selected subspace. The Hedge acquisitions share one candidate draw
    /// per suggest; here it holds `optimize.candidates` points per
    /// acquisition. A selected subspace (≤ ~10 dimensions) keeps the
    /// plain size; over the 44-D Spark space a small shared draw lost
    /// tuning quality (DESIGN.md, "One posterior pass per suggest").
    pub fn for_full_space(mut self) -> Self {
        self.optimize.candidates *= ALL_ACQUISITIONS.len();
        self
    }
}

/// Ask/tell Bayesian optimiser over `[0, 1]^dim`, minimising the objective.
#[derive(Debug, Clone)]
pub struct BoEngine {
    dim: usize,
    opts: BoOptions,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    hedge: Hedge,
    /// Nominees of the previous round, awaiting their Hedge reward.
    pending_nominees: Option<[Vec<f64>; 3]>,
    model: Option<GpModel<Matern52>>,
    /// Kernel and noise of the last hyperfit (the documented fallback
    /// values when it fell back): the cheap refits' hyperparameters and
    /// the next hyperfit's warm start.
    kernel_cache: Option<(Matern52, f64)>,
    observations_at_last_hyperfit: usize,
}

impl BoEngine {
    /// Creates an engine for a `dim`-dimensional problem.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, opts: BoOptions) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let hedge = Hedge::new(opts.hedge_eta);
        BoEngine {
            dim,
            opts,
            xs: Vec::new(),
            ys: Vec::new(),
            hedge,
            pending_nominees: None,
            model: None,
            kernel_cache: None,
            observations_at_last_hyperfit: 0,
        }
    }

    /// Number of observations recorded so far.
    pub fn n_observations(&self) -> usize {
        self.ys.len()
    }

    /// All observations, in arrival order.
    pub fn observations(&self) -> (&[Vec<f64>], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// The incumbent: lowest observed value and its point.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        self.ys
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &y)| (self.xs[i].as_slice(), y))
    }

    /// The Hedge portfolio state (for diagnostics / Fig. 8-style plots).
    pub fn hedge(&self) -> &Hedge {
        &self.hedge
    }

    /// Records an evaluated point.
    ///
    /// Rejects dimension mismatches and non-finite objective values with a
    /// typed [`EngineError`] — failed runs must be mapped to a finite
    /// penalty by the caller (the paper's threshold-stopping assigns them
    /// the timeout value; see [`BoEngine::observe_penalized`]).
    pub fn observe(&mut self, x: Vec<f64>, y: f64) -> Result<(), EngineError> {
        if x.len() != self.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        if !y.is_finite() {
            return Err(EngineError::NonFiniteObservation(y));
        }
        // The incumbent scan is only worth paying for when tracing is on.
        if robotune_obs::is_enabled() {
            robotune_obs::incr("bo.observe", 1);
            let improvement = self.ys.iter().all(|&v| y < v);
            if improvement {
                robotune_obs::incr("bo.improvement", 1);
            }
            // Per-round incumbent series: the raw material of the
            // stalled-convergence detector in `experiments doctor`.
            let best = self.ys.iter().copied().fold(y, f64::min);
            robotune_obs::diag("diag.bo.observe", self.ys.len() as u64, || {
                serde_json::json!({
                    "y": y,
                    "best": best,
                    "improvement": improvement,
                })
            });
        }
        self.xs.push(x);
        self.ys.push(y);
        self.model = None; // stale
        Ok(())
    }

    /// Records a *censored* observation for a failed or killed evaluation:
    /// the point is observed at `penalty` (typically the kill threshold or
    /// a multiple of the worst completed time) so the surrogate learns the
    /// region is bad without the session crashing on a non-finite value.
    ///
    /// `penalty` itself must be finite; a non-finite penalty falls back to
    /// twice the worst observation so far (or `1.0` with no history yet).
    pub fn observe_penalized(&mut self, x: Vec<f64>, penalty: f64) -> Result<(), EngineError> {
        let y = if penalty.is_finite() {
            penalty
        } else {
            self.ys.iter().copied().fold(f64::NEG_INFINITY, f64::max).max(0.5) * 2.0
        };
        robotune_obs::incr("bo.censored_observation", 1);
        self.observe(x, y)
    }

    /// Posterior (mean, variance) at `q` under the most recently fitted
    /// model, if any. Mainly for response-surface rendering (Fig. 9).
    /// Returns `None` when observations arrived after the last fit — call
    /// [`BoEngine::refit`] first in that case.
    pub fn posterior(&self, q: &[f64]) -> Option<(f64, f64)> {
        self.model.as_ref().map(|m| m.predict(q))
    }

    /// Ensures the GP reflects all observations (e.g. before reading the
    /// posterior at the end of a loop). No-op with fewer than two
    /// observations.
    pub fn refit<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.ys.len() >= 2 {
            self.ensure_model(rng);
        }
    }

    /// Fits (or refits) the GP over the current data. On failure the model
    /// stays `None` and the caller degrades to a random suggestion — a
    /// degenerate surrogate must never abort the session.
    ///
    /// Between hyperfits the model is a cheap Cholesky refit at the cached
    /// hyperparameters. A hyperfit runs when `refit_every` new observations
    /// have arrived, or when the cheap refit fails to factor; every one
    /// after the first starts warm from the cached hyperparameters, and
    /// every successful one replaces them.
    fn ensure_model<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.model.is_some() {
            return;
        }
        let due = self.ys.len() >= self.observations_at_last_hyperfit + self.opts.refit_every;
        let cheap = match self.kernel_cache {
            Some((kernel, noise)) if !due => {
                GpModel::fit(self.xs.clone(), &self.ys, kernel, noise).ok()
            }
            _ => None,
        };
        let fitted = match cheap {
            Some(m) => Ok(m),
            None => {
                let warm = self
                    .kernel_cache
                    .map(|(k, noise)| [k.length_scale.ln(), k.variance.ln(), noise.ln()]);
                fit_gp(&self.xs, &self.ys, &self.opts.hyper, warm, rng).inspect(|m| {
                    self.kernel_cache = Some((*m.kernel(), m.noise()));
                    self.observations_at_last_hyperfit = self.ys.len();
                })
            }
        };
        match fitted {
            Ok(m) => self.model = Some(m),
            Err(_) => {
                robotune_obs::incr("bo.surrogate_fit_failed", 1);
                self.model = None;
            }
        }
    }

    /// Suggests the next point to evaluate.
    ///
    /// With fewer than two observations the suggestion is uniform random
    /// (there is nothing to model yet). Otherwise: GP fit → pending-gain
    /// update → one shared candidate draw, scored by one batched posterior
    /// pass → per-acquisition refinement into nominees → Hedge selection.
    pub fn suggest<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        let _span = robotune_obs::span("bo.suggest");
        let t0 = robotune_obs::is_enabled().then(Instant::now);
        let chosen = self.suggest_inner(rng);
        if let Some(t) = t0 {
            robotune_obs::record("bo.suggest_ns", t.elapsed().as_nanos() as f64);
        }
        chosen
    }

    fn suggest_inner<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        if self.ys.len() < 2 {
            robotune_obs::incr("bo.random_suggest", 1);
            return (0..self.dim).map(|_| rng.gen::<f64>()).collect();
        }
        self.ensure_model(rng);
        let Some(model) = self.model.as_ref() else {
            // Surrogate could not be fitted (near-singular data): degrade
            // to a uniform random proposal rather than aborting.
            robotune_obs::incr("bo.surrogate_fallback", 1);
            return (0..self.dim).map(|_| rng.gen::<f64>()).collect();
        };

        // Reward last round's nominees under the refreshed posterior.
        // Gains use standardised units so η keeps a consistent meaning.
        let last_nominees = self.pending_nominees.take();
        if let Some(nominees) = &last_nominees {
            let mean = self.ys.iter().sum::<f64>() / self.ys.len() as f64;
            let var = self
                .ys
                .iter()
                .map(|&y| (y - mean) * (y - mean))
                .sum::<f64>()
                / self.ys.len() as f64;
            let std = if var > 0.0 { var.sqrt() } else { 1.0 };
            let preds = model.predict_batch(nominees);
            let mut rewards = [0.0; 3];
            for (r, (mu, _)) in rewards.iter_mut().zip(preds) {
                *r = -(mu - mean) / std;
            }
            self.hedge.update(rewards);
        }

        // With two or more observations there is an incumbent; all of them
        // are finite (observe() enforces it).
        let Some((incumbent, best)) = self.best() else {
            return (0..self.dim).map(|_| rng.gen::<f64>()).collect();
        };
        let (xi, kappa) = (self.opts.xi, self.opts.kappa);
        let nominees: [Vec<f64>; 3] = {
            let _acq_span = robotune_obs::span("bo.acq_opt");
            // As in scikit-optimize's `gp_hedge`, every acquisition scores
            // the same candidates, from one posterior pass; each then
            // refines its own best few by gradient. Unlike skopt, last
            // round's nominees and the incumbent join the random draw:
            // the posterior moved by one observation since, so they sit
            // near this round's maxima and the draw can be small.
            let opts = &self.opts.optimize;
            let mut candidates = draw_candidates(self.dim, opts, rng);
            let drawn = candidates.len();
            let carried = last_nominees.into_iter().flatten();
            carry(&mut candidates, drawn, carried.chain([incumbent.to_vec()]));
            let posterior = model.predict_batch(&candidates);
            ALL_ACQUISITIONS.map(|kind| {
                let acq = NegatedAcquisition { model, kind, best, xi, kappa };
                let scores: Vec<f64> = posterior
                    .iter()
                    .map(|&(mu, var)| acq.score(mu, var))
                    .collect();
                refine(&candidates, &scores, &acq, opts)
            })
        };

        let chosen_kind = match self.opts.acquisition_override {
            Some(kind) => kind,
            None => self.hedge.choose(rng),
        };
        robotune_obs::mark("bo.hedge", || {
            let p = self.hedge.probabilities();
            serde_json::json!({
                "chosen": chosen_kind.name(),
                "p_pi": p[0],
                "p_ei": p[1],
                "p_lcb": p[2],
                "round": self.ys.len(),
            })
        });
        let idx = ALL_ACQUISITIONS
            .iter()
            .position(|&k| k == chosen_kind)
            .unwrap_or(0);
        let mut chosen = nominees[idx].clone();
        // Acquisition-health diagnostics: the hedge mixture plus the
        // chosen point's acquisition value under the fresh posterior.
        // Pure telemetry — reads the model, never the RNG.
        if robotune_obs::is_enabled() {
            let p = self.hedge.probabilities();
            let (mu, var) = model.predict(&chosen);
            let acq = chosen_kind.score(mu, var.sqrt(), best, xi, kappa);
            robotune_obs::diag("diag.bo.suggest", self.ys.len() as u64, || {
                serde_json::json!({
                    "chosen": chosen_kind.name(),
                    "p_pi": p[0],
                    "p_ei": p[1],
                    "p_lcb": p[2],
                    "acq": acq,
                    "incumbent": best,
                })
            });
        }
        self.pending_nominees = Some(nominees);

        // De-duplicate against existing observations.
        let too_close = |p: &[f64], xs: &[Vec<f64>], tol: f64| {
            xs.iter().any(|x| {
                x.iter()
                    .zip(p)
                    .all(|(a, b)| (a - b).abs() < tol)
            })
        };
        while too_close(&chosen, &self.xs, self.opts.dedup_tol) {
            robotune_obs::incr("bo.dedup_nudge", 1);
            for v in &mut chosen {
                *v = (*v + rng.gen::<f64>() * 0.05 - 0.025).clamp(0.0, 1.0);
            }
        }
        chosen
    }

    /// Which acquisition the portfolio currently favours (for reporting).
    pub fn dominant_acquisition(&self) -> AcquisitionKind {
        let p = self.hedge.probabilities();
        let i = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        ALL_ACQUISITIONS[i]
    }
}

/// Result of [`minimize`]: `(best_x, best_y, history)`.
pub type MinimizeResult = (Vec<f64>, f64, Vec<(Vec<f64>, f64)>);

/// Convenience driver: LHS-free minimisation loop with `n_init` random
/// initial points followed by `budget − n_init` BO iterations.
///
/// Returns `(best_x, best_y, history)` where `history` holds every
/// `(point, value)` in evaluation order. Library users with custom
/// initial designs (like ROBOTune's memoized sampler) should drive
/// [`BoEngine`] directly instead.
pub fn minimize<F, R>(
    mut f: F,
    dim: usize,
    n_init: usize,
    budget: usize,
    opts: BoOptions,
    rng: &mut R,
) -> MinimizeResult
where
    F: FnMut(&[f64]) -> f64,
    R: Rng + ?Sized,
{
    let mut engine = BoEngine::new(dim, opts);
    let mut history = Vec::with_capacity(budget);
    for i in 0..budget.max(n_init) {
        let x = if i < n_init {
            (0..dim).map(|_| rng.gen::<f64>()).collect()
        } else {
            engine.suggest(rng)
        };
        let y = f(&x);
        history.push((x.clone(), y));
        // Non-finite objective values (crashed evaluations the caller did
        // not censor) are recorded at a penalty instead of panicking.
        if engine.observe(x.clone(), y).is_err() && engine.observe_penalized(x, y).is_err() {
            robotune_obs::incr("bo.observation_dropped", 1);
        }
    }
    history
        .iter()
        .filter(|(_, v)| v.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(x, y)| (x.clone(), *y, history.clone()))
        .unwrap_or_else(|| (vec![0.5; dim], f64::INFINITY, history.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_stats::rng_from_seed;

    fn cheap_opts() -> BoOptions {
        BoOptions {
            hyper: HyperFitOptions {
                restarts: 1,
                evals_per_restart: 40,
                ..HyperFitOptions::default()
            },
            optimize: OptimizeOptions {
                candidates: 64,
                refine_top: 2,
            },
            ..BoOptions::default()
        }
    }

    #[test]
    fn minimises_a_smooth_bowl_better_than_its_init() {
        let mut rng = rng_from_seed(1);
        let f = |p: &[f64]| (p[0] - 0.3).powi(2) + (p[1] - 0.6).powi(2);
        let (x, y, history) = minimize(f, 2, 5, 25, cheap_opts(), &mut rng);
        let init_best = history[..5]
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        assert!(y <= init_best, "BO should not be worse than its init");
        assert!(y < 0.01, "final value {y} at {x:?}");
    }

    #[test]
    fn beats_random_search_on_a_narrow_optimum() {
        // The Fig. 3 story in miniature: a narrow quadratic well that
        // random search rarely lands in but exploitation finds.
        let f = |p: &[f64]| {
            let d2: f64 = p.iter().map(|&v| (v - 0.42).powi(2)).sum();
            1.0 - (-d2 / 0.005).exp()
        };
        let budget = 30;
        let mut bo_rng = rng_from_seed(2);
        let (_, bo_y, _) = minimize(f, 3, 8, budget, cheap_opts(), &mut bo_rng);
        let mut rs_rng = rng_from_seed(3);
        let rs_y = (0..budget)
            .map(|_| {
                let p: Vec<f64> = (0..3).map(|_| rand::Rng::gen::<f64>(&mut rs_rng)).collect();
                f(&p)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            bo_y < rs_y,
            "BO ({bo_y}) should beat random search ({rs_y}) on a narrow optimum"
        );
    }

    #[test]
    fn suggest_before_data_is_random_but_in_bounds() {
        let mut engine = BoEngine::new(4, cheap_opts());
        let mut rng = rng_from_seed(4);
        let p = engine.suggest(&mut rng);
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn best_tracks_the_minimum() {
        let mut engine = BoEngine::new(1, cheap_opts());
        engine.observe(vec![0.1], 5.0).unwrap();
        engine.observe(vec![0.2], 2.0).unwrap();
        engine.observe(vec![0.3], 7.0).unwrap();
        let (x, y) = engine.best().unwrap();
        assert_eq!(x, &[0.2]);
        assert_eq!(y, 2.0);
    }

    #[test]
    fn duplicate_suggestions_get_nudged() {
        let mut engine = BoEngine::new(2, cheap_opts());
        let mut rng = rng_from_seed(5);
        // A constant objective makes every point equally attractive, which
        // tends to re-nominate corners; the dedup must keep points distinct.
        for i in 0..6 {
            let x = engine.suggest(&mut rng);
            engine.observe(x, 1.0 + i as f64 * 1e-9).unwrap();
        }
        let (xs, _) = engine.observations();
        for i in 0..xs.len() {
            for j in i + 1..xs.len() {
                assert_ne!(xs[i], xs[j], "suggestions {i} and {j} collide");
            }
        }
    }

    #[test]
    fn non_finite_observations_rejected_with_typed_error() {
        let mut engine = BoEngine::new(1, cheap_opts());
        let r = engine.observe(vec![0.5], f64::INFINITY);
        assert!(matches!(r, Err(crate::EngineError::NonFiniteObservation(_))), "{r:?}");
        let r = engine.observe(vec![0.5, 0.5], 1.0);
        assert!(
            matches!(r, Err(crate::EngineError::DimensionMismatch { expected: 1, got: 2 })),
            "{r:?}"
        );
        assert_eq!(engine.n_observations(), 0);
    }

    #[test]
    fn penalized_observation_censors_failures_finitely() {
        let mut engine = BoEngine::new(1, cheap_opts());
        engine.observe(vec![0.1], 3.0).unwrap();
        engine.observe_penalized(vec![0.2], 9.0).unwrap();
        // A non-finite penalty degrades to 2x the worst finite observation.
        engine.observe_penalized(vec![0.3], f64::INFINITY).unwrap();
        let (_, ys) = engine.observations();
        assert_eq!(ys, &[3.0, 9.0, 18.0]);
        assert!(ys.iter().all(|y| y.is_finite()));
    }

    #[test]
    fn degenerate_duplicate_data_degrades_to_random_not_panic() {
        // Every observation at the same point with zero spread: the GP fit
        // can struggle, but suggest() must still return an in-bounds point.
        let mut engine = BoEngine::new(3, cheap_opts());
        for _ in 0..6 {
            engine.observe(vec![0.5, 0.5, 0.5], 2.0).unwrap();
        }
        let mut rng = rng_from_seed(9);
        let p = engine.suggest(&mut rng);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn hedge_gains_accumulate_over_rounds() {
        let mut engine = BoEngine::new(2, cheap_opts());
        let mut rng = rng_from_seed(6);
        for i in 0..8 {
            let x = engine.suggest(&mut rng);
            let y = (x[0] - 0.5).powi(2) + i as f64 * 0.001;
            engine.observe(x, y).unwrap();
        }
        // After several rounds the gains are no longer all zero.
        let g = engine.hedge().gains();
        assert!(g.iter().any(|&v| v != 0.0), "gains never updated: {g:?}");
    }
}
