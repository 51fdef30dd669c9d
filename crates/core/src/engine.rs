//! The ROBOTune BO engine: Bayesian optimisation over a selected subspace
//! with median-multiple early stopping (paper §3.4 + §4).

use rand::rngs::StdRng;
use robotune_bo::{BoEngine, BoOptions};
use robotune_space::{Configuration, SearchSpace, Subspace};
use robotune_tuners::{
    evaluate_with_retry, Evaluation, Fidelity, Objective, RetryPolicy, RetryState, ThresholdPolicy,
    TuningSession,
};

/// Automated early stopping of the whole BO loop (paper §4 lists it among
/// the implementation's customisations): end the session when the
/// incumbent has not improved by at least `min_delta_frac` for `patience`
/// consecutive evaluations after the initial design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Evaluations without sufficient improvement before stopping.
    pub patience: usize,
    /// Minimum relative improvement that resets the patience counter
    /// (e.g. 0.01 = 1%).
    pub min_delta_frac: f64,
}

impl Default for EarlyStop {
    fn default() -> Self {
        EarlyStop {
            patience: 25,
            min_delta_frac: 0.01,
        }
    }
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct RoboTuneEngineOptions {
    /// Underlying BO configuration (GP, Hedge, acquisition optimiser).
    pub bo: BoOptions,
    /// Stop-threshold policy; the paper uses a configurable multiple of
    /// the median execution time, bounded by the 480 s evaluation limit.
    pub threshold: ThresholdPolicy,
    /// Optional loop-level early stopping. `None` (the default) always
    /// spends the full budget — the paper's evaluation protocol.
    pub early_stop: Option<EarlyStop>,
    /// Retry policy for transiently failing evaluations (submit/launch
    /// hiccups under fault injection). Retries are budget-charged.
    pub retry: RetryPolicy,
}

impl Default for RoboTuneEngineOptions {
    fn default() -> Self {
        RoboTuneEngineOptions {
            bo: BoOptions::default(),
            threshold: ThresholdPolicy::MedianMultiple {
                multiple: 3.0,
                max: 480.0,
            },
            early_stop: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// BO loop bound to one subspace and one tuning session.
pub struct RoboTuneEngine {
    sub: Subspace,
    bo: BoEngine,
    session: TuningSession,
    completed_times: Vec<f64>,
    opts: RoboTuneEngineOptions,
}

impl RoboTuneEngine {
    /// Creates an engine over `sub`.
    pub fn new(sub: Subspace, opts: RoboTuneEngineOptions) -> Self {
        let bo = BoEngine::new(sub.dim(), opts.bo.clone());
        RoboTuneEngine {
            sub,
            bo,
            session: TuningSession::new("ROBOTune"),
            completed_times: Vec::new(),
            opts,
        }
    }

    /// The subspace being searched.
    pub fn subspace(&self) -> &Subspace {
        &self.sub
    }

    /// The session so far.
    pub fn session(&self) -> &TuningSession {
        &self.session
    }

    /// The underlying ask/tell BO engine (posterior access for Fig. 9).
    pub fn bo(&self) -> &BoEngine {
        &self.bo
    }

    /// Asks the BO engine for the next point (for callers that drive the
    /// loop manually, e.g. to snapshot the posterior mid-session).
    pub fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.bo.suggest(rng)
    }

    /// Refits the GP over all observations (see [`BoEngine::refit`]).
    pub fn refit(&mut self, rng: &mut StdRng) {
        self.bo.refit(rng);
    }

    /// The configuration and evaluation cap for `point` under the
    /// current threshold — the first half of
    /// [`RoboTuneEngine::evaluate_point`].
    pub fn prepare(&self, point: &[f64]) -> (Configuration, f64) {
        let cap = self.opts.threshold.cap(&self.completed_times);
        (self.sub.decode(point), cap)
    }

    /// Records the final (post-retry) evaluation of `point` and feeds it
    /// to the GP — the second half of [`RoboTuneEngine::evaluate_point`].
    pub fn record(
        &mut self,
        point: Vec<f64>,
        config: Configuration,
        cap_s: f64,
        eval: Evaluation,
        fidelity: Fidelity,
    ) {
        if eval.completed {
            self.completed_times.push(eval.time_s);
        }
        self.session.push_at(point.clone(), config, eval, cap_s, fidelity);
        // Completed runs feed the surrogate their measured time; killed and
        // failed runs become *censored* observations at the policy maximum
        // so failure regions stay unattractive without crashing the loop.
        let recorded = if eval.completed {
            self.bo.observe(point, eval.time_s)
        } else {
            self.bo.observe_penalized(point, self.opts.threshold.max_cap())
        };
        if recorded.is_err() {
            // Dimension mismatches cannot happen here (the point came from
            // this engine) and non-finite values were censored above, but a
            // rejected observation must never abort a session.
            robotune_obs::incr("tune.observation_dropped", 1);
        }
    }

    /// Evaluates one subspace point under the current threshold and feeds
    /// the result to the GP.
    pub fn evaluate_point(&mut self, point: Vec<f64>, objective: &mut dyn Objective) -> Evaluation {
        let _span = robotune_obs::span("tune.evaluate");
        let (config, cap) = self.prepare(&point);
        let eval = evaluate_with_retry(objective, &config, cap, &self.opts.retry);
        self.record(point, config, cap, eval, objective.fidelity());
        eval
    }

    /// Runs the full loop: the initial design first, then BO suggestions
    /// until `budget` evaluations have been spent (or early stopping
    /// fires, when enabled).
    pub fn run(
        self,
        objective: &mut dyn Objective,
        initial_design: Vec<Vec<f64>>,
        budget: usize,
        rng: &mut StdRng,
    ) -> TuningSession {
        let mut bo = BoLoop::new(self, initial_design, budget);
        while let Some((config, cap_s)) = bo.ask(rng) {
            bo.tell(objective.evaluate(&config, cap_s));
        }
        bo.into_session()
    }
}

/// An evaluation handed out by [`BoLoop::ask`] and not yet settled.
struct PendingEval {
    point: Vec<f64>,
    config: Configuration,
    cap_s: f64,
    retry: RetryState,
}

/// The BO loop as ask/tell: the initial design first, then one BO
/// suggestion per ask, until `budget` evaluations are recorded or early
/// stopping fires. A transient failure is asked again under the engine's
/// [`RetryPolicy`]; every evaluation is recorded at full fidelity.
pub struct BoLoop {
    engine: RoboTuneEngine,
    design: std::vec::IntoIter<Vec<f64>>,
    budget: usize,
    /// Incumbent and evaluations without improvement, set at the first
    /// BO suggestion: every later evaluation is a suggestion.
    stale: Option<(f64, usize)>,
    pending: Option<PendingEval>,
}

impl BoLoop {
    /// Starts the loop: `design` (truncated to `budget`) runs first.
    pub fn new(engine: RoboTuneEngine, mut design: Vec<Vec<f64>>, budget: usize) -> Self {
        design.truncate(budget);
        BoLoop { engine, design: design.into_iter(), budget, stale: None, pending: None }
    }

    /// The next configuration to run and its cap, or `None` once the
    /// loop is done. Until it is told, the same ask is repeated; a BO
    /// suggestion draws from `rng` only when a new point is needed.
    pub fn ask(&mut self, rng: &mut StdRng) -> Option<(Configuration, f64)> {
        if let Some(p) = &self.pending {
            return Some((p.config.clone(), p.cap_s));
        }
        if self.engine.session.len() >= self.budget {
            return None;
        }
        let point = self.design.next().unwrap_or_else(|| {
            let best = self.engine.session.best_time().unwrap_or(f64::INFINITY);
            self.stale.get_or_insert((best, 0));
            self.engine.bo.suggest(rng)
        });
        let (config, cap_s) = self.engine.prepare(&point);
        let retry = RetryState::new(self.engine.opts.retry);
        self.pending = Some(PendingEval { point, config: config.clone(), cap_s, retry });
        Some((config, cap_s))
    }

    /// Reports the outcome of the last ask. A retryable transient failure
    /// leaves the ask outstanding; a tell with no ask outstanding is
    /// ignored.
    pub fn tell(&mut self, eval: Evaluation) {
        let Some(eval) = self.pending.as_mut().and_then(|p| p.retry.attempt(eval)) else {
            return;
        };
        let Some(p) = self.pending.take() else {
            return;
        };
        self.engine.record(p.point, p.config, p.cap_s, eval, Fidelity::FULL);
        let (Some(stop), Some((incumbent, stale))) = (self.engine.opts.early_stop, &mut self.stale)
        else {
            return;
        };
        let best = self.engine.session.best_time().unwrap_or(f64::INFINITY);
        if best < *incumbent * (1.0 - stop.min_delta_frac) {
            *incumbent = best;
            *stale = 0;
        } else {
            *stale += 1;
            if *stale >= stop.patience {
                robotune_obs::incr("tune.early_stop", 1);
                // Stopping early leaves the rest of the budget unspent.
                self.budget = self.engine.session.len();
            }
        }
    }

    /// The recorded session.
    pub fn into_session(self) -> TuningSession {
        self.engine.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_space::spark::spark_space;
    use robotune_space::Configuration;
    use robotune_stats::rng_from_seed;
    use robotune_tuners::FnObjective;
    use std::sync::Arc;

    fn sub3() -> Subspace {
        let space = Arc::new(spark_space());
        let base = space.default_configuration();
        space.subspace(&[0, 1, 7], base)
    }

    fn bowl() -> impl FnMut(&Configuration) -> f64 {
        let space = spark_space();
        move |c: &Configuration| {
            let p = robotune_space::SearchSpace::encode(&space, c);
            40.0 + 120.0 * ((p[0] - 0.6).powi(2) + (p[1] - 0.4).powi(2) + (p[7] - 0.5).powi(2))
        }
    }

    fn fast_opts() -> RoboTuneEngineOptions {
        let mut o = RoboTuneEngineOptions::default();
        o.bo.hyper.restarts = 1;
        o.bo.hyper.evals_per_restart = 40;
        o.bo.optimize.candidates = 48;
        o
    }

    #[test]
    fn spends_exactly_the_budget() {
        let mut obj = FnObjective::new(bowl());
        let mut rng = rng_from_seed(1);
        let init = robotune_sampling::lhs(8, 3, &mut rng);
        let session = RoboTuneEngine::new(sub3(), fast_opts()).run(&mut obj, init, 20, &mut rng);
        assert_eq!(session.len(), 20);
        assert!(session.best_time().is_some());
    }

    #[test]
    fn improves_over_its_initial_design() {
        let mut obj = FnObjective::new(bowl());
        let mut rng = rng_from_seed(2);
        let init = robotune_sampling::lhs(8, 3, &mut rng);
        let session = RoboTuneEngine::new(sub3(), fast_opts()).run(&mut obj, init, 30, &mut rng);
        let init_best = session.records[..8]
            .iter()
            .filter(|r| r.eval.completed)
            .map(|r| r.eval.time_s)
            .fold(f64::INFINITY, f64::min);
        assert!(session.best_time().unwrap() <= init_best);
    }

    #[test]
    fn threshold_tightens_after_completions() {
        let mut obj = FnObjective::new(bowl());
        let mut rng = rng_from_seed(3);
        let init = robotune_sampling::lhs(10, 3, &mut rng);
        let session = RoboTuneEngine::new(sub3(), fast_opts()).run(&mut obj, init, 20, &mut rng);
        // First evaluation: nothing completed yet → hard max.
        assert_eq!(session.records[0].cap_s, 480.0);
        // Once the bowl's ≤ ~100 s times accumulate, 3×median < 480.
        let last = session.records.last().unwrap();
        assert!(last.cap_s < 480.0, "cap never tightened: {}", last.cap_s);
    }

    #[test]
    fn budget_smaller_than_design_truncates() {
        let mut obj = FnObjective::new(bowl());
        let mut rng = rng_from_seed(4);
        let init = robotune_sampling::lhs(20, 3, &mut rng);
        let session = RoboTuneEngine::new(sub3(), fast_opts()).run(&mut obj, init, 5, &mut rng);
        assert_eq!(session.len(), 5);
    }

    #[test]
    fn early_stopping_saves_budget_on_a_flat_objective() {
        // A constant objective can never improve: with patience 5 the
        // engine must stop 5 iterations after the design.
        let mut obj = FnObjective::new(|_: &Configuration| 42.0);
        let mut rng = rng_from_seed(21);
        let init = robotune_sampling::lhs(8, 3, &mut rng);
        let mut opts = fast_opts();
        opts.early_stop = Some(EarlyStop {
            patience: 5,
            min_delta_frac: 0.01,
        });
        let session = RoboTuneEngine::new(sub3(), opts).run(&mut obj, init, 60, &mut rng);
        assert_eq!(session.len(), 8 + 5, "design + patience evaluations");
    }

    #[test]
    fn early_stopping_disabled_spends_the_full_budget() {
        let mut obj = FnObjective::new(|_: &Configuration| 42.0);
        let mut rng = rng_from_seed(22);
        let init = robotune_sampling::lhs(8, 3, &mut rng);
        let session = RoboTuneEngine::new(sub3(), fast_opts()).run(&mut obj, init, 20, &mut rng);
        assert_eq!(session.len(), 20);
    }

    #[test]
    fn improvements_reset_the_patience_counter() {
        // Objective improves by 5% every evaluation: early stopping must
        // never fire.
        let counter = std::cell::Cell::new(0usize);
        let mut obj = FnObjective::new(move |_: &Configuration| {
            counter.set(counter.get() + 1);
            400.0 * 0.9f64.powi(counter.get() as i32)
        });
        let mut rng = rng_from_seed(23);
        let init = robotune_sampling::lhs(5, 3, &mut rng);
        let mut opts = fast_opts();
        opts.early_stop = Some(EarlyStop {
            patience: 3,
            min_delta_frac: 0.01,
        });
        let session = RoboTuneEngine::new(sub3(), opts).run(&mut obj, init, 25, &mut rng);
        assert_eq!(
            session.len(),
            25,
            "monotone improvement must not stop early"
        );
    }

    #[test]
    fn bo_loop_asks_transient_failures_again() {
        let mut rng = rng_from_seed(5);
        let init = robotune_sampling::lhs(8, 3, &mut rng);
        let mut bo = BoLoop::new(RoboTuneEngine::new(sub3(), fast_opts()), init, 15);
        let mut f = bowl();
        let mut asks = 0;
        while let Some((config, _cap)) = bo.ask(&mut rng) {
            asks += 1;
            // Every third ask fails transiently once; the retry re-asks it.
            let eval = if asks % 3 == 0 {
                Evaluation::transient_failure(2.0)
            } else {
                Evaluation::completed(f(&config))
            };
            bo.tell(eval);
        }
        assert!(asks > 15, "transient failures must be asked again");
        let session = bo.into_session();
        assert_eq!(session.len(), 15);
        assert!(session.records.iter().any(|r| r.eval.attempts > 1));
    }
}
