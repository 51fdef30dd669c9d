//! `HyperbandBo`: the multi-fidelity pipeline — Hyperband exploration on
//! cheap subsamples, then a full-fidelity BO finish warm-started from the
//! bias-corrected low-fidelity observations.

use rand::rngs::StdRng;
use robotune_bo::{BoEngine, BoOptions};
use robotune_space::SearchSpace;
use robotune_tuners::{
    evaluate_with_retry, Fidelity, Objective, RetryPolicy, ThresholdPolicy, Tuner, TuningSession,
};

use crate::hyperband::{HyperbandOptions, HyperbandTuner};
use crate::sha::MfAccounting;
use crate::warmstart::{bias_corrected_observations, seed_engine};

/// Options for the Hyperband→BO pipeline.
#[derive(Debug, Clone)]
pub struct HyperbandBoOptions {
    /// The exploration phase (brackets, fidelity ladder, caps).
    pub hyperband: HyperbandOptions,
    /// Fraction of the evaluation budget the Hyperband phase may spend;
    /// the rest goes to full-fidelity BO. Clamped so at least one
    /// evaluation lands on each side of the split (budget permitting).
    pub explore_frac: f64,
    /// The BO engine configuration for the finishing phase, which
    /// searches the full space (see [`BoOptions::for_full_space`]).
    pub bo: BoOptions,
    /// Stop-threshold policy of the BO phase (median-multiple over the
    /// full-fidelity completions, as in the single-fidelity ROBOTune
    /// engine).
    pub threshold: ThresholdPolicy,
    /// Retry policy of the BO phase.
    pub retry: RetryPolicy,
}

impl Default for HyperbandBoOptions {
    fn default() -> Self {
        HyperbandBoOptions {
            hyperband: HyperbandOptions::default(),
            explore_frac: 0.6,
            bo: BoOptions::default().for_full_space(),
            threshold: ThresholdPolicy::MedianMultiple { multiple: 3.0, max: 480.0 },
            retry: RetryPolicy::default(),
        }
    }
}

impl HyperbandBoOptions {
    /// A cheaper profile for tests: lighter acquisition optimisation and
    /// hyperparameter fitting, same algorithmic structure.
    pub fn fast() -> Self {
        let mut bo = BoOptions::default();
        bo.hyper.restarts = 1;
        bo.hyper.evals_per_restart = 40;
        bo.optimize.candidates = 48;
        bo.optimize.halvings = 3;
        bo.refit_every = 8;
        HyperbandBoOptions { bo: bo.for_full_space(), ..HyperbandBoOptions::default() }
    }
}

/// Hyperband exploration + warm-started full-fidelity BO, as one
/// [`Tuner`]. The session trace contains both phases; only full-fidelity
/// completions can become the incumbent.
#[derive(Debug, Clone, Default)]
pub struct HyperbandBo {
    opts: HyperbandBoOptions,
    accounting: MfAccounting,
    warm_obs: usize,
}

impl HyperbandBo {
    /// Creates the pipeline tuner.
    pub fn new(opts: HyperbandBoOptions) -> Self {
        HyperbandBo { opts, accounting: MfAccounting::default(), warm_obs: 0 }
    }

    /// The Hyperband phase's spend ledger from the most recent tune.
    pub fn accounting(&self) -> &MfAccounting {
        &self.accounting
    }

    /// How many bias-corrected observations seeded the GP in the most
    /// recent tune.
    pub fn warm_observations(&self) -> usize {
        self.warm_obs
    }
}

impl Tuner for HyperbandBo {
    fn name(&self) -> &str {
        "Hyperband+BO"
    }

    fn tune(
        &mut self,
        space: &dyn SearchSpace,
        objective: &mut dyn Objective,
        budget: usize,
        rng: &mut StdRng,
    ) -> TuningSession {
        let mut session = TuningSession::new(self.name());
        if budget == 0 {
            return session;
        }

        // Phase 1: Hyperband brackets on the fidelity ladder. Reserve at
        // least one evaluation for the BO finish whenever budget allows.
        let explore = ((budget as f64 * self.opts.explore_frac).round() as usize)
            .clamp(1, budget.saturating_sub(1).max(1));
        let mut hb = HyperbandTuner::new(self.opts.hyperband.clone());
        hb.run_into(space, objective, &mut session, explore, rng);
        self.accounting = hb.accounting().clone();

        // Phase 2: bias-correct everything observed so far and seed the
        // full-fidelity GP with it.
        let transferred = bias_corrected_observations(&session);
        let mut bo = BoEngine::new(space.dim(), self.opts.bo.clone());
        self.warm_obs = seed_engine(&mut bo, &transferred);

        // The threshold policy tracks *full-fidelity* completions only;
        // extrapolated warm-start values must not tighten the kill cap.
        let mut completed_times: Vec<f64> = session
            .records
            .iter()
            .filter(|r| r.eval.completed && !r.eval.failed && r.fidelity.is_full())
            .map(|r| r.eval.time_s)
            .collect();

        objective.set_fidelity(Fidelity::FULL);
        while session.len() < budget {
            let point = bo.suggest(rng);
            let cap = self.opts.threshold.cap(&completed_times);
            let config = space.decode(&point);
            let eval = evaluate_with_retry(objective, &config, cap, &self.opts.retry);
            session.push(point.clone(), config, eval, cap);
            if eval.completed {
                completed_times.push(eval.time_s);
            }
            let recorded = if eval.completed {
                bo.observe(point, eval.time_s)
            } else {
                bo.observe_penalized(point, self.opts.threshold.max_cap())
            };
            if recorded.is_err() {
                robotune_obs::incr("tune.observation_dropped", 1);
            }
        }
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_space::spark::spark_space;
    use robotune_stats::rng_from_seed;
    use robotune_tuners::FnObjective;

    #[test]
    fn pipeline_spends_the_exact_budget_and_finds_a_full_incumbent() {
        let space = spark_space();
        // A smooth synthetic objective: more cores = faster, bounded well
        // under the cap so every run completes.
        let cores = space.index_of(robotune_space::spark::names::EXECUTOR_CORES).unwrap();
        let mut obj = FnObjective::new(move |c: &robotune_space::Configuration| {
            60.0 + 300.0 / (c.get(cores).as_int() as f64).max(1.0)
        });
        let mut tuner = HyperbandBo::new(HyperbandBoOptions::fast());
        let mut rng = rng_from_seed(11);
        let session = tuner.tune(&space, &mut obj, 30, &mut rng);
        assert_eq!(session.len(), 30);
        let best = session.best().expect("must have a full-fidelity best");
        assert!(best.fidelity.is_full());
        // The BO phase actually ran (some records beyond the explore split).
        assert!(session.records[session.len() - 1].fidelity.is_full());
    }

    #[test]
    fn zero_budget_is_an_empty_session() {
        let space = spark_space();
        let mut obj = FnObjective::new(|_: &robotune_space::Configuration| 10.0);
        let mut tuner = HyperbandBo::default();
        let mut rng = rng_from_seed(1);
        assert!(tuner.tune(&space, &mut obj, 0, &mut rng).is_empty());
    }
}
