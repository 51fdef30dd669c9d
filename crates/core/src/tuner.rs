//! The top-level ROBOTune pipeline (paper Fig. 1).

use std::sync::Arc;

use rand::rngs::StdRng;
use robotune_space::ConfigSpace;
use robotune_tuners::{Objective, Tuner, TuningSession};

use crate::engine::{RoboTuneEngine, RoboTuneEngineOptions};
use crate::memo::{resolve_selection, InMemoryMemoStore, MemoizedSampler, SharedMemoStore};
use crate::select::{ParameterSelector, SelectionResult, SelectorOptions};

/// Framework-level options.
#[derive(Debug, Clone, Default)]
pub struct RoboTuneOptions {
    /// Parameter-selection options (100 generic samples, 0.05 threshold).
    pub selector: SelectorOptions,
    /// Memoized-sampling options (20 tuning samples, 4 memo configs).
    pub sampler: MemoizedSampler,
    /// BO-engine options (GP-Hedge, median-multiple stopping).
    pub engine: RoboTuneEngineOptions,
}

impl RoboTuneOptions {
    /// A cheaper profile for tests and debug builds: smaller forests and
    /// lighter acquisition optimisation, same algorithmic structure.
    pub fn fast() -> Self {
        let mut o = RoboTuneOptions::default();
        o.selector.forest.n_trees = 40;
        o.selector.repeats = 4;
        o.selector.forest_refits = 1;
        o.engine.bo.hyper.restarts = 1;
        o.engine.bo.hyper.evals_per_restart = 40;
        o.engine.bo.optimize.candidates = 48;
        o.engine.bo.refit_every = 8;
        o
    }
}

/// Everything a tuning session produced.
#[derive(Debug, Clone)]
pub struct RoboTuneOutcome {
    /// The evaluation trace (budgeted runs only — selection samples are
    /// accounted separately, per §5.3).
    pub session: TuningSession,
    /// The selection run, when the parameter-selection cache missed.
    pub selection: Option<SelectionResult>,
    /// Indices of the tuned parameters in the full space.
    pub selected: Vec<usize>,
    /// Whether memoized configurations seeded the initial design.
    pub warm_start: bool,
    /// One-time selection cost in seconds (0 on a cache hit).
    pub selection_cost_s: f64,
}

/// The ROBOTune framework: parameter selection + memoized sampling + BO.
///
/// The framework is stateful across calls: tuning the same `workload` key
/// again hits the parameter-selection cache and warm-starts from the
/// configuration-memoization buffer — the §5.4 speedup. Both structures
/// live in a [`SharedMemoStore`]: a fresh private in-memory store by
/// default ([`RoboTune::new`]), or one shared with other framework
/// instances — possibly file-backed — via [`RoboTune::with_store`], which
/// is how the tuning service lets one tenant's tuned workload warm
/// another's.
pub struct RoboTune {
    opts: RoboTuneOptions,
    store: SharedMemoStore,
    /// Workload key used when invoked through the generic [`Tuner`] trait.
    trait_key: String,
}

impl RoboTune {
    /// Creates a fresh framework instance with a private in-memory store
    /// (cold caches).
    pub fn new(opts: RoboTuneOptions) -> Self {
        Self::with_store(opts, InMemoryMemoStore::new().into_shared())
    }

    /// Creates a framework instance over an existing (possibly shared,
    /// possibly persistent) memo store.
    pub fn with_store(opts: RoboTuneOptions, store: SharedMemoStore) -> Self {
        RoboTune {
            opts,
            store,
            trait_key: "default-workload".to_string(),
        }
    }

    /// The memo store backing this instance.
    pub fn store(&self) -> SharedMemoStore {
        Arc::clone(&self.store)
    }

    /// Whether the parameter-selection cache holds `workload`
    /// (inspection/testing).
    pub fn knows_selection(&self, workload: &str) -> bool {
        self.store.has_selection(workload)
    }

    /// Whether any configuration is memoized for `workload`
    /// (inspection/testing).
    pub fn knows_configs(&self, workload: &str) -> bool {
        self.store.has_configs(workload)
    }

    /// Sets the workload key used by [`Tuner::tune`].
    pub fn set_workload_key(&mut self, key: impl Into<String>) {
        self.trait_key = key.into();
    }

    /// Runs the full pipeline for `workload` with an evaluation `budget`.
    ///
    /// Cache miss: evaluate 100 generic LHS samples, select parameters by
    /// grouped MDA, store in the cache. Cache hit: reuse the selection and
    /// blend 4 memoized configurations into the 20-point initial design.
    /// Either way the BO engine then spends the remaining budget.
    pub fn tune_workload(
        &mut self,
        space: &Arc<ConfigSpace>,
        workload: &str,
        objective: &mut dyn Objective,
        budget: usize,
        rng: &mut StdRng,
    ) -> RoboTuneOutcome {
        let _span = robotune_obs::span("tune.workload");
        // A cooperatively-cancelled run (service shutdown / session close)
        // must not write its aborted, partially-evaluated results into the
        // shared store: other tenants would inherit a garbage selection.
        let cancel = self.opts.engine.cancel.clone();
        let cancelled =
            || cancel.as_ref().is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed));
        // --- Parameter selection (cached) -----------------------------------
        let cached = self
            .store
            .selection(workload)
            .and_then(|names| resolve_selection(&names, space));
        match cached {
            Some(_) => robotune_obs::incr("memo.hit", 1),
            None => robotune_obs::incr("memo.miss", 1),
        }
        let (selected, selection, selection_cost_s) = match cached {
            Some(sel) => (sel, None, 0.0),
            None => {
                let selector = ParameterSelector::new(self.opts.selector.clone());
                let result = selector.select(space, objective, rng);
                let mut sel = result.selected.clone();
                if sel.is_empty() {
                    // Degenerate surface (nothing clears the threshold):
                    // fall back to the top three importance groups so BO
                    // still has something to tune.
                    sel = result
                        .importances
                        .iter()
                        .take(3)
                        .flat_map(|g| g.members.iter().copied())
                        .collect();
                    sel.sort_unstable();
                    sel.dedup();
                }
                let names = sel
                    .iter()
                    .map(|&i| space.params()[i].name.clone())
                    .collect();
                if !cancelled() {
                    self.store.put_selection(workload, names);
                }
                let cost = result.sampling_cost_s;
                (sel, Some(result), cost)
            }
        };

        // --- Memoized sampling ------------------------------------------------
        let sub = space.subspace(&selected, space.default_configuration());
        robotune_obs::record("select.subspace_size", selected.len() as f64);
        let mut recent = self
            .store
            .best_recent(workload, self.opts.sampler.memo_configs);
        // A persistent store reloaded against a revised space could hold
        // configurations of the wrong width; drop them instead of letting
        // `Subspace::encode` assert deep inside the sampler.
        recent.retain(|(c, _)| c.len() == space.len());
        let design = self.opts.sampler.initial_design(&sub, &recent, rng);
        let warm_start = design.memoized > 0;
        robotune_obs::mark("tune.initial_design", || {
            serde_json::json!({
                "workload": workload,
                "points": design.points.len(),
                "memoized": design.memoized,
                "subspace_dim": robotune_space::SearchSpace::dim(&sub),
            })
        });

        // --- BO engine -----------------------------------------------------------
        let engine = RoboTuneEngine::new(sub, self.opts.engine.clone());
        let session = engine.run(objective, design.points, budget, rng);

        // --- Memoize the best configurations for the next dataset -----------------
        let mut completed: Vec<_> = session
            .records
            .iter()
            .filter(|r| r.eval.completed)
            .collect();
        completed.sort_by(|a, b| a.eval.time_s.total_cmp(&b.eval.time_s));
        if !cancelled() {
            for r in completed.into_iter().take(self.opts.sampler.memo_configs) {
                self.store
                    .record_config(workload, r.config.clone(), r.eval.time_s);
            }
        }

        RoboTuneOutcome {
            session,
            selection,
            selected,
            warm_start,
            selection_cost_s,
        }
    }
}

impl Tuner for RoboTune {
    fn name(&self) -> &str {
        "ROBOTune"
    }

    fn tune(
        &mut self,
        space: &dyn robotune_space::SearchSpace,
        objective: &mut dyn Objective,
        budget: usize,
        rng: &mut StdRng,
    ) -> TuningSession {
        let full = Arc::new(space.full_space().clone());
        let key = self.trait_key.clone();
        self.tune_workload(&full, &key, objective, budget, rng)
            .session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_space::spark::{names, spark_space};
    use robotune_space::Configuration;
    use robotune_stats::rng_from_seed;
    use robotune_tuners::FnObjective;

    /// Synthetic surface: cores, memory and parallelism matter; everything
    /// else is noise-free filler. Optimum ≈ 60 s.
    fn synthetic() -> impl FnMut(&Configuration) -> f64 {
        let space = spark_space();
        let cores = space.index_of(names::EXECUTOR_CORES).unwrap();
        let mem = space.index_of(names::EXECUTOR_MEMORY).unwrap();
        let par = space.index_of(names::DEFAULT_PARALLELISM).unwrap();
        move |c: &Configuration| {
            let cores_v = c.get(cores).as_int() as f64;
            let mem_v = c.get(mem).as_int() as f64;
            let par_v = c.get(par).as_int() as f64;
            60.0 + 300.0 / cores_v + 60.0 * (mem_v / 49_152.0 - 1.0).abs()
                + 0.05 * (par_v - 400.0).abs()
        }
    }

    #[test]
    fn cold_then_warm_pipeline() {
        let space = Arc::new(spark_space());
        let mut tuner = RoboTune::new(RoboTuneOptions::fast());
        let mut rng = rng_from_seed(1);

        let mut obj = FnObjective::new(synthetic());
        let cold = tuner.tune_workload(&space, "syn", &mut obj, 40, &mut rng);
        assert!(cold.selection.is_some(), "cold run must select parameters");
        assert!(!cold.warm_start);
        assert!(cold.selection_cost_s > 0.0);
        assert_eq!(cold.session.len(), 40);
        assert!(tuner.knows_selection("syn"));
        assert!(tuner.knows_configs("syn"));

        let mut obj2 = FnObjective::new(synthetic());
        let warm = tuner.tune_workload(&space, "syn", &mut obj2, 40, &mut rng);
        assert!(warm.selection.is_none(), "warm run must hit the cache");
        assert!(warm.warm_start);
        assert_eq!(warm.selection_cost_s, 0.0);
        // Warm start begins from memoized near-optimal configs: its best
        // should be at least as good as cold's within a few iterations.
        let warm_early_best = warm.session.best_so_far()[5];
        assert!(
            warm_early_best <= cold.session.best_time().unwrap() * 1.15,
            "warm start should begin near the incumbent ({warm_early_best} vs {:?})",
            cold.session.best_time()
        );
    }

    #[test]
    fn finds_a_good_configuration() {
        let space = Arc::new(spark_space());
        let mut tuner = RoboTune::new(RoboTuneOptions::fast());
        let mut rng = rng_from_seed(2);
        let mut obj = FnObjective::new(synthetic());
        let out = tuner.tune_workload(&space, "syn2", &mut obj, 60, &mut rng);
        let best = out.session.best_time().unwrap();
        // Optimum is 60 + ~9 (cores=32) ≈ 70; anything under 100 shows the
        // pipeline is exploiting, not wandering.
        assert!(best < 100.0, "best found = {best}");
    }

    #[test]
    fn tuner_trait_runs_the_same_pipeline() {
        let space = spark_space();
        let mut tuner = RoboTune::new(RoboTuneOptions::fast());
        tuner.set_workload_key("trait-run");
        let mut obj = FnObjective::new(synthetic());
        let mut rng = rng_from_seed(3);
        let session =
            Tuner::tune(&mut tuner, &space, &mut obj, 25, &mut rng);
        assert_eq!(session.len(), 25);
        assert_eq!(session.tuner, "ROBOTune");
        assert!(tuner.knows_selection("trait-run"));
    }

    #[test]
    fn shared_store_warms_a_second_framework_instance() {
        let space = Arc::new(spark_space());
        let store = crate::memo::InMemoryMemoStore::new().into_shared();
        let mut first = RoboTune::with_store(RoboTuneOptions::fast(), Arc::clone(&store));
        let mut rng = rng_from_seed(9);
        let mut obj = FnObjective::new(synthetic());
        let cold = first.tune_workload(&space, "shared", &mut obj, 30, &mut rng);
        assert!(cold.selection.is_some());

        // A *different* RoboTune over the same store: selection cache hit
        // and memoized warm start, exactly as if it were the same instance.
        let mut second = RoboTune::with_store(RoboTuneOptions::fast(), store);
        let mut obj2 = FnObjective::new(synthetic());
        let warm = second.tune_workload(&space, "shared", &mut obj2, 30, &mut rng);
        assert!(warm.selection.is_none(), "selection must come from the shared store");
        assert!(warm.warm_start, "memoized configs must come from the shared store");
    }

    #[test]
    fn tiny_budgets_still_work() {
        let space = Arc::new(spark_space());
        let mut tuner = RoboTune::new(RoboTuneOptions::fast());
        let mut rng = rng_from_seed(4);
        let mut obj = FnObjective::new(synthetic());
        let out = tuner.tune_workload(&space, "tiny", &mut obj, 3, &mut rng);
        assert_eq!(out.session.len(), 3);
    }
}
