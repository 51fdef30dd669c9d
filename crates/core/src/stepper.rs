//! The ROBOTune pipeline (paper Fig. 1) as a resumable ask/tell state
//! machine: LHS selection sampling → forest selection → memoized design
//! → BO.
//!
//! A [`RoboTuneStepper`] owns its options, the shared memo store and the
//! RNG, and never calls an objective. [`RoboTune::tune_workload`](crate::RoboTune::tune_workload)
//! drives one in a loop; the tuning service holds one per session as
//! plain data, so served and in-process trajectories are identical by
//! construction. RNG draws keep one order: the selection's LHS draw at
//! the first ask of a cold workload, the forests after the last sample
//! is told, then the initial design, then one BO suggestion per BO ask.
//! The store is written only when the budget is spent, so a stepper
//! dropped before that leaves it untouched.

use std::sync::Arc;

use rand::rngs::StdRng;
use robotune_space::{ConfigSpace, Configuration, SearchSpace};
use robotune_tuners::Evaluation;

use crate::engine::{BoLoop, RoboTuneEngine};
use crate::memo::{resolve_selection, SharedMemoStore};
use crate::select::{ParameterSelector, SelectionResult};
use crate::tuner::{RoboTuneOptions, RoboTuneOutcome};

/// What the pipeline wants next.
#[derive(Debug, Clone)]
pub enum Step {
    /// Run `config` under the `cap_s` limit and [`RoboTuneStepper::tell`]
    /// the outcome.
    Ask {
        /// The configuration to run.
        config: Configuration,
        /// The evaluation cap, in seconds.
        cap_s: f64,
    },
    /// The budget is spent and the store updated.
    Done(RoboTuneOutcome),
}

/// Collected selection samples.
struct Sampling {
    points: Vec<Vec<f64>>,
    ys: Vec<f64>,
    cost: f64,
}

/// The BO phase and what selection left it.
struct Tuning {
    bo: BoLoop,
    selection: Option<SelectionResult>,
    selected: Vec<usize>,
    warm_start: bool,
}

enum Phase {
    /// The selection cache has not been consulted yet.
    Start,
    /// Evaluating the generic LHS samples of a cold workload.
    Sampling(Sampling),
    /// Running the initial design and BO over the selected subspace.
    Tuning(Box<Tuning>),
    /// Finished; the outcome is kept for repeated asks.
    Done(Box<RoboTuneOutcome>),
}

/// One tuning session of the ROBOTune pipeline, driven by ask/tell.
pub struct RoboTuneStepper {
    opts: RoboTuneOptions,
    store: SharedMemoStore,
    space: Arc<ConfigSpace>,
    workload: String,
    budget: usize,
    rng: StdRng,
    phase: Phase,
}

impl RoboTuneStepper {
    /// A session for `workload` with an evaluation `budget`, drawing
    /// from `rng`. Nothing is read or drawn until the first ask.
    pub fn new(
        opts: RoboTuneOptions,
        store: SharedMemoStore,
        space: Arc<ConfigSpace>,
        workload: impl Into<String>,
        budget: usize,
        rng: StdRng,
    ) -> Self {
        RoboTuneStepper {
            opts,
            store,
            space,
            workload: workload.into(),
            budget,
            rng,
            phase: Phase::Start,
        }
    }

    /// The next step. Until it is told, the same ask is repeated.
    pub fn ask(&mut self) -> Step {
        loop {
            self.phase = match std::mem::replace(&mut self.phase, Phase::Start) {
                Phase::Start => self.consult_cache(),
                Phase::Sampling(s) if s.ys.len() < s.points.len() => {
                    let config = self.space.decode(&s.points[s.ys.len()]);
                    self.phase = Phase::Sampling(s);
                    return Step::Ask { config, cap_s: self.opts.selector.cap_s };
                }
                Phase::Sampling(s) => self.select(s),
                Phase::Tuning(mut t) => match t.bo.ask(&mut self.rng) {
                    Some((config, cap_s)) => {
                        self.phase = Phase::Tuning(t);
                        return Step::Ask { config, cap_s };
                    }
                    None => Phase::Done(Box::new(self.finish(*t))),
                },
                Phase::Done(out) => {
                    let step = Step::Done((*out).clone());
                    self.phase = Phase::Done(out);
                    return step;
                }
            };
        }
    }

    /// Reports the outcome of the last ask; each ask is told once.
    pub fn tell(&mut self, eval: Evaluation) {
        match &mut self.phase {
            Phase::Sampling(s) => {
                // Failed/capped samples count at their penalty value so the
                // forest learns the bad regions too.
                s.cost += eval.time_s;
                s.ys.push(eval.objective_value(self.opts.selector.cap_s));
            }
            Phase::Tuning(t) => t.bo.tell(eval),
            Phase::Start | Phase::Done(_) => {}
        }
    }

    /// The RNG, as the session left it.
    pub fn into_rng(self) -> StdRng {
        self.rng
    }

    /// Resolves the cached selection, or starts selection sampling.
    fn consult_cache(&mut self) -> Phase {
        let cached = self
            .store
            .selection(&self.workload)
            .and_then(|names| resolve_selection(&names, &self.space));
        match cached {
            Some(selected) => {
                robotune_obs::incr("memo.hit", 1);
                self.tuning(selected, None)
            }
            None => {
                robotune_obs::incr("memo.miss", 1);
                let selector = ParameterSelector::new(self.opts.selector.clone());
                let points = selector.sample_points(&self.space, &mut self.rng);
                Phase::Sampling(Sampling { ys: Vec::with_capacity(points.len()), points, cost: 0.0 })
            }
        }
    }

    /// Fits the forests on the collected samples and selects parameters.
    fn select(&mut self, s: Sampling) -> Phase {
        let selector = ParameterSelector::new(self.opts.selector.clone());
        let mut result = {
            let _span = robotune_obs::span("select.run");
            selector.select_from_data(&self.space, &s.points, &s.ys, &mut self.rng)
        };
        result.sampling_cost_s = s.cost;
        self.tuning(result.tuned_parameters(), Some(result))
    }

    /// Builds the memoized initial design and the BO loop.
    fn tuning(&mut self, selected: Vec<usize>, selection: Option<SelectionResult>) -> Phase {
        let sub = self.space.subspace(&selected, self.space.default_configuration());
        robotune_obs::record("select.subspace_size", selected.len() as f64);
        let mut recent = self.store.best_recent(&self.workload, self.opts.sampler.memo_configs);
        // A persistent store reloaded against a revised space could hold
        // configurations of the wrong width; drop them instead of letting
        // `Subspace::encode` assert deep inside the sampler.
        recent.retain(|(c, _)| c.len() == self.space.len());
        let design = self.opts.sampler.initial_design(&sub, &recent, &mut self.rng);
        robotune_obs::mark("tune.initial_design", || {
            serde_json::json!({
                "workload": &self.workload,
                "points": design.points.len(),
                "memoized": design.memoized,
                "subspace_dim": sub.dim(),
            })
        });
        let warm_start = design.memoized > 0;
        let engine = RoboTuneEngine::new(sub, self.opts.engine.clone());
        let bo = BoLoop::new(engine, design.points, self.budget);
        Phase::Tuning(Box::new(Tuning { bo, selection, selected, warm_start }))
    }

    /// Writes the selection (on a cache miss) and the best completed
    /// configurations to the store, and returns the outcome.
    fn finish(&mut self, t: Tuning) -> RoboTuneOutcome {
        let session = t.bo.into_session();
        if t.selection.is_some() {
            let names = t.selected.iter().map(|&i| self.space.params()[i].name.clone()).collect();
            self.store.put_selection(&self.workload, names);
        }
        let mut completed: Vec<_> = session.records.iter().filter(|r| r.eval.completed).collect();
        completed.sort_by(|a, b| a.eval.time_s.total_cmp(&b.eval.time_s));
        for r in completed.into_iter().take(self.opts.sampler.memo_configs) {
            self.store.record_config(&self.workload, r.config.clone(), r.eval.time_s);
        }
        RoboTuneOutcome {
            session,
            selection_cost_s: t.selection.as_ref().map_or(0.0, |s| s.sampling_cost_s),
            selection: t.selection,
            selected: t.selected,
            warm_start: t.warm_start,
        }
    }
}
