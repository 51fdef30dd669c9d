//! Parameter selection through Random Forests (paper §3.3).
//!
//! For an unseen workload, ROBOTune evaluates 100 generic LHS samples over
//! the full 44-parameter space, fits a Random Forest, and computes grouped
//! MDA permutation importances — collinear/dependent parameters and
//! domain-knowledge joint parameters are permuted together. Any group
//! whose permutation drops the OOB R² by at least 0.05 is kept; the
//! selected set spans all members of the kept groups.

use rand::rngs::StdRng;
use robotune_ml::{grouped_permutation_importance, ForestParams, GroupImportance, RandomForest};
use robotune_space::{ConfigSpace, SearchSpace};
use robotune_tuners::Objective;

/// Options of the parameter-selection stage.
#[derive(Debug, Clone)]
pub struct SelectorOptions {
    /// Generic LHS samples evaluated for an unseen workload (§5.5: 100).
    pub generic_samples: usize,
    /// Importance threshold on the OOB-R² drop (§4: 0.05).
    pub threshold: f64,
    /// Permutation repeats per group (§4: 10).
    pub repeats: usize,
    /// Static cap on each sample execution, seconds.
    pub cap_s: f64,
    /// Random-forest hyperparameters.
    pub forest: ForestParams,
}

impl Default for SelectorOptions {
    fn default() -> Self {
        SelectorOptions {
            generic_samples: 100,
            threshold: 0.05,
            repeats: 10,
            cap_s: 480.0,
            forest: ForestParams {
                n_trees: 120,
                ..ForestParams::default()
            },
        }
    }
}

/// Outcome of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Indices (into the full space) of the selected parameters, sorted.
    pub selected: Vec<usize>,
    /// Ranked group importances (most important first).
    pub importances: Vec<GroupImportance>,
    /// OOB R² of the forest on the sample data.
    pub oob_r2: f64,
    /// Seconds of cluster time spent collecting the samples (the one-time
    /// cost §5.5 amortises across datasets).
    pub sampling_cost_s: f64,
    /// Number of samples used.
    pub samples_used: usize,
}

impl SelectionResult {
    /// The parameters to tune: the selected set, or — on a degenerate
    /// surface where nothing clears the threshold — the members of the
    /// top three importance groups, so BO still has something to tune.
    pub fn tuned_parameters(&self) -> Vec<usize> {
        if !self.selected.is_empty() {
            return self.selected.clone();
        }
        let mut sel: Vec<usize> =
            self.importances.iter().take(3).flat_map(|g| g.members.iter().copied()).collect();
        sel.sort_unstable();
        sel.dedup();
        sel
    }

    /// Names of the selected parameters, in index order.
    pub fn selected_names(&self, space: &ConfigSpace) -> Vec<String> {
        self.selected
            .iter()
            .map(|&i| space.params()[i].name.clone())
            .collect()
    }
}

/// The Random-Forests parameter selector.
#[derive(Debug, Clone, Default)]
pub struct ParameterSelector {
    opts: SelectorOptions,
}

impl ParameterSelector {
    /// Creates a selector.
    pub fn new(opts: SelectorOptions) -> Self {
        ParameterSelector { opts }
    }

    /// The active options.
    pub fn options(&self) -> &SelectorOptions {
        &self.opts
    }

    /// Draws the `generic_samples` LHS points over the full `space` that
    /// a selection run evaluates.
    pub fn sample_points(&self, space: &ConfigSpace, rng: &mut StdRng) -> Vec<Vec<f64>> {
        robotune_sampling::lhs_maximin(
            self.opts.generic_samples,
            space.dim(),
            rng,
            robotune_sampling::lhs::DEFAULT_MAXIMIN_CANDIDATES,
        )
    }

    /// Collects `generic_samples` LHS executions of `objective` over the
    /// full `space` and returns `(points, runtimes, cost)`. Failed/capped
    /// runs are recorded at their penalty value so the forest learns the
    /// bad regions too.
    pub fn collect_samples(
        &self,
        space: &ConfigSpace,
        objective: &mut dyn Objective,
        rng: &mut StdRng,
    ) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
        let points = self.sample_points(space, rng);
        let mut ys = Vec::with_capacity(points.len());
        let mut cost = 0.0;
        for p in &points {
            let config = space.decode(p);
            let eval = objective.evaluate(&config, self.opts.cap_s);
            cost += eval.time_s;
            ys.push(eval.objective_value(self.opts.cap_s));
        }
        (points, ys, cost)
    }

    /// Runs the full selection pipeline: sample → forest → grouped MDA →
    /// threshold.
    pub fn select(
        &self,
        space: &ConfigSpace,
        objective: &mut dyn Objective,
        rng: &mut StdRng,
    ) -> SelectionResult {
        let _span = robotune_obs::span("select.run");
        let (x, y, cost) = self.collect_samples(space, objective, rng);
        let mut result = self.select_from_data(space, &x, &y, rng);
        result.sampling_cost_s = cost;
        result
    }

    /// Selection from already-collected `(points, runtimes)` data — used
    /// by the Fig. 7 recall study, which subsamples one collection at
    /// several sizes.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `x`/`y` lengths disagree.
    pub fn select_from_data(
        &self,
        space: &ConfigSpace,
        x: &[Vec<f64>],
        y: &[f64],
        rng: &mut StdRng,
    ) -> SelectionResult {
        assert!(!x.is_empty(), "selection needs samples");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");

        let groups: Vec<(String, Vec<usize>)> = space
            .covering_groups()
            .into_iter()
            .map(|g| (g.name, g.members))
            .collect();

        let forest = RandomForest::fit(x, y, &self.opts.forest, rng);
        let oob_r2 = forest.oob_r2(x, y);
        let importances =
            grouped_permutation_importance(&forest, x, y, &groups, self.opts.repeats, rng);

        let mut selected: Vec<usize> = importances
            .iter()
            .filter(|g| g.importance >= self.opts.threshold)
            .flat_map(|g| g.members.iter().copied())
            .collect();
        selected.sort_unstable();
        selected.dedup();

        robotune_obs::mark("select.importances", || {
            let groups: Vec<serde_json::Value> = importances
                .iter()
                .map(|g| {
                    serde_json::json!({
                        "group": &g.name,
                        "importance": g.importance,
                        "kept": g.importance >= self.opts.threshold,
                    })
                })
                .collect();
            serde_json::json!({
                "oob_r2": oob_r2,
                "selected": selected.len(),
                "groups": groups,
            })
        });

        SelectionResult {
            selected,
            importances,
            oob_r2,
            sampling_cost_s: 0.0,
            samples_used: x.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_space::spark::{names, spark_space};
    use robotune_space::Configuration;
    use robotune_stats::rng_from_seed;
    use robotune_tuners::FnObjective;

    /// Synthetic objective over the Spark space that depends only on a
    /// handful of parameters.
    fn synthetic() -> impl FnMut(&Configuration) -> f64 {
        let space = spark_space();
        let cores = space.index_of(names::EXECUTOR_CORES).unwrap();
        let mem = space.index_of(names::EXECUTOR_MEMORY).unwrap();
        let par = space.index_of(names::DEFAULT_PARALLELISM).unwrap();
        move |c: &Configuration| {
            let cores_v = c.get(cores).as_int() as f64;
            let mem_v = c.get(mem).as_int() as f64;
            let par_v = c.get(par).as_int() as f64;
            60.0 + 200.0 / cores_v + 80.0 * (mem_v / 32_768.0 - 1.0).abs()
                + 0.5 * (par_v - 300.0).abs()
        }
    }

    #[test]
    fn finds_the_impactful_parameters() {
        let space = spark_space();
        let selector = ParameterSelector::new(SelectorOptions {
            generic_samples: 120,
            ..SelectorOptions::default()
        });
        let mut obj = FnObjective::new(synthetic());
        let mut rng = rng_from_seed(1);
        let result = selector.select(&space, &mut obj, &mut rng);
        let names_sel = result.selected_names(&space);
        assert!(
            names_sel.iter().any(|n| n == names::EXECUTOR_CORES),
            "cores missing from {names_sel:?}"
        );
        // Cores and memory share the executor-size group, so memory rides
        // along even though this synthetic surface weights cores more.
        assert!(names_sel.iter().any(|n| n == names::EXECUTOR_MEMORY));
        assert!(names_sel.iter().any(|n| n == names::DEFAULT_PARALLELISM));
        // And the selection prunes hard: a handful out of 44.
        assert!(
            result.selected.len() <= 12,
            "selected too many: {names_sel:?}"
        );
        assert!(result.oob_r2 > 0.3, "OOB R² = {}", result.oob_r2);
        assert!(result.sampling_cost_s > 0.0);
    }

    #[test]
    fn irrelevant_parameters_are_pruned() {
        let space = spark_space();
        let selector = ParameterSelector::default();
        let mut obj = FnObjective::new(synthetic());
        let mut rng = rng_from_seed(2);
        let result = selector.select(&space, &mut obj, &mut rng);
        let names_sel = result.selected_names(&space);
        for never in ["spark.network.timeout", "spark.executor.heartbeatInterval", "spark.task.maxFailures"] {
            assert!(
                !names_sel.iter().any(|n| n == never),
                "{never} should be pruned, got {names_sel:?}"
            );
        }
    }

    #[test]
    fn group_members_selected_jointly() {
        // Whenever any member of a declared group is selected, all are.
        let space = spark_space();
        let selector = ParameterSelector::default();
        let mut obj = FnObjective::new(synthetic());
        let mut rng = rng_from_seed(3);
        let result = selector.select(&space, &mut obj, &mut rng);
        for g in space.groups() {
            let hits = g
                .members
                .iter()
                .filter(|m| result.selected.contains(m))
                .count();
            assert!(
                hits == 0 || hits == g.members.len(),
                "group {} partially selected",
                g.name
            );
        }
    }

    #[test]
    fn select_from_data_reuses_samples() {
        let space = spark_space();
        let selector = ParameterSelector::default();
        let mut obj = FnObjective::new(synthetic());
        let mut rng = rng_from_seed(4);
        let (x, y, _) = selector.collect_samples(&space, &mut obj, &mut rng);
        let full = selector.select_from_data(&space, &x, &y, &mut rng);
        let half = selector.select_from_data(&space, &x[..50], &y[..50], &mut rng);
        assert_eq!(full.samples_used, 100);
        assert_eq!(half.samples_used, 50);
    }

    #[test]
    fn a_selection_is_one_forest_and_one_importance_pass() {
        // Paper §3.3: one forest, then grouped MDA over its OOB samples.
        // A second fit — or any other extra draw — moves these bits.
        let space = spark_space();
        let selector = ParameterSelector::default();
        let mut obj = FnObjective::new(synthetic());
        let mut rng = rng_from_seed(6);
        let (x, y, _) = selector.collect_samples(&space, &mut obj, &mut rng);
        let mut oracle_rng = rng.clone();
        let got = selector.select_from_data(&space, &x, &y, &mut rng);

        let opts = selector.options();
        let groups: Vec<(String, Vec<usize>)> =
            space.covering_groups().into_iter().map(|g| (g.name, g.members)).collect();
        let forest = RandomForest::fit(&x, &y, &opts.forest, &mut oracle_rng);
        let want =
            grouped_permutation_importance(&forest, &x, &y, &groups, opts.repeats, &mut oracle_rng);

        assert_eq!(got.oob_r2.to_bits(), forest.oob_r2(&x, &y).to_bits());
        let ranked = |imp: &[GroupImportance]| -> Vec<(usize, String, u64)> {
            imp.iter()
                .enumerate()
                .map(|(rank, g)| (rank, g.name.clone(), g.importance.to_bits()))
                .collect()
        };
        assert_eq!(ranked(&got.importances), ranked(&want));
        assert!(rng == oracle_rng, "the selection drew a different number of values");
    }

    #[test]
    #[should_panic(expected = "selection needs samples")]
    fn empty_data_rejected() {
        let space = spark_space();
        let mut rng = rng_from_seed(5);
        ParameterSelector::default().select_from_data(&space, &[], &[], &mut rng);
    }
}
