//! Random Forests and Extremely Randomized Trees.
//!
//! [`RandomForest`] follows Breiman 2001: bootstrap-resampled CART trees
//! with per-split random feature subsets, averaged predictions, and
//! out-of-bag (OOB) scoring — the baseline the paper's MDA importance
//! permutes against (§3.3). [`ExtraTrees`] (Geurts et al. 2006) drops the
//! bootstrap and randomises split thresholds; it appears in the paper's
//! model comparison (Fig. 2).

use rand::Rng;

use crate::tree::{DecisionTree, Presort, SplitMode, TreeParams};
use crate::{metrics, Regressor};

/// Ensemble hyperparameters.
#[derive(Debug, Clone)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Features examined per split; `None` → ⌈p / 3⌉, the regression
    /// default of the R randomForest package and scikit-learn's
    /// historical `max_features=1/3` advice.
    pub max_features: Option<usize>,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Depth cap.
    pub max_depth: Option<usize>,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            max_features: None,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_depth: None,
        }
    }
}

impl ForestParams {
    fn tree_params(&self, n_features: usize, mode: SplitMode) -> TreeParams {
        TreeParams {
            max_features: Some(
                self.max_features
                    .unwrap_or_else(|| n_features.div_ceil(3))
                    .clamp(1, n_features),
            ),
            min_samples_split: self.min_samples_split,
            min_samples_leaf: self.min_samples_leaf,
            max_depth: self.max_depth,
            split_mode: mode,
        }
    }
}

/// A bagged ensemble of regression trees with OOB bookkeeping.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    /// `in_bag[t][i]` — how many times sample `i` entered tree `t`'s
    /// bootstrap resample (0 ⇒ sample is OOB for that tree).
    in_bag: Vec<Vec<u32>>,
    n_samples: usize,
}

impl RandomForest {
    /// Fits a forest on rows `x` and targets `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x`/`y` disagree, are empty, or `params.n_trees == 0`.
    pub fn fit<R: Rng + ?Sized>(x: &[Vec<f64>], y: &[f64], params: &ForestParams, rng: &mut R) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        assert!(params.n_trees > 0, "need at least one tree");
        let n = x.len();
        let tp = params.tree_params(x[0].len(), SplitMode::Exact);
        // Every tree's exact split search reads the same per-feature order.
        let presort = Presort::new(x, y);

        let mut trees = Vec::with_capacity(params.n_trees);
        let mut in_bag = Vec::with_capacity(params.n_trees);
        let mut sample_idx = Vec::with_capacity(n);
        for _ in 0..params.n_trees {
            let mut counts = vec![0u32; n];
            sample_idx.clear();
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                counts[i] += 1;
                sample_idx.push(i);
            }
            trees.push(DecisionTree::fit_presorted(
                x,
                y,
                &sample_idx,
                &tp,
                Some(&presort),
                rng,
            ));
            in_bag.push(counts);
        }
        RandomForest {
            trees,
            in_bag,
            n_samples: n,
        }
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Number of training samples the forest saw.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Out-of-bag prediction per training sample: the average over trees
    /// whose bootstrap excluded that sample. Samples that were in-bag for
    /// every tree (rare beyond ~20 trees) predict `NaN`.
    ///
    /// `x` must be the training matrix the forest was fitted on, or a
    /// column-permuted copy of it.
    pub fn oob_predictions(&self, x: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_samples, "OOB requires the training rows");
        let mut sums = vec![0.0; self.n_samples];
        let mut counts = vec![0u32; self.n_samples];
        for (tree, bag) in self.trees.iter().zip(&self.in_bag) {
            for i in 0..self.n_samples {
                if bag[i] == 0 {
                    sums[i] += tree.predict_row(&x[i]);
                    counts[i] += 1;
                }
            }
        }
        oob_average(&sums, &counts)
    }

    /// Mean-Decrease-in-Impurity importances: the average of each tree's
    /// normalised MDI vector. See [`DecisionTree::mdi_importances`] for
    /// why the paper prefers MDA over this.
    pub fn mdi_importances(&self) -> Vec<f64> {
        average_mdi(&self.trees)
    }

    /// OOB R² against the training targets, skipping never-OOB samples.
    ///
    /// This is the paper's "baseline using the out-of-bag (OOB) R² score"
    /// that each grouped permutation is measured against.
    pub fn oob_r2(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        oob_r2_score(y, &self.oob_predictions(x))
    }

    /// Walks every (tree, OOB sample) pair once on the training rows `x`,
    /// recording the prediction and the features on its decision path.
    pub(crate) fn oob_paths(&self, x: &[Vec<f64>]) -> OobPaths {
        assert_eq!(x.len(), self.n_samples, "OOB requires the training rows");
        let n = self.n_samples;
        let words = x.first().map_or(0, Vec::len).div_ceil(64);
        let pairs = self.in_bag.iter().flatten().filter(|&&c| c == 0).count();
        assert!(pairs <= u32::MAX as usize, "too many OOB pairs");
        let mut preds = Vec::with_capacity(pairs);
        let mut paths = vec![0u64; pairs * words];
        let mut pair_tree = Vec::with_capacity(pairs);
        let mut pair_sample = Vec::with_capacity(pairs);
        for (t, (tree, bag)) in self.trees.iter().zip(&self.in_bag).enumerate() {
            for i in (0..n).filter(|&i| bag[i] == 0) {
                let e = preds.len();
                let path = &mut paths[e * words..(e + 1) * words];
                preds.push(tree.predict_row_path(&x[i], path));
                pair_tree.push(t as u32);
                pair_sample.push(i as u32);
            }
        }
        OobPaths {
            n_samples: n,
            words,
            preds,
            paths,
            pair_tree,
            pair_sample,
        }
    }
}

/// Every (tree, OOB sample) pair of a fitted forest, numbered in the
/// order [`RandomForest::oob_predictions`] visits them (tree-major): that
/// tree's prediction on the training row, and the features its decision
/// path tests as a bitset of `words` 64-bit words (so any feature count
/// works), plus the pair's tree and sample.
pub(crate) struct OobPaths {
    n_samples: usize,
    words: usize,
    preds: Vec<f64>,
    paths: Vec<u64>,
    pair_tree: Vec<u32>,
    pair_sample: Vec<u32>,
}

impl OobPaths {
    /// Each pair's prediction on the unpermuted training rows.
    pub(crate) fn preds(&self) -> &[f64] {
        &self.preds
    }

    /// The tree and sample of pair `e`.
    pub(crate) fn pair(&self, e: usize) -> (usize, usize) {
        (self.pair_tree[e] as usize, self.pair_sample[e] as usize)
    }

    /// The pairs, ascending, whose recorded path tests a column set in the
    /// bitset `changed`: only those can predict differently on rows that
    /// differ from the training rows in `changed` columns alone.
    pub(crate) fn affected(&self, changed: &[u64]) -> Vec<usize> {
        self.paths
            .chunks_exact(self.words.max(1))
            .enumerate()
            .filter(|(_, path)| path.iter().zip(changed).any(|(p, c)| p & c != 0))
            .map(|(e, _)| e)
            .collect()
    }

    /// Every sample's OOB prediction from the per-pair values `vals`.
    /// Pairs are numbered tree-major, so adding them in pair order adds
    /// each sample's terms from `0.0` in tree order — the arithmetic of
    /// [`RandomForest::oob_predictions`].
    pub(crate) fn oob_predictions(&self, vals: &[f64]) -> Vec<f64> {
        let mut sums = vec![0.0; self.n_samples];
        let mut counts = vec![0u32; self.n_samples];
        for (&i, &v) in self.pair_sample.iter().zip(vals) {
            sums[i as usize] += v;
            counts[i as usize] += 1;
        }
        oob_average(&sums, &counts)
    }
}

/// Per-sample OOB average; `NaN` where no tree left the sample out.
fn oob_average(sums: &[f64], counts: &[u32]) -> Vec<f64> {
    sums.iter()
        .zip(counts)
        .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / c as f64 })
        .collect()
}

/// R² of OOB predictions against the targets, skipping `NaN` (never-OOB)
/// samples.
pub(crate) fn oob_r2_score(y: &[f64], preds: &[f64]) -> f64 {
    let mut yt = Vec::with_capacity(y.len());
    let mut yp = Vec::with_capacity(y.len());
    for (t, p) in y.iter().zip(preds) {
        if !p.is_nan() {
            yt.push(*t);
            yp.push(*p);
        }
    }
    assert!(!yt.is_empty(), "no OOB samples — too few trees?");
    metrics::r2_score(&yt, &yp)
}

impl Regressor for RandomForest {
    fn predict_row(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict_row(x)).sum::<f64>() / self.trees.len() as f64
    }
}

/// Extremely Randomized Trees: no bootstrap, random split thresholds.
#[derive(Debug, Clone)]
pub struct ExtraTrees {
    trees: Vec<DecisionTree>,
}

impl ExtraTrees {
    /// Fits an Extra-Trees ensemble.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RandomForest::fit`].
    pub fn fit<R: Rng + ?Sized>(x: &[Vec<f64>], y: &[f64], params: &ForestParams, rng: &mut R) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        assert!(params.n_trees > 0, "need at least one tree");
        let tp = params.tree_params(x[0].len(), SplitMode::RandomThreshold);
        let idx: Vec<usize> = (0..x.len()).collect();
        let trees = (0..params.n_trees)
            .map(|_| DecisionTree::fit_indices(x, y, &idx, &tp, rng))
            .collect();
        ExtraTrees { trees }
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean-Decrease-in-Impurity importances (average of per-tree MDI).
    pub fn mdi_importances(&self) -> Vec<f64> {
        average_mdi(&self.trees)
    }
}

fn average_mdi(trees: &[DecisionTree]) -> Vec<f64> {
    let p = trees.first().map_or(0, DecisionTree::n_features);
    let mut acc = vec![0.0; p];
    for t in trees {
        for (a, v) in acc.iter_mut().zip(t.mdi_importances()) {
            *a += v;
        }
    }
    for a in &mut acc {
        *a /= trees.len() as f64;
    }
    acc
}

impl Regressor for ExtraTrees {
    fn predict_row(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict_row(x)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_stats::rng_from_seed;

    /// Nonlinear target on 5 features; only features 0 and 1 matter.
    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..5).map(|_| rng.gen::<f64>()).collect();
            let target = 10.0 * (row[0] * std::f64::consts::PI).sin() + 5.0 * row[1] * row[1];
            x.push(row);
            y.push(target);
        }
        (x, y)
    }

    #[test]
    fn forest_fits_nonlinear_signal() {
        let (x, y) = friedman_like(200, 1);
        let mut rng = rng_from_seed(2);
        let forest = RandomForest::fit(&x, &y, &ForestParams::default(), &mut rng);
        let r2 = metrics::r2_score(&y, &forest.predict(&x));
        assert!(r2 > 0.9, "train R² = {r2}");
    }

    #[test]
    fn oob_r2_is_positive_but_below_train() {
        let (x, y) = friedman_like(200, 3);
        let mut rng = rng_from_seed(4);
        let forest = RandomForest::fit(&x, &y, &ForestParams::default(), &mut rng);
        let train = metrics::r2_score(&y, &forest.predict(&x));
        let oob = forest.oob_r2(&x, &y);
        assert!(oob > 0.5, "OOB R² = {oob}");
        assert!(oob < train, "OOB ({oob}) should be below train ({train})");
    }

    #[test]
    fn oob_counts_roughly_one_third() {
        // Each sample is OOB for a tree with probability (1−1/n)^n ≈ e⁻¹.
        let (x, y) = friedman_like(100, 5);
        let mut rng = rng_from_seed(6);
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestParams { n_trees: 200, ..ForestParams::default() },
            &mut rng,
        );
        let oob_frac: f64 = forest
            .in_bag
            .iter()
            .map(|bag| bag.iter().filter(|&&c| c == 0).count() as f64 / 100.0)
            .sum::<f64>()
            / 200.0;
        assert!((oob_frac - 0.368).abs() < 0.03, "OOB fraction {oob_frac}");
    }

    #[test]
    fn extra_trees_fit_signal_too() {
        let (x, y) = friedman_like(200, 7);
        let mut rng = rng_from_seed(8);
        let et = ExtraTrees::fit(&x, &y, &ForestParams::default(), &mut rng);
        let r2 = metrics::r2_score(&y, &et.predict(&x));
        assert!(r2 > 0.85, "train R² = {r2}");
    }

    #[test]
    fn forest_beats_single_tree_on_noisy_targets() {
        // A fully grown tree chases observation noise; bagging averages it
        // out. Train on noisy targets, evaluate against the clean signal.
        let (x, clean) = friedman_like(150, 9);
        let (xt, yt) = friedman_like(150, 10);
        let mut noise_rng = rng_from_seed(20);
        let noisy: Vec<f64> = clean
            .iter()
            .map(|&v| v + 3.0 * robotune_stats::standard_normal(&mut noise_rng))
            .collect();
        let mut rng = rng_from_seed(11);
        let forest = RandomForest::fit(&x, &noisy, &ForestParams::default(), &mut rng);
        let tree = DecisionTree::fit(&x, &noisy, &TreeParams::default(), &mut rng);
        let forest_r2 = metrics::r2_score(&yt, &forest.predict(&xt));
        let tree_r2 = metrics::r2_score(&yt, &tree.predict(&xt));
        assert!(
            forest_r2 > tree_r2,
            "forest {forest_r2} should generalise better than tree {tree_r2}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedman_like(60, 12);
        let fit = |seed| {
            let mut rng = rng_from_seed(seed);
            RandomForest::fit(
                &x,
                &y,
                &ForestParams { n_trees: 10, ..ForestParams::default() },
                &mut rng,
            )
            .predict_row(&x[0])
        };
        assert_eq!(fit(13), fit(13));
    }

    #[test]
    fn mdi_ranks_the_informative_features_first() {
        let (x, y) = friedman_like(250, 15);
        let mut rng = rng_from_seed(16);
        let forest = RandomForest::fit(&x, &y, &ForestParams::default(), &mut rng);
        let mdi = forest.mdi_importances();
        assert_eq!(mdi.len(), 5);
        assert!((mdi.iter().sum::<f64>() - 1.0).abs() < 1e-9, "normalised");
        // Features 0 and 1 carry the signal; 2–4 are noise.
        let informative = mdi[0] + mdi[1];
        assert!(informative > 0.8, "informative share = {informative}");
    }

    #[test]
    fn mdi_is_biased_toward_high_cardinality_noise_but_mda_is_not() {
        // Strobl et al. 2007, the paper's §3.3 argument: with a *pure
        // noise* target, MDI still hands continuous (high-cardinality)
        // features more importance than binary ones, because they offer
        // more split points to overfit; permutation importance does not
        // share the bias. Feature 0: binary noise. Feature 1: continuous
        // noise.
        let mut rng = rng_from_seed(17);
        let n = 300;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![f64::from(rng.gen::<bool>()), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestParams { n_trees: 150, min_samples_leaf: 1, min_samples_split: 2, ..ForestParams::default() },
            &mut rng,
        );
        let mdi = forest.mdi_importances();
        assert!(
            mdi[1] > 1.5 * mdi[0],
            "MDI should inflate the continuous noise feature: {mdi:?}"
        );
        let groups = vec![("bin".to_string(), vec![0]), ("cont".to_string(), vec![1])];
        let mda = crate::importance::grouped_permutation_importance(
            &forest, &x, &y, &groups, 10, &mut rng,
        );
        for g in &mda {
            assert!(
                g.importance.abs() < 0.08,
                "MDA must stay near zero on pure noise: {} = {}",
                g.name,
                g.importance
            );
        }
    }

    #[test]
    fn extra_trees_mdi_also_normalised() {
        let (x, y) = friedman_like(150, 18);
        let mut rng = rng_from_seed(19);
        let et = ExtraTrees::fit(&x, &y, &ForestParams::default(), &mut rng);
        let mdi = et.mdi_importances();
        assert!((mdi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(mdi.iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let mut rng = rng_from_seed(14);
        RandomForest::fit(
            &[vec![0.0]],
            &[0.0],
            &ForestParams { n_trees: 0, ..ForestParams::default() },
            &mut rng,
        );
    }
}
