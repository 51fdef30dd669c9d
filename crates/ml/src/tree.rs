//! CART regression trees.
//!
//! Split quality is variance reduction (equivalently, minimum total sum of
//! squared errors of the two children). Two threshold strategies are
//! supported through [`SplitMode`]:
//!
//! * [`SplitMode::Exact`] — scan every distinct-value boundary of each
//!   candidate feature (classic CART, used by Random Forests);
//! * [`SplitMode::RandomThreshold`] — draw one uniform threshold per
//!   candidate feature (Extremely Randomized Trees, Geurts et al. 2006).

use rand::Rng;

use crate::Regressor;

/// How split thresholds are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMode {
    /// Evaluate every boundary between consecutive distinct values.
    Exact,
    /// Draw one uniform random threshold per candidate feature.
    RandomThreshold,
}

/// Tree growth hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Number of features examined per split; `None` means all features.
    pub max_features: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Hard depth cap; `None` grows until purity.
    pub max_depth: Option<usize>,
    /// Threshold strategy.
    pub split_mode: SplitMode,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_features: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_depth: None,
            split_mode: SplitMode::Exact,
        }
    }
}

/// `Node::feature` of a leaf.
const LEAF: u32 = u32::MAX;

/// Samples a node needs before [`Presort`] replaces the per-feature sort:
/// below this, sorting the node's few pairs is cheaper than scanning all
/// training rows.
const PRESORT_MIN_SAMPLES: usize = 24;

/// One arena node (16 bytes). A split (`feature != LEAF`) sends rows with
/// `x[feature] <= value` to its left child, which preorder growth places
/// at the next index, and the rest to `right`; a leaf predicts `value`.
#[derive(Debug, Clone, Copy)]
struct Node {
    value: f64,
    feature: u32,
    right: u32,
}

impl Node {
    fn leaf(value: f64) -> Self {
        Node {
            value,
            feature: LEAF,
            right: 0,
        }
    }
}

/// A fitted regression tree. Nodes live in a flat preorder arena; index 0
/// is the root.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    /// Raw Mean-Decrease-in-Impurity accumulators: total SSE reduction
    /// attributed to splits on each feature during growth.
    mdi: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on rows `x` (all of equal length) and targets `y`,
    /// restricted to the samples listed in `sample_idx` (bootstrap support).
    /// In [`SplitMode::Exact`] the rows are first sorted once per feature
    /// (a [`RandomForest`](crate::RandomForest) shares that sort across
    /// its trees).
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` disagree in length, if `x` is empty, or if
    /// `sample_idx` is empty.
    pub fn fit_indices<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        sample_idx: &[usize],
        params: &TreeParams,
        rng: &mut R,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let presort = (params.split_mode == SplitMode::Exact).then(|| Presort::new(x, y));
        Self::fit_presorted(x, y, sample_idx, params, presort.as_ref(), rng)
    }

    /// [`DecisionTree::fit_indices`] with the training rows' [`Presort`]
    /// supplied by the caller, so a forest sorts its data once. `presort`
    /// must come from the same `x` and `y`; it is only consulted by
    /// [`SplitMode::Exact`].
    pub(crate) fn fit_presorted<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        sample_idx: &[usize],
        params: &TreeParams,
        presort: Option<&Presort>,
        rng: &mut R,
    ) -> Self {
        assert!(!sample_idx.is_empty(), "cannot fit on empty index set");
        // A tree has fewer than 2·|sample_idx| nodes; indices are `u32`.
        assert!(sample_idx.len() <= u32::MAX as usize / 2, "too many samples");
        let n_features = x[0].len();
        assert!(n_features < LEAF as usize, "too many features");
        let mut grower = Grower {
            x,
            y,
            params,
            presort,
            rng,
            nodes: Vec::new(),
            feature_pool: (0..n_features).collect(),
            mdi: vec![0.0; n_features],
            pairs: Vec::with_capacity(sample_idx.len()),
            counts: presort.map_or_else(Vec::new, |_| vec![0; x.len()]),
        };
        grower.grow(&mut sample_idx.to_vec(), 0);
        DecisionTree {
            nodes: grower.nodes,
            n_features,
            mdi: grower.mdi,
        }
    }

    /// Fits on all samples.
    pub fn fit<R: Rng + ?Sized>(x: &[Vec<f64>], y: &[f64], params: &TreeParams, rng: &mut R) -> Self {
        let idx: Vec<usize> = (0..x.len()).collect();
        Self::fit_indices(x, y, &idx, params, rng)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.feature == LEAF).count()
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Mean-Decrease-in-Impurity feature importances, normalised to sum
    /// to 1 (all zeros for a stump).
    ///
    /// MDI is the conventional Random-Forests importance; the paper
    /// rejects it in favour of permutation (MDA) importance because MDI
    /// is biased when predictors "vary in their scale of measurement or
    /// their number of categories" (Strobl et al. 2007) — exactly the
    /// situation with mixed boolean/categorical/size parameters. It is
    /// provided here so the bias is demonstrable (see the ml tests and
    /// the `mdi-vs-mda` ablation).
    pub fn mdi_importances(&self) -> Vec<f64> {
        let total: f64 = self.mdi.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.n_features];
        }
        self.mdi.iter().map(|&v| v / total).collect()
    }

    /// [`Regressor::predict_row`], additionally setting bit `f` of the
    /// bitset `path` (64 features per word) for every feature `f` a split
    /// on the row's decision path tests. A row that differs from `x` only
    /// in columns outside `path` reaches the same leaf.
    pub(crate) fn predict_row_path(&self, x: &[f64], path: &mut [u64]) -> f64 {
        self.walk(x, |feature| path[feature / 64] |= 1 << (feature % 64))
    }

    /// Descends from the root to `x`'s leaf, calling `on_split` with the
    /// feature each split on the way tests; returns the leaf value.
    #[inline(always)]
    fn walk(&self, x: &[f64], mut on_split: impl FnMut(usize)) -> f64 {
        debug_assert_eq!(x.len(), self.n_features, "feature count mismatch");
        let mut i = 0;
        loop {
            let node = self.nodes[i];
            if node.feature == LEAF {
                return node.value;
            }
            let feature = node.feature as usize;
            on_split(feature);
            i = if x[feature] <= node.value {
                i + 1
            } else {
                node.right as usize
            };
        }
    }
}

impl Regressor for DecisionTree {
    fn predict_row(&self, x: &[f64]) -> f64 {
        self.walk(x, |_| {})
    }
}

/// The training rows sorted once per feature, for the exact split search.
///
/// A node with enough samples reads its sorted `(x, y)` sequence off this
/// order with a counting scan — each training row emitted as many times as
/// the node holds it — instead of sorting its own pairs. That yields the
/// very sequence the stable sort of the node's pairs would, and hence the
/// same prefix sums bit for bit, unless two distinct rows tie on the
/// feature with different `y` bits: the stable sort then keeps the node's
/// current (partition-scrambled) order of the tied rows while the scan
/// keeps row order, and the reordered `y` terms round differently. Such a
/// feature is not `safe` and keeps the sort.
pub(crate) struct Presort {
    n: usize,
    /// `order[f * n..(f + 1) * n]`: every row, ascending by `x[row][f]`
    /// under `total_cmp`.
    order: Vec<u32>,
    /// `safe[f]`: every tie on feature `f` is between rows with identical
    /// `y` bits.
    safe: Vec<bool>,
}

impl Presort {
    pub(crate) fn new(x: &[Vec<f64>], y: &[f64]) -> Self {
        let n = x.len();
        let p = x.first().map_or(0, Vec::len);
        assert!(n <= u32::MAX as usize, "too many rows");
        let mut order = Vec::with_capacity(n * p);
        let mut safe = Vec::with_capacity(p);
        let mut col = Vec::with_capacity(n);
        for f in 0..p {
            col.clear();
            col.extend(x.iter().map(|row| row[f]));
            let start = order.len();
            order.extend(0..n as u32);
            let rows = &mut order[start..];
            rows.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            safe.push(rows.windows(2).all(|w| {
                let (a, b) = (w[0] as usize, w[1] as usize);
                col[a].total_cmp(&col[b]).is_ne() || y[a].to_bits() == y[b].to_bits()
            }));
        }
        Presort { n, order, safe }
    }
}

/// State of one tree's growth.
struct Grower<'a, R: ?Sized> {
    x: &'a [Vec<f64>],
    y: &'a [f64],
    params: &'a TreeParams,
    presort: Option<&'a Presort>,
    rng: &'a mut R,
    nodes: Vec<Node>,
    /// Feature indices; a node's candidates are a prefix shuffled into it.
    feature_pool: Vec<usize>,
    mdi: Vec<f64>,
    /// Scratch: one candidate feature's sorted `(x, y)` pairs.
    pairs: Vec<(f64, f64)>,
    /// Scratch: per training row, how often the current node holds it
    /// (all zeros between nodes).
    counts: Vec<u32>,
}

impl<R: Rng + ?Sized> Grower<'_, R> {
    /// Recursively grows a subtree over the samples in `idx`, appending
    /// its nodes in preorder.
    fn grow(&mut self, idx: &mut [usize], depth: usize) {
        let (x, y, params) = (self.x, self.y, self.params);
        let n = idx.len();
        let mean: f64 = idx.iter().map(|&i| y[i]).sum::<f64>() / n as f64;

        let depth_ok = params.max_depth.is_none_or(|d| depth < d);
        if n < params.min_samples_split || !depth_ok || is_pure(y, idx) {
            self.nodes.push(Node::leaf(mean));
            return;
        }

        // Random feature subset (without replacement) of size max_features,
        // via a partial Fisher–Yates over the shared pool.
        let pool = self.feature_pool.len();
        let k = params.max_features.unwrap_or(pool).clamp(1, pool);
        for j in 0..k {
            let r = self.rng.gen_range(j..pool);
            self.feature_pool.swap(j, r);
        }

        let best = match params.split_mode {
            SplitMode::Exact => self.best_exact_split(idx, k),
            SplitMode::RandomThreshold => self.best_random_split(idx, k),
        };

        let Some((feature, threshold, child_sse)) = best else {
            self.nodes.push(Node::leaf(mean));
            return;
        };

        // MDI bookkeeping: impurity decrease bought by this split.
        let parent_sse: f64 = idx.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        self.mdi[feature] += (parent_sse - child_sse).max(0.0);

        // Partition idx in place: left = x <= threshold.
        let split_at = partition(x, idx, feature, threshold);
        debug_assert!(split_at > 0 && split_at < n, "degenerate partition");

        // Reserve our slot; the left subtree follows it directly.
        let me = self.nodes.len();
        self.nodes.push(Node::leaf(mean));
        let (left_idx, right_idx) = idx.split_at_mut(split_at);
        self.grow(left_idx, depth + 1);
        let right = self.nodes.len() as u32;
        self.grow(right_idx, depth + 1);
        self.nodes[me] = Node {
            value: threshold,
            feature: feature as u32,
            right,
        };
    }

    /// Exhaustive best split over the first `k` pool features. Returns
    /// `(feature, threshold, total child SSE)` of the split minimising
    /// child SSE, or `None` when no admissible split improves on a leaf.
    fn best_exact_split(&mut self, idx: &[usize], k: usize) -> Option<(usize, f64, f64)> {
        let (x, y, min_leaf) = (self.x, self.y, self.params.min_samples_leaf);
        let n = idx.len();
        let presort = self.presort.filter(|_| n >= PRESORT_MIN_SAMPLES);
        if presort.is_some() {
            for &i in idx {
                self.counts[i] += 1;
            }
        }
        let pairs = &mut self.pairs;
        let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, threshold)

        for &f in &self.feature_pool[..k] {
            pairs.clear();
            match presort {
                Some(ps) if ps.safe[f] => {
                    for &row in &ps.order[f * ps.n..(f + 1) * ps.n] {
                        let row = row as usize;
                        for _ in 0..self.counts[row] {
                            pairs.push((x[row][f], y[row]));
                        }
                    }
                }
                _ => {
                    pairs.extend(idx.iter().map(|&i| (x[i][f], y[i])));
                    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                }
            }

            // Prefix sums over the sorted order.
            let mut sum_left = 0.0;
            let mut sq_left = 0.0;
            let total_sum: f64 = pairs.iter().map(|p| p.1).sum();
            let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();

            for i in 0..n - 1 {
                sum_left += pairs[i].1;
                sq_left += pairs[i].1 * pairs[i].1;
                // Can't split between equal feature values.
                if pairs[i].0 == pairs[i + 1].0 {
                    continue;
                }
                let nl = i + 1;
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let sum_right = total_sum - sum_left;
                let sq_right = total_sq - sq_left;
                let sse = (sq_left - sum_left * sum_left / nl as f64)
                    + (sq_right - sum_right * sum_right / nr as f64);
                if best.is_none_or(|(b, _, _)| sse < b) {
                    // Midpoint threshold, like scikit-learn.
                    let thr = 0.5 * (pairs[i].0 + pairs[i + 1].0);
                    best = Some((sse, f, thr));
                }
            }
        }
        if presort.is_some() {
            for &i in idx {
                self.counts[i] = 0;
            }
        }
        best.map(|(s, f, t)| (f, t, s))
    }

    /// Extra-Trees split: one uniform threshold per candidate feature,
    /// best SSE wins. Returns `(feature, threshold, total child SSE)`.
    fn best_random_split(&mut self, idx: &[usize], k: usize) -> Option<(usize, f64, f64)> {
        let (x, y, min_leaf) = (self.x, self.y, self.params.min_samples_leaf);
        let n = idx.len();
        let mut best: Option<(f64, usize, f64)> = None;
        for &f in &self.feature_pool[..k] {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in idx {
                lo = lo.min(x[i][f]);
                hi = hi.max(x[i][f]);
            }
            if lo == hi {
                continue;
            }
            let thr = self.rng.gen_range(lo..hi);
            let (mut nl, mut sum_l, mut sq_l) = (0usize, 0.0, 0.0);
            let (mut sum_t, mut sq_t) = (0.0, 0.0);
            for &i in idx {
                let yi = y[i];
                sum_t += yi;
                sq_t += yi * yi;
                if x[i][f] <= thr {
                    nl += 1;
                    sum_l += yi;
                    sq_l += yi * yi;
                }
            }
            let nr = n - nl;
            if nl < min_leaf || nr < min_leaf {
                continue;
            }
            let sum_r = sum_t - sum_l;
            let sq_r = sq_t - sq_l;
            let sse = (sq_l - sum_l * sum_l / nl as f64) + (sq_r - sum_r * sum_r / nr as f64);
            if best.is_none_or(|(b, _, _)| sse < b) {
                best = Some((sse, f, thr));
            }
        }
        best.map(|(s, f, t)| (f, t, s))
    }
}

fn is_pure(y: &[f64], idx: &[usize]) -> bool {
    let first = y[idx[0]];
    idx.iter().all(|&i| y[i] == first)
}

/// Moves samples with `x[feature] <= threshold` to the front of `idx`;
/// returns the boundary position.
fn partition(x: &[Vec<f64>], idx: &mut [usize], feature: usize, threshold: f64) -> usize {
    let mut lo = 0;
    for i in 0..idx.len() {
        if x[idx[i]][feature] <= threshold {
            idx.swap(lo, i);
            lo += 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_stats::rng_from_seed;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10·1[x0 > 0.5] + x1-noise-free second feature that is irrelevant.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let x0 = i as f64 / 39.0;
            let x1 = (i % 7) as f64;
            x.push(vec![x0, x1]);
            y.push(if x0 > 0.5 { 10.0 } else { 0.0 });
        }
        (x, y)
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let (x, y) = step_data();
        let mut rng = rng_from_seed(1);
        let tree = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(tree.predict_row(xi), yi);
        }
    }

    #[test]
    fn pure_targets_make_a_single_leaf() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![3.0; 3];
        let mut rng = rng_from_seed(2);
        let tree = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_row(&[9.0]), 3.0);
    }

    #[test]
    fn max_depth_limits_growth() {
        let (x, y) = step_data();
        let mut rng = rng_from_seed(3);
        let params = TreeParams {
            max_depth: Some(1),
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(&x, &y, &params, &mut rng);
        assert!(tree.leaf_count() <= 2, "depth-1 tree has at most 2 leaves");
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = step_data();
        let mut rng = rng_from_seed(4);
        let params = TreeParams {
            min_samples_leaf: 15,
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(&x, &y, &params, &mut rng);
        // 40 samples with min leaf 15: at most 2 leaves (15/25 or 20/20 splits).
        assert!(tree.leaf_count() <= 2);
    }

    #[test]
    fn random_threshold_mode_still_fits_signal() {
        let (x, y) = step_data();
        let mut rng = rng_from_seed(5);
        let params = TreeParams {
            split_mode: SplitMode::RandomThreshold,
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(&x, &y, &params, &mut rng);
        let preds = tree.predict(&x);
        let r2 = crate::metrics::r2_score(&y, &preds);
        assert!(r2 > 0.99, "extra-trees split should still nail a step, r2={r2}");
    }

    #[test]
    fn fit_indices_ignores_excluded_samples() {
        let (x, mut y) = step_data();
        // Poison one excluded sample with an absurd target.
        y[0] = 1e9;
        let idx: Vec<usize> = (1..x.len()).collect();
        let mut rng = rng_from_seed(6);
        let tree = DecisionTree::fit_indices(&x, &y, &idx, &TreeParams::default(), &mut rng);
        // Prediction near the poisoned point is unaffected by it.
        assert!(tree.predict_row(&x[1]) < 100.0);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0]];
        let y = vec![1.0, 2.0, 3.0];
        let mut rng = rng_from_seed(7);
        let tree = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_row(&[1.0]) - 2.0).abs() < 1e-12);
    }
}
