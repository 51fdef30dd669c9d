//! Forest outputs pinned against committed `to_bits()` constants.
//!
//! Every pin is an FNV-1a fingerprint of the exact bit patterns a fit
//! produces: node counts, predictions on a fixed grid, MDI importances
//! and grouped MDA importances. A change to split search, the tree
//! layout or OOB scoring that moves a single bit fails here, including
//! on tie-heavy data whose split order depends on how ties are broken.
//! The constants were recorded before the presorted split search, the
//! compact node arena and per-sample OOB scoring existed.

use rand::Rng;
use robotune_ml::{
    grouped_permutation_importance, DecisionTree, ExtraTrees, ForestParams, RandomForest,
    Regressor, TreeParams,
};
use robotune_sampling::lhs;
use robotune_stats::rng_from_seed;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn floats(self, vs: &[f64]) -> Self {
        vs.iter().fold(self, |h, v| h.word(v.to_bits()))
    }
}

/// What one pinned fit produced.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Total nodes over all trees.
    nodes: usize,
    /// Per-tree node counts, in tree order.
    node_counts: u64,
    /// Predictions on the grid.
    grid: u64,
    /// MDI importances.
    mdi: u64,
    /// Grouped MDA importances (names in rank order, then values), or 0
    /// where the model has no OOB bookkeeping.
    mda: u64,
}

/// A fixed query grid: the training rows, the all-0.25 and all-0.75
/// corners, and a deterministic sweep that moves one column at a time.
fn grid(x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let p = x[0].len();
    let mut g: Vec<Vec<f64>> = x.to_vec();
    g.push(vec![0.25; p]);
    g.push(vec![0.75; p]);
    for j in 0..p {
        let mut row = vec![0.5; p];
        row[j] = (j % 5) as f64 / 4.0;
        g.push(row);
    }
    g
}

fn counts_hash(counts: impl Iterator<Item = usize>) -> (usize, u64) {
    let mut total = 0;
    let mut h = Fnv::new();
    for c in counts {
        total += c;
        h = h.word(c as u64);
    }
    (total, h.0)
}

fn mda_hash(
    forest: &RandomForest,
    x: &[Vec<f64>],
    y: &[f64],
    groups: &[(String, Vec<usize>)],
) -> u64 {
    let imp = grouped_permutation_importance(forest, x, y, groups, 10, &mut rng_from_seed(77));
    let mut h = Fnv::new();
    for g in &imp {
        h = g.name.bytes().fold(h, |h, b| h.word(u64::from(b)));
        h = h.word(g.importance.to_bits());
    }
    h.0
}

fn pin_forest(x: &[Vec<f64>], y: &[f64], groups: &[(String, Vec<usize>)], seed: u64) -> Pin {
    let params = ForestParams {
        n_trees: 120,
        ..ForestParams::default()
    };
    let forest = RandomForest::fit(x, y, &params, &mut rng_from_seed(seed));
    let (nodes, node_counts) = counts_hash(forest.trees().iter().map(DecisionTree::node_count));
    Pin {
        nodes,
        node_counts,
        grid: Fnv::new().floats(&forest.predict(&grid(x))).0,
        mdi: Fnv::new().floats(&forest.mdi_importances()).0,
        mda: mda_hash(&forest, x, y, groups),
    }
}

fn pin_tree(x: &[Vec<f64>], y: &[f64], seed: u64) -> Pin {
    let tree = DecisionTree::fit(x, y, &TreeParams::default(), &mut rng_from_seed(seed));
    let (nodes, node_counts) = counts_hash(std::iter::once(tree.node_count()));
    Pin {
        nodes,
        node_counts,
        grid: Fnv::new().floats(&tree.predict(&grid(x))).0,
        mdi: Fnv::new().floats(&tree.mdi_importances()).0,
        mda: 0,
    }
}

fn pin_extra_trees(x: &[Vec<f64>], y: &[f64], seed: u64) -> Pin {
    let params = ForestParams {
        n_trees: 60,
        ..ForestParams::default()
    };
    let et = ExtraTrees::fit(x, y, &params, &mut rng_from_seed(seed));
    let (nodes, node_counts) = counts_hash(et.trees().iter().map(DecisionTree::node_count));
    Pin {
        nodes,
        node_counts,
        grid: Fnv::new().floats(&et.predict(&grid(x))).0,
        mdi: Fnv::new().floats(&et.mdi_importances()).0,
        mda: 0,
    }
}

/// 100 LHS rows over 44 columns with a selection-like target: a few
/// strong columns, an interaction and a smooth nonlinearity.
fn lhs_data() -> (Vec<Vec<f64>>, Vec<f64>) {
    let x = lhs(100, 44, &mut rng_from_seed(41));
    let y = x
        .iter()
        .map(|r| 30.0 * r[3] + 12.0 * r[17] * r[29] + 8.0 * (6.0 * r[40]).sin() + 2.0 * r[8])
        .collect();
    (x, y)
}

/// 34 groups over 44 columns, shaped like the Spark space's covering
/// groups: ten pairs and 24 singletons.
fn groups_34() -> Vec<(String, Vec<usize>)> {
    let mut groups: Vec<(String, Vec<usize>)> = (0..10)
        .map(|g| (format!("pair{g}"), vec![2 * g, 2 * g + 1]))
        .collect();
    groups.extend((20..44).map(|c| (format!("c{c}"), vec![c])));
    groups
}

/// Every column takes values in {0, 0.5, 1}, so distinct rows tie on
/// every feature, and every target is distinct: tie order would change
/// prefix sums if split search broke ties differently.
fn tie_data() -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = rng_from_seed(43);
    let x: Vec<Vec<f64>> = (0..100)
        .map(|_| {
            (0..12)
                .map(|_| f64::from(rng.gen_range(0..3u32)) * 0.5)
                .collect()
        })
        .collect();
    let y = x
        .iter()
        .enumerate()
        .map(|(i, r)| 5.0 * r[0] + 3.0 * r[1] * r[2] + r[5] + 0.1 + i as f64 * 1e-3)
        .collect();
    (x, y)
}

fn tie_groups() -> Vec<(String, Vec<usize>)> {
    let mut groups = vec![
        ("g01".to_string(), vec![0, 1]),
        ("g23".to_string(), vec![2, 3]),
    ];
    groups.extend((4..12).map(|c| (format!("c{c}"), vec![c])));
    groups
}

/// 60 distinct LHS rows, 40 of them repeated verbatim (same row, same
/// target), plus four binary columns on which distinct rows tie with
/// different targets. The continuous columns tie only between identical
/// rows, so their split order cannot depend on tie breaking.
fn dup_data() -> (Vec<Vec<f64>>, Vec<f64>) {
    let base = lhs(60, 20, &mut rng_from_seed(47));
    let mut rng = rng_from_seed(48);
    let mut x: Vec<Vec<f64>> = base
        .iter()
        .map(|r| {
            let mut row = r.clone();
            row.extend((0..4).map(|_| f64::from(rng.gen_range(0..2u32))));
            row
        })
        .collect();
    for i in 0..40 {
        x.push(x[(i * 7) % 60].clone());
    }
    let y = x
        .iter()
        .map(|r| 10.0 * r[0] + 4.0 * (5.0 * r[7]).cos() + 3.0 * r[20] + r[1] * r[22])
        .collect();
    (x, y)
}

fn dup_groups() -> Vec<(String, Vec<usize>)> {
    let mut groups = vec![("bin".to_string(), vec![20, 21, 22, 23])];
    groups.extend((0..20).map(|c| (format!("c{c}"), vec![c])));
    groups
}

fn pin(nodes: usize, node_counts: u64, grid: u64, mdi: u64, mda: u64) -> Pin {
    Pin {
        nodes,
        node_counts,
        grid,
        mdi,
        mda,
    }
}

#[test]
fn continuous_lhs_fits_are_pinned() {
    let (x, y) = lhs_data();
    assert_eq!(
        pin_forest(&x, &y, &groups_34(), 5),
        pin(
            9194,
            16352564721248823715,
            13336792838008093405,
            5260282415570477864,
            9576337694093599122
        ),
        "random forest"
    );
    assert_eq!(
        pin_tree(&x, &y, 6),
        pin(
            199,
            9794460434596885538,
            11580121228719570269,
            11043791345464256432,
            0
        ),
        "single tree"
    );
    assert_eq!(
        pin_extra_trees(&x, &y, 7),
        pin(
            5114,
            17983658988541107443,
            18276690418705091880,
            7861801946710957989,
            0
        ),
        "extra trees"
    );
}

#[test]
fn tie_heavy_fits_are_pinned() {
    let (x, y) = tie_data();
    assert_eq!(
        pin_forest(&x, &y, &tie_groups(), 8),
        pin(
            8832,
            8851447855778346109,
            12405379933430531603,
            5091022667534621468,
            14515340047305308247
        ),
        "random forest"
    );
    assert_eq!(
        pin_tree(&x, &y, 9),
        pin(
            199,
            9794460434596885538,
            3196135203860629630,
            17697326842304632807,
            0
        ),
        "single tree"
    );
    assert_eq!(
        pin_extra_trees(&x, &y, 10),
        pin(
            4808,
            13104752311376698297,
            12366065028998922473,
            17849284838253538243,
            0
        ),
        "extra trees"
    );
}

#[test]
fn duplicate_row_fits_are_pinned() {
    let (x, y) = dup_data();
    assert_eq!(
        pin_forest(&x, &y, &dup_groups(), 11),
        pin(
            7912,
            3252725032316917977,
            13873960923826531904,
            4653820837983606078,
            3482305469031221768
        ),
        "random forest"
    );
    assert_eq!(
        pin_tree(&x, &y, 12),
        pin(
            119,
            1935691084326388114,
            12232672302039611807,
            9568390472186972432,
            0
        ),
        "single tree"
    );
}
