//! Grouped Mean-Decrease-in-Accuracy (MDA) permutation importance.
//!
//! The paper's parameter ranking (§3.3, §4): record the baseline OOB R² of
//! a fitted Random Forest, then — for each parameter *group* — permute the
//! group's columns **jointly** (one shared row permutation, preserving
//! intra-group structure) and measure how much the OOB R² drops. Features
//! whose permutation barely moves the score are unimportant. Each group is
//! permuted `repeats` times (the paper uses 10) and the drops averaged,
//! which suppresses the execution-noise-induced phantom importances the
//! paper mentions.

use rand::Rng;

use crate::forest::{oob_r2_score, RandomForest};
use crate::Regressor;

/// Average OOB-R² drop when a group's columns are jointly permuted.
#[derive(Debug, Clone)]
pub struct GroupImportance {
    /// Group label (a parameter name for singleton groups).
    pub name: String,
    /// Column indices belonging to the group.
    pub members: Vec<usize>,
    /// Mean drop in OOB R² across repeats. Larger ⇒ more important.
    pub importance: f64,
}

/// Computes grouped MDA importances against a fitted forest.
///
/// `groups` is a list of `(name, member-column-indices)` covering whatever
/// subset of columns should be ranked (usually all of them, with collinear
/// parameters sharing a group). Results are sorted by decreasing
/// importance.
///
/// # Panics
///
/// Panics if any group is empty or references an out-of-range column, or
/// if `repeats == 0`.
pub fn grouped_permutation_importance<R: Rng + ?Sized>(
    forest: &RandomForest,
    x: &[Vec<f64>],
    y: &[f64],
    groups: &[(String, Vec<usize>)],
    repeats: usize,
    rng: &mut R,
) -> Vec<GroupImportance> {
    assert!(repeats > 0, "repeats must be positive");
    let n = x.len();
    let p = x.first().map_or(0, Vec::len);
    for (name, members) in groups {
        assert!(!members.is_empty(), "group {name} is empty");
        assert!(
            members.iter().all(|&m| m < p),
            "group {name} references an out-of-range column"
        );
    }

    // Walk every (tree, OOB sample) pair once. A permutation can only move
    // the pairs whose decision path tests a permuted column, so each
    // repeat re-walks just those; every other term is the recorded one,
    // bit for bit.
    let trees = forest.trees();
    let paths = forest.oob_paths(x);
    let baseline = oob_r2_score(y, &paths.oob_predictions(paths.preds()));
    let mut vals = paths.preds().to_vec();
    let mut scratch: Vec<Vec<f64>> = x.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut changed = vec![0u64; p.div_ceil(64)];

    let mut out = Vec::with_capacity(groups.len());
    for (name, members) in groups {
        changed.fill(0);
        for &m in members {
            changed[m / 64] |= 1 << (m % 64);
        }
        let affected = paths.affected(&changed);

        let mut total_drop = 0.0;
        for _ in 0..repeats {
            // One shared row permutation for every member column: grouped
            // permutation keeps collinear columns consistent with each
            // other while breaking their link to the target.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            for (i, &src) in perm.iter().enumerate() {
                for &m in members {
                    scratch[i][m] = x[src][m];
                }
            }
            for &e in &affected {
                let (t, i) = paths.pair(e);
                vals[e] = trees[t].predict_row(&scratch[i]);
            }
            total_drop += baseline - oob_r2_score(y, &paths.oob_predictions(&vals));
        }
        // Restore the permuted columns and the baseline terms.
        for (i, row) in scratch.iter_mut().enumerate() {
            for &m in members {
                row[m] = x[i][m];
            }
        }
        for &e in &affected {
            vals[e] = paths.preds()[e];
        }
        out.push(GroupImportance {
            name: name.clone(),
            members: members.clone(),
            importance: total_drop / repeats as f64,
        });
    }
    out.sort_by(|a, b| b.importance.total_cmp(&a.importance));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestParams;
    use rand::Rng;
    use robotune_stats::rng_from_seed;

    /// y depends strongly on column 0, weakly on column 1, not at all on
    /// columns 2–3. Columns 2 and 3 are collinear copies of each other.
    fn data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.gen::<f64>();
            let b = rng.gen::<f64>();
            let c = rng.gen::<f64>();
            x.push(vec![a, b, c, c * 0.9 + 0.05]);
            y.push(10.0 * a + 1.0 * b);
        }
        (x, y)
    }

    fn fit(x: &[Vec<f64>], y: &[f64], seed: u64) -> RandomForest {
        let mut rng = rng_from_seed(seed);
        RandomForest::fit(
            x,
            y,
            &ForestParams { n_trees: 150, ..ForestParams::default() },
            &mut rng,
        )
    }

    fn singleton_groups(p: usize) -> Vec<(String, Vec<usize>)> {
        (0..p).map(|i| (format!("f{i}"), vec![i])).collect()
    }

    #[test]
    fn strong_feature_ranks_first() {
        let (x, y) = data(200, 1);
        let forest = fit(&x, &y, 2);
        let mut rng = rng_from_seed(3);
        let imp =
            grouped_permutation_importance(&forest, &x, &y, &singleton_groups(4), 10, &mut rng);
        assert_eq!(imp[0].name, "f0");
        assert!(imp[0].importance > 0.3, "f0 importance {}", imp[0].importance);
        // Noise features have near-zero importance.
        let noise: f64 = imp
            .iter()
            .filter(|g| g.name == "f2" || g.name == "f3")
            .map(|g| g.importance.abs())
            .fold(0.0, f64::max);
        assert!(noise < 0.05, "noise importance {noise}");
    }

    #[test]
    fn grouped_permutation_treats_collinear_pair_as_one() {
        let (x, y) = data(200, 4);
        let forest = fit(&x, &y, 5);
        let mut rng = rng_from_seed(6);
        let groups = vec![
            ("f0".into(), vec![0]),
            ("f1".into(), vec![1]),
            ("pair".into(), vec![2, 3]),
        ];
        let imp = grouped_permutation_importance(&forest, &x, &y, &groups, 10, &mut rng);
        let pair = imp.iter().find(|g| g.name == "pair").unwrap();
        assert!(pair.importance.abs() < 0.05);
        assert_eq!(pair.members, vec![2, 3]);
    }

    #[test]
    fn weak_feature_outranks_noise_with_repeats() {
        let (x, y) = data(300, 7);
        let forest = fit(&x, &y, 8);
        let mut rng = rng_from_seed(9);
        let imp =
            grouped_permutation_importance(&forest, &x, &y, &singleton_groups(4), 10, &mut rng);
        let rank_of = |name: &str| imp.iter().position(|g| g.name == name).unwrap();
        assert!(rank_of("f1") < rank_of("f2"));
        assert!(rank_of("f1") < rank_of("f3"));
    }

    #[test]
    fn input_matrix_is_restored() {
        let (x, y) = data(80, 10);
        let snapshot = x.clone();
        let forest = fit(&x, &y, 11);
        let mut rng = rng_from_seed(12);
        let _ = grouped_permutation_importance(&forest, &x, &y, &singleton_groups(4), 3, &mut rng);
        assert_eq!(x, snapshot, "caller's matrix must not be mutated");
    }

    #[test]
    #[should_panic(expected = "repeats must be positive")]
    fn zero_repeats_rejected() {
        let (x, y) = data(40, 13);
        let forest = fit(&x, &y, 14);
        let mut rng = rng_from_seed(15);
        grouped_permutation_importance(&forest, &x, &y, &singleton_groups(4), 0, &mut rng);
    }
}
