//! Grouped MDA with the out-of-bag path cache against a full recompute:
//! bit-identical importances, including past 64 columns (the second word
//! of the path bitset).

use rand::Rng;
use robotune_ml::{grouped_permutation_importance, ForestParams, RandomForest};
use robotune_stats::rng_from_seed;

/// Grouped MDA as it was before the path cache: every permutation
/// re-walks every tree for every out-of-bag sample through the public
/// `oob_r2`, consuming the RNG in the same order.
fn full_recompute<R: Rng>(
    forest: &RandomForest,
    x: &[Vec<f64>],
    y: &[f64],
    groups: &[(String, Vec<usize>)],
    repeats: usize,
    rng: &mut R,
) -> Vec<(String, f64)> {
    let n = x.len();
    let baseline = forest.oob_r2(x, y);
    let mut scratch = x.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    for (name, members) in groups {
        let mut total_drop = 0.0;
        for _ in 0..repeats {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            for (i, &src) in perm.iter().enumerate() {
                for &m in members {
                    scratch[i][m] = x[src][m];
                }
            }
            total_drop += baseline - forest.oob_r2(&scratch, y);
            for (i, row) in scratch.iter_mut().enumerate() {
                for &m in members {
                    row[m] = x[i][m];
                }
            }
        }
        out.push((name.clone(), total_drop / repeats as f64));
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[test]
fn cached_importances_are_bit_identical_to_a_full_recompute() {
    for p in [44usize, 70] {
        let mut rng = rng_from_seed(p as u64);
        let x: Vec<Vec<f64>> = (0..90)
            .map(|_| (0..p).map(|_| rng.gen::<f64>()).collect())
            .collect();
        // Signal on both sides of column 64 so high columns get split on.
        let y: Vec<f64> = x
            .iter()
            .map(|r| 8.0 * r[0] + 4.0 * r[p - 1] + (5.0 * r[p / 2]).sin() + r[p - 3] * r[1])
            .collect();
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestParams { n_trees: 50, ..ForestParams::default() },
            &mut rng,
        );
        // Singletons, a pair straddling the word boundary (when there is
        // one) and a wide group.
        let mut groups: Vec<(String, Vec<usize>)> =
            (0..p).step_by(3).map(|i| (format!("f{i}"), vec![i])).collect();
        groups.push(("straddle".into(), vec![p.min(64) - 1, p - 1]));
        groups.push(("wide".into(), (1..p).step_by(7).collect()));

        let cached = grouped_permutation_importance(&forest, &x, &y, &groups, 4, &mut rng_from_seed(9));
        let oracle = full_recompute(&forest, &x, &y, &groups, 4, &mut rng_from_seed(9));
        assert_eq!(cached.len(), oracle.len());
        for (c, (name, imp)) in cached.iter().zip(&oracle) {
            assert_eq!(&c.name, name, "p = {p}: ranking moved");
            assert_eq!(c.importance.to_bits(), imp.to_bits(), "p = {p}: {name}");
        }
        assert!(
            cached.iter().any(|g| g.importance != 0.0 && g.members.iter().any(|&m| m >= 64))
                || p <= 64,
            "p = {p}: no column past 64 mattered, so the second word went untested"
        );
    }
}
