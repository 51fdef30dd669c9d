//! The memoised acquisition pattern search against the un-memoised
//! original: same point, bit for bit, from strictly fewer scorer calls.

use std::cell::Cell;

use rand::Rng;
use robotune_bo::maximize_acquisition;
use robotune_bo::optimize::OptimizeOptions;
use robotune_gp::{GpModel, Matern52};
use robotune_stats::rng_from_seed;

/// The search as it was before memoisation: random scatter, keep the
/// best `refine_top`, then a coordinate pattern search that re-scores
/// every candidate it visits.
fn unmemoised<F: FnMut(&[f64]) -> f64, R: Rng>(
    mut score: F,
    dim: usize,
    opts: &OptimizeOptions,
    rng: &mut R,
) -> Vec<f64> {
    let cands: Vec<Vec<f64>> = (0..opts.candidates)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let scores: Vec<f64> = cands.iter().map(|p| score(p)).collect();
    let mut scored: Vec<(f64, Vec<f64>)> = scores.into_iter().zip(cands).collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    scored.truncate(opts.refine_top.max(1));
    let mut best = scored[0].clone();
    for (mut fx, mut x) in scored {
        let mut step = opts.initial_step;
        for _ in 0..=opts.halvings {
            let mut improved = true;
            while improved {
                improved = false;
                for d in 0..dim {
                    for dir in [-1.0, 1.0] {
                        let orig = x[d];
                        let cand = (orig + dir * step).clamp(0.0, 1.0);
                        if cand == orig {
                            continue;
                        }
                        x[d] = cand;
                        let f = score(&x);
                        if f > fx {
                            fx = f;
                            improved = true;
                        } else {
                            x[d] = orig;
                        }
                    }
                }
            }
            step *= 0.5;
        }
        if fx > best.0 {
            best = (fx, x);
        }
    }
    best.1
}

/// A GP posterior over `dim` dimensions, scored as mean + 2·std — the
/// shape of the scorer `BoEngine` hands the search.
fn posterior_scorer(dim: usize, seed: u64) -> impl Fn(&[f64]) -> f64 {
    let mut rng = rng_from_seed(seed);
    let x: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|p| p.iter().enumerate().map(|(i, v)| ((i + 2) as f64 * v).sin()).sum())
        .collect();
    let model = GpModel::fit(x, &y, Matern52::new(0.3, 1.0), 1e-4).expect("well-posed fit");
    move |p: &[f64]| {
        let (mu, var) = model.predict(p);
        mu + 2.0 * var.sqrt()
    }
}

#[test]
fn memoised_search_returns_the_same_point_from_fewer_scores() {
    for (dim, seed) in [(2usize, 1u64), (5, 2), (9, 3)] {
        let score = posterior_scorer(dim, seed);
        let opts = OptimizeOptions::default();

        let calls = Cell::new(0usize);
        let counted = |p: &[f64]| {
            calls.set(calls.get() + 1);
            score(p)
        };
        let memoised = maximize_acquisition(counted, dim, &opts, &mut rng_from_seed(seed));
        let memoised_calls = calls.replace(0);

        let counted = |p: &[f64]| {
            calls.set(calls.get() + 1);
            score(p)
        };
        let oracle = unmemoised(counted, dim, &opts, &mut rng_from_seed(seed));
        let oracle_calls = calls.get();

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&memoised), bits(&oracle), "dim {dim}: the chosen point moved");
        assert!(
            memoised_calls < oracle_calls,
            "dim {dim}: {memoised_calls} scores memoised vs {oracle_calls} without"
        );
    }
}
