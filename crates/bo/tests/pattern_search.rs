//! The acquisition search against the un-memoised, single-scorer
//! original: the memoised pattern search returns the same point, bit for
//! bit, from strictly fewer scorer calls; and `BoEngine`'s split
//! draw → one batched posterior pass → refine returns, for any one
//! acquisition, the same point as the original from the same RNG. So the
//! only thing that moves suggestions is that the three acquisitions now
//! share one draw.

use std::cell::Cell;

use rand::Rng;
use robotune_bo::optimize::{draw_candidates, refine, OptimizeOptions};
use robotune_bo::ALL_ACQUISITIONS;
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

/// The search as `BoEngine` runs it, for a single scorer: draw, score
/// each candidate, then the memoised refinement.
fn memoised<F: FnMut(&[f64]) -> f64, R: Rng>(
    mut score: F,
    dim: usize,
    opts: &OptimizeOptions,
    rng: &mut R,
) -> Vec<f64> {
    let candidates = draw_candidates(dim, opts, rng);
    let scores: Vec<f64> = candidates.iter().map(|p| score(p)).collect();
    refine(&candidates, &scores, score, opts)
}

/// A GP fitted on 40 random points over `dim` dimensions.
fn posterior(dim: usize, seed: u64) -> (GpModel<Matern52>, Vec<f64>) {
    let mut rng = rng_from_seed(seed);
    let x: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|p| p.iter().enumerate().map(|(i, v)| ((i + 2) as f64 * v).sin()).sum())
        .collect();
    let model = GpModel::fit(x, &y, Matern52::new(0.3, 1.0), 1e-4).expect("well-posed fit");
    (model, y)
}

/// The posterior scored as mean + 2·std — the shape of the scorer
/// `BoEngine` hands the search.
fn posterior_scorer(dim: usize, seed: u64) -> impl Fn(&[f64]) -> f64 {
    let (model, _) = posterior(dim, seed);
    move |p: &[f64]| {
        let (mu, var) = model.predict(p);
        mu + 2.0 * var.sqrt()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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
        let found = memoised(counted, dim, &opts, &mut rng_from_seed(seed));
        let memoised_calls = calls.replace(0);

        let counted = |p: &[f64]| {
            calls.set(calls.get() + 1);
            score(p)
        };
        let oracle = unmemoised(counted, dim, &opts, &mut rng_from_seed(seed));
        let oracle_calls = calls.get();

        assert_eq!(bits(&found), bits(&oracle), "dim {dim}: the chosen point moved");
        assert!(
            memoised_calls < oracle_calls,
            "dim {dim}: {memoised_calls} scores memoised vs {oracle_calls} without"
        );
    }
}

#[test]
fn batch_scored_draw_then_refine_matches_the_original_search() {
    for (dim, seed) in [(2usize, 4u64), (5, 5), (9, 6)] {
        let (model, y) = posterior(dim, seed);
        let best = y.iter().copied().fold(f64::INFINITY, f64::min);
        let opts = OptimizeOptions::default();
        for kind in ALL_ACQUISITIONS {
            let pointwise = |p: &[f64]| {
                let (mu, var) = model.predict(p);
                kind.score(mu, var.sqrt(), best, 0.01, 1.96)
            };
            let mut oracle_rng = rng_from_seed(seed);
            let oracle = unmemoised(pointwise, dim, &opts, &mut oracle_rng);

            let mut rng = rng_from_seed(seed);
            let candidates = draw_candidates(dim, &opts, &mut rng);
            let scores: Vec<f64> = model
                .predict_batch(&candidates)
                .into_iter()
                .map(|(mu, var)| kind.score(mu, var.sqrt(), best, 0.01, 1.96))
                .collect();
            let split = refine(&candidates, &scores, pointwise, &opts);

            let name = kind.name();
            assert_eq!(bits(&split), bits(&oracle), "dim {dim}, {name}: the point moved");
            assert_eq!(
                rng.gen::<u64>(),
                oracle_rng.gen::<u64>(),
                "dim {dim}: the draw consumed a different amount of randomness"
            );
        }
    }
}
