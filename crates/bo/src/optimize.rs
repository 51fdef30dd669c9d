//! Acquisition maximisation over the unit hypercube.
//!
//! The original implementation hands this to L-BFGS-B; we use the equally
//! standard derivative-free recipe: score a batch of random candidates,
//! then refine the best few with a coordinate pattern search (step halving
//! with box clamping). At BO's dimensionalities (≤ ~10 after parameter
//! selection) this finds acquisition optima reliably and cheaply.

use rand::Rng;

/// Options for [`maximize_acquisition`].
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Random candidates scored in the global phase.
    pub candidates: usize,
    /// How many of the top candidates get local refinement.
    pub refine_top: usize,
    /// Initial pattern-search step (unit-cube units).
    pub initial_step: f64,
    /// Step halvings before the local search stops.
    pub halvings: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            candidates: 256,
            refine_top: 3,
            initial_step: 0.1,
            halvings: 6,
        }
    }
}

/// A scorer the maximiser can query one point at a time (local
/// refinement) or a whole candidate batch at once (global phase).
trait AcqScorer {
    fn score_batch(&mut self, batch: &[Vec<f64>]) -> Vec<f64>;
    fn score_one(&mut self, p: &[f64]) -> f64;
}

struct Pointwise<F>(F);

impl<F: FnMut(&[f64]) -> f64> AcqScorer for Pointwise<F> {
    fn score_batch(&mut self, batch: &[Vec<f64>]) -> Vec<f64> {
        batch.iter().map(|p| (self.0)(p)).collect()
    }

    fn score_one(&mut self, p: &[f64]) -> f64 {
        (self.0)(p)
    }
}

struct Batched<B, F> {
    batch: B,
    one: F,
}

impl<B, F> AcqScorer for Batched<B, F>
where
    B: FnMut(&[Vec<f64>]) -> Vec<f64>,
    F: FnMut(&[f64]) -> f64,
{
    fn score_batch(&mut self, batch: &[Vec<f64>]) -> Vec<f64> {
        (self.batch)(batch)
    }

    fn score_one(&mut self, p: &[f64]) -> f64 {
        (self.one)(p)
    }
}

/// Maximises `score` over `[0, 1]^dim`; returns the best point found.
///
/// # Panics
///
/// Panics if `dim == 0` or the candidate budget is zero.
pub fn maximize_acquisition<F, R>(
    score: F,
    dim: usize,
    opts: &OptimizeOptions,
    rng: &mut R,
) -> Vec<f64>
where
    F: FnMut(&[f64]) -> f64,
    R: Rng + ?Sized,
{
    maximize_with(&mut Pointwise(score), dim, opts, rng)
}

/// Like [`maximize_acquisition`], but the global phase's candidate batch
/// is scored through `batch_score` in one call — the hook for GP
/// [`predict_batch`](robotune_gp::GpModel::predict_batch)-backed scoring.
/// `score` remains the pointwise scorer the local pattern search uses.
///
/// When `batch_score` returns, element-for-element, exactly what `score`
/// would return on each candidate, the result is bit-identical to
/// [`maximize_acquisition`] with the same RNG: candidates are drawn in the
/// same order and scoring consumes no randomness.
///
/// # Panics
///
/// Panics if `dim == 0`, the candidate budget is zero, or `batch_score`
/// returns a vector of the wrong length.
pub fn maximize_acquisition_batch<B, F, R>(
    batch_score: B,
    score: F,
    dim: usize,
    opts: &OptimizeOptions,
    rng: &mut R,
) -> Vec<f64>
where
    B: FnMut(&[Vec<f64>]) -> Vec<f64>,
    F: FnMut(&[f64]) -> f64,
    R: Rng + ?Sized,
{
    maximize_with(
        &mut Batched {
            batch: batch_score,
            one: score,
        },
        dim,
        opts,
        rng,
    )
}

/// Pattern-search scores memoised by the exact coordinate bits, stored
/// flat (`dim` words per point). The scorer is a pure function of the
/// point, so a hit returns the very value a re-score would compute;
/// distinct bit patterns (even `0.0` and `-0.0`) are scored separately.
struct Seen {
    dim: usize,
    bits: Vec<u64>,
    scores: Vec<f64>,
}

impl Seen {
    fn new(dim: usize) -> Self {
        Seen {
            dim,
            bits: Vec::new(),
            scores: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.bits.clear();
        self.scores.clear();
    }

    fn score(&mut self, x: &[f64], score: impl FnOnce(&[f64]) -> f64) -> f64 {
        let hit = self
            .bits
            .chunks_exact(self.dim)
            .rposition(|p| p.iter().zip(x).all(|(&b, v)| b == v.to_bits()));
        if let Some(i) = hit {
            return self.scores[i];
        }
        let f = score(x);
        self.bits.extend(x.iter().map(|v| v.to_bits()));
        self.scores.push(f);
        f
    }
}

fn maximize_with<S, R>(scorer: &mut S, dim: usize, opts: &OptimizeOptions, rng: &mut R) -> Vec<f64>
where
    S: AcqScorer + ?Sized,
    R: Rng + ?Sized,
{
    assert!(dim > 0, "dimension must be positive");
    assert!(opts.candidates > 0, "need at least one candidate");

    // Global phase: random scatter. All candidates are drawn before any
    // scoring — the same RNG stream as the historical draw-score-draw
    // loop, since scoring never consumed randomness.
    let cands: Vec<Vec<f64>> = (0..opts.candidates)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let scores = scorer.score_batch(&cands);
    assert_eq!(scores.len(), cands.len(), "batch scorer returned wrong length");
    let mut scored: Vec<(f64, Vec<f64>)> = scores.into_iter().zip(cands).collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    scored.truncate(opts.refine_top.max(1));

    // Local phase: coordinate pattern search from each survivor. The
    // memo is reset at every step size, which keeps it small enough for a
    // linear scan and still answers 19% of the pointwise scores on the
    // paper protocol. A memo spanning the whole phase answered 26%, but
    // holding every point of the search raised the served benchmark's
    // median peak RSS from 12.4 to 13.5 MiB, with no measurable saving.
    let mut seen = Seen::new(dim);
    let mut best = scored[0].clone();
    for (mut fx, mut x) in scored {
        let mut step = opts.initial_step;
        for _ in 0..=opts.halvings {
            seen.clear();
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
                        let f = seen.score(&x, |p| scorer.score_one(p));
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

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_stats::rng_from_seed;

    #[test]
    fn finds_an_interior_peak() {
        let mut rng = rng_from_seed(1);
        let target = [0.3, 0.7];
        let x = maximize_acquisition(
            |p| -(p[0] - target[0]).powi(2) - (p[1] - target[1]).powi(2),
            2,
            &OptimizeOptions::default(),
            &mut rng,
        );
        assert!((x[0] - 0.3).abs() < 0.01, "x0 = {}", x[0]);
        assert!((x[1] - 0.7).abs() < 0.01, "x1 = {}", x[1]);
    }

    #[test]
    fn respects_the_box_on_boundary_peaks() {
        let mut rng = rng_from_seed(2);
        // Optimum outside the box: the maximiser should pin to the corner.
        let x = maximize_acquisition(
            |p| p[0] + p[1],
            2,
            &OptimizeOptions::default(),
            &mut rng,
        );
        assert!(x[0] > 0.999 && x[1] > 0.999, "corner not reached: {x:?}");
        assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn multimodal_surface_finds_the_better_mode() {
        let mut rng = rng_from_seed(3);
        // Two Gaussian bumps; the one at 0.8 is taller.
        let f = |p: &[f64]| {
            let a = (-((p[0] - 0.2) / 0.05).powi(2)).exp() * 0.8;
            let b = (-((p[0] - 0.8) / 0.05).powi(2)).exp();
            a + b
        };
        let x = maximize_acquisition(f, 1, &OptimizeOptions::default(), &mut rng);
        assert!((x[0] - 0.8).abs() < 0.02, "x = {}", x[0]);
    }

    #[test]
    fn batch_scoring_is_bit_identical_to_pointwise() {
        let f = |p: &[f64]| {
            -(p[0] - 0.37).powi(2) - (p[1] - 0.61).powi(2) + (p[0] * 9.0).sin() * 0.01
        };
        let mut rng_a = rng_from_seed(7);
        let pointwise = maximize_acquisition(f, 2, &OptimizeOptions::default(), &mut rng_a);
        let mut rng_b = rng_from_seed(7);
        let batched = maximize_acquisition_batch(
            |batch| batch.iter().map(|p| f(p)).collect(),
            f,
            2,
            &OptimizeOptions::default(),
            &mut rng_b,
        );
        assert_eq!(pointwise, batched);
    }

    #[test]
    fn works_in_higher_dimensions() {
        let mut rng = rng_from_seed(4);
        let x = maximize_acquisition(
            |p| -p.iter().map(|&v| (v - 0.5).powi(2)).sum::<f64>(),
            8,
            &OptimizeOptions::default(),
            &mut rng,
        );
        for &v in &x {
            assert!((v - 0.5).abs() < 0.05, "coordinate {v}");
        }
    }
}
