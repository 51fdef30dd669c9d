//! The acquisition search: `refine` on smooth objectives with known
//! optima; PI, EI and LCB under a fitted GP, differentiated through the
//! posterior mean and variance, against central differences of the
//! scores; and the degenerate posteriors (zero variance, flat targets)
//! on which the search must still return finite points inside the box.

use rand::Rng;
use robotune_bo::optimize::{draw_candidates, refine, NegatedAcquisition, OptimizeOptions};
use robotune_bo::{AcquisitionKind, ALL_ACQUISITIONS};
use robotune_gp::bfgs::Objective;
use robotune_gp::{GpModel, Matern52};
use robotune_stats::rng_from_seed;

/// A score to maximise and its gradient, negated for the minimiser.
struct Smooth<F>(F);

impl<F: Fn(&[f64], &mut [f64]) -> f64> Objective for Smooth<F> {
    type At = Vec<f64>;
    fn value(&self, x: &[f64]) -> Option<(f64, Vec<f64>)> {
        let mut g = vec![0.0; x.len()];
        let v = (self.0)(x, &mut g);
        Some((-v, g))
    }
    fn gradient(&self, at: Vec<f64>, g: &mut [f64]) {
        for (gi, a) in g.iter_mut().zip(at) {
            *gi = -a;
        }
    }
}

/// Maximises `score` over `[0, 1]^dim`: draw, score each, refine.
fn maximize_acquisition(
    score: impl Fn(&[f64], &mut [f64]) -> f64,
    dim: usize,
    opts: &OptimizeOptions,
    rng: &mut impl Rng,
) -> Vec<f64> {
    let candidates = draw_candidates(dim, opts, rng);
    let mut g = vec![0.0; dim];
    let scores: Vec<f64> = candidates.iter().map(|p| score(p, &mut g)).collect();
    refine(&candidates, &scores, &Smooth(score), opts)
}

#[test]
fn finds_an_interior_peak() {
    let mut rng = rng_from_seed(1);
    let target = [0.3, 0.7];
    let x = maximize_acquisition(
        |p, g| {
            g[0] = -2.0 * (p[0] - target[0]);
            g[1] = -2.0 * (p[1] - target[1]);
            -(p[0] - target[0]).powi(2) - (p[1] - target[1]).powi(2)
        },
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
        |p, g| {
            g.fill(1.0);
            p[0] + p[1]
        },
        2,
        &OptimizeOptions::default(),
        &mut rng,
    );
    assert_eq!(x, vec![1.0, 1.0], "corner not reached");
}

#[test]
fn multimodal_surface_finds_the_better_mode() {
    let mut rng = rng_from_seed(3);
    // Two Gaussian bumps; the one at 0.8 is taller.
    let f = |p: &[f64], g: &mut [f64]| {
        let a = (-((p[0] - 0.2) / 0.05).powi(2)).exp() * 0.8;
        let b = (-((p[0] - 0.8) / 0.05).powi(2)).exp();
        g[0] = -2.0 * (p[0] - 0.2) / 0.0025 * a - 2.0 * (p[0] - 0.8) / 0.0025 * b;
        a + b
    };
    let x = maximize_acquisition(f, 1, &OptimizeOptions::default(), &mut rng);
    assert!((x[0] - 0.8).abs() < 0.02, "x = {}", x[0]);
}

#[test]
fn works_in_higher_dimensions() {
    let mut rng = rng_from_seed(4);
    let x = maximize_acquisition(
        |p, g| {
            for (gi, &v) in g.iter_mut().zip(p) {
                *gi = -2.0 * (v - 0.5);
            }
            -p.iter().map(|&v| (v - 0.5).powi(2)).sum::<f64>()
        },
        8,
        &OptimizeOptions::default(),
        &mut rng,
    );
    for &v in &x {
        assert!((v - 0.5).abs() < 0.05, "coordinate {v}");
    }
}

#[test]
fn a_start_that_cannot_improve_returns_the_best_candidate() {
    // A flat score: every start stops where it began, and the ranking
    // (ties in candidate order) picks the first candidate.
    let candidates = vec![vec![0.2, 0.4], vec![0.6, 0.1]];
    let flat = Smooth(|_: &[f64], g: &mut [f64]| {
        g.fill(0.0);
        1.0
    });
    let x = refine(&candidates, &[1.0, 1.0], &flat, &OptimizeOptions::default());
    assert_eq!(x, candidates[0]);
}

/// The 16 training inputs of [`posterior`].
fn inputs() -> Vec<Vec<f64>> {
    (0..16)
        .map(|i| vec![(i as f64 * 0.37).fract(), (i as f64 * 0.61 + 0.1).fract()])
        .collect()
}

/// A GP on 16 runtime-scale points in 2-D (all at one value when
/// `flat`), and its incumbent.
fn posterior(flat: bool, noise: f64) -> (GpModel<Matern52>, f64) {
    let x = inputs();
    let y: Vec<f64> = x
        .iter()
        .map(|p| {
            if flat {
                50.0
            } else {
                100.0 + 30.0 * (4.0 * p[0]).sin() - 20.0 * p[1]
            }
        })
        .collect();
    let best = y.iter().copied().fold(f64::INFINITY, f64::min);
    (
        GpModel::fit(x, &y, Matern52::new(0.3, 1.2), noise).unwrap(),
        best,
    )
}

/// Points inside the box, on its faces, and on training input 3.
fn probes() -> Vec<Vec<f64>> {
    vec![
        vec![0.31, 0.52],
        vec![0.85, 0.2],
        vec![0.0, 0.45],
        vec![1.0, 1.0],
        inputs().swap_remove(3),
    ]
}

/// The acquisition's analytic gradient (of the score, not its
/// negation) at `q`.
fn score_gradient(acq: &NegatedAcquisition, q: &[f64]) -> Vec<f64> {
    let (_, at) = acq.value(q).unwrap();
    let mut g = vec![0.0; q.len()];
    acq.gradient(at, &mut g);
    g.iter().map(|v| -v).collect()
}

/// Fourth-order central differences of the score at `q`, step `h`.
fn score_differences(acq: &NegatedAcquisition, q: &[f64], h: f64) -> Vec<f64> {
    (0..q.len())
        .map(|d| {
            let f = |t: f64| {
                let mut p = q.to_vec();
                p[d] += t;
                let (mean, var) = acq.model.predict(&p);
                acq.score(mean, var)
            };
            (-f(2.0 * h) + 8.0 * f(h) - 8.0 * f(-h) + f(-2.0 * h)) / (12.0 * h)
        })
        .collect()
}

#[test]
fn acquisition_gradients_match_central_differences() {
    // LCB is smooth in (µ, σ): ‖analytic − fd‖∞ ≤ 1e-6·‖fd‖∞ (floor
    // 1e-3 for a vanishing gradient), as for the posterior itself. Its
    // step is small because σ = √σ² bends sharply on a training input.
    //
    // PI and EI go through `norm_cdf`, whose erf (A&S 7.1.26) is off
    // by up to 1.5e-7, so Φ by up to ε = 7.5e-8 and its slope is not
    // exactly φ. That error enters PI as is and EI times
    // d = f(x⁺) − µ − ξ; the four-point stencil (weights 1, 8, 8, 1
    // over 12h) amplifies an error bounded by ε to at most 1.5·ε/h.
    // So PI and EI are held to 1e-6·‖fd‖∞ plus 1.5·ε·c/h, with c = 1
    // for PI and c = max |d| over the stencil for EI, at h = 1e-3.
    const ERF_PHI_ERROR: f64 = 7.5e-8;
    let (model, best) = posterior(false, 1e-4);
    for kind in ALL_ACQUISITIONS {
        let acq = NegatedAcquisition {
            model: &model,
            kind,
            best,
            xi: 0.01,
            kappa: 1.96,
        };
        let h = if kind == AcquisitionKind::Lcb {
            1e-5
        } else {
            1e-3
        };
        for q in probes() {
            let g = score_gradient(&acq, &q);
            let fd = score_differences(&acq, &q, h);
            let scale = fd.iter().fold(1e-3f64, |m, v| m.max(v.abs()));
            let erf_error = match kind {
                AcquisitionKind::Lcb => 0.0,
                AcquisitionKind::Pi => 1.5 * ERF_PHI_ERROR / h,
                AcquisitionKind::Ei => {
                    let mut d_max = 0.0f64;
                    for d in 0..q.len() {
                        for t in [-2.0 * h, -h, h, 2.0 * h] {
                            let mut p = q.clone();
                            p[d] += t;
                            d_max = d_max.max((best - model.predict(&p).0 - acq.xi).abs());
                        }
                    }
                    1.5 * ERF_PHI_ERROR * d_max / h
                }
            };
            for (a, f) in g.iter().zip(&fd) {
                assert!(
                    (a - f).abs() <= 1e-6 * scale + erf_error,
                    "{} at {q:?}: analytic {g:?} vs differences {fd:?}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn zero_sigma_and_flat_targets_give_finite_in_box_points() {
    // Zero noise makes σ vanish (or clamp to 0) on the training
    // inputs; flat targets make every acquisition flat in µ.
    for (flat, noise) in [(false, 0.0), (true, 1e-4), (true, 0.0)] {
        let (model, best) = posterior(flat, noise);
        for kind in ALL_ACQUISITIONS {
            let acq = NegatedAcquisition {
                model: &model,
                kind,
                best,
                xi: 0.01,
                kappa: 1.96,
            };
            let mut candidates = probes();
            candidates.extend(inputs());
            for q in &candidates {
                assert!(score_gradient(&acq, q).iter().all(|v| v.is_finite()));
            }
            let scores: Vec<f64> = candidates
                .iter()
                .map(|q| {
                    let (mean, var) = model.predict(q);
                    acq.score(mean, var)
                })
                .collect();
            let x = refine(&candidates, &scores, &acq, &OptimizeOptions::default());
            assert!(
                x.iter().all(|v| (0.0..=1.0).contains(v)),
                "{}: {x:?} left the box",
                kind.name()
            );
        }
    }
}
