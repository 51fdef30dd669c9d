//! GP hot-path replay and NaN-robustness tests.
//!
//! A BO trajectory at a fixed seed is a pure function of the seed: the
//! same RNG stream, the same hyperfit arithmetic, the same suggestions.
//! The trajectories below are compared on raw `f64` bits, not with
//! tolerances, and three of them are pinned to recorded fingerprints.

use proptest::prelude::*;
use robotune_repro::bo::{BoEngine, BoOptions};
use robotune_repro::stats::rng_from_seed;

/// Runs a 30-round suggest/observe loop on a smooth synthetic objective
/// seeded with 20 LHS-ish random observations; returns the full
/// evaluation trajectory (suggested point + observed value per round).
fn trajectory(opts: BoOptions, seed: u64) -> Vec<(Vec<f64>, f64)> {
    const DIM: usize = 4;
    let objective = |x: &[f64]| -> f64 {
        x.iter()
            .enumerate()
            .map(|(i, v)| (v - 0.3 - 0.1 * i as f64).powi(2))
            .sum::<f64>()
            + (7.0 * x[0]).sin() * 0.05
    };
    let mut engine = BoEngine::new(DIM, opts);
    let mut rng = rng_from_seed(seed);
    use rand::Rng;
    for _ in 0..20 {
        let x: Vec<f64> = (0..DIM).map(|_| rng.gen::<f64>()).collect();
        let y = objective(&x);
        engine.observe(x, y).expect("finite observation");
    }
    let mut out = Vec::new();
    for _ in 0..30 {
        let x = engine.suggest(&mut rng);
        let y = objective(&x);
        engine.observe(x.clone(), y).expect("finite observation");
        out.push((x, y));
    }
    out
}

/// FNV-1a over the bits of a trajectory: every suggested coordinate,
/// then the observed value, round by round.
fn fingerprint(trajectory: &[(Vec<f64>, f64)]) -> u64 {
    let words = trajectory
        .iter()
        .flat_map(|(x, y)| x.iter().chain(std::iter::once(y)))
        .map(|v| v.to_bits());
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The fingerprints of `trajectory(BoOptions::default(), seed)` for seeds
/// 11, 12 and 13, recorded when the acquisition search began carrying
/// last round's nominees. A change to the hyperfit's arithmetic, its
/// start order, its RNG use or the acquisition search moves them.
const TRAJECTORY_PINS: [(u64, u64); 3] = [
    (11, 0xece9_ad97_4b16_8883),
    (12, 0xd211_8159_d0fd_e7e6),
    (13, 0x362b_1d8f_df42_3fce),
];

#[test]
fn default_trajectories_match_their_recorded_fingerprints() {
    for (seed, pin) in TRAJECTORY_PINS {
        let got = fingerprint(&trajectory(BoOptions::default(), seed));
        assert_eq!(got, pin, "seed {seed}: fingerprint {got:#018x} moved");
    }
}

#[test]
fn serial_hyperfit_replays_itself() {
    assert_eq!(
        trajectory(BoOptions::default(), 21),
        trajectory(BoOptions::default(), 21)
    );
}

proptest! {
    /// `percentile` must degrade (ignore NaN / return NaN), never panic,
    /// no matter where NaNs land in the input.
    #[test]
    fn stats_percentile_tolerates_nan(
        xs in proptest::collection::vec(
            prop_oneof![-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6, Just(f64::NAN)],
            1..120,
        ),
        q in 0.0f64..=100.0,
    ) {
        let p = robotune_repro::stats::percentile(&xs, q);
        let finite: Vec<f64> = xs.iter().copied().filter(|v| !v.is_nan()).collect();
        if finite.is_empty() {
            prop_assert!(p.is_nan());
        } else {
            let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    /// The P² streaming quantile and the exact small-sample path it uses
    /// below 5 observations must both survive NaN records.
    #[test]
    fn obs_p2_quantile_tolerates_nan(
        xs in proptest::collection::vec(
            prop_oneof![-1e3f64..1e3, -1e3f64..1e3, -1e3f64..1e3, -1e3f64..1e3, Just(f64::NAN)],
            1..60,
        ),
        p in 0.01f64..0.99,
    ) {
        let mut q = robotune_obs::P2Quantile::new(p);
        for &x in &xs {
            q.record(x);
        }
        let _ = q.quantile(); // must not panic
    }

    /// Histogram summaries (which sort recorded values internally) must
    /// survive NaN records too.
    #[test]
    fn obs_histogram_tolerates_nan(
        xs in proptest::collection::vec(
            prop_oneof![0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6, Just(f64::NAN)],
            1..60,
        ),
    ) {
        let mut h = robotune_obs::Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let _ = h.summary(); // must not panic
    }
}
