//! Trajectory pins: the raw `f64` bits of two fixed-seed tuning runs,
//! recorded once and committed.
//!
//! The other bit-identity tests compare two paths of the *same build*
//! against each other (`tests/gp_hotpath.rs`: parallel vs serial
//! hyperfit; the service tests: served vs in-process).
//! Both sides of those comparisons call the same `Cholesky::factor`, the
//! same Matérn evaluation and the same forest walk, so a rewrite of one of
//! those kernels that moved every bit would still pass them. These pins
//! compare against constants instead: a change that alters one bit of a
//! GP posterior, an importance or a trajectory fails here.
//!
//! On a mismatch the assertion prints the observed values as Rust
//! literals. Update the constants only for a change that is *meant* to
//! move trajectories, and say so in its description.

use std::sync::Arc;

use robotune::{RoboTune, RoboTuneOptions};
use robotune_repro::bo::{BoEngine, BoOptions};
use robotune_space::spark::spark_space;
use robotune_sparksim::{Dataset, SparkJob, Workload};
use robotune_stats::rng_from_seed;

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hex_list(bits: &[u64]) -> String {
    let items: Vec<String> = bits.iter().map(|b| format!("0x{b:016x}")).collect();
    format!("[{}]", items.join(", "))
}

/// TeraSort, cold on D1 (Random-Forests selection) then warm on D2
/// (selection-cache hit plus memoized configurations), one framework
/// instance, `RoboTuneOptions::fast()`, budget 30 per session.
const TS_SEED: u64 = 6;
const TS_BUDGET: usize = 30;
const TS_SELECTED: [&[usize]; 2] = [&[0, 1, 2], &[0, 1, 2]];
const TS_TIME_BITS: [&[u64]; 2] = [
    &[
        0x40601df167dd2c9f, 0x4063e059072369af, 0x405c90b56a0cdf60,
        0x406fdacbb255066d, 0x405b576faf783671, 0x40593279b6c7ab7d,
        0x406a9faa5620ad56, 0x405c8a2741cec83c, 0x4058a0fe0b9c733b,
        0x405d12a19b92fc76, 0x4059de7e8537cd8f, 0x40619cd5b35d1b66,
        0x4056b9f91cb7d5e5, 0x4059b449311965e3, 0x405c979a5877457c,
        0x4057307619cf6379, 0x40708228f8c2664b, 0x40662a054f419459,
        0x4051e343db4ac111, 0x40583680db1016fa, 0x405392b8642a29c9,
        0x40265bdd68774c08, 0x405b8ac56991b8d9, 0x4054bc74049afa22,
        0x4055ddf24ebae7f4, 0x405dbb9abed64d80, 0x4060563254f3de56,
        0x405f05c9845cb96a, 0x4059e7eadacc028b, 0x4055d3be063008cd,
    ],
    &[
        0x405d4a0e2cb3b7a9, 0x405b0fa388e1c405, 0x405b2395b926fed8,
        0x405bf553fbea3657, 0x4062dec8cacff909, 0x4062d69123d460bf,
        0x407577c4cf3b3940, 0x407577c4cf3b3940, 0x4063c54259279712,
        0x405cabd982907964, 0x4061ab7fdb08c829, 0x406391cede9f8ea4,
        0x40647fb9889faaf9, 0x406369d2461eb737, 0x4065278613d791e4,
        0x40639a8e108d6bb6, 0x4028b8fdb2d67dde, 0x40626d72e91fed7e,
        0x4064180df74ec1de, 0x405f83e7d907836c, 0x4025b82c95675726,
        0x406516c6c1c2687c, 0x4063f9aff8b445b8, 0x4064b901198ed8b1,
        0x405dc67b2a68c65f, 0x405e4636f0a1eeea, 0x4065277a827dab1d,
        0x406203fc240f30d4, 0x405cd73b65cfcc4c, 0x405c163cac7a271a,
    ],
];
/// FNV-1a over the cold session's ranked group importances (member
/// indices and importance bits, in rank order).
const TS_IMPORTANCE_FNV: u64 = 0x30df197c42db86a0;
/// FNV-1a over every evaluated unit-cube point of both sessions.
const TS_POINTS_FNV: u64 = 0xd6ef435a2290a5c9;

#[test]
fn robotune_cold_then_warm_session_is_pinned() {
    let space = Arc::new(spark_space());
    let mut tuner = RoboTune::new(RoboTuneOptions::fast());
    let mut rng = rng_from_seed(TS_SEED);
    let mut points = Vec::new();
    for (s, d) in [Dataset::D1, Dataset::D2].into_iter().enumerate() {
        let mut job = SparkJob::new((*space).clone(), Workload::TeraSort, d, TS_SEED + s as u64);
        let out = tuner.tune_workload(&space, "ts", &mut job, TS_BUDGET, &mut rng);
        if let Some(sel) = &out.selection {
            let h = fnv(sel.importances.iter().flat_map(|g| {
                g.members
                    .iter()
                    .map(|&m| m as u64)
                    .chain([g.importance.to_bits()])
            }));
            assert_eq!(h, TS_IMPORTANCE_FNV, "importances moved; observed 0x{h:016x}");
        }
        assert_eq!(
            out.selected, TS_SELECTED[s],
            "{d:?}: selected parameters moved: {:?}",
            out.selected
        );
        let times: Vec<u64> = out.session.times().iter().map(|t| t.to_bits()).collect();
        assert_eq!(
            times,
            TS_TIME_BITS[s],
            "{d:?}: session times moved; observed {}",
            hex_list(&times)
        );
        points.extend(
            out.session
                .records
                .iter()
                .flat_map(|r| r.point.iter().map(|x| x.to_bits())),
        );
    }
    let h = fnv(points);
    assert_eq!(h, TS_POINTS_FNV, "evaluated points moved; observed 0x{h:016x}");
}

/// A 30-round `BoEngine` suggest/observe loop with default options on a
/// smooth 4-D objective, after 20 random observations.
const BO_SEED: u64 = 11;
const BO_Y_BITS: &[u64] = &[
    0x3fda21e9bf4920cc, 0x3f9ebdb15565bc48, 0x3fcfc0264277525f,
    0x3fa630a79e246cf9, 0x3fa1268abd04742c, 0x3f9624e73fbfd9e2,
    0x3fa2df09c8a56a88, 0x3fd55901e94b66ed, 0x3fa5688b5d236dd9,
    0x3fa5ec81833b79bd, 0x3fda4e8b39bfa4d9, 0x3f962b589e328517,
    0x3f96f5f787a0aa88, 0x3f96190727bb03c3, 0x3f9664b67aed235e,
    0x3f9683a1839921cc, 0x3f962c295dab075a, 0x3f969be1beb3f46c,
    0x3f962b0d28ee90e0, 0x3f96334ca7087156, 0x3f96950dcd037f13,
    0x3f966854b542c410, 0x3f962b41754cbcc3, 0x3f962fb1c12f8496,
    0x3f9676c08c40de56, 0x3f9662e2b255ab27, 0x3f962f32866f1c04,
    0x3f962d42d937ec6e, 0x3f9660f888b4f4c1, 0x3f965d10daabfbe0,
];
/// FNV-1a over every suggested point.
const BO_POINTS_FNV: u64 = 0x71b8f8fb679592bf;
/// FNV-1a over the final model's posterior (mean, variance) bits on a
/// fixed grid. Trajectories only move when a changed bit flips a
/// comparison; this catches the changed bit itself.
const BO_POSTERIOR_FNV: u64 = 0x796d20b7a166c159;

/// The pinned loop under `opts`: the suggested points and the observed
/// values' bits, and the engine after it.
fn bo_engine_run(opts: BoOptions) -> (Vec<u64>, Vec<u64>, BoEngine, rand::rngs::StdRng) {
    use rand::Rng;
    const DIM: usize = 4;
    let objective = |x: &[f64]| -> f64 {
        x.iter()
            .enumerate()
            .map(|(i, v)| (v - 0.3 - 0.1 * i as f64).powi(2))
            .sum::<f64>()
            + (7.0 * x[0]).sin() * 0.05
    };
    let mut engine = BoEngine::new(DIM, opts);
    let mut rng = rng_from_seed(BO_SEED);
    for _ in 0..20 {
        let x: Vec<f64> = (0..DIM).map(|_| rng.gen::<f64>()).collect();
        let y = objective(&x);
        engine.observe(x, y).expect("finite observation");
    }
    let mut ys = Vec::new();
    let mut points = Vec::new();
    for _ in 0..30 {
        let x = engine.suggest(&mut rng);
        let y = objective(&x);
        points.extend(x.iter().map(|v| v.to_bits()));
        ys.push(y.to_bits());
        engine.observe(x, y).expect("finite observation");
    }
    (points, ys, engine, rng)
}

#[test]
fn bo_engine_trajectory_is_pinned() {
    let (points, ys, mut engine, mut rng) = bo_engine_run(BoOptions::default());
    assert_eq!(ys, BO_Y_BITS, "observed values moved; observed {}", hex_list(&ys));
    let h = fnv(points);
    assert_eq!(h, BO_POINTS_FNV, "suggested points moved; observed 0x{h:016x}");

    engine.refit(&mut rng);
    let grid = (0..64).map(|i| {
        (0..4)
            .map(|d| ((i * (d + 3)) % 17) as f64 / 16.0)
            .collect::<Vec<_>>()
    });
    let h = fnv(grid.flat_map(|q| {
        let (mean, var) = engine.posterior(&q).expect("fitted after refit");
        [mean.to_bits(), var.to_bits()]
    }));
    assert_eq!(h, BO_POSTERIOR_FNV, "posterior moved; observed 0x{h:016x}");
}

/// The negative control for the pin above: a different hyperfit (one
/// more random restart) must move the suggested points, or the pinned
/// trajectory would not be exercising the fitted hyperparameters.
#[test]
fn bo_engine_trajectory_moves_with_the_hyperfit() {
    let mut opts = BoOptions::default();
    opts.hyper.restarts += 1;
    let (points, _, _, _) = bo_engine_run(opts);
    let h = fnv(points);
    assert_ne!(h, BO_POINTS_FNV, "the trajectory ignored a changed hyperfit");
}
