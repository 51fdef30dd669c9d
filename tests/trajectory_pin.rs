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
        0x4051e343db4ac111, 0x40583680db1016fa, 0x405392b1af0382ec,
        0x40265bdd68774c08, 0x4056b05142265851, 0x4054260ae5c3b450,
        0x40572791583c12e7, 0x405e9d0da5e9192f, 0x405649401242a461,
        0x405f9931294775c6, 0x405cb918f15adb49, 0x405d0242ea5a73a7,
    ],
    &[
        0x405d4a0e2cb3b7a9, 0x405b0f99dbe1fe7f, 0x405a56596ff6cb37,
        0x405f9cb884e3165f, 0x4062dec8cacff909, 0x4062d69123d460bf,
        0x4076d68a82988d43, 0x4076d68a82988d43, 0x4063c54259279712,
        0x405cabd982907964, 0x4061ab7fdb08c829, 0x406391cede9f8ea4,
        0x40647fb9889faaf9, 0x406369d2461eb737, 0x4065278613d791e4,
        0x40639a8e108d6bb6, 0x4028b8fdb2d67dde, 0x40626d72e91fed7e,
        0x4064180df74ec1de, 0x405f83e7d907836c, 0x405a4bee4b2e73f7,
        0x405d71812c725b0f, 0x40276ccfaf901340, 0x405efa1738ef429b,
        0x4061f7b838371c76, 0x40650ab71f05fac7, 0x405e092eb80df901,
        0x406422b1f794f5f7, 0x405cd7608c92cb76, 0x405a84cfbc4d2995,
    ],
];
/// FNV-1a over the cold session's ranked group importances (member
/// indices and importance bits, in rank order).
const TS_IMPORTANCE_FNV: u64 = 0x30df197c42db86a0;
/// FNV-1a over every evaluated unit-cube point of both sessions.
const TS_POINTS_FNV: u64 = 0xf9497e659c08bf9e;

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
    0x3fda279a2b865940, 0x3fa5012af31a2116, 0x3f9a36546673aaea,
    0x3f9d41528d895ade, 0x3fd48008ae68f73c, 0x3f98732d84f7ab2a,
    0x3fda4023489c5b83, 0x3f9e29c54c531d89, 0x3fdb3425d3ac0e5d,
    0x3f97fab47c8578e2, 0x3f9628ecc851b858, 0x3f961075d6cdb982,
    0x3f962089ce65bcb7, 0x3f9619451044acfe, 0x3f965d7ccf770735,
    0x3f9665dcd714557e, 0x3f962360623035a0, 0x3f9670bcb8e044ee,
    0x3f9661183c76cd14, 0x3f962610122f0d7c, 0x3f966d4e3cd07950,
    0x3f965ce0fc4ba594, 0x3f9678ccf60da1aa, 0x3f96169c13fcf6d6,
    0x3f9666c63d353b76, 0x3f964d53f0562ba8, 0x3f9654423696c787,
    0x3f961db556bfde44, 0x3f96784d3a8c3253, 0x3f964e70c616a900,
];
/// FNV-1a over every suggested point.
const BO_POINTS_FNV: u64 = 0xeb1660f855e1c2a3;
/// FNV-1a over the final model's posterior (mean, variance) bits on a
/// fixed grid. Trajectories only move when a changed bit flips a
/// comparison; this catches the changed bit itself.
const BO_POSTERIOR_FNV: u64 = 0x2cbb32daaedc70c7;

#[test]
fn bo_engine_trajectory_is_pinned() {
    use rand::Rng;
    const DIM: usize = 4;
    let objective = |x: &[f64]| -> f64 {
        x.iter()
            .enumerate()
            .map(|(i, v)| (v - 0.3 - 0.1 * i as f64).powi(2))
            .sum::<f64>()
            + (7.0 * x[0]).sin() * 0.05
    };
    let mut engine = BoEngine::new(DIM, BoOptions::default());
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
    assert_eq!(ys, BO_Y_BITS, "observed values moved; observed {}", hex_list(&ys));
    let h = fnv(points);
    assert_eq!(h, BO_POINTS_FNV, "suggested points moved; observed 0x{h:016x}");

    engine.refit(&mut rng);
    let grid = (0..64).map(|i| {
        (0..DIM)
            .map(|d| ((i * (d + 3)) % 17) as f64 / 16.0)
            .collect::<Vec<_>>()
    });
    let h = fnv(grid.flat_map(|q| {
        let (mean, var) = engine.posterior(&q).expect("fitted after refit");
        [mean.to_bits(), var.to_bits()]
    }));
    assert_eq!(h, BO_POSTERIOR_FNV, "posterior moved; observed 0x{h:016x}");
}
