//! Trajectory pins: the raw `f64` bits of two fixed-seed tuning runs,
//! recorded once and committed.
//!
//! The other bit-identity tests compare two paths of the *same build*
//! against each other (`tests/gp_hotpath.rs`: optimised vs
//! `FitStrategy::Reference`; the service tests: served vs in-process).
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
        0x4051e343db4ac111, 0x40583680db1016fa, 0x405547a69bf0cf4e,
        0x40265bdd68774c08, 0x4056b04e05b36fa9, 0x405b57f568d00246,
        0x4060ecfbce83f35b, 0x405769f220900553, 0x40548ecfaa329fc8,
        0x405cee30b99c0be5, 0x4053af82a20a6fed, 0x4055d3b8c62c339d,
    ],
    &[
        0x405d4a0e2cb3b7a9, 0x405b10ef1ede77c3, 0x4059a13abfcb2b09,
        0x405e7fb78db24705, 0x40632a05c8ce7f22, 0x40634dc5eb4d911d,
        0x40632c9f5d926d0c, 0x4061064ea99ab440, 0x4078349fd456e1d2,
        0x402824ed0fa21562, 0x4063f7076dcddc7b, 0x4060149b778b204f,
        0x406441be4a26545c, 0x40798975fe680e60, 0x4077b99be8a26cfa,
        0x4062d0e25a360089, 0x4062f1f647fc6c80, 0x4063579be4c765d1,
        0x4062f1b624d6dc27, 0x405c55749a45bd4e, 0x4062865000c49c36,
        0x4060a4acd31e453c, 0x4062855cd6a558d5, 0x4060eb838c3a47d7,
        0x406270febc1558a6, 0x406421efb803945c, 0x405e097945d469e7,
        0x405d4387e9d090d8, 0x4063106983954802, 0x4062ad3a1b1bbb04,
    ],
];
/// FNV-1a over the cold session's ranked group importances (member
/// indices and importance bits, in rank order).
const TS_IMPORTANCE_FNV: u64 = 0x30df197c42db86a0;
/// FNV-1a over every evaluated unit-cube point of both sessions.
const TS_POINTS_FNV: u64 = 0xc2fd7e4db3c3196c;

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
    0x3fda2033d2538541, 0x3fa50098b3981504, 0x3f9a5cf4b4c99a22,
    0x3f9c06a343cc2aa7, 0x3f9a7681171e71e4, 0x3fd0249838d90e26,
    0x3fda4116144c4758, 0x3f99fd7ea46251d0, 0x3fe388164a9df732,
    0x3f97ea99d04ec131, 0x3ff17c4f94387c68, 0x3f9637bf61f14078,
    0x3f966cd1f375d149, 0x3f96c64f06cec595, 0x3f9646b17cf42bba,
    0x3f963b1b8c59a86e, 0x3f9613d7655fd991, 0x3f967deee364bff2,
    0x3f9617f9b9597a30, 0x3f96714026fcee35, 0x3f9666075a936924,
    0x3f9619d5ae7420db, 0x3f966c5af57786a5, 0x3f961b69bb97756a,
    0x3f967d216d4b9626, 0x3f9667e3a0209ba4, 0x3f9616ef63214818,
    0x3f96817c1084c4f5, 0x3f961a21b00f805a, 0x3f9670cac28275a4,
];
/// FNV-1a over every suggested point.
const BO_POINTS_FNV: u64 = 0x1a2cd26ce47ce04f;
/// FNV-1a over the final model's posterior (mean, variance) bits on a
/// fixed grid. Trajectories only move when a changed bit flips a
/// comparison; this catches the changed bit itself.
const BO_POSTERIOR_FNV: u64 = 0x62ffbb7ccea1c5b2;

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
