//! Experiment machinery for regenerating the paper's tables and figures.
//!
//! The `experiments` binary (one subcommand per table/figure) drives the
//! helpers here: [`runner`] executes tuning sessions over the Spark
//! simulator with deterministic seeding and thread-level parallelism;
//! [`report`] renders markdown tables and JSON series into `results/`;
//! [`campaign`] runs calibrated perf campaigns and maintains the
//! versioned `BENCH_*.json` trajectory manifests of the series the
//! repository benchmark (`perfbench/`) does not measure; [`serve`]
//! boots the tuning daemon and [`loadgen`] drives it over real TCP,
//! every tenant multiplexed onto one client thread (10k+ tenants);
//! [`doctor`] runs rule-based tuner-health detectors over the daemon's
//! `diagnose`/`health` payloads (`experiments doctor`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod doctor;
pub mod exp;
pub mod introspect;
pub mod loadgen;
pub mod report;
pub mod runner;
pub mod serve;
pub mod storecmd;

pub use campaign::{
    check_failed, check_manifests, run_campaign, validate_manifest, CampaignConfig, CheckOptions,
    Manifest,
};
pub use report::{geo_mean, write_results};
pub use runner::{
    fault_seed_for, par_map, run_baseline, run_baseline_with_faults, run_robotune_sequence,
    run_robotune_sequence_with_faults, seed_for, SessionResult, TunerKind,
};
