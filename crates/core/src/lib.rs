//! # ROBOTune
//!
//! A Rust reproduction of **ROBOTune: High-Dimensional Configuration
//! Tuning for Cluster-Based Data Analytics** (Khan & Yu, ICPP 2021).
//!
//! ROBOTune tunes a high-dimensional analytics configuration space (44
//! Spark parameters in the paper) under a tight evaluation budget by
//! combining three components (paper Fig. 1):
//!
//! 1. **Memoized Sampling** ([`memo`]) — Latin Hypercube Sampling plus a
//!    parameter-selection cache and a configuration-memoization buffer
//!    that reuse results across tuning sessions of the same workload;
//! 2. **Parameter Selection** ([`select`]) — a Random-Forests model over
//!    100 generic LHS samples ranked by grouped Mean-Decrease-in-Accuracy
//!    importance, keeping only parameters whose permutation drops the
//!    out-of-bag R² by ≥ 0.05;
//! 3. **BO Engine** ([`engine`]) — Gaussian-process Bayesian optimisation
//!    with a GP-Hedge portfolio of PI/EI/LCB acquisitions and
//!    median-multiple early stopping of bad configurations.
//!
//! [`stepper::RoboTuneStepper`] runs the three as one resumable ask/tell
//! state machine. The top-level entry point is [`tuner::RoboTune`], whose
//! `tune_workload` drives a stepper against an objective:
//!
//! ```no_run
//! use robotune::{RoboTune, RoboTuneOptions};
//! use robotune_space::spark::spark_space;
//! use robotune_sparksim::{Dataset, SparkJob, Workload};
//! use robotune_stats::rng_from_seed;
//! use std::sync::Arc;
//!
//! let space = Arc::new(spark_space());
//! let mut job = SparkJob::new((*space).clone(), Workload::PageRank, Dataset::D1, 7);
//! let mut tuner = RoboTune::new(RoboTuneOptions::default());
//! let mut rng = rng_from_seed(42);
//! let outcome = tuner.tune_workload(&space, "pagerank", &mut job, 100, &mut rng);
//! println!("best: {:?}s", outcome.session.best_time());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod encoder;
pub mod engine;
pub mod memo;
pub mod parser;
pub mod select;
pub mod stepper;
pub mod tuner;

pub use encoder::encode_to_conf;
pub use engine::{BoLoop, RoboTuneEngine, RoboTuneEngineOptions};
pub use memo::{
    memo_workloads, resolve_selection, shard_of, workload_fingerprint, ConcurrentMemoStore,
    ConfigMemoBuffer, InMemoryMemoStore, MemoizedSampler, ParameterSelectionCache, ShardStatus,
    SharedMemoStore, StoreStatus,
};
pub use parser::{parse_conf, ParseError};
pub use select::{ParameterSelector, SelectionResult};
pub use stepper::{RoboTuneStepper, Step};
pub use tuner::{RoboTune, RoboTuneOptions, RoboTuneOutcome};
