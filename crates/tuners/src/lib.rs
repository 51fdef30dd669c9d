//! Tuner abstractions and the paper's baseline tuners.
//!
//! Everything a configuration tuner needs, independent of the system being
//! tuned:
//!
//! * [`objective`] — the [`objective::Objective`] trait: evaluate a
//!   [`robotune_space::Configuration`] under a time cap and report what
//!   happened (the Spark simulator implements it; so can closures in
//!   tests);
//! * [`fidelity`] — [`fidelity::Fidelity`]: the fraction of the target
//!   dataset an evaluation processes, the axis multi-fidelity tuners
//!   (crates/mf) schedule over; single-fidelity tuners always run at
//!   [`fidelity::Fidelity::FULL`];
//! * [`session`] — [`session::TuningSession`]: the complete evaluation
//!   trace of one tuning run, with the derived metrics every experiment in
//!   the paper reports (best configuration, search cost, best-so-far
//!   curves, iterations-to-within-x%);
//! * [`threshold`] — the stop-threshold policies of §5.1 (static cap for
//!   Gunther/RS; median-multiple for ROBOTune; BestConfig's runtime-
//!   modified variant);
//! * [`tuner`] — the [`tuner::Tuner`] trait binding it together;
//! * [`random`] — Random Search (Bergstra & Bengio 2012);
//! * [`bestconfig`] — BestConfig's divide-&-diverge sampling + recursive
//!   bound-and-search (Zhu et al., SoCC '17);
//! * [`gunther`] — Gunther's genetic algorithm with aggressive selection
//!   and mutation (Liao et al., Euro-Par '13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bestconfig;
pub mod fidelity;
pub mod gunther;
pub mod objective;
pub mod random;
pub mod retry;
pub mod session;
pub mod threshold;
pub mod tuner;

pub use bestconfig::BestConfig;
pub use fidelity::{Fidelity, FidelityError};
pub use gunther::Gunther;
pub use objective::{Evaluation, FnObjective, Objective};
pub use random::RandomSearch;
pub use retry::{evaluate_with_retry, RetryPolicy, RetryState};
pub use session::{EvalRecord, TuningSession};
pub use threshold::ThresholdPolicy;
pub use tuner::Tuner;
