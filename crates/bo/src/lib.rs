//! Bayesian optimisation with a GP-Hedge acquisition portfolio.
//!
//! Implements the paper's BO engine (§3.4, Algorithm 1) as a reusable
//! ask/tell component over the unit hypercube:
//!
//! * [`acquisition`] — PI, EI and LCB in their minimisation forms
//!   (Eqs. 2–4, with ξ = 0.01 and κ = 1.96 defaults from §4);
//! * [`hedge`] — the adaptive portfolio of Hoffman et al. 2011 that picks
//!   one acquisition per iteration with probability proportional to its
//!   accumulated gains;
//! * [`optimize`] — acquisition maximisation via random multi-start plus
//!   pattern-search refinement (the role L-BFGS-B plays in the original);
//! * [`engine`] — [`engine::BoEngine`], the ask/tell loop: fit GP → score
//!   one shared candidate draw → refine one nominee per acquisition →
//!   Hedge-select → evaluate → update gains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod acquisition;
pub mod engine;
pub mod error;
pub mod hedge;
pub mod optimize;

pub use acquisition::{AcquisitionKind, ALL_ACQUISITIONS};
pub use engine::{BoEngine, BoOptions};
pub use error::EngineError;
pub use hedge::Hedge;
