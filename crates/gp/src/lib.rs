//! Gaussian-process regression for the ROBOTune BO engine.
//!
//! The paper's surrogate (§3.4, §4) is a GP with a **Matérn 5/2 plus white
//! noise** covariance — "preferred to model practical functions" — over
//! observations assumed i.i.d. Gaussian. This crate provides:
//!
//! * [`kernel`] — the Matérn 5/2 kernel (the white noise is the model's
//!   `noise` term);
//! * [`model`] — [`model::GpModel`]: Cholesky-based posterior mean/variance
//!   and the log marginal likelihood, with automatic jitter escalation;
//! * [`hyper`] — maximum-likelihood hyperparameter fitting by multi-start
//!   bounded quasi-Newton on log-parameters with the analytic likelihood
//!   gradient (the paper stack's L-BFGS-B restarts), run serially on the
//!   caller's thread;
//! * [`prepared`] — the training-set distance cache shared across all
//!   hyperparameter candidates of one fit, and the likelihood with its
//!   gradient.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod hyper;
pub mod kernel;
pub mod model;
pub mod prepared;

pub use error::GpError;
pub use hyper::{fit_gp, HyperFitOptions};
pub use kernel::{Kernel, Matern52};
pub use model::{GpModel, PosteriorAt};
pub use prepared::PreparedData;
/// The bounded optimiser the hyperfit runs, for crates that minimise over
/// a GP posterior (the BO acquisition search).
pub use robotune_linalg::bfgs;

