//! Gaussian-process regression for the ROBOTune BO engine.
//!
//! The paper's surrogate (§3.4, §4) is a GP with a **Matérn 5/2 plus white
//! noise** covariance — "preferred to model practical functions" — over
//! observations assumed i.i.d. Gaussian. This crate provides:
//!
//! * [`kernel`] — Matérn 5/2, squared-exponential and white-noise kernels;
//! * [`model`] — [`model::GpModel`]: Cholesky-based posterior mean/variance
//!   and the log marginal likelihood, with automatic jitter escalation;
//! * [`hyper`] — maximum-likelihood hyperparameter fitting by multi-start
//!   bounded quasi-Newton on log-parameters with the analytic likelihood
//!   gradient (the paper stack's L-BFGS-B restarts), with restarts run on
//!   scoped threads;
//! * [`prepared`] — the training-set distance cache shared across all
//!   hyperparameter candidates of one fit, and the likelihood with its
//!   gradient.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bfgs;
pub mod error;
pub mod hyper;
pub mod kernel;
pub mod model;
pub mod prepared;

pub use error::GpError;
pub use hyper::{fit_gp, fit_gp_ard, FitStrategy, HyperFitOptions};
pub use kernel::{Kernel, Matern52, Matern52Ard, SquaredExp};
pub use model::GpModel;
pub use prepared::{CachedKernel, PreparedData};

/// The host's available parallelism, read once per process.
///
/// `std::thread::available_parallelism` queries the affinity mask and the
/// cgroup quota on every call, which is a measurable cost on a path run
/// several times per suggest. Thread counts never change a result here
/// (work is split into independent, deterministically ordered chunks), so
/// a value cached before a later affinity change only affects speed.
pub(crate) fn host_parallelism() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}
