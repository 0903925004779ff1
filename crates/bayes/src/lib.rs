//! # bnn-bayes
//!
//! Bayesian inference utilities for the paper reproduction:
//!
//! * [`sampling`] — Monte-Carlo Dropout prediction for multi-exit networks,
//!   including the backbone-caching optimisation that makes multi-exit MC
//!   sampling cheap (paper Eq. 2), and confidence-threshold early exiting.
//! * [`metrics`] — accuracy, expected calibration error (ECE), maximum
//!   calibration error, negative log-likelihood, Brier score, predictive
//!   entropy and mutual information.
//! * [`evaluation`] — a single-call summary ([`evaluation::Evaluation`]) used
//!   by Table I and the examples.
//! * [`flops_analysis`] — the Eq. 1–3 sampling-cost model and sweeps.
//!
//! # Example
//!
//! ```
//! use bnn_bayes::metrics::expected_calibration_error;
//! use bnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), bnn_bayes::BayesError> {
//! let probs = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2])?;
//! let ece = expected_calibration_error(&probs, &[0, 1], 10)?;
//! assert!(ece < 0.2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod evaluation;
pub mod flops_analysis;
pub mod metrics;
pub mod sampling;

pub use error::BayesError;
pub use evaluation::Evaluation;
pub use sampling::{McPrediction, McSampler, SamplingConfig};
