//! # bnn-models
//!
//! CNN model zoo for the BayesNN-FPGA reproduction: LeNet-5, VGG-11/19 and
//! ResNet-18, all width-scalable, described as architecture *specifications*
//! ([`NetworkSpec`]) that can be
//!
//! 1. instantiated into a trainable runtime model ([`MultiExitNetwork`],
//!    built on `bnn-nn` layers), and
//! 2. analysed symbolically (shape propagation, FLOPs, parameter counts) by
//!    the hardware model in `bnn-hw` without ever allocating weights.
//!
//! The spec layer is also where the paper's two structural transformations
//! live: attaching intermediary exits after each pooling-separated block
//! (multi-exit) and inserting Monte-Carlo Dropout layers from the exits
//! towards the input (MCD).
//!
//! # Example
//!
//! ```
//! use bnn_models::{zoo, ModelConfig};
//!
//! # fn main() -> Result<(), bnn_models::ModelError> {
//! let config = ModelConfig::new(1, 28, 28, 10).with_width_divisor(4);
//! let spec = zoo::lenet5(&config);
//! let multi_exit = spec.clone().with_exits_after_every_block()?.with_exit_mcd(0.25)?;
//! assert!(multi_exit.num_exits() >= 2);
//! let mut runtime = multi_exit.build(42)?;
//! # let _ = &mut runtime;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod multi_exit;
pub mod plan;
pub mod policy;
pub mod residual;
pub mod spec;
pub mod walker;
pub mod zoo;

pub use config::ModelConfig;
pub use error::ModelError;
pub use multi_exit::{MultiExitNetwork, NetworkCheckpoint};
pub use plan::MultiExitPlan;
pub use policy::{AdaptivePrediction, AdaptiveStats, ExitPolicy};
pub use residual::ResidualBlock;
pub use spec::{ExitSpec, LayerSpec, NetworkSpec};
pub use walker::{ExitPlan, SampleSchedule, WalkScratch};
