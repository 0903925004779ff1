//! # bnn-hls
//!
//! HLS C++ code generation for multi-exit MCD BayesNN accelerators — the
//! Phase 4 backend of the transformation framework.
//!
//! The generator follows the hls4ml project layout the paper builds on: a
//! top-level dataflow function, a `defines.h` with the fixed-point types and
//! layer dimensions, a `parameters.h` with per-layer configuration structs, a
//! weights header, the custom `nnet_mc_dropout.h` template implementing the
//! paper's Algorithm 1 (pipelined elementwise loop, on-chip LFSR uniform RNG,
//! keep-rate comparator and multiplier), and a `build_prj.tcl` script that
//! would drive Vivado-HLS C-synthesis.
//!
//! Because Vivado-HLS itself is unavailable in this environment, the emitted
//! project is validated structurally (tests check the presence of the
//! dataflow/pipeline pragmas, one instantiation per layer, correct fixed-point
//! widths) and its performance is predicted by `bnn-hw` instead of a
//! C-synthesis report.
//!
//! # Relation to the integer inference path
//!
//! The `ap_fixed<W, I>` types this generator writes into `defines.h` are the
//! hardware spelling of the arithmetic a compiled `bnn_quant::QuantPlan`
//! executes in software: symmetric power-of-two grids, wide exact
//! accumulation, round-to-nearest requantization and saturation. The
//! golden-reference simulator ([`HlsSimulator`]) re-implements that
//! arithmetic independently, the role C-simulation plays in a real HLS
//! flow — a design point whose accuracy Phase 3 measured on the integer
//! path is the design point this crate emits.
//!
//! Two generators coexist:
//!
//! * [`HlsProject::generate`] renders from the architecture spec with one
//!   global `data_t` — the quick, calibration-free structural view.
//! * [`LoweredDesign::generate`] (module [`lowered`]) renders from a
//!   calibrated network's compiled [`bnn_quant::QuantPlan`]: one
//!   `ap_fixed<W,I>` typedef **per tensor**, the packed integer weight/bias
//!   codes, and a `top()` generated from the identical flattened step list
//!   the integer path executes. [`sim::HlsSimulator`] interprets that
//!   emitted schedule in pure Rust integer arithmetic, bit-exact with
//!   [`bnn_quant::QuantPlan::predict_probs`] — the golden reference the
//!   differential tests pin codegen against.
//!
//! One deliberate difference, documented in the dropout template: the
//! paper's Algorithm 1 scales kept activations by `keep_rate` in hardware,
//! while the software layers use inverted dropout (`1/keep_rate`); the
//! ratio is a static per-layer constant the generator folds into the
//! following layer.
//!
//! # Example: generate a project
//!
//! ```
//! use bnn_hls::{HlsConfig, HlsProject};
//! use bnn_models::{zoo, ModelConfig};
//!
//! # fn main() -> Result<(), bnn_hls::HlsError> {
//! let spec = zoo::lenet5(&ModelConfig::mnist().with_width_divisor(4))
//!     .with_mcd_layers(1, 0.25)?;
//! let project = HlsProject::generate(&spec, &HlsConfig::new("bayes_lenet"))?;
//! assert!(project.file("firmware/bayes_lenet.cpp").is_some());
//! # Ok(())
//! # }
//! ```
//!
//! # Example: the emitted fixed-point width follows the Phase 3 format
//!
//! ```
//! use bnn_hls::{HlsConfig, HlsProject};
//! use bnn_models::{zoo, ModelConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = zoo::lenet5(&ModelConfig::mnist().with_width_divisor(4))
//!     .with_mcd_layers(1, 0.25)?;
//! // An 8-bit Phase 3 winner becomes an ap_fixed<8,3> datapath.
//! let format = bnn_quant::FixedPointFormat::new(8, 3)?;
//! let config = HlsConfig::new("bayes_lenet").with_format(format);
//! let project = HlsProject::generate(&spec, &config)?;
//! let defines = project.file("firmware/defines.h").unwrap();
//! assert!(defines.contains("ap_fixed<8,3>"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod lowered;
pub mod project;
pub mod sim;
pub mod templates;

pub use config::HlsConfig;
pub use error::HlsError;
pub use lowered::{LoweredDesign, StaticSchedule};
pub use project::HlsProject;
pub use sim::{HlsSimulator, SimMode};
