//! # bnn-hls
//!
//! HLS C++ code generation for multi-exit MCD BayesNN accelerators — the
//! Phase 4 backend of the transformation framework.
//!
//! One generator, [`LoweredDesign::generate`] (module [`lowered`]), renders
//! the project from a calibrated network's compiled
//! [`bnn_quant::QuantPlan`], the same plan Phase 3 scored. It follows the
//! hls4ml project layout the paper builds on:
//!
//! * a top-level dataflow function whose call sequence is the plan's
//!   flattened step list (residual fork/merge and exit heads included);
//! * a `defines.h` with one `ap_fixed<W,I>` typedef **per tensor**, from
//!   the calibrated ranges;
//! * a `parameters.h` with one config struct per step (geometry and exact
//!   requantize shifts);
//! * a weights header holding the packed integer weight/bias codes the plan
//!   multiplies by;
//! * the custom `nnet_mc_dropout.h` template implementing the paper's
//!   Algorithm 1 (pipelined elementwise loop, on-chip LFSR uniform RNG,
//!   keep-rate comparator and multiplier) and a `build_prj.tcl` script that
//!   would drive Vivado-HLS C-synthesis (module [`templates`]).
//!
//! Because Vivado-HLS itself is unavailable in this environment, the emitted
//! project is validated structurally (golden files pin it byte for byte) and
//! its performance is predicted by `bnn-hw` instead of a C-synthesis report:
//! the design's [`StaticSchedule`] MAC count equals `bnn_hw::network_macs`
//! for the same spec.
//!
//! # Relation to the integer inference path
//!
//! The `ap_fixed<W, I>` types are the hardware spelling of the arithmetic a
//! compiled `bnn_quant::QuantPlan` executes in software: symmetric
//! power-of-two grids, wide exact accumulation, round-to-nearest
//! requantization and saturation. The golden-reference simulator
//! ([`HlsSimulator`]) interprets the emitted schedule in pure Rust integer
//! arithmetic, bit-exact with [`bnn_quant::QuantPlan::predict_probs`] — the
//! role C-simulation plays in a real HLS flow, and the reference the
//! differential tests pin codegen against. A design point whose accuracy
//! Phase 3 measured on the integer path is the design point this crate
//! emits.
//!
//! One deliberate difference, documented in the dropout template: the
//! paper's Algorithm 1 scales kept activations by `keep_rate` in hardware,
//! while the software layers use inverted dropout (`1/keep_rate`); the
//! ratio is a static per-layer constant the generator folds into the
//! following layer.
//!
//! # Example: emit the calibrated design of an 8-bit winner
//!
//! ```
//! use bnn_hls::{HlsConfig, LoweredDesign};
//! use bnn_models::{zoo, ModelConfig};
//! use bnn_quant::{CalibratedNetwork, FixedPointFormat};
//! use bnn_tensor::rng::Xoshiro256StarStar;
//! use bnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(12, 12).with_width_divisor(4))
//!     .with_exits_after_every_block()?
//!     .with_exit_mcd(0.25)?;
//! let trained = spec.build(7)?;
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let calibrated = CalibratedNetwork::calibrate(&trained, &Tensor::randn(&[8, 1, 12, 12], &mut rng))?;
//!
//! // An 8-bit Phase 3 winner becomes an 8-bit integer datapath.
//! let config = HlsConfig::new("bayes_lenet").with_format(FixedPointFormat::new(8, 3)?);
//! let design = LoweredDesign::generate(&calibrated, &config)?;
//! let project = design.project();
//! assert!(project.file("firmware/bayes_lenet.cpp").unwrap().contains("#pragma HLS DATAFLOW"));
//! assert!(project.file("firmware/weights/weights.h").unwrap().contains("ap_int<8> w0["));
//! assert!(project.file("firmware/nnet_utils/nnet_mc_dropout.h").is_some());
//! assert_eq!(design.summary().macs, bnn_hw::network_macs(&spec)?);
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
