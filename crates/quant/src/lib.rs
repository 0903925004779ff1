//! # bnn-quant
//!
//! Fixed-point quantization for the BayesNN-FPGA reproduction, playing the
//! role QKeras plays in the paper: Phase 3 of the transformation framework
//! searches bitwidths in `{4, 6, 8, 16}` and channel scalings, subject to not
//! degrading algorithmic quality. The search itself is Phase 3's bitwidth ×
//! reuse co-exploration in `bnn-core`; this crate supplies the formats and
//! the integer executor each candidate is scored on.
//!
//! A quantized network has **one executor**, true integer inference
//! ([`CalibratedNetwork`], [`QuantPlan`]): one float pass over a
//! representative batch records per-tensor ranges; a compiled plan per
//! [`FixedPointFormat`] then stores weights/biases as integer codes and runs
//! on the integer kernels of `bnn_tensor::int` with `i32`/`i64`
//! accumulation, power-of-two requantization shifts and explicit saturation
//! — the arithmetic the FPGA datapath actually performs, including
//! Monte-Carlo dropout masks applied in the integer domain from seeded
//! streams. The plan is the workspace's one plan runtime
//! (`bnn_models::Plan`) over the integer kernels ([`IntKernel`]), the same
//! runtime the float plan uses. It executes a [`PlanSchedule`], its
//! flattened step list; `QuantPlan::schedule` hands that same value to code
//! generators, and `bnn_hls::HlsSimulator` re-implements its steps as the
//! independent golden reference (`tests/hls_golden_sim.rs`). Batch
//! normalisation reaches the plan folded into a per-channel affine
//! (`bnn_nn::BatchNormLowering::folded`) before quantization.
//!
//! # Worked example: calibrate → plan → integer predict
//!
//! ```
//! use bnn_models::{zoo, ModelConfig};
//! use bnn_nn::layer::Mode;
//! use bnn_quant::{CalibratedNetwork, FixedPointFormat};
//! use bnn_tensor::rng::Xoshiro256StarStar;
//! use bnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small multi-exit LeNet-5 (training elided; weights are the build
//! // initialisation here).
//! let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(12, 12).with_width_divisor(4))
//!     .with_exits_after_every_block()?
//!     .with_exit_mcd(0.25)?;
//! let trained = spec.build(7)?;
//!
//! // 1. Calibrate once: a representative batch fixes every activation
//! //    range; each format's plan derives from that single record.
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let calib = Tensor::randn(&[8, 1, 12, 12], &mut rng);
//! let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
//!
//! // 2. Plan for one format: weights become 8-bit codes, stored widened to
//! //    i16 in the layout the integer kernels read.
//! let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
//!
//! // 3. Integer inference: the backbone once, then deterministic
//! //    (dequantized) logits per exit...
//! let inputs = Tensor::randn(&[4, 1, 12, 12], &mut rng);
//! plan.run_backbone(&inputs, Mode::Eval)?;
//! let logits = plan.forward_exits(Mode::Eval)?;
//! assert_eq!(logits.last().unwrap().dims(), &[4, 10]);
//!
//! // 4. ...and seeded Monte-Carlo prediction (masks drawn in the integer
//! //    domain): bitwise reproducible for a given seed.
//! let probs = plan.predict_probs(&inputs, 6, 2023)?;
//! let again = plan.predict_probs(&inputs, 6, 2023)?;
//! assert_eq!(probs.as_slice(), again.as_slice());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod error;
pub mod fixed;
mod lower;
pub mod params;
pub mod plan;
pub mod schedule;

pub use calib::CalibratedNetwork;
pub use error::QuantError;
pub use fixed::FixedPointFormat;
pub use params::{IntWidth, QuantParams};
pub use plan::{IntKernel, QuantPlan};
pub use schedule::{PlanSchedule, ScheduleOp, ScheduleStep};
