//! # bnn-hw
//!
//! Analytic FPGA hardware model for multi-exit MCD BayesNN accelerators.
//!
//! The paper obtains its hardware numbers from Vivado-HLS C-synthesis reports,
//! Vivado place-and-route and the Xilinx Power Estimator. None of those tools
//! can run here, so this crate provides the analytic stand-in (see the
//! README): per-layer resource and latency estimation in the style of hls4ml's
//! resource strategy, a spatial/temporal mapping model for the Monte-Carlo
//! engines, an XPE-style power estimator, CPU/GPU roofline models and the
//! literature baselines quoted in Table II.
//!
//! # What the model captures
//!
//! The models are calibrated to reproduce the *shapes* the paper reports:
//! logic grows with the number of MCD layers while BRAM stays flat (Fig. 5
//! left), spatial mapping flattens latency against the number of MC samples
//! (Fig. 5 right), the final XCKU115 design lands in the few-watt / sub-ms
//! regime with dynamic power dominated by logic+signal and IO (Tables II-III).
//!
//! # Relation to the fixed-point datapath
//!
//! [`AcceleratorConfig::with_bits`] sets the datapath width `W` the resource
//! and power models scale with — the same `W` a Phase 3 candidate format
//! `ap_fixed<W, I>` carries. The *algorithmic quality* of those candidates
//! is measured by actually executing `W`-bit integer arithmetic (a compiled
//! `bnn_quant::QuantPlan`, with `i32`/`i64` accumulation and saturation), so the
//! accuracy a design point reports and the cost this crate estimates now
//! describe the same machine. Narrower datapaths shrink DSP/LUT cost roughly
//! quadratically in `W`, which is why the co-exploration rewards aggressive
//! bitwidths that survive the quality check.
//!
//! # Example: estimate one design point
//!
//! ```
//! use bnn_hw::accelerator::{AcceleratorConfig, AcceleratorModel};
//! use bnn_hw::device::FpgaDevice;
//! use bnn_models::{zoo, ModelConfig};
//!
//! # fn main() -> Result<(), bnn_hw::HwError> {
//! let spec = zoo::lenet5(&ModelConfig::mnist()).with_mcd_layers(1, 0.25)?;
//! let config = AcceleratorConfig::new(FpgaDevice::xcku115());
//! let report = AcceleratorModel::new(spec, config)?.estimate()?;
//! assert!(report.fits);
//! # Ok(())
//! # }
//! ```
//!
//! # Example: narrower datapaths cost less
//!
//! The Phase 3 co-exploration's hardware side in miniature — the same model
//! and mapping, swept over the paper's bitwidths:
//!
//! ```
//! use bnn_hw::accelerator::{AcceleratorConfig, AcceleratorModel};
//! use bnn_hw::device::FpgaDevice;
//! use bnn_models::{zoo, ModelConfig};
//!
//! # fn main() -> Result<(), bnn_hw::HwError> {
//! let spec = zoo::lenet5(&ModelConfig::mnist()).with_mcd_layers(1, 0.25)?;
//! let mut dsp_at = Vec::new();
//! for bits in [4, 8, 16] {
//!     let config = AcceleratorConfig::new(FpgaDevice::xcku115()).with_bits(bits);
//!     let report = AcceleratorModel::new(spec.clone(), config)?.estimate()?;
//!     dsp_at.push(report.total_resources.dsp);
//! }
//! assert!(dsp_at[0] <= dsp_at[1] && dsp_at[1] <= dsp_at[2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod baselines;
pub mod device;
pub mod error;
pub mod layer_model;
pub mod mapping;
pub mod perf;
pub mod power;
pub mod resource;
pub mod rng;

pub use accelerator::{AcceleratorConfig, AcceleratorModel, AcceleratorReport};
pub use device::FpgaDevice;
pub use error::HwError;
pub use layer_model::{layer_macs, network_macs};
pub use mapping::MappingStrategy;
pub use power::PowerBreakdown;
pub use resource::ResourceUsage;
