//! # bnn-tensor
//!
//! Minimal, dependency-free tensor library underpinning the BayesNN-FPGA
//! reproduction. It provides:
//!
//! * [`Tensor`] — a dense, row-major, `f32` tensor with NCHW conventions for
//!   image data.
//! * [`Shape`] — shape algebra (strides, element counts, reshaping).
//! * [`rng`] — deterministic pseudo-random number generators (SplitMix64 and
//!   Xoshiro256**) used for weight initialisation, synthetic data generation
//!   and Monte-Carlo Dropout masks. Determinism matters here: every experiment
//!   in the paper reproduction is seeded so tables regenerate identically.
//! * [`init`] — Kaiming / Xavier weight initialisers.
//! * [`linalg`] — matrix multiplication and the im2col/col2im transforms that
//!   the convolution layers are built on. Large kernels run on the
//!   work-stealing executor re-exported as [`exec`], with bitwise identical
//!   results for every thread count (see the `linalg` module docs).
//! * [`int`] — `i8`/`i16` integer kernels with `i32`/`i64` accumulation and
//!   explicit rounding/saturation helpers, the substrate of the true
//!   fixed-point inference path in `bnn-quant` (same parallel split and
//!   determinism contract as the float kernels). Their inner loops dispatch
//!   to runtime-detected SIMD backends — see [`simd`] for the selection
//!   controls (`BNN_SIMD`) and the bitwise-equality contract.
//!
//! # Example
//!
//! ```
//! use bnn_tensor::{Tensor, rng::Xoshiro256StarStar};
//!
//! # fn main() -> Result<(), bnn_tensor::TensorError> {
//! let mut rng = Xoshiro256StarStar::seed_from_u64(7);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::ones(&[2, 3]);
//! let c = a.add(&b)?;
//! assert_eq!(c.shape().dims(), &[2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
/// The parallel-execution layer (re-export of the vendored `parpool` crate):
/// [`exec::Executor`] plus the global thread-count controls honouring the
/// `BNN_THREADS` environment variable.
pub mod exec {
    pub use parpool::{
        in_parallel_region, reset_global_threads, set_global_threads, Executor, THREADS_ENV_VAR,
    };
}
pub mod init;
pub mod int;
pub mod linalg;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod tensor;
mod unfold;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
