//! A compiled plan's flattened step list.
//!
//! [`PlanSchedule`] is the step list a [`QuantPlan`] executes: the step
//! compiler's skeleton ([`bnn_nn::skeleton`]) with [`ScheduleOp`]s attached —
//! packed integer weight codes, accumulator-scale biases, requantize shifts
//! — per-tensor [`QuantParams`] notes and the liveness-planned arena slot
//! assignment. The plan keeps its runtime state (RNG streams, arena buffers,
//! executor) beside it, not in it. Code generators walk the same value to emit a design
//! that computes exactly what the integer path computed when the design
//! point was scored; `bnn_hls::sim` interprets it as the golden reference
//! against [`QuantPlan::predict_probs`].
//!
//! Everything in a schedule is static: the same calibration record and
//! format always produce the same schedule, so generated artifacts (HLS
//! sources, golden files) are deterministic.
//!
//! Obtain one with [`QuantPlan::schedule`]:
//!
//! ```
//! use bnn_models::{zoo, ModelConfig};
//! use bnn_quant::{CalibratedNetwork, FixedPointFormat, ScheduleOp};
//! use bnn_tensor::rng::Xoshiro256StarStar;
//! use bnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(12, 12).with_width_divisor(4))
//!     .with_exits_after_every_block()?
//!     .with_exit_mcd(0.25)?;
//! let net = spec.build(7)?;
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let calib = Tensor::randn(&[4, 1, 12, 12], &mut rng);
//! let calibrated = CalibratedNetwork::calibrate(&net, &calib)?;
//! let plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
//!
//! let schedule = plan.schedule();
//! assert_eq!(schedule.exits.len(), 2);
//! assert!(schedule.num_steps() > schedule.slot_elems.len());
//! assert!(ScheduleOp::total_macs(schedule) > 0);
//! # Ok(())
//! # }
//! ```
//!
//! [`QuantPlan`]: crate::QuantPlan
//! [`QuantPlan::predict_probs`]: crate::QuantPlan::predict_probs
//! [`QuantPlan::schedule`]: crate::QuantPlan::schedule

use crate::params::QuantParams;
use bnn_nn::skeleton::Skeleton;

/// Fractional bits of the fixed-point multipliers the schedule's
/// [`ScheduleOp::Affine`] and [`ScheduleOp::McDropout`] steps scale by
/// (batch-norm affines and the inverted-dropout `1/keep` factor): the
/// products are requantized by a right-shift of this many bits. Interpreters
/// must shift by exactly this amount to stay bit-exact with the plan. 12
/// bits keep the multiplier error two orders of magnitude below even the
/// 16-bit activation step.
pub const MUL_FRAC: u32 = 12;

/// The arithmetic of one flattened step, with every constant the step folds
/// in at compile time (weight codes, biases, shifts, output formats).
///
/// Weight codes are stored widened to `i16` regardless of the format's
/// storage width — the layout the plan's kernels consume. Biases are
/// at the accumulator scale `2^(w_frac + in_frac)`; `shift` brings the
/// accumulator down to the output format's fractional bits.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleOp {
    /// 2-D convolution on packed `[out_c, in_c*kernel*kernel]` weight codes.
    Conv {
        /// Widened weight codes, row-major `[out_c, in_c*kernel*kernel]`
        /// with the reduction ordered `(in_c, ky, kx)`.
        weights: Vec<i16>,
        /// Per-output-channel bias at the accumulator scale.
        bias: Vec<i64>,
        /// Output channels.
        out_c: usize,
        /// Input channels.
        in_c: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Accumulator-to-output requantization shift (right shift).
        shift: i32,
        /// Fractional bits of the weight codes.
        w_frac: u32,
        /// Output activation format.
        out: QuantParams,
    },
    /// Dense layer on transposed `[out_f, in_f]` weight codes.
    Dense {
        /// Widened weight codes, transposed row-major `[out_f, in_f]`.
        weights_t: Vec<i16>,
        /// Per-output-feature bias at the accumulator scale.
        bias: Vec<i64>,
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// Accumulator-to-output requantization shift (right shift).
        shift: i32,
        /// Fractional bits of the weight codes.
        w_frac: u32,
        /// Output activation format.
        out: QuantParams,
    },
    /// Elementwise `max(0, x)`; the value keeps its input format.
    Relu,
    /// Square max pooling (no padding); the value keeps its input format.
    MaxPool {
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Whole-plane average per channel: plane sum divided by `h * w` with
    /// round-half-away-from-zero; the value keeps its input format.
    GlobalAvgPool,
    /// Folded batch-norm: per-channel `(x*m + b) >> MUL_FRAC`, saturated
    /// into the output format (see [`MUL_FRAC`]).
    Affine {
        /// Per-channel multipliers, `MUL_FRAC` fractional bits.
        m: Vec<i64>,
        /// Per-channel offsets, `MUL_FRAC` fractional bits at output scale.
        b: Vec<i64>,
        /// Output activation format.
        out: QuantParams,
    },
    /// Monte-Carlo dropout: in sampling passes, kept values are scaled by
    /// `scale_q >> MUL_FRAC` (inverted dropout), dropped values become 0;
    /// deterministic passes copy through and draw nothing.
    McDropout {
        /// Dropout probability.
        rate: f64,
        /// Quantized `1/(1-rate)` at `MUL_FRAC` fractional bits.
        scale_q: i64,
        /// The value's format (used for saturation of kept values).
        params: QuantParams,
    },
    /// Residual merge: requantize both paths into the output format, add,
    /// clamp into `[0, qmax]` (the merged ReLU).
    Merge {
        /// Main-path requantization shift.
        m_shift: i32,
        /// Shortcut-path requantization shift.
        s_shift: i32,
        /// Output activation format.
        out: QuantParams,
    },
}

impl ScheduleOp {
    /// Stable lower-case op name (matches the lowering names where one
    /// exists; `"merge"` for the residual join).
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleOp::Conv { .. } => "conv2d",
            ScheduleOp::Dense { .. } => "dense",
            ScheduleOp::Relu => "relu",
            ScheduleOp::MaxPool { .. } => "max_pool2d",
            ScheduleOp::GlobalAvgPool => "global_avg_pool2d",
            ScheduleOp::Affine { .. } => "affine",
            ScheduleOp::McDropout { .. } => "mc_dropout",
            ScheduleOp::Merge { .. } => "merge",
        }
    }

    /// The output format this op requantizes into, if it defines one.
    /// Format-preserving ops (relu, pools, dropout) return `None`: their
    /// output keeps the source value's format.
    pub fn out_params(&self) -> Option<QuantParams> {
        match self {
            ScheduleOp::Conv { out, .. }
            | ScheduleOp::Dense { out, .. }
            | ScheduleOp::Affine { out, .. }
            | ScheduleOp::Merge { out, .. } => Some(*out),
            ScheduleOp::McDropout { params, .. } => Some(*params),
            _ => None,
        }
    }

    /// Whether this op is a multiply-accumulate layer (conv/dense) — the
    /// ops the hardware MAC-count cross-check totals.
    pub fn is_mac(&self) -> bool {
        matches!(self, ScheduleOp::Conv { .. } | ScheduleOp::Dense { .. })
    }

    /// Total per-sample multiply-accumulates of `schedule`'s conv/dense
    /// steps — the figure the `bnn-hw` layer model prices, so generated
    /// designs can be cross-checked against phase-2/3 scores.
    pub fn total_macs(schedule: &PlanSchedule) -> u64 {
        (schedule.steps())
            .filter(|s| s.op.is_mac())
            .map(|s| s.unit_ops)
            .sum()
    }

    /// Total parameters `schedule` emits: weight codes plus biases plus
    /// affine constant pairs.
    pub fn weight_params(schedule: &PlanSchedule) -> usize {
        (schedule.steps())
            .map(|s| match &s.op {
                ScheduleOp::Conv { weights, bias, .. } => weights.len() + bias.len(),
                ScheduleOp::Dense {
                    weights_t, bias, ..
                } => weights_t.len() + bias.len(),
                ScheduleOp::Affine { m, b, .. } => m.len() + b.len(),
                _ => 0,
            })
            .sum()
    }
}

/// One flattened step of the integer schedule: a [`ScheduleOp`] plus its
/// arena slots, static per-sample shapes and `unit_ops` (the per-sample
/// figure `QuantPlan::fixed_cost` sums), as the step compiler
/// ([`bnn_nn::skeleton`]) emits it for both plan families.
pub type ScheduleStep = bnn_nn::skeleton::ScheduleStep<ScheduleOp>;

/// The flattened schedule of a compiled [`QuantPlan`]: the step compiler's
/// [`Skeleton`] with the integer ops attached and every value annotated
/// with its [`QuantParams`] — backbone steps, exit branches, the arena slot
/// plan, and the calibrated input format as the skeleton's `in_note`. See
/// the [module docs](self).
///
/// [`QuantPlan`]: crate::QuantPlan
pub type PlanSchedule = Skeleton<ScheduleOp, QuantParams>;
