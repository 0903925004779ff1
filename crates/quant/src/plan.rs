//! Compile-once execution plans for the integer inference path.
//!
//! [`QuantPlan`] is the workspace's integer executor: the recursive lowering
//! walk of a [`CalibratedNetwork`] is flattened into a linear step list, buffer
//! lifetimes are planned at compile time (liveness over the flat list with
//! free-list reuse, elementwise steps running in place when their input
//! dies), weights are packed **once** into the transposed/widened `i16`
//! layout the integer matmul kernels consume, and every intermediate — code
//! slots, the im2col scratch, accumulators, dropout masks, softmax staging —
//! lives in a preallocated tensor arena. After a warm-up call that sizes the
//! arena for the batch, [`QuantPlan::predict_probs_into`] performs **zero
//! heap allocations** in the steady state (on a sequential executor; the
//! thread-pool fan-out of large kernels allocates its scoped workers by
//! design).
//!
//! Its arithmetic has an independent oracle: `bnn_hls::HlsSimulator`
//! re-implements every exported [`PlanSchedule`] step (direct convolution,
//! scalar loops, its own rounding primitives), and `tests/hls_golden_sim.rs`
//! pins the two **bit-exact** for every zoo subject and searched format, in
//! deterministic and Monte-Carlo execution and through the seeded
//! `predict_probs` loop.
//!
//! ```text
//! CalibratedNetwork ──ranges──► compile(format)
//!   │                              │  flatten ops · derive QuantParams
//!   │                              │  pack weights (i16, transposed)
//!   │                              ▼  plan slot liveness
//! (one float pass,            QuantPlan { steps, arena }
//!  shared by all formats)         │
//!                                 ▼  run many: predict_probs_into
//!                            zero steady-state allocation
//! ```

use crate::calib::{CalibratedNetwork, RecordCursor};
use crate::error::QuantError;
use crate::fixed::FixedPointFormat;
use crate::lower::{div_round, dropout_scale_q, quantize_affine, quantize_weights};
use crate::params::{IntWidth, QuantParams};
use crate::qtensor::QuantData;
use crate::schedule::{PlanSchedule, ScheduleExit, ScheduleOp, ScheduleStep, MUL_FRAC};
use bnn_models::walker::{self, ExitPlan, WalkScratch};
use bnn_models::{AdaptivePrediction, AdaptiveStats, ExitPolicy};
use bnn_nn::layer::Mode;
use bnn_nn::lowering::LayerLowering;
use bnn_tensor::exec::Executor;
use bnn_tensor::int::{
    im2row_i16_into, matmul_abt_i64_into, matmul_wide_i32_into, requantize,
    requantize_i32_row_biased_into, requantize_i32_row_into, requantize_i64_row_biased_into,
    requantize_i64_row_into,
};
use bnn_tensor::linalg::ConvGeometry;
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;
use std::ops::Range;

/// Minimum multiply-accumulate count before a plan kernel fans out over the
/// parallel executor (the same threshold as the standalone integer kernels).
const PAR_MACS_THRESHOLD: usize = 1 << 20;

/// A packed convolution: weights widened/flattened to `[out_c, in_c*k*k]`
/// `i16` once at compile time.
#[derive(Debug, Clone)]
struct PlanConv {
    w16: Vec<i16>,
    bias: Vec<i64>,
    out_c: usize,
    in_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    shift: i32,
    /// Fractional bits of the weight codes (carried for schedule export;
    /// execution only needs `shift`).
    w_frac: u32,
    out: QuantParams,
}

/// A packed dense layer: weights transposed to `[out_f, in_f]` `i16`.
#[derive(Debug, Clone)]
struct PlanDense {
    wt16: Vec<i16>,
    bias: Vec<i64>,
    in_f: usize,
    out_f: usize,
    shift: i32,
    /// Fractional bits of the weight codes (carried for schedule export).
    w_frac: u32,
    out: QuantParams,
}

/// Quantized per-channel affine multipliers.
#[derive(Debug, Clone)]
struct PlanAffine {
    m: Vec<i64>,
    b: Vec<i64>,
    out: QuantParams,
}

/// One step of the flattened plan.
#[derive(Debug, Clone)]
enum StepKind {
    Conv(Box<PlanConv>),
    Dense(Box<PlanDense>),
    Relu,
    MaxPool {
        kernel: usize,
        stride: usize,
    },
    AvgPool {
        kernel: usize,
        stride: usize,
    },
    GlobalAvgPool,
    Affine(Box<PlanAffine>),
    McDropout {
        rate: f64,
        scale_q: i64,
        params: QuantParams,
        rng: Xoshiro256StarStar,
    },
    /// Residual merge: requantize both paths to the output format, add,
    /// clamp into `[0, qmax]` (the merged ReLU).
    Merge {
        m_shift: i32,
        s_shift: i32,
        out: QuantParams,
    },
}

/// A flattened op with its slot assignment and static per-sample shapes.
#[derive(Debug, Clone)]
struct Step {
    kind: StepKind,
    /// Source slot (the main path for [`StepKind::Merge`]).
    src: usize,
    /// Second source slot (the shortcut path of a merge).
    src2: Option<usize>,
    dst: usize,
    /// Per-sample dims of the source activation (batch axis stripped).
    in_dims: Vec<usize>,
    /// Per-sample dims of the output activation.
    out_dims: Vec<usize>,
    /// Static per-sample integer-op estimate (MACs for conv/dense, touched
    /// elements otherwise); multiply by the batch to price an invocation.
    ops: u64,
}

impl Step {
    fn in_elems(&self) -> usize {
        self.in_dims.iter().product()
    }

    fn out_elems(&self) -> usize {
        self.out_dims.iter().product()
    }
}

/// One compiled exit branch.
#[derive(Debug, Clone)]
struct PlanExit {
    steps: Vec<Step>,
    out_slot: usize,
    out_params: QuantParams,
    out_dims: Vec<usize>,
    /// Backbone block this exit reads from (attachment point) — the
    /// segmentation boundary for adaptive execution.
    after_block: usize,
}

/// How MC-dropout masks index into the batch.
///
/// [`MaskGranularity::PerBatch`] draws one stream value per (batch, channel),
/// so a batch of N consumes N times the draws and batched output differs
/// from N single-sample calls. It is the mask rule of the float layer chain,
/// which Phase 3 scores every format against (`McSampler::predict`), so
/// Phase 3 scoring ([`QuantPlan::predict_probs`]) and `bnn_hls::HlsSimulator`
/// use it too. Scoring with per-sample masks instead was measured to break
/// the comparison: 16-bit accuracy rose to 0.667 against a float reference
/// of 0.521, and the quick demo found no feasible design.
/// [`MaskGranularity::PerSample`] draws one per-sample mask per pass and
/// broadcasts it across the batch: every kernel in the plan computes each
/// output element from one sample alone, so per-sample masks make a batched
/// call bit-exact with the concatenation of single-sample calls — the
/// batch-boundary invariance dynamic batching needs. For `batch == 1` the
/// two modes draw and apply identical masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MaskGranularity {
    PerBatch,
    PerSample,
}

/// The preallocated tensor arena: activation slots plus the shared scratch
/// buffers. All sizes grow monotonically with the largest batch seen, so the
/// steady state of repeated same-batch calls never reallocates.
#[derive(Debug, Clone, Default)]
struct Arena {
    slots: Vec<Vec<i16>>,
    cols: Vec<i16>,
    acc32: Vec<i32>,
    acc64: Vec<i64>,
    mask: Vec<bool>,
    /// The latest exit head's dequantized logits.
    logits: Vec<f32>,
    /// The exit walker's softmax staging, ensembles and live-row map.
    walk: WalkScratch,
}

/// A compiled, arena-allocated execution plan for the integer inference of
/// a calibrated multi-exit network at one fixed-point format.
///
/// Build one with [`CalibratedNetwork::plan`]; see the
/// [module documentation](self) for the dataflow.
///
/// # Example
///
/// ```
/// use bnn_models::{zoo, ModelConfig};
/// use bnn_quant::{CalibratedNetwork, FixedPointFormat};
/// use bnn_tensor::rng::Xoshiro256StarStar;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(12, 12).with_width_divisor(4))
///     .with_exits_after_every_block()?
///     .with_exit_mcd(0.25)?;
/// let trained = spec.build(7)?; // (train it for real use)
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let calib = Tensor::randn(&[4, 1, 12, 12], &mut rng);
///
/// let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
/// let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
/// let inputs = Tensor::randn(&[4, 1, 12, 12], &mut rng);
/// let probs = plan.predict_probs(&inputs, 6, 2023)?; // warm-up sizes the arena
/// let again = plan.predict_probs(&inputs, 6, 2023)?; // steady state: no allocation
/// assert_eq!(probs.as_slice(), again.as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantPlan {
    format: FixedPointFormat,
    width: IntWidth,
    classes: usize,
    in_params: QuantParams,
    in_dims: Vec<usize>,
    input_slot: usize,
    backbone: Vec<Step>,
    exits: Vec<PlanExit>,
    /// Backbone step count after each block — segmentation boundaries for
    /// adaptive execution (`backbone[..block_bounds[b]]` runs blocks
    /// `0..=b`).
    block_bounds: Vec<usize>,
    /// Arena slot holding each block's boundary value (pinned: never reused
    /// by later steps, so compacting it between exits is safe).
    block_slots: Vec<usize>,
    /// Per-sample element count of each block's boundary value — the gather
    /// unit for batch compaction.
    block_units: Vec<usize>,
    /// Per-slot per-sample element capacity (max over the values sharing it).
    slot_elems: Vec<usize>,
    /// Per-sample scratch capacities.
    cols_unit: usize,
    acc_unit: usize,
    mask_unit: usize,
    logit_unit: usize,
    arena: Arena,
    exec: Option<Executor>,
    /// Mask granularity of the walk in progress: per-sample except inside
    /// [`QuantPlan::predict_probs_into`].
    masks: MaskGranularity,
}

/// Compile-time value bookkeeping: every step output is a fresh value;
/// flatten/identity alias their input (same storage, new shape).
struct ValueInfo {
    dims: Vec<usize>,
    alias_of: Option<usize>,
    pinned: bool,
}

/// The plan builder: emits steps with *value* ids, then linear-scans them
/// into slot ids.
struct PlanBuilder {
    total_bits: u32,
    steps: Vec<Step>,
    values: Vec<ValueInfo>,
    cols_unit: usize,
    acc_unit: usize,
    mask_unit: usize,
    /// `(value, first, end)`: a residual operand that steps `first..end`
    /// must not overwrite (checked in debug builds once slots are assigned).
    pending: Vec<(usize, usize, usize)>,
}

impl PlanBuilder {
    fn new_value(&mut self, dims: Vec<usize>) -> usize {
        self.values.push(ValueInfo {
            dims,
            alias_of: None,
            pinned: false,
        });
        self.values.len() - 1
    }

    fn alias_value(&mut self, of: usize, dims: Vec<usize>) -> usize {
        let root = self.root(of);
        self.values.push(ValueInfo {
            dims,
            alias_of: Some(root),
            pinned: false,
        });
        self.values.len() - 1
    }

    fn root(&self, v: usize) -> usize {
        match self.values[v].alias_of {
            Some(r) => r,
            None => v,
        }
    }

    fn dims(&self, v: usize) -> Vec<usize> {
        self.values[v].dims.clone()
    }

    fn push(
        &mut self,
        kind: StepKind,
        src: usize,
        src2: Option<usize>,
        out_dims: Vec<usize>,
    ) -> usize {
        let dst = self.new_value(out_dims.clone());
        let in_dims = self.dims(src);
        let ops = step_unit_ops(&kind, &in_dims, &out_dims);
        self.steps.push(Step {
            kind,
            src,
            src2,
            dst,
            in_dims,
            out_dims,
            ops,
        });
        dst
    }

    /// Packs a weight code tensor into the widened `i16` layout; `transpose`
    /// selects the `[out, in]` dense layout (`dims = (rows_in, cols_out)`).
    fn widen_codes(codes: &QuantData, transpose: Option<(usize, usize)>) -> Vec<i16> {
        match transpose {
            None => match codes {
                QuantData::I8(v) => v.iter().map(|&c| c as i16).collect(),
                QuantData::I16(v) => v.clone(),
            },
            Some((rows, cols)) => {
                let mut out = vec![0i16; rows * cols];
                for r in 0..rows {
                    for c in 0..cols {
                        out[c * rows + r] = match codes {
                            QuantData::I8(v) => v[r * cols + c] as i16,
                            QuantData::I16(v) => v[r * cols + c],
                        };
                    }
                }
                out
            }
        }
    }

    /// Emits the step(s) of one lowered op, consuming calibration records in
    /// the same walk order as the calibration collector.
    fn emit(
        &mut self,
        lowering: &LayerLowering,
        cursor: &mut RecordCursor<'_>,
        params: &mut QuantParams,
        cur: &mut usize,
    ) -> Result<(), QuantError> {
        let total_bits = self.total_bits;
        match lowering {
            LayerLowering::Sequence(children) => {
                for child in children {
                    self.emit(child, cursor, params, cur)?;
                }
            }
            LayerLowering::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                let record = cursor.take(lowering.name())?;
                let dims = weight.dims();
                let (out_c, in_c, kernel) = (dims[0], dims[1], dims[2]);
                let out = record
                    .out
                    .expect("conv records an output range")
                    .params(total_bits)?;
                let w = quantize_weights(
                    weight,
                    bias,
                    record.weight.expect("conv records a weight range"),
                    total_bits,
                    *params,
                    out,
                )?;
                let in_dims = self.dims(*cur);
                let (h, ww) = (in_dims[1], in_dims[2]);
                let geom = ConvGeometry::square(h, ww, kernel, *stride, *padding);
                let plane = geom.out_h() * geom.out_w();
                let kred = in_c * kernel * kernel;
                self.cols_unit = self.cols_unit.max(kred * plane);
                self.acc_unit = self.acc_unit.max(out_c * plane);
                *cur = self.push(
                    StepKind::Conv(Box::new(PlanConv {
                        w16: Self::widen_codes(&w.codes, None),
                        bias: w.bias,
                        out_c,
                        in_c,
                        kernel,
                        stride: *stride,
                        padding: *padding,
                        shift: w.shift,
                        w_frac: w.w_frac,
                        out,
                    })),
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
                *params = out;
            }
            LayerLowering::Dense { weight, bias } => {
                let record = cursor.take(lowering.name())?;
                let dims = weight.dims();
                let (in_f, out_f) = (dims[0], dims[1]);
                let out = record
                    .out
                    .expect("dense records an output range")
                    .params(total_bits)?;
                let w = quantize_weights(
                    weight,
                    bias,
                    record.weight.expect("dense records a weight range"),
                    total_bits,
                    *params,
                    out,
                )?;
                self.acc_unit = self.acc_unit.max(out_f);
                *cur = self.push(
                    StepKind::Dense(Box::new(PlanDense {
                        wt16: Self::widen_codes(&w.codes, Some((in_f, out_f))),
                        bias: w.bias,
                        in_f,
                        out_f,
                        shift: w.shift,
                        w_frac: w.w_frac,
                        out,
                    })),
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
                *params = out;
            }
            LayerLowering::Relu => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(StepKind::Relu, *cur, None, record.out_dims.clone());
            }
            LayerLowering::MaxPool2d { kernel, stride } => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(
                    StepKind::MaxPool {
                        kernel: *kernel,
                        stride: *stride,
                    },
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
            }
            LayerLowering::AvgPool2d { kernel, stride } => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(
                    StepKind::AvgPool {
                        kernel: *kernel,
                        stride: *stride,
                    },
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
            }
            LayerLowering::GlobalAvgPool2d => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(StepKind::GlobalAvgPool, *cur, None, record.out_dims.clone());
            }
            LayerLowering::Flatten => {
                // Shape-only: the flat plan reinterprets the buffer in place.
                let record = cursor.take(lowering.name())?;
                *cur = self.alias_value(*cur, record.out_dims.clone());
            }
            LayerLowering::Identity => {
                let record = cursor.take(lowering.name())?;
                *cur = self.alias_value(*cur, record.out_dims.clone());
            }
            LayerLowering::Affine(bn) => {
                let record = cursor.take(lowering.name())?;
                let out = record
                    .out
                    .expect("affine records an output range")
                    .params(total_bits)?;
                let (scale, shift) = bn.folded();
                let (m, b) = quantize_affine(&scale, &shift, *params, out);
                *cur = self.push(
                    StepKind::Affine(Box::new(PlanAffine { m, b, out })),
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
                *params = out;
            }
            LayerLowering::McDropout { rate } => {
                let record = cursor.take(lowering.name())?;
                let in_dims = self.dims(*cur);
                let unit = if in_dims.len() == 3 {
                    // NCHW at run time: one draw per (batch, channel).
                    in_dims[0]
                } else {
                    in_dims.iter().product()
                };
                self.mask_unit = self.mask_unit.max(unit);
                *cur = self.push(
                    StepKind::McDropout {
                        rate: *rate,
                        scale_q: dropout_scale_q(*rate),
                        params: *params,
                        rng: Xoshiro256StarStar::seed_from_u64(0),
                    },
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
            }
            LayerLowering::Residual { main, shortcut } => {
                let v_in = *cur;
                let first = self.steps.len();
                let in_params = *params;
                let mut main_params = in_params;
                let mut v_main = v_in;
                for child in main {
                    self.emit(child, cursor, &mut main_params, &mut v_main)?;
                }
                let main_end = self.steps.len();
                let mut short_params = in_params;
                let mut v_short = v_in;
                for child in shortcut {
                    self.emit(child, cursor, &mut short_params, &mut v_short)?;
                }
                let merge = self.steps.len();
                // The block input survives the main path (its next reader is
                // the first shortcut step, or the merge); the main output
                // survives the shortcut.
                self.pending.push((v_in, first, main_end));
                self.pending.push((v_main, main_end, merge));
                let record = cursor.take(lowering.name())?;
                let out = record
                    .out
                    .expect("residual records an output range")
                    .params(total_bits)?;
                *cur = self.push(
                    StepKind::Merge {
                        m_shift: main_params.fractional_bits() as i32
                            - out.fractional_bits() as i32,
                        s_shift: short_params.fractional_bits() as i32
                            - out.fractional_bits() as i32,
                        out,
                    },
                    v_main,
                    Some(v_short),
                    record.out_dims.clone(),
                );
                *params = out;
            }
        }
        Ok(())
    }
}

/// Static per-sample integer-op estimate of one step: multiply-accumulates
/// for conv/dense, touched elements for pools/element-wise steps, two
/// requantize-adds per element for a residual merge.
fn step_unit_ops(kind: &StepKind, in_dims: &[usize], out_dims: &[usize]) -> u64 {
    let in_elems: usize = in_dims.iter().product();
    let out_elems: usize = out_dims.iter().product();
    match kind {
        StepKind::Conv(c) => (c.in_c * c.kernel * c.kernel * out_elems) as u64,
        StepKind::Dense(d) => (d.in_f * d.out_f) as u64,
        StepKind::MaxPool { kernel, .. } | StepKind::AvgPool { kernel, .. } => {
            (kernel * kernel * out_elems) as u64
        }
        StepKind::GlobalAvgPool => in_elems as u64,
        StepKind::Relu | StepKind::Affine(_) | StepKind::McDropout { .. } => out_elems as u64,
        StepKind::Merge { .. } => 2 * out_elems as u64,
    }
}

/// Elementwise steps may run in place when their input dies at the step.
fn aliasable(kind: &StepKind) -> bool {
    matches!(
        kind,
        StepKind::Relu | StepKind::Affine(_) | StepKind::McDropout { .. }
    )
}

impl QuantPlan {
    /// Compiles the plan for one format from a calibrated network. See
    /// [`CalibratedNetwork::plan`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unsupported`] for formats wider than 16 bits,
    /// or [`QuantError::Internal`] on lowering/record skew.
    pub(crate) fn compile(
        calibrated: &CalibratedNetwork,
        format: FixedPointFormat,
    ) -> Result<Self, QuantError> {
        let total_bits = QuantParams::new(format)?.format().total_bits();
        let in_params = calibrated.input.params(total_bits)?;
        let mut builder = PlanBuilder {
            total_bits,
            steps: Vec::new(),
            values: Vec::new(),
            cols_unit: 0,
            acc_unit: 0,
            mask_unit: 0,
            pending: Vec::new(),
        };
        let input_value = builder.new_value(calibrated.in_dims.clone());

        // Backbone: blocks in execution order; the value live at each block
        // boundary is pinned (exit branches re-read it on every MC pass).
        let mut params = in_params;
        let mut cur = input_value;
        let mut block_values = Vec::with_capacity(calibrated.blocks.len());
        let mut block_params = Vec::with_capacity(calibrated.blocks.len());
        let mut block_bounds = Vec::with_capacity(calibrated.blocks.len());
        for (lowering, record) in &calibrated.blocks {
            let mut cursor = RecordCursor::new(&record.ops);
            builder.emit(lowering, &mut cursor, &mut params, &mut cur)?;
            cursor.finish()?;
            let root = builder.root(cur);
            builder.values[root].pinned = true;
            block_values.push(cur);
            block_params.push(params);
            block_bounds.push(builder.steps.len());
        }
        let backbone_len = builder.steps.len();

        // Exit branches, attachment order.
        let mut exit_meta = Vec::with_capacity(calibrated.exits.len());
        for (after_block, lowering, record) in &calibrated.exits {
            let mut cursor = RecordCursor::new(&record.ops);
            let mut exit_params = block_params[*after_block];
            let mut exit_cur = block_values[*after_block];
            let start = builder.steps.len();
            builder.emit(lowering, &mut cursor, &mut exit_params, &mut exit_cur)?;
            cursor.finish()?;
            exit_meta.push((start, exit_cur, exit_params, *after_block));
        }

        // Liveness over the flat step list, then linear-scan slot assignment
        // with free-list (ping-pong) reuse.
        let n_values = builder.values.len();
        let mut last_use = vec![usize::MAX; n_values];
        for (j, step) in builder.steps.iter().enumerate() {
            last_use[builder.root(step.src)] = j;
            if let Some(s2) = step.src2 {
                last_use[builder.root(s2)] = j;
            }
        }
        let mut slot_of = vec![usize::MAX; n_values];
        let mut slot_elems: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let assign = |slot_of: &mut Vec<usize>,
                      slot_elems: &mut Vec<usize>,
                      free: &mut Vec<usize>,
                      value: usize,
                      elems: usize|
         -> usize {
            let slot = free.pop().unwrap_or_else(|| {
                slot_elems.push(0);
                slot_elems.len() - 1
            });
            slot_of[value] = slot;
            slot_elems[slot] = slot_elems[slot].max(elems);
            slot
        };
        let input_elems: usize = calibrated.in_dims.iter().product();
        assign(
            &mut slot_of,
            &mut slot_elems,
            &mut free,
            input_value,
            input_elems,
        );
        for j in 0..builder.steps.len() {
            let (src_root, src2_root, dst_root, kind_aliasable, out_elems) = {
                let step = &builder.steps[j];
                (
                    builder.root(step.src),
                    step.src2.map(|s| builder.root(s)),
                    builder.root(step.dst),
                    aliasable(&step.kind),
                    step.out_elems(),
                )
            };
            let src_dies = last_use[src_root] == j && !builder.values[src_root].pinned;
            if kind_aliasable && src_dies {
                let slot = slot_of[src_root];
                slot_of[dst_root] = slot;
                slot_elems[slot] = slot_elems[slot].max(out_elems);
            } else {
                assign(
                    &mut slot_of,
                    &mut slot_elems,
                    &mut free,
                    dst_root,
                    out_elems,
                );
                let dst_slot = slot_of[dst_root];
                let mut dead = [None, None];
                if src_dies && slot_of[src_root] != dst_slot {
                    dead[0] = Some(slot_of[src_root]);
                }
                if let Some(s2) = src2_root {
                    if last_use[s2] == j
                        && !builder.values[s2].pinned
                        && slot_of[s2] != dst_slot
                        && Some(slot_of[s2]) != dead[0]
                    {
                        dead[1] = Some(slot_of[s2]);
                    }
                }
                for slot in dead.into_iter().flatten() {
                    free.push(slot);
                }
            }
        }

        // Rewrite value ids into slot ids.
        let mut steps = builder.steps;
        for step in &mut steps {
            step.src = slot_of[builder.values[step.src].alias_of.unwrap_or(step.src)];
            if let Some(s2) = step.src2 {
                step.src2 = Some(slot_of[builder.values[s2].alias_of.unwrap_or(s2)]);
            }
            step.dst = slot_of[builder.values[step.dst].alias_of.unwrap_or(step.dst)];
        }
        debug_assert!(
            builder.pending.iter().all(|&(value, first, end)| {
                let slot = slot_of[builder.values[value].alias_of.unwrap_or(value)];
                steps[first..end].iter().all(|step| step.dst != slot)
            }),
            "a plan step overwrites a pending residual operand"
        );
        let total = steps.len();
        let mut exits = Vec::with_capacity(exit_meta.len());
        let mut logit_unit = 0usize;
        for (i, (start, out_value, out_params, after_block)) in exit_meta.iter().enumerate() {
            let end = exit_meta
                .get(i + 1)
                .map(|(next_start, _, _, _)| *next_start)
                .unwrap_or(total);
            let exit_steps = steps[*start..end].to_vec();
            let out_root = builder.values[*out_value].alias_of.unwrap_or(*out_value);
            let out_dims = builder.values[*out_value].dims.clone();
            logit_unit = logit_unit.max(out_dims.iter().product());
            exits.push(PlanExit {
                steps: exit_steps,
                out_slot: slot_of[out_root],
                out_params: *out_params,
                out_dims,
                after_block: *after_block,
            });
        }
        steps.truncate(backbone_len);
        let backbone = steps;

        // Block-boundary metadata for adaptive execution: the pinned slot
        // holding each block's output and its per-sample element count (the
        // compaction gather unit — rows are packed at the value's own dims).
        let block_slots: Vec<usize> = block_values
            .iter()
            .map(|&v| slot_of[builder.values[v].alias_of.unwrap_or(v)])
            .collect();
        let block_units: Vec<usize> = block_values
            .iter()
            .map(|&v| builder.values[v].dims.iter().product())
            .collect();

        let mut arena = Arena::default();
        arena.slots.resize(slot_elems.len(), Vec::new());
        Ok(QuantPlan {
            format,
            width: in_params.width(),
            classes: calibrated.classes,
            in_params,
            in_dims: calibrated.in_dims.clone(),
            input_slot: slot_of[input_value],
            backbone,
            exits,
            block_bounds,
            block_slots,
            block_units,
            slot_elems,
            cols_unit: builder.cols_unit,
            acc_unit: builder.acc_unit,
            mask_unit: builder.mask_unit,
            logit_unit,
            arena,
            exec: None,
            masks: MaskGranularity::PerSample,
        })
    }

    /// The format this plan was compiled for.
    pub fn format(&self) -> FixedPointFormat {
        self.format
    }

    /// Number of predicted classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Per-sample input dims the plan was compiled for (batch axis
    /// stripped): inputs must be shaped `[batch, ..in_dims]`.
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Pre-sizes the arena for `max_batch` samples, so a serving worker can
    /// pay every allocation up front and subsequent calls with any batch up
    /// to `max_batch` stay allocation-free. Monotone: never shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        self.ensure_arena(max_batch.max(1));
    }

    /// Number of flattened steps (backbone plus all exits).
    pub fn num_steps(&self) -> usize {
        self.backbone.len() + self.exits.iter().map(|e| e.steps.len()).sum::<usize>()
    }

    /// Number of arena activation slots the liveness plan settled on.
    pub fn num_slots(&self) -> usize {
        self.slot_elems.len()
    }

    /// The calibrated output format of every exit branch, in attachment
    /// order.
    pub fn exit_out_params(&self) -> Vec<QuantParams> {
        self.exits.iter().map(|e| e.out_params).collect()
    }

    /// Exports the plan's flattened step list as a backend-readable
    /// [`PlanSchedule`]: the same steps, constants, shifts and slot
    /// assignments this plan executes, with the runtime state (RNG streams,
    /// arena, executor) stripped. See [`crate::schedule`].
    pub fn schedule(&self) -> PlanSchedule {
        fn export_step(step: &Step) -> ScheduleStep {
            let op = match &step.kind {
                StepKind::Conv(c) => ScheduleOp::Conv {
                    weights: c.w16.clone(),
                    bias: c.bias.clone(),
                    out_c: c.out_c,
                    in_c: c.in_c,
                    kernel: c.kernel,
                    stride: c.stride,
                    padding: c.padding,
                    shift: c.shift,
                    w_frac: c.w_frac,
                    out: c.out,
                },
                StepKind::Dense(d) => ScheduleOp::Dense {
                    weights_t: d.wt16.clone(),
                    bias: d.bias.clone(),
                    in_f: d.in_f,
                    out_f: d.out_f,
                    shift: d.shift,
                    w_frac: d.w_frac,
                    out: d.out,
                },
                StepKind::Relu => ScheduleOp::Relu,
                StepKind::MaxPool { kernel, stride } => ScheduleOp::MaxPool {
                    kernel: *kernel,
                    stride: *stride,
                },
                StepKind::AvgPool { kernel, stride } => ScheduleOp::AvgPool {
                    kernel: *kernel,
                    stride: *stride,
                },
                StepKind::GlobalAvgPool => ScheduleOp::GlobalAvgPool,
                StepKind::Affine(a) => ScheduleOp::Affine {
                    m: a.m.clone(),
                    b: a.b.clone(),
                    out: a.out,
                },
                StepKind::McDropout {
                    rate,
                    scale_q,
                    params,
                    rng: _,
                } => ScheduleOp::McDropout {
                    rate: *rate,
                    scale_q: *scale_q,
                    params: *params,
                },
                StepKind::Merge {
                    m_shift,
                    s_shift,
                    out,
                } => ScheduleOp::Merge {
                    m_shift: *m_shift,
                    s_shift: *s_shift,
                    out: *out,
                },
            };
            ScheduleStep {
                op,
                src: step.src,
                src2: step.src2,
                dst: step.dst,
                in_dims: step.in_dims.clone(),
                out_dims: step.out_dims.clone(),
                unit_ops: step.ops,
            }
        }

        PlanSchedule {
            format: self.format,
            classes: self.classes,
            in_params: self.in_params,
            in_dims: self.in_dims.clone(),
            input_slot: self.input_slot,
            backbone: self.backbone.iter().map(export_step).collect(),
            exits: self
                .exits
                .iter()
                .map(|e| ScheduleExit {
                    steps: e.steps.iter().map(export_step).collect(),
                    out_slot: e.out_slot,
                    out_params: e.out_params,
                    out_dims: e.out_dims.clone(),
                    after_block: e.after_block,
                })
                .collect(),
            slot_elems: self.slot_elems.clone(),
        }
    }

    /// Pins every kernel in this plan to `exec` instead of the work-size
    /// based auto selection. `Executor::sequential()` makes the steady state
    /// strictly allocation-free (the thread-pool fan-out of large kernels
    /// allocates its scoped workers); results are bitwise identical either
    /// way.
    pub fn set_executor(&mut self, exec: Executor) {
        self.exec = Some(exec);
    }

    /// Grows the arena for `batch` samples (monotone: repeated calls with
    /// the same or smaller batch perform no allocation).
    fn ensure_arena(&mut self, batch: usize) {
        for (slot, &unit) in self.arena.slots.iter_mut().zip(&self.slot_elems) {
            let need = unit * batch;
            if slot.len() < need {
                slot.resize(need, 0);
            }
        }
        let grow = |v: &mut Vec<i16>, need: usize| {
            if v.len() < need {
                v.resize(need, 0);
            }
        };
        grow(&mut self.arena.cols, self.cols_unit * batch);
        if self.arena.acc32.len() < self.acc_unit * batch && self.width == IntWidth::W8 {
            self.arena.acc32.resize(self.acc_unit * batch, 0);
        }
        if self.arena.acc64.len() < self.acc_unit * batch && self.width == IntWidth::W16 {
            self.arena.acc64.resize(self.acc_unit * batch, 0);
        }
        if self.arena.mask.len() < self.mask_unit * batch {
            self.arena.mask.resize(self.mask_unit * batch, false);
        }
        if self.arena.logits.len() < self.logit_unit * batch {
            self.arena.logits.resize(self.logit_unit * batch, 0.0);
        }
        self.arena.walk.reserve(batch, self.classes);
    }

    /// Quantizes the float input batch into the input slot, rejecting NaN
    /// and infinite values (the float-to-code cast would otherwise map NaN
    /// to code 0 and return a normal-looking distribution).
    fn load_input(&mut self, inputs: &Tensor) -> Result<usize, QuantError> {
        if inputs.dims().len() != self.in_dims.len() + 1 || inputs.dims()[1..] != self.in_dims[..] {
            return Err(QuantError::InvalidInput(format!(
                "plan expects input dims [batch, {:?}], got {:?}",
                self.in_dims,
                inputs.dims()
            )));
        }
        if inputs.dims()[0] == 0 {
            return Err(QuantError::InvalidInput("empty input batch".into()));
        }
        if let Some(i) = inputs.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(QuantError::NonFinite(format!(
                "input element {i} is {}",
                inputs.as_slice()[i]
            )));
        }
        let batch = inputs.dims()[0];
        self.ensure_arena(batch);
        let params = self.in_params;
        let slot = &mut self.arena.slots[self.input_slot];
        for (dst, &v) in slot.iter_mut().zip(inputs.as_slice()) {
            *dst = params.quantize_value(v) as i16;
        }
        Ok(batch)
    }

    /// Runs the backbone deterministically and the exit branches in `mode`,
    /// returning one dequantized logit tensor per exit (bit-exact with
    /// `bnn_hls::HlsSimulator::forward_exits`, see `tests/hls_golden_sim.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidInput`] for an empty batch or an input
    /// shape mismatch, [`QuantError::NonFinite`] for NaN/infinite input
    /// values, or propagates execution errors.
    pub fn forward_exits_int(
        &mut self,
        inputs: &Tensor,
        mode: Mode,
    ) -> Result<Vec<Tensor>, QuantError> {
        let batch = self.load_input(inputs)?;
        self.per_batch(|plan| {
            plan.run_blocks(0..plan.block_bounds.len(), batch)?;
            (0..plan.exits.len())
                .map(|e| {
                    let logits = plan.run_exit(e, batch, mode)?.to_vec();
                    let mut dims = vec![batch];
                    dims.extend_from_slice(&plan.exits[e].out_dims);
                    Ok(Tensor::from_vec(logits, &dims)?)
                })
                .collect()
        })
    }

    /// Runs `f` with masks drawn per (batch, channel), the granularity of
    /// Phase 3 scoring and `bnn_hls::HlsSimulator`.
    fn per_batch<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.masks = MaskGranularity::PerBatch;
        let result = f(self);
        self.masks = MaskGranularity::PerSample;
        result
    }

    /// Seeded Monte-Carlo prediction into `out` (`[batch, classes]`,
    /// resized): [`walker::predict_fixed`] with masks drawn per (batch,
    /// channel) (`MaskGranularity::PerBatch`). Bit-exact with
    /// `bnn_hls::HlsSimulator::predict_probs`; zero steady-state heap
    /// allocation once the arena is warm (sequential executor).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Internal`] for a plan without exits,
    /// [`QuantError::InvalidInput`] for an empty batch or an input shape
    /// mismatch, [`QuantError::NonFinite`] for NaN/infinite input values, or
    /// propagates execution errors.
    pub fn predict_probs_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), QuantError> {
        self.per_batch(|plan| walker::predict_fixed(plan, inputs, n_samples, seed, out))
    }

    /// The batch-boundary-invariant counterpart of
    /// [`QuantPlan::predict_probs_into`]: masks are drawn **per sample** and
    /// broadcast across the batch, so every row is bit-exact with a
    /// single-sample call at the same seed however requests were batched
    /// (and the whole call is, for `batch == 1`). The serving entry point;
    /// allocation-free once warm, see [`QuantPlan::ensure_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidInput`] for an empty batch or an input
    /// shape mismatch, [`QuantError::NonFinite`] for NaN/infinite input
    /// values, or propagates execution errors.
    pub fn predict_probs_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), QuantError> {
        walker::predict_fixed(self, inputs, n_samples, seed, out)
    }

    /// [`QuantPlan::predict_probs_into`] returning a fresh tensor.
    ///
    /// # Errors
    ///
    /// See [`QuantPlan::predict_probs_into`].
    pub fn predict_probs(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, QuantError> {
        let mut out = Vec::new();
        let (batch, classes) = self.predict_probs_into(inputs, n_samples, seed, &mut out)?;
        Ok(Tensor::from_vec(out, &[batch, classes])?)
    }

    /// Static cost of the fixed-depth path
    /// ([`QuantPlan::predict_probs_batch_into`]) for a `batch`-sample call
    /// at `n_samples` MC samples; see [`walker::fixed_cost`].
    pub fn fixed_cost(&self, batch: usize, n_samples: usize) -> (u64, u64) {
        walker::fixed_cost(self, batch, n_samples)
    }

    /// Policy-driven adaptive batched prediction ([`walker::predict_adaptive`]):
    /// confident samples retire at shallow exits and the survivors are
    /// compacted in place within the pinned block-boundary slot, so only
    /// stragglers pay for deeper blocks. Every row — probabilities *and*
    /// exit — is bit-exact with evaluating that sample alone; `Never` is
    /// bit-exact with [`QuantPlan::predict_probs_batch_into`]. Allocation-free
    /// once warm, see [`QuantPlan::ensure_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidInput`] for an invalid policy threshold,
    /// an empty batch or a shape mismatch, [`QuantError::NonFinite`] for
    /// NaN/infinite input values, [`QuantError::Internal`] for a plan
    /// without exits or with exits attached out of depth order, or
    /// propagates execution errors.
    pub fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, QuantError> {
        walker::predict_adaptive(self, inputs, n_samples, seed, policy, out, exit_taken)
    }

    /// [`QuantPlan::predict_adaptive_batch_into`] returning owned values.
    ///
    /// # Errors
    ///
    /// See [`QuantPlan::predict_adaptive_batch_into`].
    pub fn predict_adaptive_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
    ) -> Result<AdaptivePrediction, QuantError> {
        ExitPlan::predict_adaptive_batch(self, inputs, n_samples, seed, policy)
    }

    /// Backbone step range of `blocks`.
    fn block_steps(&self, blocks: Range<usize>) -> Range<usize> {
        let bound = |b: usize| b.checked_sub(1).map_or(0, |b| self.block_bounds[b]);
        bound(blocks.start)..bound(blocks.end)
    }
}

/// The walker's view of the integer plan: blocks and exits run on the
/// arena at the plan's current mask granularity (per-sample outside
/// [`QuantPlan::predict_probs_into`]), and compaction moves rows within the
/// pinned block-boundary slots.
impl ExitPlan for QuantPlan {
    type Error = QuantError;

    fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    fn num_exits(&self) -> usize {
        self.exits.len()
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn exit_block(&self, exit: usize) -> usize {
        self.exits[exit].after_block
    }

    fn block_cost(&self, block: usize) -> (u64, u64) {
        let steps = &self.backbone[self.block_steps(block..block + 1)];
        (steps.len() as u64, steps.iter().map(|s| s.ops).sum())
    }

    fn exit_cost(&self, exit: usize) -> (u64, u64) {
        let steps = &self.exits[exit].steps;
        (steps.len() as u64, steps.iter().map(|s| s.ops).sum())
    }

    fn ensure_batch(&mut self, max_batch: usize) {
        QuantPlan::ensure_batch(self, max_batch);
    }

    fn stage_input(&mut self, inputs: &Tensor) -> Result<usize, QuantError> {
        self.load_input(inputs)
    }

    fn run_blocks(&mut self, blocks: Range<usize>, live: usize) -> Result<(), QuantError> {
        let (width, exec, masks) = (self.width, self.exec, self.masks);
        let steps = self.block_steps(blocks);
        for step in &mut self.backbone[steps] {
            run_step(step, &mut self.arena, width, exec, live, Mode::Eval, masks)?;
        }
        Ok(())
    }

    fn run_exit(&mut self, exit: usize, live: usize, mode: Mode) -> Result<&[f32], QuantError> {
        let (width, exec, masks) = (self.width, self.exec, self.masks);
        let exit = &mut self.exits[exit];
        for step in &mut exit.steps {
            run_step(step, &mut self.arena, width, exec, live, mode, masks)?;
        }
        let n: usize = exit.out_dims.iter().product::<usize>() * live;
        let scale = exit.out_params.scale();
        let logits = &mut self.arena.logits[..n];
        for (l, &c) in logits.iter_mut().zip(&self.arena.slots[exit.out_slot][..n]) {
            *l = c as f32 * scale;
        }
        Ok(logits)
    }

    /// Walks the flat step list (backbone, then exits in attachment
    /// order): the float network's stream assignment.
    fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut streams = SplitMix64::new(master_seed);
        let exit_steps = self.exits.iter_mut().flat_map(|e| e.steps.iter_mut());
        for step in self.backbone.iter_mut().chain(exit_steps) {
            if let StepKind::McDropout { rng, .. } = &mut step.kind {
                *rng = Xoshiro256StarStar::seed_from_u64(streams.next_u64());
            }
        }
    }

    fn move_row(&mut self, block: usize, from: usize, to: usize) {
        let unit = self.block_units[block];
        self.arena.slots[self.block_slots[block]]
            .copy_within(from * unit..(from + 1) * unit, to * unit);
    }

    fn scratch(&mut self) -> &mut WalkScratch {
        &mut self.arena.walk
    }
}

impl CalibratedNetwork {
    /// Compiles the arena-allocated execution plan for one format — pure
    /// bookkeeping over the stored records plus one-time weight packing; no
    /// float inference.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unsupported`] for formats wider than 16 bits,
    /// or [`QuantError::Internal`] on lowering/record skew.
    pub fn plan(&self, format: FixedPointFormat) -> Result<QuantPlan, QuantError> {
        QuantPlan::compile(self, format)
    }
}

/// Executes one flattened step on the arena.
fn run_step(
    step: &mut Step,
    arena: &mut Arena,
    width: IntWidth,
    exec: Option<Executor>,
    batch: usize,
    mode: Mode,
    masks: MaskGranularity,
) -> Result<(), QuantError> {
    let in_elems = step.in_elems() * batch;
    let out_elems = step.out_elems() * batch;
    let pick_exec = |work: usize| -> Executor {
        match exec {
            Some(e) => e,
            None => {
                if work >= PAR_MACS_THRESHOLD {
                    Executor::global()
                } else {
                    Executor::sequential()
                }
            }
        }
    };
    let is_max_pool = matches!(step.kind, StepKind::MaxPool { .. });
    match &mut step.kind {
        StepKind::Conv(conv) => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, conv.kernel, conv.stride, conv.padding);
            let plane = geom.out_h() * geom.out_w();
            let kred = conv.in_c * conv.kernel * conv.kernel;
            let ncols = batch * plane;
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            {
                let src = &arena.slots[step.src][..in_elems];
                im2row_i16_into(src, batch, c, &geom, &mut arena.cols)?;
            }
            let exec = pick_exec(conv.out_c * kred * ncols);
            let out = conv.out;
            let (qmin, qmax) = (out.qmin(), out.qmax());
            match width {
                IntWidth::W8 => {
                    let acc = &mut arena.acc32[..conv.out_c * ncols];
                    matmul_wide_i32_into(
                        &exec,
                        &conv.w16,
                        &arena.cols[..kred * ncols],
                        conv.out_c,
                        kred,
                        ncols,
                        acc,
                    )?;
                    for co in 0..conv.out_c {
                        for b in 0..batch {
                            let src_row =
                                &acc[co * ncols + b * plane..co * ncols + (b + 1) * plane];
                            let start = (b * conv.out_c + co) * plane;
                            let dst_row = &mut dst[start..start + plane];
                            requantize_i32_row_into(
                                src_row,
                                conv.bias[co],
                                conv.shift,
                                qmin,
                                qmax,
                                dst_row,
                            );
                        }
                    }
                }
                IntWidth::W16 => {
                    let acc = &mut arena.acc64[..conv.out_c * ncols];
                    matmul_abt_i64_into(
                        &exec,
                        &conv.w16,
                        &arena.cols[..kred * ncols],
                        conv.out_c,
                        kred,
                        ncols,
                        acc,
                    )?;
                    for co in 0..conv.out_c {
                        for b in 0..batch {
                            let src_row =
                                &acc[co * ncols + b * plane..co * ncols + (b + 1) * plane];
                            let start = (b * conv.out_c + co) * plane;
                            let dst_row = &mut dst[start..start + plane];
                            requantize_i64_row_into(
                                src_row,
                                conv.bias[co],
                                conv.shift,
                                qmin,
                                qmax,
                                dst_row,
                            );
                        }
                    }
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::Dense(dense) => {
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let out = dense.out;
            let (qmin, qmax) = (out.qmin(), out.qmax());
            let exec = pick_exec(batch * dense.in_f * dense.out_f);
            match width {
                IntWidth::W8 => {
                    let acc = &mut arena.acc32[..batch * dense.out_f];
                    matmul_wide_i32_into(
                        &exec,
                        &arena.slots[step.src][..in_elems],
                        &dense.wt16,
                        batch,
                        dense.in_f,
                        dense.out_f,
                        acc,
                    )?;
                    for (dst_row, acc_row) in dst[..out_elems]
                        .chunks_exact_mut(dense.out_f)
                        .zip(acc.chunks_exact(dense.out_f))
                    {
                        requantize_i32_row_biased_into(
                            acc_row,
                            &dense.bias,
                            dense.shift,
                            qmin,
                            qmax,
                            dst_row,
                        );
                    }
                }
                IntWidth::W16 => {
                    let acc = &mut arena.acc64[..batch * dense.out_f];
                    matmul_abt_i64_into(
                        &exec,
                        &arena.slots[step.src][..in_elems],
                        &dense.wt16,
                        batch,
                        dense.in_f,
                        dense.out_f,
                        acc,
                    )?;
                    for (dst_row, acc_row) in dst[..out_elems]
                        .chunks_exact_mut(dense.out_f)
                        .zip(acc.chunks_exact(dense.out_f))
                    {
                        requantize_i64_row_biased_into(
                            acc_row,
                            &dense.bias,
                            dense.shift,
                            qmin,
                            qmax,
                            dst_row,
                        );
                    }
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::Relu => {
            if step.src == step.dst {
                for v in arena.slots[step.dst][..in_elems].iter_mut() {
                    *v = (*v).max(0);
                }
            } else {
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                for (d, &s) in dst[..in_elems]
                    .iter_mut()
                    .zip(&arena.slots[step.src][..in_elems])
                {
                    *d = s.max(0);
                }
                arena.slots[step.dst] = dst;
            }
        }
        StepKind::MaxPool { kernel, stride } | StepKind::AvgPool { kernel, stride } => {
            let is_max = is_max_pool;
            let (kernel, stride) = (*kernel, *stride);
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, kernel, stride, 0);
            let (oh, ow) = (geom.out_h(), geom.out_w());
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let src = &arena.slots[step.src][..in_elems];
            for b in 0..batch {
                for ch in 0..c {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut best = i64::MIN;
                            let mut acc = 0i64;
                            for ky in 0..kernel {
                                for kx in 0..kernel {
                                    let iy = y * stride + ky;
                                    let ix = x * stride + kx;
                                    if iy < h && ix < w {
                                        let v = src[((b * c + ch) * h + iy) * w + ix] as i64;
                                        best = best.max(v);
                                        acc += v;
                                    }
                                }
                            }
                            dst[((b * c + ch) * oh + y) * ow + x] = if is_max {
                                best as i16
                            } else {
                                div_round(acc, (kernel * kernel) as i64) as i16
                            };
                        }
                    }
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::GlobalAvgPool => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let plane = (h * w) as i64;
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let src = &arena.slots[step.src][..in_elems];
            for b in 0..batch {
                for ch in 0..c {
                    let start = (b * c + ch) * h * w;
                    let acc: i64 = src[start..start + h * w].iter().map(|&v| v as i64).sum();
                    dst[b * c + ch] = div_round(acc, plane) as i16;
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::Affine(aff) => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let plane = h * w;
            let out = aff.out;
            let (qmin, qmax) = (out.qmin(), out.qmax());
            let apply = |src: &[i16], dst: &mut [i16]| {
                for b in 0..batch {
                    for ch in 0..c {
                        let start = (b * c + ch) * plane;
                        for i in 0..plane {
                            let x = src[start + i] as i64;
                            dst[start + i] =
                                requantize(x * aff.m[ch] + aff.b[ch], MUL_FRAC as i32, qmin, qmax)
                                    as i16;
                        }
                    }
                }
            };
            if step.src == step.dst {
                let mut buf = std::mem::take(&mut arena.slots[step.dst]);
                let src_copy: &mut [i16] = &mut buf[..in_elems];
                // Elementwise read-then-write on the same index is in-place
                // safe; do it in a single pass.
                for b in 0..batch {
                    for ch in 0..c {
                        let start = (b * c + ch) * plane;
                        for v in src_copy[start..start + plane].iter_mut() {
                            *v = requantize(
                                *v as i64 * aff.m[ch] + aff.b[ch],
                                MUL_FRAC as i32,
                                qmin,
                                qmax,
                            ) as i16;
                        }
                    }
                }
                arena.slots[step.dst] = buf;
            } else {
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                apply(&arena.slots[step.src][..in_elems], &mut dst[..in_elems]);
                arena.slots[step.dst] = dst;
            }
        }
        StepKind::McDropout {
            rate,
            scale_q,
            params,
            rng,
        } => {
            let sampling = mode.samples_mc_dropout() && *rate > 0.0;
            if !sampling {
                // Stream positions stay aligned: a non-sampling pass draws
                // nothing, exactly like the float McDropout layer.
                if step.src != step.dst {
                    let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                    dst[..in_elems].copy_from_slice(&arena.slots[step.src][..in_elems]);
                    arena.slots[step.dst] = dst;
                }
                return Ok(());
            }
            let keep = 1.0 - *rate;
            // Filter-wise for NCHW (per-sample dims of rank 3), element-wise
            // otherwise — the same draw order as `draw_keep_mask`. Per-sample
            // granularity draws one sample's worth of masks and tiles them
            // across the batch (`% draws`); for batch 1 the draw count and
            // the applied mask are identical in both modes.
            let (draws, plane) = if step.in_dims.len() == 3 {
                let per_sample = match masks {
                    MaskGranularity::PerBatch => batch,
                    MaskGranularity::PerSample => 1,
                };
                (
                    per_sample * step.in_dims[0],
                    step.in_dims[1] * step.in_dims[2],
                )
            } else {
                let per_sample = match masks {
                    MaskGranularity::PerBatch => in_elems,
                    MaskGranularity::PerSample => in_elems / batch,
                };
                (per_sample, 1)
            };
            for m in arena.mask[..draws].iter_mut() {
                *m = rng.bernoulli(keep);
            }
            let (qmin, qmax) = (params.qmin(), params.qmax());
            let scale_q = *scale_q;
            let mask = &arena.mask;
            let drop_one = |v: i64, kept: bool| -> i16 {
                if kept {
                    requantize(v * scale_q, MUL_FRAC as i32, qmin, qmax) as i16
                } else {
                    0
                }
            };
            if step.src == step.dst {
                let mut buf = std::mem::take(&mut arena.slots[step.dst]);
                for (i, v) in buf[..in_elems].iter_mut().enumerate() {
                    *v = drop_one(*v as i64, mask[(i / plane) % draws]);
                }
                arena.slots[step.dst] = buf;
            } else {
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                for (i, (d, &s)) in dst[..in_elems]
                    .iter_mut()
                    .zip(&arena.slots[step.src][..in_elems])
                    .enumerate()
                {
                    *d = drop_one(s as i64, mask[(i / plane) % draws]);
                }
                arena.slots[step.dst] = dst;
            }
        }
        StepKind::Merge {
            m_shift,
            s_shift,
            out,
        } => {
            let (qmin, qmax) = (out.qmin(), out.qmax());
            let (m_shift, s_shift) = (*m_shift, *s_shift);
            let src2 = step.src2.expect("merge has a shortcut source");
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let main = &arena.slots[step.src][..out_elems];
            let short = &arena.slots[src2][..out_elems];
            for ((d, &a), &b) in dst[..out_elems].iter_mut().zip(main).zip(short) {
                let x = requantize(a as i64, m_shift, qmin, qmax);
                let y = requantize(b as i64, s_shift, qmin, qmax);
                *d = (x + y).max(0).min(qmax) as i16;
            }
            arena.slots[step.dst] = dst;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, LayerSpec, ModelConfig, NetworkSpec};
    use bnn_nn::layer::Mode;
    use bnn_nn::Network;

    fn fmt(total: u32, int: u32) -> FixedPointFormat {
        FixedPointFormat::new(total, int).unwrap()
    }

    fn calib_batch(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Tensor::randn(dims, &mut rng)
    }

    fn lenet(seed: u64) -> bnn_models::MultiExitNetwork {
        zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap()
        .build(seed)
        .unwrap()
    }

    #[test]
    fn plan_reuses_slots_via_liveness() {
        let net = lenet(1);
        let calib = calib_batch(&[4, 1, 10, 10], 2);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let plan = calibrated.plan(fmt(8, 3)).unwrap();
        // The flat plan has many steps but far fewer slots: transient
        // activations ping-pong while block outputs stay pinned.
        assert!(
            plan.num_steps() > plan.num_slots(),
            "{} steps should outnumber {} slots",
            plan.num_steps(),
            plan.num_slots()
        );
        assert_eq!(plan.num_exits(), 2);
        assert_eq!(plan.num_classes(), 4);
        assert_eq!(plan.format(), fmt(8, 3));
    }

    #[test]
    fn batched_predict_is_concat_of_single_sample_calls() {
        let net = lenet(21);
        let calib = calib_batch(&[6, 1, 10, 10], 22);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let batch = 3usize;
        let x = calib_batch(&[batch, 1, 10, 10], 23);
        let per = 100usize;
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut plan = calibrated.plan(format).unwrap();
            let all = plan.predict_probs_batch(&x, 5, 2023).unwrap();
            for b in 0..batch {
                let sample = Tensor::from_vec(
                    x.as_slice()[b * per..(b + 1) * per].to_vec(),
                    &[1, 1, 10, 10],
                )
                .unwrap();
                let one = plan.predict_probs_batch(&sample, 5, 2023).unwrap();
                assert_eq!(
                    &all.as_slice()[b * 4..(b + 1) * 4],
                    one.as_slice(),
                    "{format} sample {b}"
                );
                // Single-sample batched calls are bit-exact with the
                // unbatched entry point (same draws, same indexing).
                let plain = plan.predict_probs(&sample, 5, 2023).unwrap();
                assert_eq!(one.as_slice(), plain.as_slice(), "{format} sample {b}");
            }
        }
    }

    #[test]
    fn adaptive_never_matches_fixed_batch_bitwise() {
        let net = lenet(41);
        let calib = calib_batch(&[6, 1, 10, 10], 42);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let x = calib_batch(&[3, 1, 10, 10], 43);
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut plan = calibrated.plan(format).unwrap();
            let fixed = plan.predict_probs_batch(&x, 6, 2023).unwrap();
            let adaptive = plan
                .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Never)
                .unwrap();
            assert_eq!(fixed.as_slice(), adaptive.probs.as_slice(), "{format}");
            assert_eq!(adaptive.exit_taken, vec![1; 3], "{format}");
            assert_eq!(adaptive.stats.ops_executed, adaptive.stats.ops_fixed);
            assert!(adaptive.stats.ops_fixed > 0);
        }
    }

    #[test]
    fn adaptive_rows_match_single_sample_evaluation() {
        let net = lenet(45);
        let calib = calib_batch(&[6, 1, 10, 10], 46);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let batch = 4usize;
        let x = calib_batch(&[batch, 1, 10, 10], 47);
        let per = 100usize;
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut plan = calibrated.plan(format).unwrap();
            for policy in [
                ExitPolicy::Confidence { threshold: 0.3 },
                ExitPolicy::Entropy { threshold: 0.97 },
                ExitPolicy::Confidence { threshold: 0.0 }, // all retire at exit 0
                ExitPolicy::Confidence { threshold: 1.0 }, // none retire early
            ] {
                for n_samples in [0usize, 6] {
                    let all = plan
                        .predict_adaptive_batch(&x, n_samples, 2023, &policy)
                        .unwrap();
                    for b in 0..batch {
                        let sample = Tensor::from_vec(
                            x.as_slice()[b * per..(b + 1) * per].to_vec(),
                            &[1, 1, 10, 10],
                        )
                        .unwrap();
                        let one = plan
                            .predict_adaptive_batch(&sample, n_samples, 2023, &policy)
                            .unwrap();
                        assert_eq!(
                            &all.probs.as_slice()[b * 4..(b + 1) * 4],
                            one.probs.as_slice(),
                            "{format} {policy} n={n_samples} row {b}"
                        );
                        assert_eq!(
                            all.exit_taken[b], one.exit_taken[0],
                            "{format} {policy} n={n_samples} row {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_saves_ops_when_samples_retire_early() {
        let net = lenet(51);
        let calib = calib_batch(&[6, 1, 10, 10], 52);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let x = calib_batch(&[4, 1, 10, 10], 53);
        let all_early = plan
            .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Confidence { threshold: 0.0 })
            .unwrap();
        assert_eq!(all_early.exit_taken, vec![0; 4]);
        assert!(all_early.stats.ops_executed < all_early.stats.ops_fixed);
        assert!(all_early.stats.ops_saved_fraction() > 0.0);
        // Never pays full freight.
        let never = plan
            .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Never)
            .unwrap();
        assert_eq!(never.stats.ops_saved_fraction(), 0.0);
    }

    #[test]
    fn adaptive_rejects_invalid_policy() {
        let net = lenet(55);
        let calib = calib_batch(&[4, 1, 10, 10], 56);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let x = Tensor::ones(&[1, 1, 10, 10]);
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            assert!(matches!(
                plan.predict_adaptive_batch(&x, 4, 1, &ExitPolicy::Entropy { threshold: bad }),
                Err(QuantError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let net = lenet(31);
        let calib = calib_batch(&[4, 1, 10, 10], 32);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        assert_eq!(plan.in_dims(), &[1, 10, 10]);
        let empty = Tensor::from_vec(Vec::new(), &[0, 1, 10, 10]).unwrap();
        assert!(matches!(
            plan.predict_probs(&empty, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
        let wrong = calib_batch(&[2, 1, 9, 9], 33);
        assert!(matches!(
            plan.predict_probs(&wrong, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
        assert!(matches!(
            plan.predict_probs_batch(&wrong, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
        let no_batch_axis = calib_batch(&[1, 10, 10], 34);
        assert!(matches!(
            plan.predict_probs(&no_batch_axis, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
        // A single non-finite pixel is rejected on every entry point.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut x = calib_batch(&[2, 1, 10, 10], 35);
            x.as_mut_slice()[137] = bad;
            assert!(matches!(
                plan.forward_exits_int(&x, Mode::Eval),
                Err(QuantError::NonFinite(_))
            ));
            assert!(matches!(
                plan.predict_probs(&x, 4, 1),
                Err(QuantError::NonFinite(_))
            ));
            assert!(matches!(
                plan.predict_probs_batch(&x, 4, 1),
                Err(QuantError::NonFinite(_))
            ));
            assert!(matches!(
                plan.predict_adaptive_batch(&x, 4, 1, &ExitPolicy::Never),
                Err(QuantError::NonFinite(_))
            ));
        }
    }

    #[test]
    fn wider_than_sixteen_bits_is_rejected() {
        let net = lenet(37);
        let calib = calib_batch(&[2, 1, 10, 10], 38);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        assert!(matches!(
            calibrated.plan(fmt(24, 8)),
            Err(QuantError::Unsupported(_))
        ));
    }

    fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn four_bit_plan_output_is_on_the_exit_grid() {
        let net = lenet(5);
        let calibrated =
            CalibratedNetwork::calibrate(&net, &calib_batch(&[6, 1, 10, 10], 6)).unwrap();
        let mut plan = calibrated.plan(fmt(4, 2)).unwrap();
        assert_eq!(plan.width, IntWidth::W8);
        let x = calib_batch(&[3, 1, 10, 10], 7);
        let out_params = plan.exit_out_params();
        for mode in [Mode::Eval, Mode::McSample] {
            let exits = plan.forward_exits_int(&x, mode).unwrap();
            for (logits, params) in exits.iter().zip(&out_params) {
                for &v in logits.as_slice() {
                    let steps = v / params.scale();
                    assert_eq!(steps, steps.round(), "{v} is off the {mode:?} exit grid");
                    let code = steps as i64;
                    assert!((params.qmin()..=params.qmax()).contains(&code));
                }
            }
        }
    }

    #[test]
    fn sixteen_bit_formats_use_wide_storage() {
        let net = lenet(12);
        let calibrated =
            CalibratedNetwork::calibrate(&net, &calib_batch(&[4, 1, 10, 10], 13)).unwrap();
        for (format, width) in [
            (fmt(4, 2), IntWidth::W8),
            (fmt(8, 3), IntWidth::W8),
            (fmt(16, 6), IntWidth::W16),
        ] {
            let mut plan = calibrated.plan(format).unwrap();
            assert_eq!(plan.width, width, "{format}");
            assert_eq!(plan.in_params.width(), width, "{format}");
            for params in plan.exit_out_params() {
                assert_eq!(params.width(), width, "{format}");
            }
            let logits = plan
                .forward_exits_int(&calib_batch(&[2, 1, 10, 10], 14), Mode::Eval)
                .unwrap();
            assert!(logits
                .iter()
                .all(|t| t.as_slice().iter().all(|v| v.is_finite())));
        }
    }

    #[test]
    fn max_magnitude_inputs_saturate_instead_of_wrapping() {
        // A dense exit fed the format's extreme input codes through extreme
        // weights must pin at the output format's rails, not wrap.
        let spec = NetworkSpec::single_exit(
            "sat",
            1,
            2,
            4,
            2,
            vec![vec![LayerSpec::Flatten]],
            vec![LayerSpec::Dense {
                in_features: 8,
                out_features: 2,
            }],
        );
        let mut net = spec.build(0).unwrap();
        for w in net.params_mut()[0].value.as_mut_slice() {
            *w = 100.0; // far beyond any 4-bit grid
        }
        // Small calibration activations: the output format underestimates
        // the extreme inputs below.
        let calibrated =
            CalibratedNetwork::calibrate(&net, &calib_batch(&[4, 1, 2, 4], 11)).unwrap();
        let mut plan = calibrated.plan(fmt(4, 2)).unwrap();
        let out = plan.exit_out_params()[0];
        for (fill, rail) in [(1e9f32, out.qmax()), (-1e9, out.qmin())] {
            let x = Tensor::full(&[1, 1, 2, 4], fill);
            let logits = plan.forward_exits_int(&x, Mode::Eval).unwrap();
            for &v in logits[0].as_slice() {
                assert_eq!(
                    v,
                    out.dequantize_value(rail),
                    "input {fill} must pin at {rail}"
                );
            }
        }
    }

    #[test]
    fn softmax_layers_have_no_integer_lowering() {
        let spec = NetworkSpec::single_exit(
            "soft",
            1,
            2,
            2,
            2,
            vec![vec![LayerSpec::Flatten]],
            vec![
                LayerSpec::Dense {
                    in_features: 4,
                    out_features: 2,
                },
                LayerSpec::Softmax,
            ],
        );
        let net = spec.build(0).unwrap();
        assert!(matches!(
            CalibratedNetwork::calibrate(&net, &calib_batch(&[2, 1, 2, 2], 15)),
            Err(QuantError::Unsupported(_))
        ));
    }

    /// A residual block with batch norm (the merge and affine steps) tracks
    /// the float network it was calibrated from.
    #[test]
    fn residual_batchnorm_plan_tracks_float_network_at_sixteen_bits() {
        let spec = NetworkSpec::single_exit(
            "res_bn",
            3,
            6,
            6,
            3,
            vec![vec![
                LayerSpec::Residual {
                    main: vec![
                        LayerSpec::Conv2d {
                            in_channels: 3,
                            out_channels: 3,
                            kernel: 3,
                            stride: 1,
                            padding: 1,
                        },
                        LayerSpec::BatchNorm2d { channels: 3 },
                    ],
                    shortcut: Vec::new(),
                },
                LayerSpec::Relu,
            ]],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 3,
                    out_features: 3,
                },
            ],
        );
        let mut net = spec.build(7).unwrap();
        let calib = calib_batch(&[4, 3, 6, 6], 8);
        // One training-mode pass moves the batch-norm running statistics
        // off their identity initialisation.
        net.forward_exits(&calib, Mode::Train).unwrap();
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(16, 6)).unwrap();
        let x = calib_batch(&[2, 3, 6, 6], 9);
        let int_logits = plan.forward_exits_int(&x, Mode::Eval).unwrap();
        let float_logits = net.forward_exits(&x, Mode::Eval).unwrap();
        // Measured: max |Δ| = 1.9e-4 against logits up to 1.27 in magnitude;
        // the bound is one step of the ap_fixed<16,6> grid (2^-10).
        let diff = max_abs_diff(&int_logits[0], &float_logits[0]);
        assert!(diff <= 1e-3, "max |int - float| = {diff}");
    }

    #[test]
    fn mc_masks_are_stream_seeded_and_eval_is_mask_free() {
        let net = lenet(9);
        let calibrated =
            CalibratedNetwork::calibrate(&net, &calib_batch(&[6, 1, 10, 10], 10)).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let x = calib_batch(&[2, 1, 10, 10], 11);

        plan.reseed_mc_streams(77);
        let a = plan.forward_exits_int(&x, Mode::McSample).unwrap();
        let b = plan.forward_exits_int(&x, Mode::McSample).unwrap();
        assert!(
            a.iter()
                .zip(&b)
                .any(|(ta, tb)| ta.as_slice() != tb.as_slice()),
            "fresh masks must differ"
        );
        // Reseeding replays the exact masks.
        plan.reseed_mc_streams(77);
        let replay = plan.forward_exits_int(&x, Mode::McSample).unwrap();
        for (ta, tr) in a.iter().zip(&replay) {
            assert_eq!(ta.as_slice(), tr.as_slice());
        }
        // Eval draws nothing: it ignores the stream state entirely.
        plan.reseed_mc_streams(5);
        let e1 = plan.forward_exits_int(&x, Mode::Eval).unwrap();
        plan.reseed_mc_streams(6);
        let _ = plan.forward_exits_int(&x, Mode::McSample).unwrap();
        let e2 = plan.forward_exits_int(&x, Mode::Eval).unwrap();
        for (t1, t2) in e1.iter().zip(&e2) {
            assert_eq!(t1.as_slice(), t2.as_slice());
        }
    }

    #[test]
    fn planned_mc_prediction_is_seed_reproducible() {
        let net = lenet(11);
        let calib = calib_batch(&[4, 1, 10, 10], 12);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let x = calib_batch(&[3, 1, 10, 10], 13);
        let a = plan.predict_probs(&x, 4, 2023).unwrap();
        let b = plan.predict_probs(&x, 4, 2023).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        let c = plan.predict_probs(&x, 4, 7).unwrap();
        assert_ne!(a.as_slice(), c.as_slice());
        // rows are simplexes
        for row in a.as_slice().chunks(4) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
