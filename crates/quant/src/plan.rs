//! The integer format of the compiled plan.
//!
//! [`QuantPlan`] is the workspace's integer executor: the one plan runtime
//! ([`bnn_models::Plan`]) over [`IntKernel`]. The workspace's one step
//! compiler ([`bnn_nn::skeleton`]) flattens the lowered blocks and exits of
//! a [`CalibratedNetwork`] into a linear step list with planned buffer
//! lifetimes (liveness over the flat list with free-list reuse, elementwise
//! steps running in place when their input dies) — the same pass, shapes
//! and slots the float `bnn_models::MultiExitPlan` is built from. This
//! module attaches the integer constants to each step: it consumes the
//! calibration records in flat step order (record `n` belongs to step `n`;
//! calibration ran the float plan's steps of the same compiler), derives
//! every value's [`QuantParams`], and packs weights **once** into the
//! widened `i16` layouts the integer matmul kernels consume (`[out_c,
//! c*kh*kw]` for convs, `[out_f, in_f]` for dense layers). The
//! result is a [`PlanSchedule`], the one format code generators read too.
//! [`IntKernel`] is everything else only the integer format knows: its
//! step kernels, its arena scratch, quantizing the input batch and
//! dequantizing an exit's logits.
//! Every intermediate — code slots, the im2col scratch, accumulators,
//! dropout masks, dequantized logits — lives in a preallocated arena.
//! After a warm-up call that sizes the arena for the batch,
//! `QuantPlan::predict_probs_into` performs **zero heap allocations** in
//! the steady state (on a sequential executor; the thread-pool fan-out of
//! large kernels allocates its scoped workers by design).
//!
//! `Conv` runs as one GEMM over the output positions
//! ([`bnn_tensor::int::conv_i32_into`], [`bnn_tensor::int::conv_i64_into`]
//! at 9–16 bits): the input is unfolded into the tap-major
//! `[c*kh*kw, batch*out_plane]` code columns in the arena's `cols` (the
//! float im2col's layout and loops), and the packed weights multiply them in
//! the outer-product kernel into exact accumulators in the arena. `Dense`
//! runs weights-left ([`bnn_tensor::int::dense_i32_into`],
//! [`bnn_tensor::int::dense_i64_into`]): the dot-product kernels multiply
//! the packed `[out_f, in_f]` weights by the `[batch, in_f]` codes into
//! `[out_f, batch]` accumulators. Both then share one epilogue: each output
//! channel's whole accumulator row is requantized in one pass with its one
//! bias — in `i32` lanes when `k·2^14 + |bias| + 2^shift < 2^31`
//! ([`bnn_tensor::int::conv_requant_fits_i32`]), else by the row
//! requantize — and its runs are copied into the destination slot (plane
//! runs into NCHW; one code per sample into `[batch, out_f]`).
//!
//! The elementwise requantizing steps run on the `i32`-lane row kernels of
//! `bnn_tensor::int`, with exactly the bits of its scalar `requantize`.
//! `Affine` (folded batch norm) builds one [`AffineRequant`] per channel
//! and applies it to that channel's plane of every sample. `McDropout`
//! draws one Bernoulli keep per mask from its step's stream, in mask
//! order, zero-fills dropped planes and sends kept ones through one
//! `AffineRequant` (`m = scale_q`, `b = 0`). `Merge` calls
//! [`merge_i16_row_into`] with its two shifts. A map whose constants break
//! the `i32` bound ([`bnn_tensor::int::affine_fits_i32`]) runs the scalar
//! `i64` requantize instead, decided from the step's constants on each
//! call. An elementwise step whose source and destination slots differ
//! copies its source once, then rewrites the destination in place.
//!
//! Its arithmetic has an independent oracle: `bnn_hls::HlsSimulator`
//! re-implements every [`PlanSchedule`] step (direct convolution,
//! scalar loops, its own rounding primitives), and `tests/hls_golden_sim.rs`
//! pins the two **bit-exact** for every zoo subject and searched format, in
//! deterministic and Monte-Carlo execution and through the seeded
//! `predict_probs` loop.
//!
//! ```text
//! CalibratedNetwork ──ranges──► plan(format)
//!   │                              │  step skeleton (shapes, slots, costs)
//!   │                              │  attach: QuantParams, packed i16
//!   │                              ▼  weights, shifts, multipliers
//! (one float pass,            Plan<IntKernel> { schedule, streams, arena }
//!  shared by all formats)         │
//!                                 ▼  run many: predict_probs_into
//!                            zero steady-state allocation
//! ```

use crate::calib::{CalibratedNetwork, StepRecord, ValueRange};
use crate::error::QuantError;
use crate::fixed::FixedPointFormat;
use crate::lower::{div_round, dropout_scale_q, quantize_affine, quantize_weights};
use crate::params::{IntWidth, QuantParams};
use crate::schedule::{PlanSchedule, ScheduleOp, ScheduleStep, MUL_FRAC};
use bnn_models::{Kernel, Plan};
use bnn_nn::layer::Mode;
use bnn_nn::lowering::LayerLowering;
use bnn_nn::plan::MaskGranularity;
use bnn_nn::skeleton::{self, Attach, BlockLayout, ExitSteps, Node};
use bnn_tensor::exec::Executor;
use bnn_tensor::int::{
    conv_i32_into, conv_i64_into, dense_i32_into, dense_i64_into, merge_i16_row_into,
    AffineRequant, IntConv, IntDense,
};
use bnn_tensor::linalg::ConvGeometry;
use bnn_tensor::rng::{Rng, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// Minimum multiply-accumulate count before a plan kernel fans out over the
/// parallel executor (the same threshold as the standalone integer kernels).
const PAR_MACS_THRESHOLD: usize = 1 << 20;

/// The integer plan's preallocated arena: activation code slots plus the
/// shared scratch buffers. All sizes grow monotonically with the largest
/// batch seen, so the steady state of repeated same-batch calls never
/// reallocates.
#[derive(Debug, Clone, Default)]
pub struct IntArena {
    slots: Vec<Vec<i16>>,
    cols: Vec<i16>,
    acc32: Vec<i32>,
    acc64: Vec<i64>,
    mask: Vec<bool>,
    /// The latest exit head's dequantized logits.
    logits: Vec<f32>,
}

/// The integer format: [`ScheduleOp`] steps on `i16` codes annotated with
/// their [`QuantParams`].
#[derive(Debug, Clone, Copy)]
pub struct IntKernel;

/// A compiled, arena-allocated execution plan for the integer inference of
/// a calibrated multi-exit network at one fixed-point format. Build one
/// with [`CalibratedNetwork::plan`]; see the [module documentation](self)
/// for the dataflow.
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
pub type QuantPlan = Plan<IntKernel>;

impl Kernel for IntKernel {
    type Op = ScheduleOp;
    type Note = QuantParams;
    type Arena = IntArena;
    type Error = QuantError;

    fn is_mc_dropout(op: &ScheduleOp) -> bool {
        matches!(op, ScheduleOp::McDropout { .. })
    }

    /// Grows the arena for `batch` samples; the accumulators exist at the
    /// storage width of the plan's values only.
    fn ensure(arena: &mut IntArena, steps: &PlanSchedule, batch: usize) {
        fn grow<T: Clone + Default>(v: &mut Vec<T>, need: usize) {
            if v.len() < need {
                v.resize(need, T::default());
            }
        }
        arena.slots.resize(steps.slot_elems.len(), Vec::new());
        for (slot, &unit) in arena.slots.iter_mut().zip(&steps.slot_elems) {
            grow(slot, unit * batch);
        }
        let scratch = steps.scratch;
        grow(&mut arena.cols, scratch.cols * batch);
        match steps.in_note.width() {
            IntWidth::W8 => grow(&mut arena.acc32, scratch.acc * batch),
            IntWidth::W16 => grow(&mut arena.acc64, scratch.acc * batch),
        }
        grow(&mut arena.mask, scratch.mask * batch);
        grow(&mut arena.logits, steps.classes() * batch);
    }

    /// Quantizes the input batch into the input slot, rejecting NaN and
    /// infinite values (the float-to-code cast would otherwise map NaN to
    /// code 0 and return a normal-looking distribution).
    fn stage(arena: &mut IntArena, steps: &PlanSchedule, inputs: &[f32]) -> Result<(), QuantError> {
        if let Some(i) = inputs.iter().position(|v| !v.is_finite()) {
            return Err(QuantError::NonFinite(format!(
                "input element {i} is {}",
                inputs[i]
            )));
        }
        let params = steps.in_note;
        for (dst, &v) in arena.slots[steps.input_slot].iter_mut().zip(inputs) {
            *dst = params.quantize_value(v) as i16;
        }
        Ok(())
    }

    /// Conv and dense steps accumulate at the width of their output format
    /// (every value in a plan shares one width).
    fn run_step(
        step: &ScheduleStep,
        rng: &mut Xoshiro256StarStar,
        arena: &mut IntArena,
        exec: Option<Executor>,
        batch: usize,
        mode: Mode,
        masks: MaskGranularity,
    ) -> Result<(), QuantError> {
        let in_elems = step.in_dims.iter().product::<usize>() * batch;
        let out_elems = step.out_dims.iter().product::<usize>() * batch;
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
        match &step.op {
            ScheduleOp::Conv {
                weights,
                bias,
                out_c,
                in_c,
                kernel,
                stride,
                padding,
                shift,
                out,
                ..
            } => {
                let (h, w) = (step.in_dims[1], step.in_dims[2]);
                let conv = IntConv {
                    geom: ConvGeometry::square(h, w, *kernel, *stride, *padding),
                    in_c: *in_c,
                    out_c: *out_c,
                    weights,
                    bias,
                    shift: *shift,
                    min: out.code_rails().0,
                    max: out.code_rails().1,
                };
                // out_elems = out_c * batch * out_plane.
                let exec = pick_exec(weights.len() / out_c * out_elems);
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                let src = &arena.slots[step.src][..in_elems];
                let cols = &mut arena.cols;
                let result = match out.width() {
                    IntWidth::W8 => {
                        conv_i32_into(&exec, &conv, src, batch, cols, &mut arena.acc32, &mut dst)
                    }
                    IntWidth::W16 => {
                        conv_i64_into(&exec, &conv, src, batch, cols, &mut arena.acc64, &mut dst)
                    }
                };
                arena.slots[step.dst] = dst;
                result?;
            }
            ScheduleOp::Dense {
                weights_t,
                bias,
                in_f,
                out_f,
                shift,
                out,
                ..
            } => {
                let dense = IntDense {
                    in_f: *in_f,
                    out_f: *out_f,
                    weights: weights_t,
                    bias,
                    shift: *shift,
                    min: out.code_rails().0,
                    max: out.code_rails().1,
                };
                let exec = pick_exec(batch * in_f * out_f);
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                let src = &arena.slots[step.src][..in_elems];
                // The conv columns' scratch holds the requantized rows.
                let codes = &mut arena.cols;
                let result = match out.width() {
                    IntWidth::W8 => {
                        dense_i32_into(&exec, &dense, src, batch, codes, &mut arena.acc32, &mut dst)
                    }
                    IntWidth::W16 => {
                        dense_i64_into(&exec, &dense, src, batch, codes, &mut arena.acc64, &mut dst)
                    }
                };
                arena.slots[step.dst] = dst;
                result?;
            }
            ScheduleOp::Relu => {
                for v in elementwise_codes(&mut arena.slots, step, in_elems) {
                    *v = (*v).max(0);
                }
            }
            ScheduleOp::MaxPool { kernel, stride } => {
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
                                for ky in 0..kernel {
                                    for kx in 0..kernel {
                                        let iy = y * stride + ky;
                                        let ix = x * stride + kx;
                                        if iy < h && ix < w {
                                            let v = src[((b * c + ch) * h + iy) * w + ix] as i64;
                                            best = best.max(v);
                                        }
                                    }
                                }
                                dst[((b * c + ch) * oh + y) * ow + x] = best as i16;
                            }
                        }
                    }
                }
                arena.slots[step.dst] = dst;
            }
            ScheduleOp::GlobalAvgPool => {
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
            ScheduleOp::Affine { m, b, out } => {
                let (c, plane) = (step.in_dims[0], step.in_dims[1] * step.in_dims[2]);
                let codes = elementwise_codes(&mut arena.slots, step, in_elems);
                // Channel-outer, so each channel's lane width is decided once
                // for all its planes in the batch.
                let (min, max) = out.code_rails();
                for (ch, (&m, &b)) in m.iter().zip(b).enumerate() {
                    let map = AffineRequant::new(m, b, MUL_FRAC, min, max);
                    for sample in codes.chunks_exact_mut(c * plane) {
                        map.apply(&mut sample[ch * plane..(ch + 1) * plane]);
                    }
                }
            }
            ScheduleOp::McDropout {
                rate,
                scale_q,
                params,
            } => {
                let sampling = mode.samples_mc_dropout() && *rate > 0.0;
                // A non-sampling pass draws nothing (stream positions stay
                // aligned, exactly like the float McDropout layer) and copies
                // the codes through.
                let codes = elementwise_codes(&mut arena.slots, step, in_elems);
                if !sampling {
                    return Ok(());
                }
                let keep = 1.0 - *rate;
                let (draws, plane) = masks.draws(&step.in_dims, batch);
                let mask = &mut arena.mask[..draws];
                for m in mask.iter_mut() {
                    *m = rng.bernoulli(keep);
                }
                let (min, max) = params.code_rails();
                let map = AffineRequant::new(*scale_q, 0, MUL_FRAC, min, max);
                for (plane_codes, &kept) in codes.chunks_exact_mut(plane).zip(mask.iter().cycle()) {
                    if kept {
                        map.apply(plane_codes);
                    } else {
                        plane_codes.fill(0);
                    }
                }
            }
            ScheduleOp::Merge {
                m_shift,
                s_shift,
                out,
            } => {
                let src2 = step.src2.ok_or_else(|| {
                    QuantError::Internal("a residual merge step has no shortcut source".into())
                })?;
                let (min, max) = out.code_rails();
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                merge_i16_row_into(
                    &arena.slots[step.src][..out_elems],
                    &arena.slots[src2][..out_elems],
                    *m_shift,
                    *s_shift,
                    min,
                    max,
                    &mut dst[..out_elems],
                );
                arena.slots[step.dst] = dst;
            }
        }
        Ok(())
    }

    /// Dequantizes the exit's output codes at its calibrated scale.
    fn read_exit<'a>(
        arena: &'a mut IntArena,
        exit: &ExitSteps<ScheduleOp, QuantParams>,
        live: usize,
    ) -> &'a [f32] {
        let n = exit.out_dims.iter().product::<usize>() * live;
        let scale = exit.out_note.scale();
        let logits = &mut arena.logits[..n];
        for (l, &c) in logits.iter_mut().zip(&arena.slots[exit.out_slot][..n]) {
            *l = c as f32 * scale;
        }
        logits
    }

    fn move_row(arena: &mut IntArena, blocks: &BlockLayout, block: usize, from: usize, to: usize) {
        blocks.move_row(&mut arena.slots, block, from, to);
    }
}

/// The codes an elementwise step rewrites in place: the first `n` codes of
/// its destination slot, holding a copy of its source when the two differ.
fn elementwise_codes<'a>(
    slots: &'a mut [Vec<i16>],
    step: &ScheduleStep,
    n: usize,
) -> &'a mut [i16] {
    if step.src != step.dst {
        let mut dst = std::mem::take(&mut slots[step.dst]);
        dst[..n].copy_from_slice(&slots[step.src][..n]);
        slots[step.dst] = dst;
    }
    &mut slots[step.dst][..n]
}

/// The integer plan's [`Attach`]: quantized constants from the calibration
/// records, one per step in flat step order, with each value's
/// [`QuantParams`] as its annotation.
struct QuantAttach<'a> {
    total_bits: u32,
    records: std::slice::Iter<'a, StepRecord>,
}

/// A range calibration records for `op`'s step, or an internal error on
/// lowering/record skew.
fn recorded(range: Option<ValueRange>, op: &str, what: &str) -> Result<ValueRange, QuantError> {
    range.ok_or_else(|| QuantError::Internal(format!("the {op} record has no {what} range")))
}

impl Attach for QuantAttach<'_> {
    type Op = ScheduleOp;
    type Note = QuantParams;
    type Error = QuantError;

    fn step(
        &mut self,
        node: Node<'_, QuantParams>,
    ) -> Result<(ScheduleOp, QuantParams), QuantError> {
        let lowering = node.lowering;
        let name = lowering.name();
        let record = self.records.next().ok_or_else(|| {
            QuantError::Internal(format!(
                "calibration records exhausted at op {name} (lowering/record skew)"
            ))
        })?;
        let (total_bits, params) = (self.total_bits, node.note);
        let out = || recorded(record.out, name, "output")?.params(total_bits);
        let weights = |weight: &Tensor, bias: &Tensor, out| {
            let range = recorded(record.weight, name, "weight")?;
            quantize_weights(weight, bias, range, total_bits, params, out)
        };
        Ok(match lowering {
            LayerLowering::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                let out = out()?;
                let w = weights(weight, bias, out)?;
                let dims = weight.dims();
                let op = ScheduleOp::Conv {
                    weights: w.codes,
                    bias: w.bias,
                    out_c: dims[0],
                    in_c: dims[1],
                    kernel: dims[2],
                    stride: *stride,
                    padding: *padding,
                    shift: w.shift,
                    w_frac: w.w_frac,
                    out,
                };
                (op, out)
            }
            LayerLowering::Dense { weight, bias } => {
                let out = out()?;
                let w = weights(weight, bias, out)?;
                let (in_f, out_f) = (weight.dims()[0], weight.dims()[1]);
                // The matmul kernels read dense weights as `[out_f, in_f]`.
                let mut weights_t = vec![0i16; in_f * out_f];
                for (i, row) in w.codes.chunks_exact(out_f).enumerate() {
                    for (o, &code) in row.iter().enumerate() {
                        weights_t[o * in_f + i] = code;
                    }
                }
                let op = ScheduleOp::Dense {
                    weights_t,
                    bias: w.bias,
                    in_f,
                    out_f,
                    shift: w.shift,
                    w_frac: w.w_frac,
                    out,
                };
                (op, out)
            }
            LayerLowering::Relu => (ScheduleOp::Relu, params),
            LayerLowering::MaxPool2d { kernel, stride } => {
                let (kernel, stride) = (*kernel, *stride);
                (ScheduleOp::MaxPool { kernel, stride }, params)
            }
            LayerLowering::GlobalAvgPool2d => (ScheduleOp::GlobalAvgPool, params),
            LayerLowering::Affine(bn) => {
                let out = out()?;
                let (scale, shift) = bn.folded();
                let (m, b) = quantize_affine(&scale, &shift, params, out);
                (ScheduleOp::Affine { m, b, out }, out)
            }
            LayerLowering::McDropout { rate } => {
                let scale_q = dropout_scale_q(*rate);
                let op = ScheduleOp::McDropout {
                    rate: *rate,
                    scale_q,
                    params,
                };
                (op, params)
            }
            LayerLowering::Residual { .. } => {
                let out = out()?;
                let short = node.shortcut.ok_or_else(|| {
                    QuantError::Internal("a residual merge without a shortcut format".into())
                })?;
                let shift =
                    |p: QuantParams| p.fractional_bits() as i32 - out.fractional_bits() as i32;
                let op = ScheduleOp::Merge {
                    m_shift: shift(params),
                    s_shift: shift(short),
                    out,
                };
                (op, out)
            }
            LayerLowering::Sequence(_) | LayerLowering::Flatten => {
                let msg = format!("{name} is not a plan step");
                return Err(QuantError::Internal(msg));
            }
        })
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
        let total_bits = QuantParams::new(format)?.format().total_bits();
        let mut hook = QuantAttach {
            total_bits,
            records: self.records.iter(),
        };
        let schedule = skeleton::compile(
            &self.blocks,
            (self.exits.iter()).map(|(after_block, lowering)| (*after_block, lowering)),
            &self.in_dims,
            self.input.params(total_bits)?,
            &mut hook,
        )?;
        if hook.records.len() != 0 {
            return Err(QuantError::Internal(format!(
                "{} calibration record(s) left over after the last step (lowering/record skew)",
                hook.records.len()
            )));
        }
        Ok(Plan::new(schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, ExitPlan, LayerSpec, ModelConfig, NetworkSpec};
    use bnn_nn::Network;

    fn fmt(total: u32, int: u32) -> FixedPointFormat {
        FixedPointFormat::new(total, int).unwrap()
    }

    fn calib_batch(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Tensor::randn(dims, &mut rng)
    }

    /// The backbone once in [`Mode::Eval`], then every exit in `mode`.
    fn run_exits(plan: &mut QuantPlan, x: &Tensor, mode: Mode) -> Vec<Tensor> {
        plan.run_backbone(x, Mode::Eval).unwrap();
        plan.forward_exits(mode).unwrap()
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
        let (steps, slots) = (
            plan.schedule().num_steps(),
            plan.schedule().slot_elems.len(),
        );
        assert!(
            steps > slots,
            "{steps} steps should outnumber {slots} slots"
        );
        assert_eq!(plan.num_exits(), 2);
        assert_eq!(plan.num_classes(), 4);
        assert_eq!(plan.schedule().in_note.format().total_bits(), 8);
    }

    #[test]
    fn record_skew_is_an_internal_error() {
        let calib = calib_batch(&[4, 1, 10, 10], 2);
        let mut calibrated = CalibratedNetwork::calibrate(&lenet(1), &calib).unwrap();
        let record = calibrated.records.pop().unwrap();
        let skewed =
            |c: &CalibratedNetwork| matches!(c.plan(fmt(8, 3)), Err(QuantError::Internal(_)));
        assert!(skewed(&calibrated), "one record short");
        calibrated.records.extend([record, record]);
        assert!(skewed(&calibrated), "one record over");
        calibrated.records.pop();
        assert!(calibrated.plan(fmt(8, 3)).is_ok());
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
        assert_eq!(plan.schedule().in_note.width(), IntWidth::W8);
        let x = calib_batch(&[3, 1, 10, 10], 7);
        let out_params: Vec<QuantParams> =
            plan.schedule().exits.iter().map(|e| e.out_note).collect();
        for mode in [Mode::Eval, Mode::McSample] {
            let exits = run_exits(&mut plan, &x, mode);
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
            assert_eq!(plan.schedule().in_note.width(), width, "{format}");
            for step in plan.schedule().steps() {
                if let Some(params) = step.op.out_params() {
                    assert_eq!(params.width(), width, "{format} {}", step.op.name());
                }
            }
            for exit in &plan.schedule().exits {
                assert_eq!(exit.out_note.width(), width, "{format}");
            }
            let logits = run_exits(&mut plan, &calib_batch(&[2, 1, 10, 10], 14), Mode::Eval);
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
        let out = plan.schedule().exits[0].out_note;
        for (fill, rail) in [(1e9f32, out.qmax()), (-1e9, out.qmin())] {
            let x = Tensor::full(&[1, 1, 2, 4], fill);
            let logits = run_exits(&mut plan, &x, Mode::Eval);
            for &v in logits[0].as_slice() {
                assert_eq!(
                    v,
                    out.dequantize_value(rail),
                    "input {fill} must pin at {rail}"
                );
            }
        }
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
        let int_logits = run_exits(&mut plan, &x, Mode::Eval);
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
        let a = run_exits(&mut plan, &x, Mode::McSample);
        let b = run_exits(&mut plan, &x, Mode::McSample);
        assert!(
            a.iter()
                .zip(&b)
                .any(|(ta, tb)| ta.as_slice() != tb.as_slice()),
            "fresh masks must differ"
        );
        // Reseeding replays the exact masks.
        plan.reseed_mc_streams(77);
        let replay = run_exits(&mut plan, &x, Mode::McSample);
        for (ta, tr) in a.iter().zip(&replay) {
            assert_eq!(ta.as_slice(), tr.as_slice());
        }
        // Eval draws nothing: it ignores the stream state entirely.
        plan.reseed_mc_streams(5);
        let e1 = run_exits(&mut plan, &x, Mode::Eval);
        plan.reseed_mc_streams(6);
        let _ = run_exits(&mut plan, &x, Mode::McSample);
        let e2 = run_exits(&mut plan, &x, Mode::Eval);
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
