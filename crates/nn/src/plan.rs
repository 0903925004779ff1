//! The float plan's step ops and kernels, and the dropout mask rule both
//! compiled plans share.
//!
//! The step compiler ([`crate::skeleton`]) decides shapes, slots and costs;
//! this module attaches the float constants ([`FloatAttach`]: raw f32
//! weights, batch norm kept unfolded) and executes one step on a flat f32
//! arena ([`run_step`]). `bnn_models::plan::FloatKernel` plugs them into
//! the one plan runtime (`bnn_models::Plan`), which drives them over a
//! whole multi-exit network as `bnn_models::MultiExitPlan`. Each step runs the same kernels and shared
//! loops as its layer, and MC-dropout steps draw from the same reseedable
//! streams in the same order, so a plan reproduces the layer chain
//! ([`Layer::forward`](crate::Layer::forward)) **bit for bit** in
//! [`Mode::Eval`] and [`Mode::McSample`], with no allocation once the arena
//! is sized. Batch normalisation runs the layer's own eval arithmetic from
//! the unfolded running statistics; folding it into `scale * x + shift`
//! would reassociate the arithmetic and move bits. A residual merge adds
//! the two paths and applies the block's `> 0.0` relu.

use crate::layer::Mode;
use crate::layers::batchnorm::{normalise_in_place, std_inv};
use crate::layers::conv2d::scatter_bias;
use crate::layers::dense::add_bias_rows;
use crate::layers::pool::{global_avg_into, Window};
use crate::lowering::LayerLowering;
use crate::skeleton::{self, Attach, Node, ScheduleStep, ScratchUnits, Skeleton};
use crate::NnError;
use bnn_tensor::exec::Executor;
use bnn_tensor::linalg::{
    im2col_slices_into, im2col_slices_into_with, matmul_slices_into, matmul_slices_into_with,
    ConvGeometry,
};
use bnn_tensor::rng::{Rng, Xoshiro256StarStar};
use bnn_tensor::TensorError;

/// How MC-dropout masks index into the batch — the one mask rule of both
/// compiled plans.
///
/// [`MaskGranularity::PerBatch`] draws one stream value per (batch,
/// channel), so a batch of N consumes N times the draws and batched output
/// differs from N single-sample calls. It is the mask rule of the float
/// layer chain and of `Plan::predict_probs_into`, the per-batch entry point
/// that `McSampler::predict` (Phase 3's float reference), Phase 3's
/// integer scoring and `bnn_hls::HlsSimulator` all run. Scoring with per-sample masks
/// instead was measured to break the comparison: 16-bit accuracy rose to
/// 0.667 against a float reference of 0.521, and the quick demo found no
/// feasible design. [`MaskGranularity::PerSample`] draws one per-sample mask
/// per pass and broadcasts it across the batch: every other kernel computes
/// each output element from one sample alone, so per-sample masks make a
/// batched call bit-exact with the concatenation of single-sample calls —
/// the batch-boundary invariance the exit walker and dynamic batching need.
/// For `batch == 1` the two rules draw and apply identical masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskGranularity {
    /// One mask per (batch row, channel).
    PerBatch,
    /// One sample's mask, tiled across the batch.
    PerSample,
}

impl MaskGranularity {
    /// `(draws, elements per draw)` of one MC-dropout step over `batch` rows
    /// of per-sample `dims`: filter-wise for NCHW values (one draw per
    /// channel), element-wise otherwise. Element `i` of the batch takes mask
    /// value `(i / per_draw) % draws`.
    pub fn draws(self, dims: &[usize], batch: usize) -> (usize, usize) {
        let rows = match self {
            MaskGranularity::PerBatch => batch,
            MaskGranularity::PerSample => 1,
        };
        match dims {
            [c, h, w] => (rows * c, h * w),
            _ => (rows * dims.iter().product::<usize>(), 1),
        }
    }
}

/// A float convolution step's constants.
#[derive(Debug, Clone)]
pub struct FloatConv {
    /// Weights, row-major `[out_c, in_c * k * k]` (the layer's own layout).
    w: Vec<f32>,
    bias: Vec<f32>,
    out_c: usize,
    in_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

/// The arithmetic of one float step, with its f32 constants.
#[derive(Debug, Clone)]
pub enum FloatOp {
    /// 2-D convolution.
    Conv(Box<FloatConv>),
    /// Dense layer on `[in_f, out_f]` weights (the layer's own layout).
    Dense {
        /// Weights, row-major `[in_f, out_f]`.
        w: Vec<f32>,
        /// Bias, `[out_f]`.
        bias: Vec<f32>,
    },
    /// Elementwise `x > 0.0 ? x : 0.0`.
    Relu,
    /// Square-window max pooling.
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Whole-plane average per channel.
    GlobalAvgPool,
    /// Eval-mode batch norm: per-channel `[mean, std_inv, gamma, beta]`.
    BatchNorm(Box<[Vec<f32>; 4]>),
    /// Monte-Carlo dropout at `rate`, inverted scaling of kept values.
    McDropout {
        /// Drop probability.
        rate: f64,
    },
    /// Residual merge: `relu(main + shortcut)`.
    Merge,
}

impl FloatOp {
    fn elementwise(&self) -> bool {
        matches!(
            self,
            FloatOp::Relu | FloatOp::BatchNorm(_) | FloatOp::McDropout { .. }
        )
    }
}

/// The float plan's [`Attach`]: each lowering's f32 constants as they are.
/// The default attach copies them out of the borrowed lowering (the
/// calibration walk keeps its lowerings for the integer plans);
/// [`compile_owned`] attaches with the constants deferred and then moves
/// them in, so a float compile copies each weight once.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloatAttach {
    /// Leave conv/dense weights and biases and batch-norm vectors empty for
    /// [`compile_owned`] to move in.
    defer: bool,
}

impl Attach for FloatAttach {
    type Op = FloatOp;
    type Note = ();
    type Error = NnError;

    fn step(&mut self, node: Node<'_, ()>) -> Result<(FloatOp, ()), NnError> {
        let copy = |v: &[f32]| if self.defer { Vec::new() } else { v.to_vec() };
        let op = match node.lowering {
            LayerLowering::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                let dims = weight.dims();
                FloatOp::Conv(Box::new(FloatConv {
                    w: copy(weight.as_slice()),
                    bias: copy(bias.as_slice()),
                    out_c: dims[0],
                    in_c: dims[1],
                    kernel: dims[2],
                    stride: *stride,
                    padding: *padding,
                }))
            }
            LayerLowering::Dense { weight, bias } => FloatOp::Dense {
                w: copy(weight.as_slice()),
                bias: copy(bias.as_slice()),
            },
            LayerLowering::Relu => FloatOp::Relu,
            LayerLowering::MaxPool2d { kernel, stride } => FloatOp::MaxPool {
                kernel: *kernel,
                stride: *stride,
            },
            LayerLowering::GlobalAvgPool2d => FloatOp::GlobalAvgPool,
            LayerLowering::Affine(bn) => FloatOp::BatchNorm(Box::new([
                copy(&bn.mean),
                std_inv(&bn.var, bn.eps),
                copy(&bn.gamma),
                copy(&bn.beta),
            ])),
            LayerLowering::McDropout { rate } => FloatOp::McDropout { rate: *rate },
            LayerLowering::Residual { .. } => FloatOp::Merge,
            other => {
                let msg = format!("{} is not a plan step", other.name());
                return Err(NnError::InvalidConfig(msg));
            }
        };
        Ok((op, ()))
    }
}

/// Compiles owned lowered `blocks` (execution order) and `exits`
/// (`(after_block, branch)`, attachment order) into the float step list,
/// moving every conv/dense weight and bias and every batch-norm vector into
/// its step instead of copying it.
///
/// # Errors
///
/// See [`skeleton::compile`].
pub fn compile_owned(
    blocks: Vec<LayerLowering>,
    exits: Vec<(usize, LayerLowering)>,
    in_dims: &[usize],
) -> Result<Skeleton<FloatOp, ()>, NnError> {
    let exit_refs = exits.iter().map(|(after, branch)| (*after, branch));
    let mut attach = FloatAttach { defer: true };
    let mut steps = skeleton::compile(&blocks, exit_refs, in_dims, (), &mut attach)?;
    let mut leaves = Vec::with_capacity(steps.num_steps());
    for lowering in blocks.into_iter().chain(exits.into_iter().map(|(_, b)| b)) {
        step_lowerings(lowering, &mut leaves);
    }
    let skew = || NnError::InvalidConfig("float steps and lowerings out of step".into());
    if leaves.len() != steps.num_steps() {
        return Err(skew());
    }
    let exit_steps = steps.exits.iter_mut().flat_map(|e| &mut e.steps);
    for (step, leaf) in steps.backbone.iter_mut().chain(exit_steps).zip(leaves) {
        match (&mut step.op, leaf) {
            (FloatOp::Conv(conv), LayerLowering::Conv2d { weight, bias, .. }) => {
                (conv.w, conv.bias) = (weight.into_vec(), bias.into_vec());
            }
            (FloatOp::Dense { w, bias }, LayerLowering::Dense { weight, bias: b }) => {
                (*w, *bias) = (weight.into_vec(), b.into_vec());
            }
            (FloatOp::BatchNorm(bn), LayerLowering::Affine(l)) => {
                (bn[0], bn[2], bn[3]) = (l.mean, l.gamma, l.beta);
            }
            (FloatOp::Conv(_) | FloatOp::Dense { .. } | FloatOp::BatchNorm(_), _) => {
                return Err(skew())
            }
            _ => {}
        }
    }
    Ok(steps)
}

/// Flattens `lowering` into one lowering per step, in the order
/// [`skeleton::compile`] attaches them: sequences inlined, shape-only ops
/// dropped, a residual's main path, then its shortcut, then the residual
/// itself for its merge.
fn step_lowerings(lowering: LayerLowering, out: &mut Vec<LayerLowering>) {
    match lowering {
        LayerLowering::Sequence(children) => {
            children.into_iter().for_each(|c| step_lowerings(c, out));
        }
        LayerLowering::Flatten => {}
        LayerLowering::Residual { main, shortcut } => {
            main.into_iter()
                .chain(shortcut)
                .for_each(|c| step_lowerings(c, out));
            out.push(LayerLowering::Residual {
                main: Vec::new(),
                shortcut: Vec::new(),
            });
        }
        leaf => out.push(leaf),
    }
}

/// The float plan's preallocated buffers: activation slots plus the
/// im2col, accumulator and mask scratch. All sizes grow monotonically with
/// the largest batch seen, so repeated calls at or below it never
/// reallocate.
#[derive(Debug, Clone, Default)]
pub struct FloatArena {
    /// The activation slots.
    pub slots: Vec<Vec<f32>>,
    cols: Vec<f32>,
    acc: Vec<f32>,
    mask: Vec<f32>,
}

impl FloatArena {
    /// Grows every buffer for `batch` rows of the given per-sample slot and
    /// scratch capacities.
    pub fn ensure(&mut self, slot_elems: &[usize], scratch: ScratchUnits, batch: usize) {
        self.slots.resize(slot_elems.len(), Vec::new());
        let buffers = (self.slots.iter_mut().zip(slot_elems.iter().copied())).chain([
            (&mut self.cols, scratch.cols),
            (&mut self.acc, scratch.acc),
            (&mut self.mask, scratch.mask),
        ]);
        for (buf, unit) in buffers {
            if buf.len() < unit * batch {
                buf.resize(unit * batch, 0.0);
            }
        }
    }
}

/// `exec`, or the kernel's own work-size choice when the plan pins none.
fn matmul_on(
    exec: Option<Executor>,
    (a, b): (&[f32], &[f32]),
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) -> Result<(), TensorError> {
    match exec {
        Some(exec) => matmul_slices_into_with(&exec, a, b, m, k, n, out),
        None => matmul_slices_into(a, b, m, k, n, out),
    }
}

/// Executes one float step on `batch` rows of the arena; an MC-dropout
/// step draws its masks from `rng`, its own stream, at granularity `masks`.
/// `exec` pins the matmul and im2col kernels (`None`: their own work-size
/// choice).
///
/// # Errors
///
/// Propagates kernel shape errors, or [`NnError::InvalidConfig`] for a
/// merge without a shortcut source.
pub fn run_step(
    step: &ScheduleStep<FloatOp>,
    rng: &mut Xoshiro256StarStar,
    arena: &mut FloatArena,
    exec: Option<Executor>,
    batch: usize,
    mode: Mode,
    masks: MaskGranularity,
) -> Result<(), NnError> {
    let mut dst = std::mem::take(&mut arena.slots[step.dst]);
    let result = run_into(step, rng, arena, &mut dst, exec, batch, mode, masks);
    arena.slots[step.dst] = dst;
    result
}

/// [`run_step`] with the destination slot taken out of the arena.
#[allow(clippy::too_many_arguments)]
fn run_into(
    step: &ScheduleStep<FloatOp>,
    rng: &mut Xoshiro256StarStar,
    arena: &mut FloatArena,
    dst: &mut [f32],
    exec: Option<Executor>,
    batch: usize,
    mode: Mode,
    masks: MaskGranularity,
) -> Result<(), NnError> {
    let in_elems = step.in_dims.iter().product::<usize>() * batch;
    // `src` is empty when the step runs in place (`src == dst`).
    let src = &arena.slots[step.src];
    if step.op.elementwise() && step.src != step.dst {
        dst[..in_elems].copy_from_slice(&src[..in_elems]);
    }
    match &step.op {
        FloatOp::Conv(conv) => {
            let (h, w) = (step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, conv.kernel, conv.stride, conv.padding);
            let plane = geom.out_h() * geom.out_w();
            let kred = conv.in_c * conv.kernel * conv.kernel;
            let cols = &mut arena.cols[..kred * batch * plane];
            let acc = &mut arena.acc[..conv.out_c * batch * plane];
            let src = &src[..in_elems];
            let (rows, n) = match exec {
                Some(exec) => im2col_slices_into_with(&exec, src, batch, conv.in_c, &geom, cols)?,
                None => im2col_slices_into(src, batch, conv.in_c, &geom, cols)?,
            };
            matmul_on(exec, (&conv.w, cols), (conv.out_c, rows, n), acc)?;
            scatter_bias(acc, &conv.bias, batch, plane, dst);
        }
        FloatOp::Dense { w, bias } => {
            // The product lands in the destination slot; the bias is added
            // in place, as `Dense::forward` does.
            let (in_f, out_f) = (step.in_dims[0], step.out_dims[0]);
            let out = &mut dst[..batch * out_f];
            matmul_on(exec, (&src[..in_elems], w), (batch, in_f, out_f), out)?;
            add_bias_rows(out, bias);
        }
        FloatOp::Relu => {
            // The exact comparison of the Relu layer (`x > 0.0`), in place.
            for v in dst[..in_elems].iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        FloatOp::BatchNorm(constants) => normalise_in_place(
            &mut dst[..in_elems],
            step.in_dims[1] * step.in_dims[2],
            [&constants[0], &constants[1], &constants[2], &constants[3]].map(Vec::as_slice),
            None,
        ),
        FloatOp::Merge => {
            let Some(src2) = step.src2 else {
                let msg = "a residual merge step has no shortcut source".into();
                return Err(NnError::InvalidConfig(msg));
            };
            let short = &arena.slots[src2][..in_elems];
            for ((d, &m), &s) in dst[..in_elems].iter_mut().zip(&src[..in_elems]).zip(short) {
                let v = m + s;
                *d = if v > 0.0 { v } else { 0.0 };
            }
        }
        FloatOp::MaxPool { kernel, stride } => {
            let [c, h, w] = [step.in_dims[0], step.in_dims[1], step.in_dims[2]];
            Window::new([batch, c, h, w], *kernel, *stride).max_into(&src[..in_elems], dst, None);
        }
        FloatOp::GlobalAvgPool => {
            let (c, plane) = (step.in_dims[0], step.in_dims[1] * step.in_dims[2]);
            global_avg_into(&src[..in_elems], plane, &mut dst[..batch * c]);
        }
        FloatOp::McDropout { rate } if mode.samples_mc_dropout() && *rate > 0.0 => {
            // Draw the mask exactly like `McDropout::sample_mask`, then
            // multiply each draw's plane by its mask value.
            let keep = 1.0 - *rate;
            let scale = (1.0 / keep) as f32;
            let (draws, per_draw) = masks.draws(&step.in_dims, batch);
            let mask = &mut arena.mask[..draws];
            for m in mask.iter_mut() {
                *m = if rng.bernoulli(keep) { scale } else { 0.0 };
            }
            let planes = dst[..in_elems].chunks_exact_mut(per_draw);
            for (plane, &m) in planes.zip(mask.iter().cycle()) {
                for v in plane {
                    *v *= m;
                }
            }
        }
        // Identity outside sampling (the layer returns its input unchanged);
        // the stream advances nothing.
        FloatOp::McDropout { .. } => {}
    }
    Ok(())
}
