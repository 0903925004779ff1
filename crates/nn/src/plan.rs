//! Compiled float inference plans: allocate-once/run-many execution of a
//! lowered layer stack.
//!
//! [`InferencePlan::compile`] flattens a [`LayerLowering`] tree into a linear
//! step list over an N-slot arena, with one im2col/matmul scratch buffer
//! shared by every step. Executing the plan reproduces the layer-by-layer
//! [`Layer::forward`](crate::Layer::forward) chain **bit for bit** in
//! [`Mode::Eval`] and [`Mode::McSample`] — each step runs the same kernels
//! and shared loops as its layer, and MC-dropout steps draw from the same
//! reseedable streams in the same order — with no per-layer allocation in
//! the steady state. The Monte-Carlo sampler re-runs exit branches on it
//! without touching the allocator or rebuilding model replicas.
//!
//! Every lowering except an in-graph softmax plans. Batch normalisation
//! ([`LayerLowering::Affine`]) runs the layer's own eval arithmetic from the
//! unfolded running statistics; folding it into `scale * x + shift` would
//! reassociate the arithmetic and move bits. A residual block flattens to
//! main ‖ shortcut ‖ add ‖ relu: the block input and the main-path output
//! stay reserved in their slots while the shortcut runs, and the merge
//! computes `main += shortcut` before the block's `> 0.0` relu. Element-wise
//! steps run in place unless their source slot is reserved. The plan is
//! inference-only, so [`Mode::Train`] is rejected.

use crate::layer::Mode;
use crate::layers::batchnorm::{normalise_in_place, std_inv};
use crate::layers::conv2d::scatter_bias;
use crate::layers::dense::add_bias_rows;
use crate::layers::pool::{global_avg_into, Window};
use crate::lowering::LayerLowering;
use crate::NnError;
use bnn_tensor::linalg::{im2col_slices_into, matmul_slices_into, ConvGeometry};
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// A packed convolution step.
#[derive(Debug, Clone)]
struct PlanConv {
    /// Weights reshaped to `[out_c, in_c * k * k]`.
    w2d: Vec<f32>,
    bias: Vec<f32>,
    out_c: usize,
    in_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

/// A dense step.
#[derive(Debug, Clone)]
struct PlanDense {
    /// Weights `[in_f, out_f]` row-major (the layer's own layout).
    w: Vec<f32>,
    bias: Vec<f32>,
    in_f: usize,
    out_f: usize,
}

#[derive(Debug, Clone)]
enum StepKind {
    Conv(Box<PlanConv>),
    Dense(Box<PlanDense>),
    Relu,
    /// Square-window max (`max`) or average pooling.
    Pool {
        kernel: usize,
        stride: usize,
        max: bool,
    },
    GlobalAvgPool,
    /// Eval-mode batch norm: per-channel `[mean, std_inv, gamma, beta]`.
    BatchNorm(Box<[Vec<f32>; 4]>),
    McDropout {
        rate: f64,
        rng: Xoshiro256StarStar,
    },
    /// Residual merge: `dst = src + slots[shortcut]`.
    Add {
        shortcut: usize,
    },
}

#[derive(Debug, Clone)]
struct Step {
    kind: StepKind,
    /// Arena slot read (element-wise steps have `dst == src` unless `src`
    /// holds a reserved residual operand).
    src: usize,
    dst: usize,
    /// Per-sample input dims (batch axis stripped).
    in_dims: Vec<usize>,
}

impl Step {
    fn elementwise(kind: &StepKind) -> bool {
        matches!(
            kind,
            StepKind::Relu
                | StepKind::BatchNorm(_)
                | StepKind::McDropout { .. }
                | StepKind::Add { .. }
        )
    }
}

/// A compiled float inference plan for one lowered layer stack. Build with
/// [`InferencePlan::compile`]; run with [`InferencePlan::forward`]. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct InferencePlan {
    steps: Vec<Step>,
    /// Per-sample element capacity of each arena slot. The input is copied
    /// into slot 0.
    slot_elems: Vec<usize>,
    slots: Vec<Vec<f32>>,
    /// Per-sample element capacity of the im2col/matmul scratch (the largest
    /// convolution's column matrix plus its product).
    scratch_elems: usize,
    scratch: Vec<f32>,
    /// Per-element dropout mask staging (largest MC-dropout step).
    mask_elems: usize,
    mask: Vec<f32>,
    out_slot: usize,
    in_dims: Vec<usize>,
    out_dims: Vec<usize>,
    /// Static per-sample op estimate of one full run (MACs for conv/dense,
    /// touched elements otherwise) — the float twin of the quant plan's
    /// integer-op counter, used for adaptive-execution accounting.
    unit_ops: u64,
}

/// Compile-time state: the plan under construction plus the slot
/// reservations of the residual blocks being flattened.
struct Emitter {
    plan: InferencePlan,
    /// Slots holding a residual operand that a later step still reads.
    reserved: Vec<usize>,
    /// `(slot, first, merge)`: steps `first..merge` must not write `slot`.
    pending: Vec<(usize, usize, usize)>,
}

impl InferencePlan {
    /// Compiles a plan for `layer` evaluating per-sample inputs of shape
    /// `in_dims` (batch axis stripped).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedLowering`] for layers without an
    /// inference lowering (an in-graph softmax), or
    /// [`NnError::InvalidConfig`] on shape mismatches.
    pub fn compile(layer: &dyn crate::Layer, in_dims: &[usize]) -> Result<Self, NnError> {
        let lowering = layer.lowering()?;
        Self::compile_lowering(&lowering, in_dims)
    }

    /// [`InferencePlan::compile`] from an already-lowered graph.
    ///
    /// # Errors
    ///
    /// See [`InferencePlan::compile`].
    pub fn compile_lowering(lowering: &LayerLowering, in_dims: &[usize]) -> Result<Self, NnError> {
        let mut emitter = Emitter {
            plan: InferencePlan {
                steps: Vec::new(),
                slot_elems: vec![in_dims.iter().product()],
                slots: vec![Vec::new()],
                scratch_elems: 0,
                scratch: Vec::new(),
                mask_elems: 0,
                mask: Vec::new(),
                out_slot: 0,
                in_dims: in_dims.to_vec(),
                out_dims: in_dims.to_vec(),
                unit_ops: 0,
            },
            reserved: Vec::new(),
            pending: Vec::new(),
        };
        let mut cur_slot = 0usize;
        let mut cur_dims = in_dims.to_vec();
        emitter.emit(lowering, &mut cur_slot, &mut cur_dims)?;
        let mut plan = emitter.plan;
        debug_assert!(
            emitter
                .pending
                .iter()
                .all(|&(slot, first, merge)| plan.steps[first..merge]
                    .iter()
                    .all(|step| step.dst != slot)),
            "a plan step overwrites a pending residual operand"
        );
        plan.out_slot = cur_slot;
        plan.out_dims = cur_dims;
        Ok(plan)
    }

    /// Per-sample input dims (batch axis stripped).
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Per-sample output dims (batch axis stripped).
    pub fn out_dims(&self) -> &[usize] {
        &self.out_dims
    }

    /// Number of flattened steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Static per-sample op estimate of one full run: multiply-accumulates
    /// for convolution/dense steps, touched output elements for the rest.
    /// Multiply by the batch to price a batched invocation.
    pub fn unit_ops(&self) -> u64 {
        self.unit_ops
    }

    /// Reseeds every MC-dropout stream from `streams` in step order — the
    /// same stream assignment as
    /// [`Layer::reseed_mc_streams`](crate::Layer::reseed_mc_streams) on the
    /// layer stack this plan was compiled from.
    pub fn reseed_mc(&mut self, streams: &mut SplitMix64) {
        for step in &mut self.steps {
            if let StepKind::McDropout { rng, .. } = &mut step.kind {
                *rng = Xoshiro256StarStar::seed_from_u64(streams.next_u64());
            }
        }
    }

    fn ensure(&mut self, batch: usize) {
        for (slot, &unit) in self.slots.iter_mut().zip(&self.slot_elems) {
            let need = unit * batch;
            if slot.len() < need {
                slot.resize(need, 0.0);
            }
        }
        for (buf, unit) in [
            (&mut self.scratch, self.scratch_elems),
            (&mut self.mask, self.mask_elems),
        ] {
            if buf.len() < unit * batch {
                buf.resize(unit * batch, 0.0);
            }
        }
    }

    /// Pre-sizes the arena for `max_batch` samples so later runs with any
    /// batch up to `max_batch` resize nothing. Monotone: never shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        self.ensure(max_batch.max(1));
    }

    /// Runs the plan on a batched input, bit-identical to folding the
    /// original layers with [`Layer::forward`](crate::Layer::forward).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for [`Mode::Train`] (the plan is
    /// inference-only) or if the input shape does not match the compiled
    /// per-sample dims, or propagates kernel errors.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.forward_impl(input, mode, false)
    }

    /// [`InferencePlan::forward`] with MC-dropout masks drawn at
    /// **per-sample** granularity and broadcast across the batch: one
    /// sample's worth of mask draws per step, applied to every sample. Every
    /// other kernel already computes each output element from one sample
    /// alone, so under shared masks a batched run is bit-exact with running
    /// the samples one at a time — the batch-boundary invariance the serving
    /// layer relies on. For `batch == 1` (and in [`Mode::Eval`] at any
    /// batch) it is bit-exact with [`InferencePlan::forward`] itself.
    ///
    /// # Errors
    ///
    /// See [`InferencePlan::forward`].
    pub fn forward_shared_mask(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.forward_impl(input, mode, true)
    }

    fn forward_impl(
        &mut self,
        input: &Tensor,
        mode: Mode,
        shared_mask: bool,
    ) -> Result<Tensor, NnError> {
        if mode.is_train() {
            return Err(NnError::InvalidConfig(
                "a compiled inference plan cannot run in train mode".into(),
            ));
        }
        if input.dims().len() != self.in_dims.len() + 1 || input.dims()[1..] != self.in_dims[..] {
            return Err(NnError::InvalidConfig(format!(
                "plan expects input dims [batch, {:?}], got {:?}",
                self.in_dims,
                input.dims()
            )));
        }
        let batch = input.dims()[0];
        self.ensure(batch);
        let in_elems = input.len();
        self.slots[0][..in_elems].copy_from_slice(input.as_slice());
        for step in &mut self.steps {
            run_step(
                step,
                &mut self.slots,
                &mut self.scratch,
                &mut self.mask,
                batch,
                mode,
                shared_mask,
            )?;
        }
        let out_elems: usize = self.out_dims.iter().product::<usize>() * batch;
        let mut dims = Vec::with_capacity(self.out_dims.len() + 1);
        dims.push(batch);
        dims.extend_from_slice(&self.out_dims);
        Ok(Tensor::from_vec(
            self.slots[self.out_slot][..out_elems].to_vec(),
            &dims,
        )?)
    }
}

impl Emitter {
    /// The lowest slot that is neither reserved nor in `avoid`, growing the
    /// arena by one slot if every existing slot is taken.
    fn fresh_slot(&mut self, avoid: &[usize]) -> usize {
        let plan = &mut self.plan;
        (0..plan.slots.len())
            .find(|s| !avoid.contains(s) && !self.reserved.contains(s))
            .unwrap_or_else(|| {
                plan.slots.push(Vec::new());
                plan.slot_elems.push(0);
                plan.slots.len() - 1
            })
    }

    fn push(
        &mut self,
        kind: StepKind,
        cur_slot: &mut usize,
        cur_dims: &mut Vec<usize>,
        out_dims: Vec<usize>,
    ) {
        let src = *cur_slot;
        let dst = match &kind {
            StepKind::Add { shortcut } if self.reserved.contains(&src) => {
                self.fresh_slot(&[src, *shortcut])
            }
            k if Step::elementwise(k) && !self.reserved.contains(&src) => src,
            _ => self.fresh_slot(&[src]),
        };
        let plan = &mut self.plan;
        plan.slot_elems[dst] = plan.slot_elems[dst].max(out_dims.iter().product());
        plan.unit_ops += step_unit_ops(&kind, cur_dims, &out_dims);
        plan.steps.push(Step {
            kind,
            src,
            dst,
            in_dims: cur_dims.clone(),
        });
        *cur_slot = dst;
        *cur_dims = out_dims;
    }

    fn emit(
        &mut self,
        lowering: &LayerLowering,
        cur_slot: &mut usize,
        cur_dims: &mut Vec<usize>,
    ) -> Result<(), NnError> {
        match lowering {
            LayerLowering::Sequence(children) => {
                for child in children {
                    self.emit(child, cur_slot, cur_dims)?;
                }
            }
            LayerLowering::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                let dims = weight.dims();
                let (out_c, in_c, kernel) = (dims[0], dims[1], dims[2]);
                if cur_dims.len() != 3 || cur_dims[0] != in_c {
                    return Err(NnError::InvalidConfig(format!(
                        "conv plan expects per-sample [{in_c}, h, w], got {cur_dims:?}"
                    )));
                }
                let geom =
                    ConvGeometry::square(cur_dims[1], cur_dims[2], kernel, *stride, *padding);
                let plane = geom.out_h() * geom.out_w();
                // Column matrix followed by the matmul product.
                self.plan.scratch_elems = self
                    .plan
                    .scratch_elems
                    .max((in_c * kernel * kernel + out_c) * plane);
                let out_dims = vec![out_c, geom.out_h(), geom.out_w()];
                self.push(
                    StepKind::Conv(Box::new(PlanConv {
                        w2d: weight.as_slice().to_vec(),
                        bias: bias.as_slice().to_vec(),
                        out_c,
                        in_c,
                        kernel,
                        stride: *stride,
                        padding: *padding,
                    })),
                    cur_slot,
                    cur_dims,
                    out_dims,
                );
            }
            LayerLowering::Dense { weight, bias } => {
                let dims = weight.dims();
                let (in_f, out_f) = (dims[0], dims[1]);
                if cur_dims.len() != 1 || cur_dims[0] != in_f {
                    return Err(NnError::InvalidConfig(format!(
                        "dense plan expects per-sample [{in_f}], got {cur_dims:?}"
                    )));
                }
                self.push(
                    StepKind::Dense(Box::new(PlanDense {
                        w: weight.as_slice().to_vec(),
                        bias: bias.as_slice().to_vec(),
                        in_f,
                        out_f,
                    })),
                    cur_slot,
                    cur_dims,
                    vec![out_f],
                );
            }
            LayerLowering::Relu => {
                let out = cur_dims.clone();
                self.push(StepKind::Relu, cur_slot, cur_dims, out);
            }
            LayerLowering::MaxPool2d { kernel, stride }
            | LayerLowering::AvgPool2d { kernel, stride } => {
                if cur_dims.len() != 3 {
                    return Err(NnError::InvalidConfig(format!(
                        "pool plan expects per-sample [c, h, w], got {cur_dims:?}"
                    )));
                }
                let geom = ConvGeometry::square(cur_dims[1], cur_dims[2], *kernel, *stride, 0);
                let out_dims = vec![cur_dims[0], geom.out_h(), geom.out_w()];
                let kind = StepKind::Pool {
                    kernel: *kernel,
                    stride: *stride,
                    max: matches!(lowering, LayerLowering::MaxPool2d { .. }),
                };
                self.push(kind, cur_slot, cur_dims, out_dims);
            }
            LayerLowering::GlobalAvgPool2d => {
                if cur_dims.len() != 3 {
                    return Err(NnError::InvalidConfig(format!(
                        "global pool plan expects per-sample [c, h, w], got {cur_dims:?}"
                    )));
                }
                let out_dims = vec![cur_dims[0]];
                self.push(StepKind::GlobalAvgPool, cur_slot, cur_dims, out_dims);
            }
            LayerLowering::Flatten => {
                // Shape-only: reinterpret the current slot.
                *cur_dims = vec![cur_dims.iter().product()];
            }
            LayerLowering::Identity => {}
            LayerLowering::McDropout { rate } => {
                let elems: usize = cur_dims.iter().product();
                self.plan.mask_elems = self.plan.mask_elems.max(elems);
                let out = cur_dims.clone();
                self.push(
                    StepKind::McDropout {
                        rate: *rate,
                        rng: Xoshiro256StarStar::seed_from_u64(0),
                    },
                    cur_slot,
                    cur_dims,
                    out,
                );
            }
            LayerLowering::Affine(bn) => {
                if cur_dims.len() != 3 || cur_dims[0] != bn.gamma.len() {
                    return Err(NnError::InvalidConfig(format!(
                        "batchnorm plan expects per-sample [{}, h, w], got {cur_dims:?}",
                        bn.gamma.len()
                    )));
                }
                let out = cur_dims.clone();
                self.push(
                    StepKind::BatchNorm(Box::new([
                        bn.mean.clone(),
                        std_inv(&bn.var, bn.eps),
                        bn.gamma.clone(),
                        bn.beta.clone(),
                    ])),
                    cur_slot,
                    cur_dims,
                    out,
                );
            }
            LayerLowering::Residual { main, shortcut } => {
                let (v_in, in_dims) = (*cur_slot, cur_dims.clone());
                let first = self.plan.steps.len();
                self.reserved.push(v_in);
                for child in main {
                    self.emit(child, cur_slot, cur_dims)?;
                }
                let (v_main, main_end) = (*cur_slot, self.plan.steps.len());
                self.reserved.push(v_main);
                let (mut v_short, mut short_dims) = (v_in, in_dims);
                for child in shortcut {
                    self.emit(child, &mut v_short, &mut short_dims)?;
                }
                self.reserved.truncate(self.reserved.len() - 2);
                if short_dims != *cur_dims {
                    return Err(NnError::InvalidConfig(format!(
                        "residual paths disagree: main {cur_dims:?}, shortcut {short_dims:?}"
                    )));
                }
                let merge = self.plan.steps.len();
                self.pending.push((v_in, first, merge));
                self.pending.push((v_main, main_end, merge));
                let out = cur_dims.clone();
                self.push(StepKind::Add { shortcut: v_short }, cur_slot, cur_dims, out);
                let out = cur_dims.clone();
                self.push(StepKind::Relu, cur_slot, cur_dims, out);
            }
        }
        Ok(())
    }
}

/// Per-sample op estimate of one step — MACs for conv/dense, touched output
/// (or input, for reductions) elements otherwise. Mirrors the quant plan's
/// integer step accounting so the two plan families price work the same way.
fn step_unit_ops(kind: &StepKind, in_dims: &[usize], out_dims: &[usize]) -> u64 {
    let in_elems: usize = in_dims.iter().product();
    let out_elems: usize = out_dims.iter().product();
    match kind {
        StepKind::Conv(conv) => (conv.in_c * conv.kernel * conv.kernel * out_elems) as u64,
        StepKind::Dense(dense) => (dense.in_f * dense.out_f) as u64,
        StepKind::Pool { kernel, .. } => (kernel * kernel * out_elems) as u64,
        StepKind::GlobalAvgPool => in_elems as u64,
        StepKind::Relu
        | StepKind::BatchNorm(_)
        | StepKind::McDropout { .. }
        | StepKind::Add { .. } => out_elems as u64,
    }
}

/// Borrows the source and destination slots (distinct indices).
fn two_slots(slots: &mut [Vec<f32>], src: usize, dst: usize) -> (&[f32], &mut [f32]) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (a, b) = slots.split_at_mut(dst);
        (&a[src], &mut b[0])
    } else {
        let (a, b) = slots.split_at_mut(src);
        (&b[0], &mut a[dst])
    }
}

fn run_step(
    step: &mut Step,
    slots: &mut [Vec<f32>],
    scratch: &mut [f32],
    mask: &mut [f32],
    batch: usize,
    mode: Mode,
    shared_mask: bool,
) -> Result<(), NnError> {
    let in_elems = step.in_dims.iter().product::<usize>() * batch;
    if Step::elementwise(&step.kind) && step.src != step.dst {
        // An element-wise step whose source is a reserved residual operand:
        // copy, then run in place on the copy.
        let (src, dst) = two_slots(slots, step.src, step.dst);
        dst[..in_elems].copy_from_slice(&src[..in_elems]);
    }
    match &mut step.kind {
        StepKind::Conv(conv) => {
            let (h, w) = (step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, conv.kernel, conv.stride, conv.padding);
            let plane = geom.out_h() * geom.out_w();
            let kred = conv.in_c * conv.kernel * conv.kernel;
            let (cols, rest) = scratch.split_at_mut(kred * batch * plane);
            let acc = &mut rest[..conv.out_c * batch * plane];
            let (src, dst) = two_slots(slots, step.src, step.dst);
            let (rows, n) = im2col_slices_into(&src[..in_elems], batch, conv.in_c, &geom, cols)?;
            matmul_slices_into(&conv.w2d, cols, conv.out_c, rows, n, acc)?;
            scatter_bias(acc, &conv.bias, batch, plane, dst);
        }
        StepKind::Dense(dense) => {
            // The product lands in the destination slot; the bias is added
            // in place, as `Dense::forward` does.
            let (src, dst) = two_slots(slots, step.src, step.dst);
            let out = &mut dst[..batch * dense.out_f];
            matmul_slices_into(
                &src[..in_elems],
                &dense.w,
                batch,
                dense.in_f,
                dense.out_f,
                out,
            )?;
            add_bias_rows(out, &dense.bias);
        }
        StepKind::Relu => {
            // The exact comparison of the Relu layer (`x > 0.0`), in place.
            for v in slots[step.dst][..in_elems].iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        StepKind::BatchNorm(constants) => normalise_in_place(
            &mut slots[step.dst][..in_elems],
            step.in_dims[1] * step.in_dims[2],
            [&constants[0], &constants[1], &constants[2], &constants[3]].map(Vec::as_slice),
            None,
        ),
        StepKind::Add { shortcut } => {
            if *shortcut == step.dst {
                for v in slots[step.dst][..in_elems].iter_mut() {
                    *v = *v + *v;
                }
            } else {
                let (short, dst) = two_slots(slots, *shortcut, step.dst);
                for (d, &s) in dst[..in_elems].iter_mut().zip(&short[..in_elems]) {
                    *d += s;
                }
            }
        }
        StepKind::Pool {
            kernel,
            stride,
            max,
        } => {
            let [c, h, w] = [step.in_dims[0], step.in_dims[1], step.in_dims[2]];
            let window = Window::new([batch, c, h, w], *kernel, *stride);
            let (src, dst) = two_slots(slots, step.src, step.dst);
            if *max {
                window.max_into(&src[..in_elems], dst, None);
            } else {
                window.avg_into(&src[..in_elems], dst);
            }
        }
        StepKind::GlobalAvgPool => {
            let (c, plane) = (step.in_dims[0], step.in_dims[1] * step.in_dims[2]);
            let (src, dst) = two_slots(slots, step.src, step.dst);
            global_avg_into(&src[..in_elems], plane, &mut dst[..batch * c]);
        }
        StepKind::McDropout { rate, rng } => {
            if !mode.samples_mc_dropout() || *rate == 0.0 {
                // Identity in Eval (the layer returns its input unchanged);
                // streams advance nothing.
                return Ok(());
            }
            let keep = 1.0 - *rate;
            let scale = (1.0 / keep) as f32;
            let buf = &mut slots[step.dst][..in_elems];
            // Draw the mask exactly like `McDropout::sample_mask`:
            // filter-wise for NCHW (rank-3 per-sample dims), element-wise
            // otherwise — then multiply element by element. Shared-mask mode
            // draws one sample's worth and tiles it across the batch
            // (`% draws`); for batch 1 the two modes are identical.
            if step.in_dims.len() == 3 {
                let c = step.in_dims[0];
                let plane = step.in_dims[1] * step.in_dims[2];
                let draws = if shared_mask { c } else { batch * c };
                for m in mask[..draws].iter_mut() {
                    *m = if rng.bernoulli(keep) { scale } else { 0.0 };
                }
                for (i, v) in buf.iter_mut().enumerate() {
                    *v *= mask[(i / plane) % draws];
                }
            } else {
                let draws = if shared_mask {
                    in_elems / batch
                } else {
                    in_elems
                };
                for m in mask[..draws].iter_mut() {
                    *m = if rng.bernoulli(keep) { scale } else { 0.0 };
                }
                for (i, v) in buf.iter_mut().enumerate() {
                    *v *= mask[i % draws];
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::Relu;
    use crate::layers::batchnorm::BatchNorm2d;
    use crate::layers::conv2d::Conv2d;
    use crate::layers::dense::Dense;
    use crate::layers::dropout::{Dropout, McDropout};
    use crate::layers::flatten::Flatten;
    use crate::layers::pool::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};
    use crate::sequential::Sequential;
    use crate::Layer;

    fn stack() -> Sequential {
        let mut net = Sequential::new("s");
        net.push(Conv2d::new(2, 4, 3, 1, 1, 1).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(Conv2d::new(4, 4, 3, 1, 1, 2).unwrap());
        net.push(AvgPool2d::new(2, 2).unwrap());
        net.push(Flatten::new());
        net.push(Dropout::new(0.5, 3).unwrap());
        net.push(Dense::new(4 * 2 * 2, 6, 4).unwrap());
        net.push(McDropout::new(0.25, 5).unwrap());
        net.push(Dense::new(6, 3, 6).unwrap());
        net
    }

    #[test]
    fn plan_matches_layer_chain_bitwise_in_eval() {
        let mut net = stack();
        let mut plan = InferencePlan::compile(&net, &[2, 8, 8]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let x = Tensor::randn(&[3, 2, 8, 8], &mut rng);
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let planned = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(reference.dims(), planned.dims());
        assert_eq!(reference.as_slice(), planned.as_slice());
        // steady state: a second run gives the same bits again
        let again = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(planned.as_slice(), again.as_slice());
    }

    #[test]
    fn plan_matches_layer_chain_bitwise_in_mc_sample() {
        let mut net = stack();
        let mut plan = InferencePlan::compile(&net, &[2, 8, 8]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let x = Tensor::randn(&[2, 2, 8, 8], &mut rng);
        for seed in [1u64, 42, 99] {
            let mut streams = SplitMix64::new(seed);
            Layer::reseed_mc_streams(&mut net, &mut streams);
            let mut streams = SplitMix64::new(seed);
            plan.reseed_mc(&mut streams);
            let reference = net.forward(&x, Mode::McSample).unwrap();
            let planned = plan.forward(&x, Mode::McSample).unwrap();
            assert_eq!(reference.as_slice(), planned.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn filterwise_mask_plan_matches_layer() {
        // MC dropout over NCHW draws per (batch, channel); the plan must
        // reproduce the draw order exactly.
        let mut net = Sequential::new("mcd");
        net.push(Conv2d::new(1, 8, 3, 1, 1, 1).unwrap());
        net.push(McDropout::new(0.5, 2).unwrap());
        let mut plan = InferencePlan::compile(&net, &[1, 6, 6]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let x = Tensor::randn(&[4, 1, 6, 6], &mut rng);
        let mut streams = SplitMix64::new(11);
        Layer::reseed_mc_streams(&mut net, &mut streams);
        let mut streams = SplitMix64::new(11);
        plan.reseed_mc(&mut streams);
        let reference = net.forward(&x, Mode::McSample).unwrap();
        let planned = plan.forward(&x, Mode::McSample).unwrap();
        assert_eq!(reference.as_slice(), planned.as_slice());
    }

    #[test]
    fn global_avg_pool_plans() {
        let mut net = Sequential::new("gap");
        net.push(GlobalAvgPool2d::new());
        net.push(Dense::new(3, 2, 1).unwrap());
        let mut plan = InferencePlan::compile(&net, &[3, 5, 5]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let planned = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(reference.as_slice(), planned.as_slice());
    }

    /// A batch-norm layer whose running statistics and affine have moved off
    /// their initial values.
    fn trained_batchnorm(channels: usize, seed: u64) -> BatchNorm2d {
        let mut bn = BatchNorm2d::new(channels).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..3 {
            let x = Tensor::randn(&[4, channels, 3, 3], &mut rng).map(|v| v * 2.0 + 0.7);
            bn.forward(&x, Mode::Train).unwrap();
        }
        for p in bn.params_mut() {
            let noise = Tensor::randn(p.value.dims(), &mut rng);
            for (v, n) in p.value.as_mut_slice().iter_mut().zip(noise.as_slice()) {
                *v += 0.3 * n;
            }
        }
        bn
    }

    #[test]
    fn batchnorm_plan_matches_layer_bitwise() {
        let mut net = Sequential::new("bn");
        net.push(Conv2d::new(2, 3, 3, 1, 1, 1).unwrap());
        net.push(trained_batchnorm(3, 4));
        net.push(Relu::new());
        let mut plan = InferencePlan::compile(&net, &[2, 5, 5]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let x = Tensor::randn(&[3, 2, 5, 5], &mut rng);
        for mode in [Mode::Eval, Mode::McSample] {
            let reference = net.forward(&x, mode).unwrap();
            let planned = plan.forward(&x, mode).unwrap();
            assert_eq!(reference.as_slice(), planned.as_slice(), "{mode:?}");
        }
    }

    /// `relu(main(x) + shortcut(x))` evaluated with the layer chain.
    fn residual_reference(
        main: &mut Sequential,
        shortcut: &mut Sequential,
        x: &Tensor,
        mode: Mode,
    ) -> Tensor {
        let m = main.forward(x, mode).unwrap();
        let s = if shortcut.is_empty() {
            x.clone()
        } else {
            shortcut.forward(x, mode).unwrap()
        };
        m.add(&s).unwrap().map(|v| if v > 0.0 { v } else { 0.0 })
    }

    fn residual_lowering(main: &Sequential, shortcut: &Sequential) -> LayerLowering {
        let ops = |seq: &Sequential| match Layer::lowering(seq).unwrap() {
            LayerLowering::Sequence(ops) => ops,
            other => vec![other],
        };
        LayerLowering::Residual {
            main: ops(main),
            shortcut: ops(shortcut),
        }
    }

    #[test]
    fn residual_blocks_plan_bitwise_with_reserved_operands() {
        // Projection shortcut (conv + batch norm) and MC dropout on the main
        // path: the block input and main output must survive the shortcut.
        let mut main = Sequential::new("main");
        main.push(Conv2d::new(2, 4, 3, 2, 1, 1).unwrap());
        main.push(trained_batchnorm(4, 2));
        main.push(Relu::new());
        main.push(McDropout::new(0.3, 9).unwrap());
        main.push(Conv2d::new(4, 4, 3, 1, 1, 3).unwrap());
        let mut shortcut = Sequential::new("short");
        shortcut.push(Conv2d::new(2, 4, 1, 2, 0, 5).unwrap());
        shortcut.push(trained_batchnorm(4, 6));
        // An identity-shortcut block after it.
        let mut main2 = Sequential::new("main2");
        main2.push(trained_batchnorm(4, 7));
        main2.push(Conv2d::new(4, 4, 3, 1, 1, 8).unwrap());
        let mut identity = Sequential::new("id");
        let lowering = LayerLowering::Sequence(vec![
            residual_lowering(&main, &shortcut),
            residual_lowering(&main2, &identity),
        ]);
        let mut plan = InferencePlan::compile_lowering(&lowering, &[2, 6, 6]).unwrap();
        assert_eq!(plan.out_dims(), &[4, 3, 3]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let x = Tensor::randn(&[2, 2, 6, 6], &mut rng);
        for (mode, seed) in [(Mode::Eval, 0u64), (Mode::McSample, 5), (Mode::McSample, 6)] {
            let mut streams = SplitMix64::new(seed);
            Layer::reseed_mc_streams(&mut main, &mut streams);
            let mut streams = SplitMix64::new(seed);
            plan.reseed_mc(&mut streams);
            let mid = residual_reference(&mut main, &mut shortcut, &x, mode);
            let reference = residual_reference(&mut main2, &mut identity, &mid, mode);
            let planned = plan.forward(&x, mode).unwrap();
            assert_eq!(reference.as_slice(), planned.as_slice(), "{mode:?} {seed}");
        }
    }

    #[test]
    fn element_wise_step_on_a_reserved_slot_writes_a_fresh_one() {
        // The main path starts with in-place-capable steps: they must not
        // clobber the block input the identity shortcut still reads.
        let mut main = Sequential::new("main");
        main.push(Relu::new());
        main.push(trained_batchnorm(2, 3));
        let mut identity = Sequential::new("id");
        let lowering = residual_lowering(&main, &identity);
        let mut plan = InferencePlan::compile_lowering(&lowering, &[2, 3, 3]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let x = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let reference = residual_reference(&mut main, &mut identity, &x, Mode::Eval);
        let planned = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(reference.as_slice(), planned.as_slice());
    }

    #[test]
    fn train_mode_is_rejected() {
        let net = stack();
        let mut plan = InferencePlan::compile(&net, &[2, 8, 8]).unwrap();
        let x = Tensor::ones(&[1, 2, 8, 8]);
        assert!(matches!(
            plan.forward(&x, Mode::Train),
            Err(NnError::InvalidConfig(_))
        ));
        assert!(matches!(
            plan.forward_shared_mask(&x, Mode::Train),
            Err(NnError::InvalidConfig(_))
        ));
        assert!(plan.forward(&x, Mode::Eval).is_ok());
    }

    #[test]
    fn softmax_has_no_plan() {
        let mut net = Sequential::new("sm");
        net.push(Dense::new(3, 2, 0).unwrap());
        net.push(crate::layers::activation::Softmax::new());
        assert!(matches!(
            InferencePlan::compile(&net, &[3]),
            Err(NnError::UnsupportedLowering { .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut net = Sequential::new("d");
        net.push(Dense::new(4, 2, 0).unwrap());
        assert!(InferencePlan::compile(&net, &[5]).is_err());
        let mut plan = InferencePlan::compile(&net, &[4]).unwrap();
        assert!(plan.forward(&Tensor::ones(&[2, 5]), Mode::Eval).is_err());
    }
}
