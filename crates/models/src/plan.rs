//! The compiled plan of a multi-exit network: one runtime for every number
//! format.
//!
//! The workspace's one step compiler ([`bnn_nn::skeleton`]) turns a
//! network's lowered blocks and exits into one flat step list over a slot
//! arena, with each block's output pinned in its own slot. [`Plan`] executes
//! that list whatever the number format: it holds the skeleton, one
//! MC-dropout stream per flat step, the arena, the exit walker's scratch,
//! the executor, the mask rule and the staged-batch count, and it is the one
//! [`ExitPlan`] the walker drives. It runs the paper's split — the backbone
//! once ([`Plan::run_backbone`]), then the exits as often as there are
//! passes ([`Plan::forward_exits`]) from the pinned block slots — and every
//! prediction entry point. A format supplies only a [`Kernel`]: its step
//! op and kernels, its arena scratch, how an input batch is staged (copied
//! or quantized), how an exit's output reads back as float logits, and which
//! op is MC dropout.
//!
//! [`MultiExitPlan`] is the float plan ([`FloatKernel`], kernels in
//! `bnn_nn::plan`). Its steps reproduce the layer chain bit for bit, so the
//! Bayesian sampler runs on it — the exit walker's backbone-once,
//! exits-many Monte-Carlo loop — without changing a single output bit.
//! Every zoo architecture compiles, batch normalisation and residual blocks
//! included, so it is the only float inference executor; the layer chain
//! remains the trainer and the test reference. `bnn_quant::QuantPlan` is the integer plan over the same
//! runtime. A served batch touches no allocator once the arena is warm, and
//! every input entry point rejects non-finite values with a typed error, so
//! NaN in never becomes NaN probabilities out.

use crate::error::ModelError;
use crate::multi_exit::MultiExitNetwork;
use crate::policy::{AdaptivePrediction, AdaptiveStats, ExitPolicy};
use crate::walker::{self, ExitPlan, WalkScratch};
use bnn_nn::layer::Mode;
use bnn_nn::lowering::LayerLowering;
use bnn_nn::plan::{compile_owned, run_step, FloatArena, FloatOp, MaskGranularity};
use bnn_nn::skeleton::{steps_cost, BlockLayout, ExitSteps, ScheduleStep, Skeleton};
use bnn_nn::NnError;
use bnn_tensor::exec::Executor;
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;
use std::fmt::Debug;
use std::ops::Range;

/// What a number format plugs into [`Plan`]: its step op, value annotation
/// and arena, and the few things only the format knows.
pub trait Kernel {
    /// The step op, with the format's constants.
    type Op: Clone + Debug;
    /// The per-value annotation the step compiler threads along the data
    /// flow (the integer plan's `QuantParams`, `()` for float).
    type Note: Copy + Debug;
    /// The activation slots plus the format's kernel scratch.
    type Arena: Clone + Debug + Default;
    /// The format's error type.
    type Error: From<ModelError>;

    /// Whether `op` is an MC-dropout step (the steps that draw from their
    /// stream).
    fn is_mc_dropout(op: &Self::Op) -> bool;

    /// Grows `arena` for `batch` rows of `steps` (monotone: never shrinks,
    /// so repeated calls at or below a warmed batch never allocate).
    fn ensure(arena: &mut Self::Arena, steps: &Skeleton<Self::Op, Self::Note>, batch: usize);

    /// Writes a shape-checked input batch into the input slot (copied for
    /// float, quantized for integer), rejecting non-finite values.
    ///
    /// # Errors
    ///
    /// The format's error for a NaN or infinite input value.
    fn stage(
        arena: &mut Self::Arena,
        steps: &Skeleton<Self::Op, Self::Note>,
        inputs: &[f32],
    ) -> Result<(), Self::Error>;

    /// Executes one step on `batch` rows of the arena; an MC-dropout step
    /// draws its masks from `rng`, its own stream, at granularity `masks`.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures.
    fn run_step(
        step: &ScheduleStep<Self::Op>,
        rng: &mut Xoshiro256StarStar,
        arena: &mut Self::Arena,
        exec: Option<Executor>,
        batch: usize,
        mode: Mode,
        masks: MaskGranularity,
    ) -> Result<(), Self::Error>;

    /// Exit `exit`'s output on `live` rows as float logits.
    fn read_exit<'a>(
        arena: &'a mut Self::Arena,
        exit: &ExitSteps<Self::Op, Self::Note>,
        live: usize,
    ) -> &'a [f32];

    /// Copies row `from` of `block`'s output over row `to`.
    fn move_row(
        arena: &mut Self::Arena,
        blocks: &BlockLayout,
        block: usize,
        from: usize,
        to: usize,
    );
}

/// A compiled multi-exit plan: backbone blocks and exit branches as one
/// flat step list over one arena, executed by format `K`. See the
/// [module documentation](self).
///
/// Cloning a plan clones its constants and arena — a self-contained
/// inference replica for a worker thread, without recompiling.
#[derive(Debug, Clone)]
pub struct Plan<K: Kernel> {
    steps: Skeleton<K::Op, K::Note>,
    /// One mask stream per step in flat order (only MC-dropout steps draw
    /// from theirs).
    streams: Vec<Xoshiro256StarStar>,
    arena: K::Arena,
    walk: WalkScratch,
    exec: Option<Executor>,
    /// The mask rule of the call in progress: per-sample, except inside
    /// [`Plan::run_backbone`], [`Plan::forward_exits`] and
    /// [`Plan::predict_probs_into`].
    masks: MaskGranularity,
    /// Rows of the block outputs the latest [`Plan::run_backbone`] left in
    /// their slots (0 once the walker has restaged the arena).
    batch: usize,
}

/// The float format: f32 steps and arena from `bnn_nn::plan`.
#[derive(Debug, Clone, Copy)]
pub struct FloatKernel;

/// The compiled float plan of a multi-exit network.
pub type MultiExitPlan = Plan<FloatKernel>;

impl Kernel for FloatKernel {
    type Op = FloatOp;
    type Note = ();
    type Arena = FloatArena;
    type Error = ModelError;

    fn is_mc_dropout(op: &FloatOp) -> bool {
        matches!(op, FloatOp::McDropout { .. })
    }

    fn ensure(arena: &mut FloatArena, steps: &Skeleton<FloatOp, ()>, batch: usize) {
        arena.ensure(&steps.slot_elems, steps.scratch, batch);
    }

    fn stage(
        arena: &mut FloatArena,
        steps: &Skeleton<FloatOp, ()>,
        inputs: &[f32],
    ) -> Result<(), ModelError> {
        if let Some(bad) = inputs.iter().find(|v| !v.is_finite()) {
            return Err(ModelError::InvalidInput(format!(
                "input contains a non-finite value ({bad})"
            )));
        }
        arena.slots[steps.input_slot][..inputs.len()].copy_from_slice(inputs);
        Ok(())
    }

    fn run_step(
        step: &ScheduleStep<FloatOp>,
        rng: &mut Xoshiro256StarStar,
        arena: &mut FloatArena,
        exec: Option<Executor>,
        batch: usize,
        mode: Mode,
        masks: MaskGranularity,
    ) -> Result<(), ModelError> {
        Ok(run_step(step, rng, arena, exec, batch, mode, masks)?)
    }

    fn read_exit<'a>(
        arena: &'a mut FloatArena,
        exit: &ExitSteps<FloatOp, ()>,
        live: usize,
    ) -> &'a [f32] {
        let n = exit.out_dims.iter().product::<usize>() * live;
        &arena.slots[exit.out_slot][..n]
    }

    fn move_row(
        arena: &mut FloatArena,
        blocks: &BlockLayout,
        block: usize,
        from: usize,
        to: usize,
    ) {
        blocks.move_row(&mut arena.slots, block, from, to);
    }
}

/// A compiled plan memoised on its network, keyed by the weight version and
/// input shape it was compiled for (see [`MultiExitNetwork::cached_plan`]).
#[derive(Debug)]
pub(crate) struct PlanCache {
    version: u64,
    in_dims: Vec<usize>,
    plan: MultiExitPlan,
}

impl MultiExitNetwork {
    /// Compiles the inference plan of this network for per-sample inputs of
    /// shape `in_dims` (batch axis stripped).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Nn`] when `in_dims` does not fit the network.
    pub fn compile_plan(&self, in_dims: &[usize]) -> Result<MultiExitPlan, ModelError> {
        MultiExitPlan::compile(self.block_lowerings(), self.exit_lowerings(), in_dims)
    }

    /// The compiled plan for inputs of shape `in_dims`, memoised on the
    /// network: recompiled only when the weights have changed since the last
    /// call (tracked by [`MultiExitNetwork::weight_version`]) or when
    /// `in_dims` differs. Repeated predictions on a trained network skip the
    /// full lowering + weight-packing pass this way; the returned plan is
    /// handed out mutably because executing it mutates its arena and MC
    /// streams, neither of which affects what a recompilation would produce.
    ///
    /// # Errors
    ///
    /// See [`MultiExitNetwork::compile_plan`].
    pub fn cached_plan(&mut self, in_dims: &[usize]) -> Result<&mut MultiExitPlan, ModelError> {
        let version = self.weight_version();
        let cache = match self.plan_cache.take() {
            Some(c) if c.version == version && c.in_dims == in_dims => c,
            _ => PlanCache {
                version,
                in_dims: in_dims.to_vec(),
                plan: self.compile_plan(in_dims)?,
            },
        };
        Ok(&mut self.plan_cache.insert(cache).plan)
    }
}

impl Plan<FloatKernel> {
    /// Compiles the float plan of lowered `blocks` (execution order) and
    /// `exits` (`(after_block, branch)`, attachment order) for per-sample
    /// inputs of shape `in_dims`, moving their weights into the steps. The
    /// class count is the exits' shared output width.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Nn`] on a shape mismatch, for an exit after a
    /// missing block or for exits whose output widths disagree.
    pub fn compile(
        blocks: Vec<LayerLowering>,
        exits: Vec<(usize, LayerLowering)>,
        in_dims: &[usize],
    ) -> Result<Self, ModelError> {
        Ok(Plan::new(compile_owned(blocks, exits, in_dims)?))
    }

    /// [`Plan::run_backbone`] returning the activation after every block —
    /// bit-identical to [`MultiExitNetwork::forward_backbone`] in
    /// [`Mode::Eval`] and [`Mode::McSample`].
    ///
    /// # Errors
    ///
    /// See [`Plan::run_backbone`].
    pub fn forward_backbone(
        &mut self,
        input: &Tensor,
        mode: Mode,
    ) -> Result<Vec<Tensor>, ModelError> {
        self.run_backbone(input, mode)?;
        let blocks = &self.steps.blocks;
        (blocks.slots.iter().zip(&blocks.dims))
            .map(|(&slot, dims)| {
                let dims: Vec<usize> = [self.batch].iter().chain(dims).copied().collect();
                let n = dims.iter().product();
                Ok(Tensor::from_vec(
                    self.arena.slots[slot][..n].to_vec(),
                    &dims,
                )?)
            })
            .collect()
    }
}

impl<K: Kernel> Plan<K> {
    /// The plan of a compiled step skeleton, with every MC stream at a
    /// fixed seed and an empty arena (sized by the first call or by
    /// [`Plan::ensure_batch`]).
    pub fn new(steps: Skeleton<K::Op, K::Note>) -> Self {
        Plan {
            streams: vec![Xoshiro256StarStar::seed_from_u64(0); steps.num_steps()],
            steps,
            arena: K::Arena::default(),
            walk: WalkScratch::default(),
            exec: None,
            masks: MaskGranularity::PerSample,
            batch: 0,
        }
    }

    /// The flat step list this plan executes: its steps, constants, slot
    /// assignments and input annotation — for the integer plan, the
    /// schedule code generators and the HLS simulator read.
    pub fn schedule(&self) -> &Skeleton<K::Op, K::Note> {
        &self.steps
    }

    /// Pins every kernel of the plan to `exec` instead of its work-size
    /// based choice, or restores that choice for `None`.
    /// `Executor::sequential()` makes the steady state strictly
    /// allocation-free (the thread-pool fan-out of large kernels allocates
    /// its scoped workers); results are bitwise identical either way.
    pub fn set_executor(&mut self, exec: impl Into<Option<Executor>>) {
        self.exec = exec.into();
    }

    /// Pre-sizes every buffer for batches of up to `max_batch` samples, so a
    /// serving worker can pay every allocation up front and later calls at
    /// any batch up to `max_batch` stay allocation-free. Monotone: never
    /// shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        let batch = max_batch.max(1);
        K::ensure(&mut self.arena, &self.steps, batch);
        self.walk.reserve(batch, self.steps.classes());
    }

    /// Per-sample input dims the plan was compiled for (batch axis
    /// stripped): inputs must be shaped `[batch, ..in_dims]`.
    pub fn in_dims(&self) -> &[usize] {
        &self.steps.in_dims
    }

    /// Number of predicted classes (the exits' shared output width).
    pub fn num_classes(&self) -> usize {
        self.steps.classes()
    }

    /// Stages `input` and runs every block in `mode` with per-(batch,
    /// channel) masks — the layer chain's rule — leaving each block's output
    /// in its pinned slot for [`Plan::forward_exits`].
    ///
    /// # Errors
    ///
    /// Returns an invalid-input error for an empty batch, a shape mismatch
    /// or non-finite input values, and an [`NnError::InvalidConfig`] for
    /// [`Mode::Train`] (the plan is inference-only).
    pub fn run_backbone(&mut self, input: &Tensor, mode: Mode) -> Result<(), K::Error> {
        check_inference(mode)?;
        let batch = self.stage_input(input)?;
        let all = 0..self.steps.backbone.len();
        self.per_batch(|plan| plan.run(all, batch, mode))?;
        self.batch = batch;
        Ok(())
    }

    /// Runs every exit branch in `mode` on the block outputs the latest
    /// [`Plan::run_backbone`] left in their pinned slots, with per-(batch,
    /// channel) masks, returning each exit's float logits (dequantized on
    /// the integer plan). Re-running this in [`Mode::McSample`] draws
    /// further MC samples from the same backbone run. On the float plan this
    /// is bit-identical to [`MultiExitNetwork::forward_exits_from_activations`]
    /// on that backbone's activations; on the integer plan, to
    /// `bnn_hls::HlsSimulator::forward_exits`.
    ///
    /// # Errors
    ///
    /// Returns an [`NnError::InvalidConfig`] for [`Mode::Train`], an
    /// invalid-input error when no backbone run is staged (none yet, or a
    /// walker call has reused the arena since), or propagates execution
    /// errors.
    pub fn forward_exits(&mut self, mode: Mode) -> Result<Vec<Tensor>, K::Error> {
        check_inference(mode)?;
        let batch = self.batch;
        if batch == 0 {
            let msg = "forward_exits needs a run_backbone first".into();
            return Err(ModelError::InvalidInput(msg).into());
        }
        self.per_batch(|plan| {
            (0..plan.steps.exits.len())
                .map(|e| {
                    let dims: Vec<usize> = [batch]
                        .iter()
                        .chain(&plan.steps.exits[e].out_dims)
                        .copied()
                        .collect();
                    let logits = plan.run_exit(e, batch, mode)?.to_vec();
                    Ok(Tensor::from_vec(logits, &dims).map_err(ModelError::from)?)
                })
                .collect()
        })
    }

    /// Seeded Monte-Carlo prediction into `out` (`[batch, classes]`,
    /// resized): [`walker::predict_fixed`] with masks drawn per (batch,
    /// channel), the granularity of Phase 3 scoring and
    /// `bnn_hls::HlsSimulator::predict_probs` (bit-exact with it on the
    /// integer plan). Allocation-free once warm (sequential executor).
    ///
    /// # Errors
    ///
    /// See [`Plan::predict_probs_batch_into`].
    pub fn predict_probs_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), K::Error> {
        self.per_batch(|plan| walker::predict_fixed(plan, inputs, n_samples, seed, out, None))
    }

    /// [`Plan::predict_probs_into`] that also keeps every MC sample's
    /// probabilities in `samples`: `kept` blocks of `[batch, classes]` in
    /// schedule order (sample `s` from exit `s % n_exits` on pass
    /// `s / n_exits`, see [`walker::SampleSchedule`]). `out` is their mean.
    ///
    /// # Errors
    ///
    /// See [`Plan::predict_probs_batch_into`].
    pub fn predict_samples_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
        samples: &mut Vec<f32>,
    ) -> Result<(usize, usize), K::Error> {
        self.per_batch(|plan| {
            walker::predict_fixed(plan, inputs, n_samples, seed, out, Some(samples))
        })
    }

    /// [`Plan::predict_probs_into`] returning a fresh tensor.
    ///
    /// # Errors
    ///
    /// See [`Plan::predict_probs_batch_into`].
    pub fn predict_probs(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, K::Error> {
        let mut out = Vec::new();
        let (batch, classes) = self.predict_probs_into(inputs, n_samples, seed, &mut out)?;
        Ok(Tensor::from_vec(out, &[batch, classes]).map_err(ModelError::from)?)
    }

    /// The batch-boundary-invariant counterpart of
    /// [`Plan::predict_probs_into`]: masks are drawn **per sample** and
    /// broadcast across the batch, so every row is bit-exact with a
    /// single-sample call at the same seed however samples are batched (and
    /// the whole call is, for `batch == 1`). The serving entry point;
    /// allocation-free once warm, see [`Plan::ensure_batch`].
    ///
    /// # Errors
    ///
    /// Returns an invalid-input error for an empty batch, an input shape
    /// mismatch or non-finite input values, an invalid-spec error for a
    /// plan without exits, or propagates execution errors.
    pub fn predict_probs_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), K::Error> {
        walker::predict_fixed(self, inputs, n_samples, seed, out, None)
    }

    /// [`Plan::predict_probs_batch_into`] returning a fresh tensor.
    ///
    /// # Errors
    ///
    /// See [`Plan::predict_probs_batch_into`].
    pub fn predict_probs_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, K::Error> {
        let mut out = Vec::new();
        let (batch, classes) = self.predict_probs_batch_into(inputs, n_samples, seed, &mut out)?;
        Ok(Tensor::from_vec(out, &[batch, classes]).map_err(ModelError::from)?)
    }

    /// Static cost of the fixed-depth path
    /// ([`Plan::predict_probs_batch_into`]) for a `batch`-sample call at
    /// `n_samples` MC samples; see [`walker::fixed_cost`].
    pub fn fixed_cost(&self, batch: usize, n_samples: usize) -> (u64, u64) {
        walker::fixed_cost(self, batch, n_samples)
    }

    /// Policy-driven adaptive batched prediction ([`walker::predict_adaptive`]):
    /// confident samples retire at shallow exits and the survivors are
    /// compacted in place within the pinned block slot, so only stragglers
    /// pay for deeper blocks. Every row — probabilities *and* exit — is
    /// bit-exact with evaluating that sample alone; `n_samples == 0` consults
    /// each exit once in [`Mode::Eval`], and `Never` is bit-exact with
    /// [`Plan::predict_probs_batch_into`]. Allocation-free once warm.
    ///
    /// # Errors
    ///
    /// Returns an invalid-input error for an invalid policy threshold, an
    /// empty batch, a shape mismatch or non-finite input values, an
    /// invalid-spec error for a plan without exits or with exits attached
    /// out of depth order, or propagates execution errors.
    pub fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, K::Error> {
        walker::predict_adaptive(self, inputs, n_samples, seed, policy, out, exit_taken)
    }

    /// [`Plan::predict_adaptive_batch_into`] returning owned values.
    ///
    /// # Errors
    ///
    /// See [`Plan::predict_adaptive_batch_into`].
    pub fn predict_adaptive_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
    ) -> Result<AdaptivePrediction, K::Error> {
        let (mut out, mut exit_taken) = (Vec::new(), Vec::new());
        let stats = self.predict_adaptive_batch_into(
            inputs,
            n_samples,
            seed,
            policy,
            &mut out,
            &mut exit_taken,
        )?;
        let probs =
            Tensor::from_vec(out, &[stats.batch, stats.classes]).map_err(ModelError::from)?;
        Ok(AdaptivePrediction {
            probs,
            exit_taken,
            stats,
        })
    }

    /// Runs `f` with masks drawn per (batch, channel) instead of the
    /// walker's per-sample rule.
    fn per_batch<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.masks = MaskGranularity::PerBatch;
        let result = f(self);
        self.masks = MaskGranularity::PerSample;
        result
    }

    /// Runs backbone steps `steps` on `live` rows in `mode`.
    fn run(&mut self, steps: Range<usize>, live: usize, mode: Mode) -> Result<(), K::Error> {
        let streams = &mut self.streams[steps.clone()];
        for (step, rng) in self.steps.backbone[steps].iter().zip(streams) {
            K::run_step(
                step,
                rng,
                &mut self.arena,
                self.exec,
                live,
                mode,
                self.masks,
            )?;
        }
        Ok(())
    }
}

/// The walker's view of a plan: blocks and exits run on the arena at the
/// plan's current mask rule (per-sample outside the per-batch entry
/// points), and compaction moves rows within the pinned block slots.
impl<K: Kernel> ExitPlan for Plan<K> {
    type Error = K::Error;

    fn num_exits(&self) -> usize {
        self.steps.exits.len()
    }

    fn num_classes(&self) -> usize {
        self.steps.classes()
    }

    fn exit_block(&self, exit: usize) -> usize {
        self.steps.exits[exit].after_block
    }

    fn block_cost(&self, block: usize) -> (u64, u64) {
        steps_cost(&self.steps.backbone[self.steps.blocks.steps(block..block + 1)])
    }

    fn exit_cost(&self, exit: usize) -> (u64, u64) {
        steps_cost(&self.steps.exits[exit].steps)
    }

    fn stage_input(&mut self, inputs: &Tensor) -> Result<usize, K::Error> {
        let batch = match inputs.dims().split_first() {
            Some((&batch, dims)) if dims == self.steps.in_dims && batch > 0 => batch,
            _ => {
                return Err(ModelError::InvalidInput(format!(
                    "plan expects a non-empty input [batch, {:?}], got {:?}",
                    self.steps.in_dims,
                    inputs.dims()
                ))
                .into())
            }
        };
        self.ensure_batch(batch);
        K::stage(&mut self.arena, &self.steps, inputs.as_slice())?;
        self.batch = 0;
        Ok(batch)
    }

    fn run_blocks(&mut self, blocks: Range<usize>, live: usize) -> Result<(), K::Error> {
        let steps = self.steps.blocks.steps(blocks);
        self.run(steps, live, Mode::Eval)
    }

    fn run_exit(&mut self, exit: usize, live: usize, mode: Mode) -> Result<&[f32], K::Error> {
        let first = self.steps.exit_start(exit);
        let exit = &self.steps.exits[exit];
        for (step, rng) in exit.steps.iter().zip(&mut self.streams[first..]) {
            K::run_step(
                step,
                rng,
                &mut self.arena,
                self.exec,
                live,
                mode,
                self.masks,
            )?;
        }
        Ok(K::read_exit(&mut self.arena, exit, live))
    }

    /// Walks the flat step list (backbone, then exits in attachment order):
    /// the stream assignment of `Network::reseed_mc_streams` on the
    /// compiled network.
    fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut seeds = SplitMix64::new(master_seed);
        for (step, rng) in self.steps.steps().zip(&mut self.streams) {
            if K::is_mc_dropout(&step.op) {
                *rng = Xoshiro256StarStar::seed_from_u64(seeds.next_u64());
            }
        }
    }

    fn move_row(&mut self, block: usize, from: usize, to: usize) {
        K::move_row(&mut self.arena, &self.steps.blocks, block, from, to);
    }

    fn scratch(&mut self) -> &mut WalkScratch {
        &mut self.walk
    }
}

/// Rejects [`Mode::Train`]: the plan is inference-only.
fn check_inference(mode: Mode) -> Result<(), ModelError> {
    if mode.is_train() {
        let msg = "a compiled inference plan cannot run in train mode".into();
        return Err(NnError::InvalidConfig(msg).into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use crate::{zoo, ModelConfig};
    use bnn_nn::layers::activation::Relu;
    use bnn_nn::layers::batchnorm::BatchNorm2d;
    use bnn_nn::layers::conv2d::Conv2d;
    use bnn_nn::layers::dense::Dense;
    use bnn_nn::layers::dropout::McDropout;
    use bnn_nn::layers::flatten::Flatten;
    use bnn_nn::layers::pool::{GlobalAvgPool2d, MaxPool2d};
    use bnn_nn::network::Network;
    use bnn_nn::{Layer, Sequential};

    fn lenet() -> MultiExitNetwork {
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
        .build(5)
        .unwrap()
    }

    #[test]
    fn plan_matches_network_forward_bitwise() {
        let mut net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        assert_eq!(plan.num_exits(), 2);
        assert_eq!(plan.num_classes(), 4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let x = Tensor::randn(&[3, 1, 10, 10], &mut rng);

        let acts_ref = net.forward_backbone(&x, Mode::Eval).unwrap();
        let acts = plan.forward_backbone(&x, Mode::Eval).unwrap();
        assert_eq!(acts_ref.len(), acts.len());
        for (a, b) in acts_ref.iter().zip(&acts) {
            assert_eq!(a.as_slice(), b.as_slice());
        }

        // MC exit passes under shared reseeds stay bitwise equal.
        for seed in [3u64, 77] {
            net.reseed_mc_streams(seed);
            plan.reseed_mc_streams(seed);
            let e_ref = net
                .forward_exits_from_activations(&acts_ref, Mode::McSample)
                .unwrap();
            let e_plan = plan.forward_exits(Mode::McSample).unwrap();
            for (a, b) in e_ref.iter().zip(&e_plan) {
                assert_eq!(a.as_slice(), b.as_slice(), "seed {seed}");
            }
        }
    }

    #[test]
    fn cached_plan_recompiles_only_on_mutation_or_shape_change() {
        let mut net = lenet();
        let v0 = net.weight_version();
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);

        // First call compiles; the cached plan matches a fresh compile bitwise.
        let mut fresh = net.compile_plan(&[1, 10, 10]).unwrap();
        let acts_fresh = fresh.forward_backbone(&x, Mode::Eval).unwrap();
        {
            let plan = net.cached_plan(&[1, 10, 10]).unwrap();
            let acts = plan.forward_backbone(&x, Mode::Eval).unwrap();
            for (a, b) in acts_fresh.iter().zip(&acts) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
        // Unmutated repeat: same version, cache hit (version unchanged, and
        // checkpointing — a read-only walk — must not invalidate).
        let _ = net.checkpoint();
        assert_eq!(net.weight_version(), v0);
        {
            let plan = net.cached_plan(&[1, 10, 10]).unwrap();
            let acts = plan.forward_backbone(&x, Mode::Eval).unwrap();
            for (a, b) in acts_fresh.iter().zip(&acts) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }

        // Mutating a weight through params_mut bumps the version and the
        // next cached_plan call picks up the new weights.
        {
            let mut params = net.params_mut();
            let w = params[0].value.as_mut_slice();
            w[0] += 1.0;
        }
        assert_ne!(net.weight_version(), v0);
        let plan = net.cached_plan(&[1, 10, 10]).unwrap();
        let acts_new = plan.forward_backbone(&x, Mode::Eval).unwrap();
        assert_ne!(acts_new[0].as_slice(), acts_fresh[0].as_slice());
    }

    #[test]
    fn train_mode_is_a_typed_error() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let x = Tensor::ones(&[1, 1, 10, 10]);
        assert!(matches!(
            plan.forward_backbone(&x, Mode::Train),
            Err(ModelError::Nn(NnError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn plan_clone_is_an_independent_replica() {
        let net = NetworkSpec::single_exit(
            "tiny",
            1,
            8,
            8,
            2,
            vec![vec![
                LayerSpec::Conv2d {
                    in_channels: 1,
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                LayerSpec::Relu,
            ]],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 2,
                    out_features: 2,
                },
            ],
        )
        .with_exit_mcd(0.5)
        .unwrap()
        .build(3)
        .unwrap();
        let mut plan = net.compile_plan(&[1, 8, 8]).unwrap();
        let mut replica = plan.clone();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        plan.reseed_mc_streams(41);
        replica.reseed_mc_streams(41);
        plan.run_backbone(&x, Mode::Eval).unwrap();
        // A replica cloned after the backbone re-runs the exits from the
        // pinned block slots it copied.
        let mut late = plan.clone();
        replica.run_backbone(&x, Mode::Eval).unwrap();
        let a = plan.forward_exits(Mode::McSample).unwrap();
        let b = replica.forward_exits(Mode::McSample).unwrap();
        let c = late.forward_exits(Mode::McSample).unwrap();
        assert_eq!(a[0].as_slice(), b[0].as_slice());
        assert_eq!(a[0].as_slice(), c[0].as_slice());
    }

    #[test]
    fn adaptive_never_matches_fixed_batch_bitwise() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let x = Tensor::randn(&[3, 1, 10, 10], &mut rng);
        plan.run_backbone(&x, Mode::Eval).unwrap();
        let fixed = plan.predict_probs_batch(&x, 6, 2023).unwrap();
        // The walk restaged the arena: the backbone run is gone.
        assert!(matches!(
            plan.forward_exits(Mode::Eval),
            Err(ModelError::InvalidInput(_))
        ));
        let adaptive = plan
            .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Never)
            .unwrap();
        assert_eq!(fixed.as_slice(), adaptive.probs.as_slice());
        assert_eq!(adaptive.exit_taken, vec![plan.num_exits() - 1; 3]);
        assert_eq!(adaptive.stats.ops_executed, adaptive.stats.ops_fixed);
        assert!(adaptive.stats.ops_fixed > 0);
    }

    #[test]
    fn adaptive_rows_match_single_sample_evaluation() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        let x = Tensor::randn(&[4, 1, 10, 10], &mut rng);
        let per = 100usize;
        for policy in [
            ExitPolicy::Confidence { threshold: 0.3 },
            ExitPolicy::Entropy { threshold: 0.97 },
            ExitPolicy::Confidence { threshold: 0.0 }, // everyone retires at exit 0
            ExitPolicy::Confidence { threshold: 1.0 }, // nobody retires early
        ] {
            for n_samples in [0usize, 6] {
                let all = plan
                    .predict_adaptive_batch(&x, n_samples, 2023, &policy)
                    .unwrap();
                for b in 0..4 {
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
                        "{policy} n={n_samples} row {b}"
                    );
                    assert_eq!(
                        all.exit_taken[b], one.exit_taken[0],
                        "{policy} n={n_samples} row {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_saves_ops_when_samples_retire_early() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(35);
        let x = Tensor::randn(&[4, 1, 10, 10], &mut rng);
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

    /// The float plan of a plain layer stack: one block, no exits.
    fn stack_plan(layer: &dyn Layer, in_dims: &[usize]) -> Result<MultiExitPlan, ModelError> {
        MultiExitPlan::compile(vec![layer.lowering()], vec![], in_dims)
    }

    /// The stack's output: the plan's one block output.
    fn run_stack(plan: &mut MultiExitPlan, x: &Tensor, mode: Mode) -> Tensor {
        plan.forward_backbone(x, mode).unwrap().pop().unwrap()
    }

    fn stack() -> Sequential {
        let mut net = Sequential::new("s");
        net.push(Conv2d::new(2, 4, 3, 1, 1, 1).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(Conv2d::new(4, 4, 3, 1, 1, 2).unwrap());
        net.push(Flatten::new());
        net.push(Dense::new(4 * 4 * 4, 6, 4).unwrap());
        net.push(McDropout::new(0.25, 5).unwrap());
        net.push(Dense::new(6, 3, 6).unwrap());
        net
    }

    #[test]
    fn plan_matches_layer_chain_bitwise_in_eval() {
        let mut net = stack();
        let mut plan = stack_plan(&net, &[2, 8, 8]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let x = Tensor::randn(&[3, 2, 8, 8], &mut rng);
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let planned = run_stack(&mut plan, &x, Mode::Eval);
        assert_eq!(reference.dims(), planned.dims());
        assert_eq!(reference.as_slice(), planned.as_slice());
        // steady state: a second run gives the same bits again
        let again = run_stack(&mut plan, &x, Mode::Eval);
        assert_eq!(planned.as_slice(), again.as_slice());
    }

    #[test]
    fn plan_matches_layer_chain_bitwise_in_mc_sample() {
        let mut net = stack();
        let mut plan = stack_plan(&net, &[2, 8, 8]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let x = Tensor::randn(&[2, 2, 8, 8], &mut rng);
        for seed in [1u64, 42, 99] {
            Layer::reseed_mc_streams(&mut net, &mut SplitMix64::new(seed));
            plan.reseed_mc_streams(seed);
            let reference = net.forward(&x, Mode::McSample).unwrap();
            let planned = run_stack(&mut plan, &x, Mode::McSample);
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
        let mut plan = stack_plan(&net, &[1, 6, 6]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let x = Tensor::randn(&[4, 1, 6, 6], &mut rng);
        Layer::reseed_mc_streams(&mut net, &mut SplitMix64::new(11));
        plan.reseed_mc_streams(11);
        let reference = net.forward(&x, Mode::McSample).unwrap();
        let planned = run_stack(&mut plan, &x, Mode::McSample);
        assert_eq!(reference.as_slice(), planned.as_slice());
    }

    #[test]
    fn global_avg_pool_plans() {
        let mut net = Sequential::new("gap");
        net.push(GlobalAvgPool2d::new());
        net.push(Dense::new(3, 2, 1).unwrap());
        let mut plan = stack_plan(&net, &[3, 5, 5]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let planned = run_stack(&mut plan, &x, Mode::Eval);
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
        let mut plan = stack_plan(&net, &[2, 5, 5]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let x = Tensor::randn(&[3, 2, 5, 5], &mut rng);
        for mode in [Mode::Eval, Mode::McSample] {
            let reference = net.forward(&x, mode).unwrap();
            let planned = run_stack(&mut plan, &x, mode);
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
        let ops = |seq: &Sequential| match Layer::lowering(seq) {
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
        let mut plan = MultiExitPlan::compile(vec![lowering], vec![], &[2, 6, 6]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let x = Tensor::randn(&[2, 2, 6, 6], &mut rng);
        for (mode, seed) in [(Mode::Eval, 0u64), (Mode::McSample, 5), (Mode::McSample, 6)] {
            Layer::reseed_mc_streams(&mut main, &mut SplitMix64::new(seed));
            plan.reseed_mc_streams(seed);
            let mid = residual_reference(&mut main, &mut shortcut, &x, mode);
            let reference = residual_reference(&mut main2, &mut identity, &mid, mode);
            let planned = run_stack(&mut plan, &x, mode);
            assert_eq!(planned.dims(), &[2, 4, 3, 3]);
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
        let mut plan = MultiExitPlan::compile(vec![lowering], vec![], &[2, 3, 3]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let x = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let reference = residual_reference(&mut main, &mut identity, &x, Mode::Eval);
        let planned = run_stack(&mut plan, &x, Mode::Eval);
        assert_eq!(reference.as_slice(), planned.as_slice());
    }

    #[test]
    fn train_mode_is_rejected() {
        let net = stack();
        let mut plan = stack_plan(&net, &[2, 8, 8]).unwrap();
        let x = Tensor::ones(&[1, 2, 8, 8]);
        let train_error = |r: Result<Vec<Tensor>, ModelError>| {
            matches!(r, Err(ModelError::Nn(NnError::InvalidConfig(_))))
        };
        assert!(train_error(plan.forward_backbone(&x, Mode::Train)));
        // A failed backbone run leaves nothing for the exits to read.
        assert!(matches!(
            plan.forward_exits(Mode::Eval),
            Err(ModelError::InvalidInput(_))
        ));
        assert!(plan.forward_backbone(&x, Mode::Eval).is_ok());
        assert!(train_error(plan.forward_exits(Mode::Train)));
    }

    #[test]
    fn exits_of_different_widths_are_a_compile_error() {
        let dense = |out_f, seed| Dense::new(4, out_f, seed).unwrap().lowering();
        let blocks = vec![dense(4, 0)];
        let agree = vec![(0, dense(2, 1)), (0, dense(2, 2))];
        let plan = MultiExitPlan::compile(blocks.clone(), agree, &[4]).unwrap();
        assert_eq!(plan.num_classes(), 2);
        let disagree = vec![(0, dense(2, 1)), (0, dense(3, 2))];
        assert!(matches!(
            MultiExitPlan::compile(blocks, disagree, &[4]),
            Err(ModelError::Nn(NnError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut net = Sequential::new("d");
        net.push(Dense::new(4, 2, 0).unwrap());
        assert!(matches!(
            stack_plan(&net, &[5]),
            Err(ModelError::Nn(NnError::InvalidConfig(_)))
        ));
        let mut plan = stack_plan(&net, &[4]).unwrap();
        assert!(matches!(
            plan.forward_backbone(&Tensor::ones(&[2, 5]), Mode::Eval),
            Err(ModelError::InvalidInput(_))
        ));
    }
}
