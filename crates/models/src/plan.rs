//! Compiled inference plans for multi-exit networks: the allocate-once
//! counterpart of [`MultiExitNetwork`]'s forward path.
//!
//! [`MultiExitNetwork::compile_plan`] lowers every backbone block and exit
//! branch into a [`bnn_nn::InferencePlan`]. The plans execute exactly the
//! layer forward chain bit for bit (see `bnn_nn::plan`), so the Bayesian
//! sampler can run its backbone-once/exits-many Monte-Carlo loop on a plan —
//! reusing each plan's arena across passes instead of allocating per-layer
//! activations and rebuilding model replicas — without changing a single
//! output bit. Every zoo architecture compiles, batch normalisation and
//! residual blocks included, so the plan is the only float inference
//! executor; the layer chain remains the trainer and the test reference.
//! Every input entry point rejects non-finite values with
//! [`ModelError::InvalidInput`], so NaN in never becomes NaN probabilities
//! out.

use crate::error::ModelError;
use crate::multi_exit::MultiExitNetwork;
use crate::policy::{AdaptivePrediction, AdaptiveStats, ExitPolicy};
use bnn_nn::layer::Mode;
use bnn_nn::network::Network;
use bnn_nn::{InferencePlan, Layer};
use bnn_tensor::ops::softmax_rows_into;
use bnn_tensor::rng::{stream_seed, SplitMix64};
use bnn_tensor::Tensor;

/// Compiled plans of every backbone block and exit branch of a multi-exit
/// network, in the network's own execution/attachment order.
///
/// Cloning a plan clones its packed weights and arenas — a self-contained
/// inference replica for a worker thread, without rebuilding the model from
/// its spec.
#[derive(Debug, Clone)]
pub struct MultiExitPlan {
    blocks: Vec<InferencePlan>,
    exits: Vec<(usize, InferencePlan)>,
    classes: usize,
    in_dims: Vec<usize>,
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
    /// Returns [`ModelError::Nn`] when a layer has no inference lowering
    /// (an in-graph softmax) or `in_dims` does not fit the network.
    pub fn compile_plan(&self, in_dims: &[usize]) -> Result<MultiExitPlan, ModelError> {
        let mut dims = in_dims.to_vec();
        let mut blocks = Vec::with_capacity(self.num_blocks());
        let mut block_dims = Vec::with_capacity(self.num_blocks());
        for block in self.blocks() {
            let plan = InferencePlan::compile(block as &dyn Layer, &dims)?;
            dims = plan.out_dims().to_vec();
            block_dims.push(dims.clone());
            blocks.push(plan);
        }
        let mut exits = Vec::with_capacity(self.exits().len());
        for (after_block, branch) in self.exits() {
            let plan = InferencePlan::compile(branch as &dyn Layer, &block_dims[*after_block])?;
            exits.push((*after_block, plan));
        }
        Ok(MultiExitPlan {
            blocks,
            exits,
            classes: self.num_classes(),
            in_dims: in_dims.to_vec(),
        })
    }

    /// The compiled plan for inputs of shape `in_dims`, memoised on the
    /// network: recompiled only when the weights have changed since the last
    /// call (tracked by [`MultiExitNetwork::weight_version`]) or when
    /// `in_dims` differs. Repeated predictions on a trained network skip the
    /// full lowering + weight-packing pass this way; the returned plan is
    /// handed out mutably because executing it mutates its arenas and MC
    /// streams, neither of which affects what a recompilation would produce.
    ///
    /// # Errors
    ///
    /// See [`MultiExitNetwork::compile_plan`].
    pub fn cached_plan(&mut self, in_dims: &[usize]) -> Result<&mut MultiExitPlan, ModelError> {
        let version = self.weight_version();
        let hit = matches!(
            &self.plan_cache,
            Some(c) if c.version == version && c.in_dims == in_dims
        );
        if !hit {
            let plan = self.compile_plan(in_dims)?;
            self.plan_cache = Some(PlanCache {
                version,
                in_dims: in_dims.to_vec(),
                plan,
            });
        }
        Ok(&mut self
            .plan_cache
            .as_mut()
            .expect("plan cache populated above")
            .plan)
    }
}

impl MultiExitPlan {
    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
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

    /// Pre-sizes every block and exit arena for `max_batch` samples, so a
    /// serving worker pays all plan allocations up front. Monotone: never
    /// shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        for block in &mut self.blocks {
            block.ensure_batch(max_batch);
        }
        for (_, exit) in &mut self.exits {
            exit.ensure_batch(max_batch);
        }
    }

    /// Reseeds every MC-dropout stream from `master_seed`, walking blocks
    /// then exits — the same stream assignment as
    /// [`Network::reseed_mc_streams`] on the network this plan was compiled
    /// from.
    pub fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut streams = SplitMix64::new(master_seed);
        for block in &mut self.blocks {
            block.reseed_mc(&mut streams);
        }
        for (_, exit) in &mut self.exits {
            exit.reseed_mc(&mut streams);
        }
    }

    /// The batch size of `inputs`, which must be a non-empty batch of the
    /// compiled per-sample shape.
    fn check_batch(&self, inputs: &Tensor) -> Result<usize, ModelError> {
        match inputs.dims().split_first() {
            Some((&batch, dims)) if dims == self.in_dims && batch > 0 => Ok(batch),
            _ => Err(ModelError::InvalidInput(format!(
                "plan expects a non-empty input [batch, {:?}], got {:?}",
                self.in_dims,
                inputs.dims()
            ))),
        }
    }

    /// Runs the backbone, returning the activation after every block —
    /// bit-identical to [`MultiExitNetwork::forward_backbone`] in
    /// [`Mode::Eval`] and [`Mode::McSample`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for non-finite input values, or
    /// propagates plan execution errors ([`Mode::Train`] and shape
    /// mismatches among them).
    pub fn forward_backbone(
        &mut self,
        input: &Tensor,
        mode: Mode,
    ) -> Result<Vec<Tensor>, ModelError> {
        check_finite(input)?;
        let mut activations = Vec::with_capacity(self.blocks.len());
        for (i, block) in self.blocks.iter_mut().enumerate() {
            let src = if i == 0 { input } else { &activations[i - 1] };
            let out = block.forward(src, mode)?;
            activations.push(out);
        }
        Ok(activations)
    }

    /// Runs only the exit branches on pre-computed backbone activations —
    /// bit-identical to
    /// [`MultiExitNetwork::forward_exits_from_activations`]. Re-running this
    /// in [`Mode::McSample`] on the same activations draws additional MC
    /// samples while reusing each exit plan's arena.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if `activations` does not hold
    /// one tensor per block, or propagates execution errors.
    pub fn forward_exits_from_activations(
        &mut self,
        activations: &[Tensor],
        mode: Mode,
    ) -> Result<Vec<Tensor>, ModelError> {
        if activations.len() != self.blocks.len() {
            return Err(ModelError::InvalidSpec(format!(
                "expected {} block activations, got {}",
                self.blocks.len(),
                activations.len()
            )));
        }
        let mut outputs = Vec::with_capacity(self.exits.len());
        for (after_block, branch) in &mut self.exits {
            outputs.push(branch.forward(&activations[*after_block], mode)?);
        }
        Ok(outputs)
    }

    /// Seeded Monte-Carlo prediction with **batch-boundary-invariant**
    /// outputs, the float counterpart of
    /// `bnn_quant::QuantPlan::predict_probs_batch_into`: the backbone runs
    /// once in [`Mode::Eval`], each pass reseeds the mask streams from
    /// `stream_seed(seed, pass)` and re-runs the exits with per-sample
    /// dropout masks broadcast across the batch
    /// ([`InferencePlan::forward_shared_mask`]), and the first `n_samples`
    /// per-sample softmax tensors are averaged into `out`
    /// (`[batch, classes]`, resized). Because the masks are per-sample, every
    /// row of the result is bit-exact with a single-sample call at the same
    /// seed, however the samples are grouped into batches.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an empty batch, an input
    /// shape mismatch or non-finite input values,
    /// [`ModelError::InvalidSpec`] for a plan without exits, or propagates
    /// execution errors.
    pub fn predict_probs_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), ModelError> {
        let n_exits = self.exits.len();
        if n_exits == 0 {
            return Err(ModelError::InvalidSpec("plan has no exits".into()));
        }
        let batch = self.check_batch(inputs)?;
        let activations = self.forward_backbone(inputs, Mode::Eval)?;
        let passes = n_samples.div_ceil(n_exits).max(1);
        let kept = if n_samples == 0 {
            passes * n_exits
        } else {
            n_samples.min(passes * n_exits)
        };
        let elems = batch * self.classes;
        if out.len() != elems {
            out.clear();
            out.resize(elems, 0.0);
        } else {
            out.fill(0.0);
        }
        let mut probs = vec![0.0f32; elems];
        let mut sample = 0usize;
        'passes: for pass in 0..passes {
            self.reseed_mc_streams(stream_seed(seed, pass as u64));
            for e in 0..n_exits {
                if sample >= kept {
                    break 'passes;
                }
                let (after_block, branch) = &mut self.exits[e];
                let logits =
                    branch.forward_shared_mask(&activations[*after_block], Mode::McSample)?;
                softmax_rows_into(logits.as_slice(), batch, self.classes, &mut probs)?;
                for (o, &p) in out.iter_mut().zip(&probs) {
                    *o += p;
                }
                sample += 1;
            }
        }
        let inv = 1.0 / kept as f32;
        for o in out.iter_mut() {
            *o *= inv;
        }
        Ok((batch, self.classes))
    }

    /// [`MultiExitPlan::predict_probs_batch_into`] returning a fresh tensor.
    ///
    /// # Errors
    ///
    /// See [`MultiExitPlan::predict_probs_batch_into`].
    pub fn predict_probs_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, ModelError> {
        let mut out = Vec::new();
        let (batch, classes) = self.predict_probs_batch_into(inputs, n_samples, seed, &mut out)?;
        Ok(Tensor::from_vec(out, &[batch, classes])?)
    }

    /// Static cost of the fixed-depth path
    /// ([`MultiExitPlan::predict_probs_batch_into`]) for a `batch`-sample
    /// call at `n_samples` MC samples: `(step_invocations, ops)` where ops
    /// scale with the batch but invocations do not (each invocation runs the
    /// whole batch). This is the `ops_fixed` baseline the adaptive path
    /// reports its savings against.
    pub fn fixed_cost(&self, batch: usize, n_samples: usize) -> (u64, u64) {
        let n_exits = self.exits.len().max(1);
        let passes = n_samples.div_ceil(n_exits).max(1);
        let kept = if n_samples == 0 {
            passes * n_exits
        } else {
            n_samples.min(passes * n_exits)
        };
        let mut steps = 0u64;
        let mut unit_ops = 0u64;
        for block in &self.blocks {
            steps += block.num_steps() as u64;
            unit_ops += block.unit_ops();
        }
        for (e, (_, branch)) in self.exits.iter().enumerate() {
            let runs = if e < kept {
                ((kept - e - 1) / n_exits + 1) as u64
            } else {
                0
            };
            steps += runs * branch.num_steps() as u64;
            unit_ops += runs * branch.unit_ops();
        }
        (steps, unit_ops * batch as u64)
    }

    /// Policy-driven adaptive batched prediction: the step list is executed
    /// in exit-boundary segments, and after each exit head's ensemble joins
    /// the live rows, `policy` retires the confident samples and the
    /// surviving rows are **compacted into a dense smaller batch** that alone
    /// pays for the deeper blocks.
    ///
    /// Execution order per exit `e`: run the backbone blocks up to the
    /// exit's attachment point once in [`Mode::Eval`] on the live rows, then
    /// draw `ceil(n_samples / n_exits)` MC samples from exit `e` (pass `p`
    /// reseeds every mask stream from `stream_seed(seed, p)`, exactly the
    /// fixed path's assignment, with per-sample masks broadcast across the
    /// batch). Each sample's output row is the running equally-weighted
    /// ensemble mean over all exits consulted before it retired. Because
    /// masks are per-sample and every retirement decision is row-local,
    /// each row — probabilities *and* exit choice — is bit-exact with
    /// evaluating that sample alone under the same policy, regardless of
    /// which other samples shared its batch or when they retired.
    ///
    /// With `n_samples == 0` the exits are consulted deterministically in
    /// [`Mode::Eval`] (one consult per exit), matching the historical
    /// `McSampler::confidence_exit_predict` semantics. With
    /// [`ExitPolicy::Never`] and `n_samples > 0` the call delegates to
    /// [`MultiExitPlan::predict_probs_batch_into`] and is bit-exact with it.
    ///
    /// `out` is resized to `[batch * classes]` and `exit_taken` to `batch`
    /// (the exit index each sample retired at). Returns the execution
    /// accounting, including the fixed-depth op baseline for the same call.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an invalid policy threshold,
    /// an empty batch, a shape mismatch or non-finite input values,
    /// [`ModelError::InvalidSpec`] for a
    /// plan without exits or with exits attached out of depth order, or
    /// propagates execution errors.
    pub fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ModelError> {
        policy.validate().map_err(ModelError::InvalidInput)?;
        let n_exits = self.exits.len();
        if n_exits == 0 {
            return Err(ModelError::InvalidSpec("plan has no exits".into()));
        }
        if self.exits.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(ModelError::InvalidSpec(
                "adaptive execution requires exits in ascending block order".into(),
            ));
        }
        let batch = self.check_batch(inputs)?;
        check_finite(inputs)?;
        let spe = if n_samples == 0 {
            1
        } else {
            n_samples.div_ceil(n_exits)
        };
        let (fixed_steps, fixed_ops) = self.fixed_cost(batch, n_samples);

        // `Never` with MC samples is exactly the fixed-depth path; delegate
        // so the accumulation order (pass-major) — and therefore every f32
        // bit — matches `predict_probs_batch_into`. The deterministic
        // `n_samples == 0` variant consults each exit once in Eval mode,
        // which the generic loop below expresses directly.
        if policy.is_never() && n_samples > 0 {
            self.predict_probs_batch_into(inputs, n_samples, seed, out)?;
            exit_taken.clear();
            exit_taken.resize(batch, n_exits - 1);
            return Ok(AdaptiveStats {
                batch,
                classes: self.classes,
                samples_per_exit: spe,
                steps_executed: fixed_steps,
                ops_executed: fixed_ops,
                ops_fixed: fixed_ops,
            });
        }

        let mode = if n_samples == 0 {
            Mode::Eval
        } else {
            Mode::McSample
        };
        let classes = self.classes;
        let elems = batch * classes;
        out.clear();
        out.resize(elems, 0.0);
        exit_taken.clear();
        exit_taken.resize(batch, 0);

        // Live-row state: rows 0..live of `acc` (and of the frontier
        // activation `cur`) belong to original samples `live_idx[0..live]`.
        let mut acc = vec![0.0f32; elems];
        let mut probs = vec![0.0f32; elems];
        let mut live_idx: Vec<usize> = (0..batch).collect();
        let mut live = batch;
        let mut cur: Option<Tensor> = None;
        let mut next_block = 0usize;
        let mut steps_executed = 0u64;
        let mut ops_executed = 0u64;

        for e in 0..n_exits {
            let target_block = self.exits[e].0;
            while next_block <= target_block {
                let block = &mut self.blocks[next_block];
                let src = cur.as_ref().unwrap_or(inputs);
                let next = block.forward(src, Mode::Eval)?;
                steps_executed += block.num_steps() as u64;
                ops_executed += block.unit_ops() * live as u64;
                cur = Some(next);
                next_block += 1;
            }
            for p in 0..spe {
                if matches!(mode, Mode::McSample) {
                    // Reseeding assigns every stream from the master seed, so
                    // running only exit `e` afterwards draws the identical
                    // masks the fixed path draws for this exit on pass `p`.
                    self.reseed_mc_streams(stream_seed(seed, p as u64));
                }
                let act = cur.as_ref().expect("exits attach after at least one block");
                let (_, branch) = &mut self.exits[e];
                let logits = branch.forward_shared_mask(act, mode)?;
                steps_executed += branch.num_steps() as u64;
                ops_executed += branch.unit_ops() * live as u64;
                let n = live * classes;
                softmax_rows_into(logits.as_slice(), live, classes, &mut probs[..n])?;
                for (a, &p) in acc[..n].iter_mut().zip(&probs[..n]) {
                    *a += p;
                }
            }
            let consulted = ((e + 1) * spe) as f32;
            let last = e + 1 == n_exits;

            // Retire-or-compact pass: retired rows scatter their ensemble
            // mean to their original output slot; survivors slide forward in
            // `acc`/`live_idx` and their frontier activation rows are
            // gathered into a dense batch.
            let act = cur.as_ref().expect("exits attach after at least one block");
            let act_slice = act.as_slice();
            let unit: usize = act.dims()[1..].iter().product();
            let mut gathered: Vec<f32> = Vec::new();
            let mut keep = 0usize;
            for r in 0..live {
                let start = r * classes;
                let retire = last || policy.retires(&acc[start..start + classes], consulted);
                if retire {
                    let orig = live_idx[r];
                    for c in 0..classes {
                        out[orig * classes + c] = acc[start + c] / consulted;
                    }
                    exit_taken[orig] = e;
                } else {
                    if !last {
                        gathered.extend_from_slice(&act_slice[r * unit..(r + 1) * unit]);
                    }
                    if keep != r {
                        acc.copy_within(start..start + classes, keep * classes);
                        live_idx[keep] = live_idx[r];
                    }
                    keep += 1;
                }
            }
            if keep == 0 {
                live = 0;
                break;
            }
            if keep < live {
                let mut dims = act.dims().to_vec();
                dims[0] = keep;
                cur = Some(Tensor::from_vec(gathered, &dims)?);
            }
            live = keep;
        }
        debug_assert_eq!(live, 0, "every sample retires by the last exit");

        Ok(AdaptiveStats {
            batch,
            classes,
            samples_per_exit: spe,
            steps_executed,
            ops_executed,
            ops_fixed: fixed_ops,
        })
    }

    /// [`MultiExitPlan::predict_adaptive_batch_into`] returning owned
    /// values.
    ///
    /// # Errors
    ///
    /// See [`MultiExitPlan::predict_adaptive_batch_into`].
    pub fn predict_adaptive_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
    ) -> Result<AdaptivePrediction, ModelError> {
        let mut out = Vec::new();
        let mut exit_taken = Vec::new();
        let stats = self.predict_adaptive_batch_into(
            inputs,
            n_samples,
            seed,
            policy,
            &mut out,
            &mut exit_taken,
        )?;
        Ok(AdaptivePrediction {
            probs: Tensor::from_vec(out, &[stats.batch, stats.classes])?,
            exit_taken,
            stats,
        })
    }
}

/// Rejects NaN and infinite input values, which no plan step can turn into
/// meaningful probabilities.
fn check_finite(input: &Tensor) -> Result<(), ModelError> {
    match input.as_slice().iter().find(|v| !v.is_finite()) {
        Some(bad) => Err(ModelError::InvalidInput(format!(
            "input contains a non-finite value ({bad})"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use crate::{zoo, ModelConfig};
    use bnn_tensor::rng::Xoshiro256StarStar;

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
            let e_plan = plan
                .forward_exits_from_activations(&acts, Mode::McSample)
                .unwrap();
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
    fn batched_predict_is_concat_of_single_sample_calls() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        plan.ensure_batch(3);
        assert_eq!(plan.in_dims(), &[1, 10, 10]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(14);
        let x = Tensor::randn(&[3, 1, 10, 10], &mut rng);
        let all = plan.predict_probs_batch(&x, 5, 2023).unwrap();
        let per = 100usize;
        for b in 0..3 {
            let sample = Tensor::from_vec(
                x.as_slice()[b * per..(b + 1) * per].to_vec(),
                &[1, 1, 10, 10],
            )
            .unwrap();
            let one = plan.predict_probs_batch(&sample, 5, 2023).unwrap();
            assert_eq!(&all.as_slice()[b * 4..(b + 1) * 4], one.as_slice(), "{b}");
        }
        // rows are simplexes
        for row in all.as_slice().chunks(4) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn adaptive_never_matches_fixed_batch_bitwise() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let x = Tensor::randn(&[3, 1, 10, 10], &mut rng);
        let fixed = plan.predict_probs_batch(&x, 6, 2023).unwrap();
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
    }

    #[test]
    fn adaptive_rejects_invalid_policy() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let x = Tensor::ones(&[1, 1, 10, 10]);
        for bad in [f64::NAN, -0.5, 1.5] {
            assert!(matches!(
                plan.predict_adaptive_batch(&x, 4, 1, &ExitPolicy::Confidence { threshold: bad }),
                Err(ModelError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let empty = Tensor::from_vec(Vec::new(), &[0, 1, 10, 10]).unwrap();
        assert!(matches!(
            plan.predict_probs_batch(&empty, 4, 1),
            Err(ModelError::InvalidInput(_))
        ));
        let mut rng = Xoshiro256StarStar::seed_from_u64(15);
        let wrong = Tensor::randn(&[2, 1, 9, 9], &mut rng);
        assert!(matches!(
            plan.predict_probs_batch(&wrong, 4, 1),
            Err(ModelError::InvalidInput(_))
        ));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
            x.as_mut_slice()[137] = bad;
            assert!(
                matches!(
                    plan.predict_probs_batch(&x, 4, 1),
                    Err(ModelError::InvalidInput(_))
                ),
                "{bad}"
            );
            assert!(
                matches!(
                    plan.predict_adaptive_batch(&x, 4, 1, &ExitPolicy::Never),
                    Err(ModelError::InvalidInput(_))
                ),
                "{bad}"
            );
            assert!(
                matches!(
                    plan.forward_backbone(&x, Mode::Eval),
                    Err(ModelError::InvalidInput(_))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn train_mode_is_a_typed_error() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let x = Tensor::ones(&[1, 1, 10, 10]);
        assert!(matches!(
            plan.forward_backbone(&x, Mode::Train),
            Err(ModelError::Nn(bnn_nn::NnError::InvalidConfig(_)))
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
        let acts_a = plan.forward_backbone(&x, Mode::Eval).unwrap();
        let acts_b = replica.forward_backbone(&x, Mode::Eval).unwrap();
        let a = plan
            .forward_exits_from_activations(&acts_a, Mode::McSample)
            .unwrap();
        let b = replica
            .forward_exits_from_activations(&acts_b, Mode::McSample)
            .unwrap();
        assert_eq!(a[0].as_slice(), b[0].as_slice());
    }
}
