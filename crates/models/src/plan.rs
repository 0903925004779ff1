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
use crate::policy::{AdaptiveStats, ExitPolicy};
use crate::walker::{self, ExitPlan, WalkScratch};
use bnn_nn::layer::Mode;
use bnn_nn::network::Network;
use bnn_nn::{InferencePlan, Layer};
use bnn_tensor::rng::SplitMix64;
use bnn_tensor::Tensor;
use std::borrow::Cow;
use std::ops::Range;

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
    /// The staged input, then each block's latest output (see the
    /// [`ExitPlan`] impl).
    frontier: Vec<Tensor>,
    /// The latest exit head's logits.
    logits: Tensor,
    scratch: WalkScratch,
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
        let empty = Tensor::zeros(&[0]);
        Ok(MultiExitPlan {
            frontier: vec![empty.clone(); blocks.len() + 1],
            blocks,
            exits,
            classes: self.num_classes(),
            in_dims: in_dims.to_vec(),
            logits: empty,
            scratch: WalkScratch::default(),
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

    /// Seeded Monte-Carlo prediction into `out` (`[batch, classes]`,
    /// resized) by [`walker::predict_fixed`], the float counterpart of
    /// `bnn_quant::QuantPlan::predict_probs_batch_into`. Exit masks are drawn
    /// per sample and broadcast across the batch
    /// ([`InferencePlan::forward_shared_mask`]), so every row is bit-exact
    /// with a single-sample call at the same seed, however samples are
    /// batched.
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
        walker::predict_fixed(self, inputs, n_samples, seed, out)
    }

    /// Static cost of the fixed-depth path
    /// ([`MultiExitPlan::predict_probs_batch_into`]) for a `batch`-sample
    /// call at `n_samples` MC samples; see [`walker::fixed_cost`].
    pub fn fixed_cost(&self, batch: usize, n_samples: usize) -> (u64, u64) {
        walker::fixed_cost(self, batch, n_samples)
    }

    /// Policy-driven adaptive batched prediction ([`walker::predict_adaptive`]):
    /// confident samples retire at shallow exits and the survivors are
    /// compacted into a dense smaller batch for the deeper blocks. Every row
    /// — probabilities *and* exit — is bit-exact with evaluating that sample
    /// alone; `n_samples == 0` consults each exit once in [`Mode::Eval`]
    /// (`McSampler::confidence_exit_predict`), and `Never` is bit-exact with
    /// [`MultiExitPlan::predict_probs_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an invalid policy threshold,
    /// an empty batch, a shape mismatch or non-finite input values,
    /// [`ModelError::InvalidSpec`] for a plan without exits or with exits
    /// attached out of depth order, or propagates execution errors.
    pub fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ModelError> {
        walker::predict_adaptive(self, inputs, n_samples, seed, policy, out, exit_taken)
    }
}

/// The float plan's accessors and the walker's primitives. `frontier[0]`
/// holds the staged input and `frontier[b + 1]` block `b`'s latest output;
/// a block or exit run on `live` rows reads the first `live` rows of its
/// source.
impl ExitPlan for MultiExitPlan {
    type Error = ModelError;

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
        self.exits[exit].0
    }

    fn block_cost(&self, block: usize) -> (u64, u64) {
        let block = &self.blocks[block];
        (block.num_steps() as u64, block.unit_ops())
    }

    fn exit_cost(&self, exit: usize) -> (u64, u64) {
        let branch = &self.exits[exit].1;
        (branch.num_steps() as u64, branch.unit_ops())
    }

    fn ensure_batch(&mut self, max_batch: usize) {
        for block in &mut self.blocks {
            block.ensure_batch(max_batch);
        }
        for (_, exit) in &mut self.exits {
            exit.ensure_batch(max_batch);
        }
        self.scratch.reserve(max_batch, self.classes);
    }

    fn stage_input(&mut self, inputs: &Tensor) -> Result<usize, ModelError> {
        let batch = match inputs.dims().split_first() {
            Some((&batch, dims)) if dims == self.in_dims && batch > 0 => batch,
            _ => {
                return Err(ModelError::InvalidInput(format!(
                    "plan expects a non-empty input [batch, {:?}], got {:?}",
                    self.in_dims,
                    inputs.dims()
                )))
            }
        };
        check_finite(inputs)?;
        self.frontier[0].clone_from(inputs);
        Ok(batch)
    }

    fn run_blocks(&mut self, blocks: Range<usize>, live: usize) -> Result<(), ModelError> {
        self.frontier[..blocks.start].fill(Tensor::zeros(&[0]));
        for b in blocks {
            let out = self.blocks[b].forward(&*head(&self.frontier[b], live)?, Mode::Eval)?;
            self.frontier[b + 1] = out;
        }
        Ok(())
    }

    fn run_exit(&mut self, exit: usize, live: usize, mode: Mode) -> Result<&[f32], ModelError> {
        let (after_block, branch) = &mut self.exits[exit];
        self.logits =
            branch.forward_shared_mask(&*head(&self.frontier[*after_block + 1], live)?, mode)?;
        Ok(self.logits.as_slice())
    }

    /// Walks blocks then exits: the stream assignment of
    /// [`Network::reseed_mc_streams`] on the compiled network.
    fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut streams = SplitMix64::new(master_seed);
        for block in &mut self.blocks {
            block.reseed_mc(&mut streams);
        }
        for (_, exit) in &mut self.exits {
            exit.reseed_mc(&mut streams);
        }
    }

    fn move_row(&mut self, block: usize, from: usize, to: usize) {
        let act = &mut self.frontier[block + 1];
        let unit = act.len() / act.dims()[0];
        act.as_mut_slice()
            .copy_within(from * unit..(from + 1) * unit, to * unit);
    }

    fn scratch(&mut self) -> &mut WalkScratch {
        &mut self.scratch
    }
}

/// The first `live` rows of a batched activation (borrowed when that is all
/// of it).
fn head(act: &Tensor, live: usize) -> Result<Cow<'_, Tensor>, ModelError> {
    if act.dims()[0] == live {
        return Ok(Cow::Borrowed(act));
    }
    let mut dims = act.dims().to_vec();
    let rows = act.as_slice()[..live * act.len() / dims[0]].to_vec();
    dims[0] = live;
    Ok(Cow::Owned(Tensor::from_vec(rows, &dims)?))
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
