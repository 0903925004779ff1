//! Runtime multi-exit network built from a [`NetworkSpec`].

use crate::error::ModelError;
use crate::spec::NetworkSpec;
use bnn_nn::layer::{Mode, Param};
use bnn_nn::network::Network;
use bnn_nn::{Layer, NnError, Sequential};
use bnn_tensor::Tensor;

/// A full snapshot of a trained [`MultiExitNetwork`]: every trainable
/// parameter plus every layer's non-trainable state (e.g. batchnorm running
/// statistics), sufficient to reproduce the network's evaluation behaviour in
/// a freshly built instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkCheckpoint {
    /// Trainable parameter tensors, in [`Network::params_mut`] order.
    pub params: Vec<Tensor>,
    /// Non-trainable layer state per top-level container: backbone blocks
    /// first, then exit branches in attachment order.
    pub container_state: Vec<Vec<Vec<f32>>>,
}

/// A trainable multi-exit network: a chain of backbone blocks with one or more
/// exit branches attached at block boundaries.
///
/// The final exit (the network's original classifier head) is always attached
/// after the last block. Exit logits are returned in attachment order, so the
/// last element of [`Network::forward_exits`] is the final exit.
#[derive(Debug)]
pub struct MultiExitNetwork {
    name: String,
    classes: usize,
    blocks: Vec<Sequential>,
    /// `(after_block, branch)` pairs, sorted by `after_block` with the final
    /// exit last.
    exits: Vec<(usize, Sequential)>,
    spec: NetworkSpec,
    /// Bumped whenever mutable parameter references are handed out (see
    /// [`Network::params_mut`]); keys the compiled-plan cache.
    pub(crate) weight_version: u64,
    /// Lazily compiled inference plan, reused across predictions until the
    /// weights change or the input shape differs (see
    /// [`MultiExitNetwork::cached_plan`]).
    pub(crate) plan_cache: Option<crate::plan::PlanCache>,
}

impl MultiExitNetwork {
    /// Instantiates the runtime network from a validated spec.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer fails to construct.
    pub fn from_spec(spec: &NetworkSpec, seed: u64) -> Result<Self, ModelError> {
        let mut layer_seed = seed;
        let mut blocks = Vec::with_capacity(spec.blocks.len());
        for (i, block_layers) in spec.blocks.iter().enumerate() {
            let mut block = Sequential::new(format!("{}-block{i}", spec.name));
            for layer in block_layers {
                block.push_boxed(layer.build(&mut layer_seed)?);
            }
            blocks.push(block);
        }
        let mut exits = Vec::with_capacity(spec.exits.len());
        for (i, exit) in spec.exits.iter().enumerate() {
            let mut branch = Sequential::new(format!("{}-exit{i}", spec.name));
            for layer in &exit.layers {
                branch.push_boxed(layer.build(&mut layer_seed)?);
            }
            exits.push((exit.after_block, branch));
        }
        Ok(MultiExitNetwork {
            name: spec.name.clone(),
            classes: spec.classes,
            blocks,
            exits,
            spec: spec.clone(),
            weight_version: 0,
            plan_cache: None,
        })
    }

    /// A counter bumped every time mutable parameter references are handed
    /// out ([`Network::params_mut`], and therefore optimizer steps and
    /// checkpoint restores) and on every [`Mode::Train`] forward, which
    /// updates batch-norm running statistics. The compiled-plan cache is
    /// keyed on it, so a stale plan — which embeds copies of the weights and
    /// statistics — can never be served after a mutation.
    pub fn weight_version(&self) -> u64 {
        self.weight_version
    }

    /// Bumps the weight version and drops the cached plan.
    fn invalidate_plan(&mut self) {
        self.weight_version = self.weight_version.wrapping_add(1);
        self.plan_cache = None;
    }

    /// Collects parameter references without bumping the weight version —
    /// the read-only path [`MultiExitNetwork::checkpoint`] uses.
    fn collect_params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        for block in &mut self.blocks {
            params.extend(block.params_mut());
        }
        for (_, exit) in &mut self.exits {
            params.extend(exit.params_mut());
        }
        params
    }

    /// The architecture specification this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Captures a checkpoint of every trainable parameter and every layer's
    /// non-trainable state (e.g. batchnorm running statistics).
    pub fn checkpoint(&mut self) -> NetworkCheckpoint {
        // Read-only parameter walk: does not bump the weight version, so
        // checkpointing (e.g. for replication) keeps the plan cache warm.
        let params = self
            .collect_params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        let container_state = self
            .blocks
            .iter()
            .map(Layer::state)
            .chain(self.exits.iter().map(|(_, e)| Layer::state(e)))
            .collect();
        NetworkCheckpoint {
            params,
            container_state,
        }
    }

    /// Restores a checkpoint captured by [`MultiExitNetwork::checkpoint`]
    /// (typically into a freshly built network of the same spec).
    ///
    /// The whole checkpoint is validated before the first write, so a
    /// mismatch or a non-finite value leaves the network exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if the checkpoint does not match
    /// this network's parameter or state layout, and
    /// [`ModelError::InvalidInput`] if a parameter or a layer state value
    /// (e.g. a batch-norm running statistic) is NaN or infinite.
    pub fn restore(&mut self, checkpoint: &NetworkCheckpoint) -> Result<(), ModelError> {
        let params = self.collect_params_mut();
        if params.len() != checkpoint.params.len() {
            return Err(ModelError::InvalidSpec(format!(
                "checkpoint has {} parameter tensor(s), network expects {}",
                checkpoint.params.len(),
                params.len()
            )));
        }
        for (index, (param, saved)) in params.iter().zip(&checkpoint.params).enumerate() {
            if param.value.dims() != saved.dims() {
                return Err(ModelError::InvalidSpec(format!(
                    "checkpoint parameter shape {:?} does not match network shape {:?}",
                    saved.dims(),
                    param.value.dims()
                )));
            }
            if let Some(bad) = saved.as_slice().iter().find(|v| !v.is_finite()) {
                return Err(ModelError::InvalidInput(format!(
                    "checkpoint parameter {index} holds the non-finite value {bad}"
                )));
            }
        }
        let n_containers = self.blocks.len() + self.exits.len();
        if checkpoint.container_state.len() != n_containers {
            return Err(ModelError::InvalidSpec(format!(
                "checkpoint has state for {} container(s), network has {}",
                checkpoint.container_state.len(),
                n_containers
            )));
        }
        let containers = self.blocks.iter().chain(self.exits.iter().map(|(_, e)| e));
        for (index, (container, saved)) in containers.zip(&checkpoint.container_state).enumerate() {
            let layout = |state: &[Vec<f32>]| state.iter().map(Vec::len).collect::<Vec<_>>();
            let expected = layout(&Layer::state(container));
            if layout(saved) != expected {
                return Err(ModelError::InvalidSpec(format!(
                    "checkpoint state layout {:?} of container {index} does not match network layout {expected:?}",
                    layout(saved)
                )));
            }
            if let Some(bad) = saved.iter().flatten().find(|v| !v.is_finite()) {
                return Err(ModelError::InvalidInput(format!(
                    "checkpoint state of container {index} holds the non-finite value {bad}"
                )));
            }
        }
        for (param, saved) in self.params_mut().into_iter().zip(&checkpoint.params) {
            param.value = saved.clone();
        }
        let containers = self
            .blocks
            .iter_mut()
            .chain(self.exits.iter_mut().map(|(_, e)| e));
        for (container, state) in containers.zip(&checkpoint.container_state) {
            container.set_state(state)?;
        }
        Ok(())
    }

    /// Number of backbone blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The backbone blocks, in execution order.
    pub fn blocks(&self) -> &[Sequential] {
        &self.blocks
    }

    /// The exit branches as `(after_block, branch)` pairs, in attachment
    /// order (the final exit last).
    pub fn exits(&self) -> &[(usize, Sequential)] {
        &self.exits
    }

    /// Lowers every backbone block to its inference-graph description, in
    /// execution order (see [`bnn_nn::LayerLowering`]).
    pub fn block_lowerings(&self) -> Vec<bnn_nn::LayerLowering> {
        self.blocks.iter().map(Layer::lowering).collect()
    }

    /// Lowers every exit branch to `(after_block, description)` pairs in
    /// attachment order.
    pub fn exit_lowerings(&self) -> Vec<(usize, bnn_nn::LayerLowering)> {
        self.exits
            .iter()
            .map(|(after, branch)| (*after, Layer::lowering(branch)))
            .collect()
    }

    /// Number of Monte-Carlo Dropout layers in the whole network.
    pub fn mcd_layer_count(&self) -> usize {
        self.blocks
            .iter()
            .map(Sequential::mc_dropout_count)
            .sum::<usize>()
            + self
                .exits
                .iter()
                .map(|(_, e)| e.mc_dropout_count())
                .sum::<usize>()
    }

    /// Runs the backbone only, returning the activation after every block.
    /// This is the tensor the accelerator caches and clones for MC sampling.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward_backbone(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>, NnError> {
        if mode.is_train() {
            self.invalidate_plan();
        }
        let mut activations = Vec::with_capacity(self.blocks.len());
        let mut current = input.clone();
        for block in &mut self.blocks {
            current = block.forward(&current, mode)?;
            activations.push(current.clone());
        }
        Ok(activations)
    }

    /// Runs only the exit branches on pre-computed backbone activations.
    ///
    /// Re-running this with [`Mode::McSample`] on the *same* activations is how
    /// multi-exit MCD BayesNNs draw additional MC samples without recomputing
    /// the (deterministic, non-Bayesian) backbone — the computational saving
    /// formalised by the paper's Eq. 2.
    ///
    /// # Errors
    ///
    /// Returns an error if `activations` does not contain one tensor per block.
    pub fn forward_exits_from_activations(
        &mut self,
        activations: &[Tensor],
        mode: Mode,
    ) -> Result<Vec<Tensor>, NnError> {
        if activations.len() != self.blocks.len() {
            return Err(NnError::InvalidConfig(format!(
                "expected {} block activations, got {}",
                self.blocks.len(),
                activations.len()
            )));
        }
        if mode.is_train() {
            self.invalidate_plan();
        }
        let mut outputs = Vec::with_capacity(self.exits.len());
        for (after_block, branch) in &mut self.exits {
            outputs.push(branch.forward(&activations[*after_block], mode)?);
        }
        Ok(outputs)
    }
}

impl Network for MultiExitNetwork {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_exits(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>, NnError> {
        let activations = self.forward_backbone(input, mode)?;
        self.forward_exits_from_activations(&activations, mode)
    }

    fn backward_exits(&mut self, grads: &[Tensor]) -> Result<(), NnError> {
        if grads.len() != self.exits.len() {
            return Err(NnError::InvalidConfig(format!(
                "expected {} exit gradients, got {}",
                self.exits.len(),
                grads.len()
            )));
        }
        // Gradient with respect to each block output, accumulated from exits
        // attached there and from downstream blocks.
        let mut pending: Vec<Option<Tensor>> = vec![None; self.blocks.len()];
        for ((after_block, branch), grad) in self.exits.iter_mut().zip(grads) {
            let g = branch.backward(grad)?;
            match &mut pending[*after_block] {
                Some(acc) => acc.add_scaled_inplace(&g, 1.0)?,
                slot => *slot = Some(g),
            }
        }
        let mut downstream: Option<Tensor> = None;
        for (i, block) in self.blocks.iter_mut().enumerate().rev() {
            let grad_out = match (pending[i].take(), downstream.take()) {
                (Some(mut a), Some(b)) => {
                    a.add_scaled_inplace(&b, 1.0)?;
                    a
                }
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    return Err(NnError::InvalidConfig(format!(
                        "no gradient reaches block {i}; every trailing block needs an exit"
                    )))
                }
            };
            // Nothing reads the stem's input gradient.
            if i == 0 {
                block.backward_params(&grad_out)?;
            } else {
                downstream = Some(block.backward(&grad_out)?);
            }
        }
        Ok(())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // Mutable references can rewrite weights, and a cached plan embeds
        // packed weight copies — invalidate before handing them out.
        self.invalidate_plan();
        self.collect_params_mut()
    }

    fn num_exits(&self) -> usize {
        self.exits.len()
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut streams = bnn_tensor::rng::SplitMix64::new(master_seed);
        for block in &mut self.blocks {
            Layer::reseed_mc_streams(block, &mut streams);
        }
        for (_, exit) in &mut self.exits {
            Layer::reseed_mc_streams(exit, &mut streams);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use bnn_nn::loss::cross_entropy;
    use bnn_nn::optimizer::Sgd;
    use bnn_tensor::rng::{Rng, Xoshiro256StarStar};

    fn tiny_multi_exit_spec() -> NetworkSpec {
        NetworkSpec::single_exit(
            "tiny",
            1,
            8,
            8,
            3,
            vec![
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 1,
                        out_channels: 4,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 4,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
            ],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 8,
                    out_features: 3,
                },
            ],
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap()
    }

    #[test]
    fn stem_backward_params_accumulates_the_gradients_of_backward() {
        let config = crate::ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16);
        let spec = crate::zoo::resnet18(&config)
            .with_exits_after_every_block()
            .unwrap();
        let (mut full, mut params_only) = (spec.build(4).unwrap(), spec.build(4).unwrap());
        let stem = Layer::lowering(&full.blocks[0]);
        assert!(matches!(
            &stem,
            bnn_nn::lowering::LayerLowering::Sequence(ops)
                if matches!(ops[0], bnn_nn::lowering::LayerLowering::Conv2d { .. })
        ));
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let x = Tensor::randn(&[3, 3, 12, 12], &mut rng);
        let out = full.blocks[0].forward(&x, Mode::Train).unwrap();
        params_only.blocks[0].forward(&x, Mode::Train).unwrap();
        let g = Tensor::randn(out.dims(), &mut rng);
        full.blocks[0].backward(&g).unwrap();
        params_only.blocks[0].backward_params(&g).unwrap();
        let grad_bits = |net: &MultiExitNetwork| -> Vec<u32> {
            let params = Layer::params(&net.blocks[0]);
            params
                .iter()
                .flat_map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert!(grad_bits(&full).iter().any(|&b| b != 0));
        assert_eq!(grad_bits(&full), grad_bits(&params_only));
    }

    #[test]
    fn forward_produces_one_logit_tensor_per_exit() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(1).unwrap();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        let exits = net.forward_exits(&x, Mode::Eval).unwrap();
        assert_eq!(exits.len(), 2);
        for logits in &exits {
            assert_eq!(logits.dims(), &[2, 3]);
        }
        assert_eq!(net.num_exits(), 2);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.mcd_layer_count(), 2);
    }

    #[test]
    fn backbone_caching_matches_full_forward_in_eval() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(2).unwrap();
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let full = net.forward_exits(&x, Mode::Eval).unwrap();
        let acts = net.forward_backbone(&x, Mode::Eval).unwrap();
        let cached = net
            .forward_exits_from_activations(&acts, Mode::Eval)
            .unwrap();
        for (a, b) in full.iter().zip(&cached) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn mc_samples_differ_only_through_exit_dropout() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(3).unwrap();
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let acts = net.forward_backbone(&x, Mode::Eval).unwrap();
        let s1 = net
            .forward_exits_from_activations(&acts, Mode::McSample)
            .unwrap();
        let s2 = net
            .forward_exits_from_activations(&acts, Mode::McSample)
            .unwrap();
        // same cached backbone, different dropout masks -> different logits
        assert_ne!(s1[0].as_slice(), s2[0].as_slice());
    }

    #[test]
    fn replica_reproduces_mc_samples_bitwise() {
        let spec = tiny_multi_exit_spec();
        // Different build seeds: the checkpoint + reseeded MC streams must
        // fully determine the sampled outputs regardless of initialisation.
        let mut net = spec.build(3).unwrap();
        let mut replica = MultiExitNetwork::from_spec(&spec, 0).unwrap();
        replica.restore(&net.checkpoint()).unwrap();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        net.reseed_mc_streams(41);
        replica.reseed_mc_streams(41);
        let a = net.forward_exits(&x, Mode::McSample).unwrap();
        let b = replica.forward_exits(&x, Mode::McSample).unwrap();
        for (ea, eb) in a.iter().zip(&b) {
            assert_eq!(ea.as_slice(), eb.as_slice());
        }
        // ...and a different stream draws different masks.
        replica.reseed_mc_streams(42);
        let c = replica.forward_exits(&x, Mode::McSample).unwrap();
        assert_ne!(a[0].as_slice(), c[0].as_slice());
    }

    #[test]
    fn mismatched_restore_leaves_the_network_untouched() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(3).unwrap();
        let before = net.checkpoint();
        // A checkpoint of differently initialised weights: a half-applied
        // restore would show up as changed parameters.
        let other = spec.build(9).unwrap().checkpoint();
        assert_ne!(other.params, before.params);

        let mut bad_shape = other.clone();
        let last = bad_shape.params.len() - 1;
        let n = bad_shape.params[last].len();
        bad_shape.params[last] = Tensor::zeros(&[n + 1]);
        assert!(net.restore(&bad_shape).is_err());
        assert_eq!(net.checkpoint(), before);

        net.restore(&other).unwrap();
        assert_eq!(net.checkpoint(), other);
    }

    #[test]
    fn restore_with_a_wrong_parameter_count_leaves_the_network_untouched() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(3).unwrap();
        let before = net.checkpoint();
        let other = spec.build(9).unwrap().checkpoint();

        let mut missing = other.clone();
        missing.params.pop();
        assert!(net.restore(&missing).is_err());
        assert_eq!(net.checkpoint(), before);

        let mut extra = other.clone();
        extra.params.push(Tensor::zeros(&[1]));
        assert!(net.restore(&extra).is_err());
        assert_eq!(net.checkpoint(), before);
    }

    #[test]
    fn restore_with_a_wrong_state_layout_leaves_the_network_untouched() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(3).unwrap();
        let before = net.checkpoint();
        let other = spec.build(9).unwrap().checkpoint();

        // Every parameter is valid: only the container state is checked
        // after the parameter layout, and it must still block every write.
        let mut bad_state = other.clone();
        bad_state.container_state[0].push(vec![1.0]);
        assert!(net.restore(&bad_state).is_err());
        assert_eq!(net.checkpoint(), before);

        let mut missing_container = other.clone();
        missing_container.container_state.pop();
        assert!(net.restore(&missing_container).is_err());
        assert_eq!(net.checkpoint(), before);
    }

    #[test]
    fn restore_rejects_non_finite_values_without_writing() {
        // A batch-norm container carries running statistics as state.
        let spec = NetworkSpec::single_exit(
            "bn",
            1,
            6,
            6,
            3,
            vec![vec![
                LayerSpec::Conv2d {
                    in_channels: 1,
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                LayerSpec::BatchNorm2d { channels: 2 },
                LayerSpec::Relu,
            ]],
            vec![
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    in_features: 72,
                    out_features: 3,
                },
            ],
        );
        let mut net = spec.build(3).unwrap();
        let before = net.checkpoint();
        let other = spec.build(9).unwrap().checkpoint();
        assert!(other
            .container_state
            .iter()
            .flatten()
            .any(|s| !s.is_empty()));

        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut bad_param = other.clone();
            let mut values = bad_param.params[0].as_slice().to_vec();
            values[1] = bad;
            bad_param.params[0] = Tensor::from_vec(values, bad_param.params[0].dims()).unwrap();
            match net.restore(&bad_param) {
                Err(ModelError::InvalidInput(msg)) => assert!(msg.contains("parameter 0"), "{msg}"),
                other => panic!("expected InvalidInput, got {other:?}"),
            }
            assert_eq!(net.checkpoint(), before);

            let mut bad_state = other.clone();
            let (container, layer) = bad_state
                .container_state
                .iter()
                .enumerate()
                .find_map(|(c, layers)| layers.iter().position(|s| !s.is_empty()).map(|l| (c, l)))
                .unwrap();
            bad_state.container_state[container][layer][0] = bad;
            match net.restore(&bad_state) {
                Err(ModelError::InvalidInput(msg)) => assert!(msg.contains("state"), "{msg}"),
                other => panic!("expected InvalidInput, got {other:?}"),
            }
            assert_eq!(net.checkpoint(), before);
        }
        net.restore(&other).unwrap();
        assert_eq!(net.checkpoint(), other);
    }

    #[test]
    fn backward_accumulates_gradients_from_all_exits() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(4).unwrap();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        let exits = net.forward_exits(&x, Mode::Train).unwrap();
        let grads: Vec<Tensor> = exits.iter().map(|e| Tensor::ones(e.dims())).collect();
        net.zero_grad();
        net.backward_exits(&grads).unwrap();
        let any_grad = net.params_mut().iter().any(|p| p.grad.norm() > 0.0);
        assert!(any_grad);
        // wrong gradient count is rejected
        assert!(net.backward_exits(&grads[..1]).is_err());
    }

    #[test]
    fn multi_exit_training_learns_toy_task() {
        // Two-class images: class 0 bright top half, class 1 bright bottom half.
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let n = 32;
        let mut data = vec![0.0f32; n * 64];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            for y in 0..8 {
                for x in 0..8 {
                    let bright = if class == 0 { y < 4 } else { y >= 4 };
                    data[i * 64 + y * 8 + x] = if bright { 1.0 } else { 0.0 } + 0.1 * rng.normal();
                }
            }
            labels.push(class);
        }
        let inputs = Tensor::from_vec(data, &[n, 1, 8, 8]).unwrap();

        let spec = NetworkSpec::single_exit(
            "toy",
            1,
            8,
            8,
            2,
            vec![
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 1,
                        out_channels: 4,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 4,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
            ],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 8,
                    out_features: 2,
                },
            ],
        )
        .with_exits_after_every_block()
        .unwrap();
        let mut net = spec.build(7).unwrap();
        let mut sgd = Sgd::new(0.1).with_momentum(0.9);

        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..40 {
            let exits = net.forward_exits(&inputs, Mode::Train).unwrap();
            let mut grads = Vec::new();
            let mut loss = 0.0;
            for logits in &exits {
                let out = cross_entropy(logits, &labels).unwrap();
                loss += out.loss;
                grads.push(out.grad);
            }
            net.zero_grad();
            net.backward_exits(&grads).unwrap();
            let mut params = net.params_mut();
            sgd.step(&mut params);
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss {first_loss:?} -> {last_loss}"
        );
    }
}
