//! Monte-Carlo Dropout prediction for multi-exit networks.
//!
//! [`McSampler::predict`] is the paper's multi-exit MCD inference (Eq. 2):
//! the deterministic backbone runs **once** and every MC sample only
//! re-runs an exit branch with fresh dropout masks. One pass over all exits
//! yields `N_exit` samples, so `N_pass = ceil(N_sample / N_exit)` (paper
//! §IV-B). A single-exit network with exit MCD is the same walk with one
//! exit: it draws the masks the vanilla MCD baseline (paper Eq. 1) draws by
//! re-running the whole network, because nothing before the exit is
//! stochastic. [`McSampler::predict_deterministic`] is the non-Bayesian
//! baseline: the final exit with dropout off.
//!
//! Threshold-based early exiting (used for the ECE-optimal rows of
//! Table I) is provided by [`McSampler::adaptive_exit_predict`], with
//! [`McSampler::confidence_exit_predict`] and
//! [`McSampler::entropy_exit_predict`] as the two policy shorthands. Early
//! exiting runs on the compiled plan's adaptive batched path — stragglers
//! are compacted into a shrinking dense batch and easy samples stop paying
//! for deeper blocks.
//!
//! Every entry point is a front end over the network's compiled
//! [`bnn_models::MultiExitPlan`] ([`MultiExitNetwork::cached_plan`]),
//! which every zoo architecture (batch normalisation and residual blocks
//! included) compiles to and which reproduces the layer chain bit for bit.
//! The pass loop itself is the plan's exit walker ([`bnn_models::walker`]);
//! this module runs no loop of its own. MC dropout inside a backbone block,
//! which the walker's run-the-backbone-once schedule cannot resample, is a
//! typed error, not a detour through the layer chain.
//!
//! # Determinism
//!
//! Every Monte-Carlo pass draws its dropout masks from a dedicated RNG
//! stream derived from [`SamplingConfig::seed`] and the pass index (via
//! [`bnn_tensor::rng::stream_seed`]), so a prediction depends only on the
//! network checkpoint, the inputs and the sampler seed — never on earlier
//! passes, on the executor or on the thread count.

use crate::BayesError;
use bnn_models::{ExitPolicy, LayerPlace, LayerSpec, MultiExitNetwork};
use bnn_nn::layer::Mode;
use bnn_nn::network::Network;
use bnn_tensor::exec::Executor;
use bnn_tensor::ops::softmax;
use bnn_tensor::Tensor;

/// Configuration of an MC-Dropout prediction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Total number of MC samples to draw (across all exits); `0` draws one
    /// sample per exit.
    pub n_samples: usize,
    /// Master seed of the per-pass dropout-mask streams. Predictions with the
    /// same seed, network and inputs are bitwise reproducible.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig::new(4)
    }
}

impl SamplingConfig {
    /// Creates a configuration drawing `n_samples` MC samples.
    pub fn new(n_samples: usize) -> Self {
        SamplingConfig {
            n_samples,
            seed: 2023,
        }
    }

    /// Sets the master seed of the per-pass dropout-mask streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The result of an MC-Dropout prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct McPrediction {
    /// Equally weighted mean of all per-sample probability tensors, `[batch, classes]`.
    pub mean_probs: Tensor,
    /// Every individual sample's probabilities, `[batch, classes]` each, in
    /// schedule order: sample `s` comes from exit `s % n_exits` on pass
    /// `s / n_exits` ([`bnn_models::SampleSchedule`]).
    pub per_sample: Vec<Tensor>,
}

impl McPrediction {
    /// Number of MC samples that contributed to the mean.
    pub fn num_samples(&self) -> usize {
        self.per_sample.len()
    }
}

/// The result of confidence-threshold early exiting.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyExitPrediction {
    /// Final probabilities for every sample, `[batch, classes]`.
    pub probs: Tensor,
    /// Index of the exit each sample stopped at.
    pub exit_taken: Vec<usize>,
    /// Mean fraction of the full-network FLOPs actually spent, per sample.
    pub mean_flops_fraction: f64,
}

/// Monte-Carlo Dropout sampler.
#[derive(Debug, Clone, Default)]
pub struct McSampler {
    config: SamplingConfig,
    executor: Option<Executor>,
}

impl McSampler {
    /// Creates a sampler with the given configuration; the plan's kernels
    /// keep their work-size based executor choice.
    pub fn new(config: SamplingConfig) -> Self {
        McSampler {
            config,
            executor: None,
        }
    }

    /// Pins the plan's kernels to `executor` for this sampler's predictions
    /// ([`bnn_models::Plan::set_executor`]). [`Executor::sequential`] forces
    /// single-threaded kernels; results are identical either way.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The sampler configuration.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Multi-exit MCD prediction with backbone caching (paper Eq. 2).
    ///
    /// Runs [`bnn_models::Plan::predict_samples_into`] on the plan **cached
    /// on the network** ([`MultiExitNetwork::cached_plan`]): the backbone
    /// once in [`Mode::Eval`], then the [`bnn_models::SampleSchedule`] of
    /// `n_samples` samples over the exits, pass-major, with masks drawn per
    /// (batch, channel) — the layer chain's rule. The plan's arena is
    /// reused across predictions; the lowering + weight-packing compile
    /// reruns only after a weight mutation or input-shape change. The result
    /// is **bit-identical** to running the layer chain pass by pass, at
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Invalid`] for a network without exits, with MC
    /// dropout inside a backbone block, or an input without a batch axis,
    /// [`BayesError::Model`] when the network does not compile to a plan or
    /// the input is malformed (wrong shape, non-finite values), or
    /// propagates execution errors.
    pub fn predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
    ) -> Result<McPrediction, BayesError> {
        if network.num_exits() == 0 {
            return Err(BayesError::Invalid("network has no exits".into()));
        }
        let spec = network.spec();
        if spec.blocks.iter().flatten().any(LayerSpec::is_mc_dropout) {
            return Err(BayesError::Invalid(format!(
                "{}: MC dropout inside a backbone block cannot be resampled by \
                 a backbone-once walk; place it in the exits (with_exit_mcd)",
                spec.name
            )));
        }
        let plan = network.cached_plan(sample_dims(inputs)?)?;
        plan.set_executor(self.executor);
        let (mut mean, mut samples) = (Vec::new(), Vec::new());
        let (batch, classes) = plan.predict_samples_into(
            inputs,
            self.config.n_samples,
            self.config.seed,
            &mut mean,
            &mut samples,
        )?;
        let per_sample = samples
            .chunks_exact(batch * classes)
            .map(|s| Tensor::from_vec(s.to_vec(), &[batch, classes]))
            .collect::<Result<_, _>>()?;
        Ok(McPrediction {
            mean_probs: Tensor::from_vec(mean, &[batch, classes])?,
            per_sample,
        })
    }

    /// Deterministic (dropout-disabled) prediction of the final exit — the
    /// non-Bayesian baseline — on the network's cached plan.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Invalid`] for a network without exits or an
    /// input without a batch axis, [`BayesError::Model`] when the network
    /// does not compile to a plan or the input is malformed.
    pub fn predict_deterministic(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
    ) -> Result<Tensor, BayesError> {
        let plan = network.cached_plan(sample_dims(inputs)?)?;
        plan.set_executor(self.executor);
        plan.run_backbone(inputs, Mode::Eval)?;
        let logits = plan
            .forward_exits(Mode::Eval)?
            .pop()
            .ok_or_else(|| BayesError::Invalid("network has no exits".into()))?;
        Ok(softmax(&logits)?)
    }

    /// Confidence-threshold early exiting using the running ensemble of exits
    /// (the "largest possible ensemble at each exit" variant of the paper).
    ///
    /// Shorthand for [`McSampler::adaptive_exit_predict`] with
    /// [`ExitPolicy::Confidence`]: each sample stops at the first exit whose
    /// running-ensemble top-class probability reaches `threshold`.
    ///
    /// # Errors
    ///
    /// Propagates network errors or an invalid threshold.
    pub fn confidence_exit_predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
        threshold: f64,
    ) -> Result<EarlyExitPrediction, BayesError> {
        self.adaptive_exit_predict(network, inputs, &ExitPolicy::Confidence { threshold })
    }

    /// Entropy-threshold early exiting: each sample stops at the first exit
    /// whose running-ensemble *normalized* predictive entropy drops to
    /// `threshold` or below (shorthand for [`McSampler::adaptive_exit_predict`]
    /// with [`ExitPolicy::Entropy`]).
    ///
    /// # Errors
    ///
    /// Propagates network errors or an invalid threshold.
    pub fn entropy_exit_predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
        threshold: f64,
    ) -> Result<EarlyExitPrediction, BayesError> {
        self.adaptive_exit_predict(network, inputs, &ExitPolicy::Entropy { threshold })
    }

    /// Policy-driven early exiting using the running ensemble of exits.
    ///
    /// For each sample, exits are consulted in order; the running equally
    /// weighted ensemble of the exits seen so far is scored by `policy`
    /// ([`ExitPolicy::retires`]) and the sample stops at the first exit the
    /// policy accepts — or at the last exit unconditionally.
    ///
    /// Execution runs on the compiled plan's adaptive batched path
    /// ([`bnn_models::MultiExitPlan::predict_adaptive_batch_into`]):
    /// retired samples leave the batch mid-flight and survivors are
    /// compacted into a dense smaller batch, so deeper blocks only ever see
    /// the stragglers. Every row is bit-identical to a full-depth sweep of
    /// the layer chain with the same per-row decisions.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Invalid`] for an invalid policy threshold, a
    /// network without exits or an input without a batch axis, or
    /// [`BayesError::Model`] when the network does not compile to a plan or
    /// the input is malformed.
    pub fn adaptive_exit_predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
        policy: &ExitPolicy,
    ) -> Result<EarlyExitPrediction, BayesError> {
        policy.validate().map_err(BayesError::Invalid)?;
        if network.num_exits() == 0 {
            return Err(BayesError::Invalid("network has no exits".into()));
        }
        let cumulative = exit_cumulative_flops_fraction(network)?;
        let plan = network.cached_plan(sample_dims(inputs)?)?;
        plan.set_executor(self.executor);
        let mut out = Vec::new();
        let mut exit_taken = Vec::new();
        // n_samples = 0: one deterministic (dropout-disabled) consult per
        // exit — the historical early-exit semantics. The seed is unused in
        // that mode.
        let stats =
            plan.predict_adaptive_batch_into(inputs, 0, 0, policy, &mut out, &mut exit_taken)?;
        let flops_sum: f64 = exit_taken.iter().map(|&e| cumulative[e]).sum();
        Ok(EarlyExitPrediction {
            probs: Tensor::from_vec(out, &[stats.batch, stats.classes])?,
            exit_taken,
            mean_flops_fraction: flops_sum / stats.batch.max(1) as f64,
        })
    }
}

/// The per-sample dims of a batched input (batch axis stripped).
fn sample_dims(inputs: &Tensor) -> Result<&[usize], BayesError> {
    match inputs.dims() {
        [_, rest @ ..] if !rest.is_empty() => Ok(rest),
        dims => Err(BayesError::Invalid(format!(
            "expected a batched input [batch, ..], got dims {dims:?}"
        ))),
    }
}

/// Cumulative FLOPs fraction of the full network consumed when a sample
/// stops at each exit (backbone blocks up to the exit's attachment point
/// plus every exit head consulted along the way).
fn exit_cumulative_flops_fraction(network: &MultiExitNetwork) -> Result<Vec<f64>, BayesError> {
    let spec = network.spec();
    let mut block_flops = vec![0u64; spec.blocks.len()];
    let mut exit_flops = vec![0u64; spec.exits.len()];
    spec.walk(|place, layer, input| {
        let flops = layer.flops(input);
        match place {
            LayerPlace::Block(b) => block_flops[b] += flops,
            LayerPlace::Exit { exit, .. } => exit_flops[exit] += flops,
        }
    })?;
    let full = (block_flops.iter().sum::<u64>() + exit_flops.iter().sum::<u64>()).max(1) as f64;
    let mut cumulative = Vec::with_capacity(spec.exits.len());
    let mut exit_acc = 0u64;
    for (exit_spec, flops) in spec.exits.iter().zip(exit_flops) {
        exit_acc += flops;
        let backbone: u64 = block_flops[..=exit_spec.after_block].iter().sum();
        cumulative.push((backbone + exit_acc) as f64 / full);
    }
    Ok(cumulative)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, ModelConfig};

    fn small_net() -> MultiExitNetwork {
        let config = ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16);
        zoo::resnet18(&config)
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.3)
            .unwrap()
            .build(11)
            .unwrap()
    }

    #[test]
    fn sampling_config_pass_arithmetic() {
        assert_eq!(SamplingConfig::default(), SamplingConfig::new(4));
        assert_eq!(SamplingConfig::new(8).with_seed(5).seed, 5);
        // The sample count is the walker's schedule: `n_samples`, or one
        // deterministic-seeded sample per exit for 0.
        let mut net = small_lenet();
        let x = Tensor::ones(&[2, 1, 10, 10]);
        for n in [0, 1, 3, 5, 8] {
            let pred = McSampler::new(SamplingConfig::new(n))
                .predict(&mut net, &x)
                .unwrap();
            let kept = bnn_models::SampleSchedule::new(n, net.num_exits()).kept;
            assert_eq!(pred.num_samples(), kept, "n={n}");
        }
    }

    #[test]
    fn multi_exit_prediction_shape_and_simplex() {
        let mut net = small_net();
        let sampler = McSampler::new(SamplingConfig::new(8));
        let x = Tensor::ones(&[3, 3, 12, 12]);
        let pred = sampler.predict(&mut net, &x).unwrap();
        assert_eq!(pred.mean_probs.dims(), &[3, 10]);
        assert_eq!(pred.num_samples(), 8);
        // rows sum to one
        for b in 0..3 {
            let s: f32 = pred.mean_probs.as_slice()[b * 10..(b + 1) * 10]
                .iter()
                .sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn samples_vary_across_passes() {
        let mut net = small_net();
        let sampler = McSampler::new(SamplingConfig::new(8));
        let x = Tensor::ones(&[1, 3, 12, 12]);
        let pred = sampler.predict(&mut net, &x).unwrap();
        let a = pred.per_sample[0].as_slice();
        let b = pred.per_sample[4].as_slice(); // same exit, next pass
        assert_ne!(a, b);
    }

    fn small_lenet() -> MultiExitNetwork {
        let config = ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4);
        zoo::lenet5(&config)
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap()
            .build(13)
            .unwrap()
    }

    #[test]
    fn cached_plan_predictions_stay_bitwise_and_track_mutations() {
        // Repeat predictions hit the network's cached plan (no recompile);
        // the results must stay bitwise identical to the first call, and a
        // weight mutation must invalidate the cache rather than serve stale
        // packed weights.
        let mut net = small_lenet();
        let mut rng = bnn_tensor::rng::Xoshiro256StarStar::seed_from_u64(31);
        let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
        let sampler = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(2));
        let first = sampler.predict(&mut net, &x).unwrap();
        let v_after_first = net.weight_version();
        let second = sampler.predict(&mut net, &x).unwrap();
        assert_eq!(net.weight_version(), v_after_first, "predict must not bump");
        assert_eq!(first.mean_probs.as_slice(), second.mean_probs.as_slice());
        for (a, b) in first.per_sample.iter().zip(&second.per_sample) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Mutate a weight through the public params_mut path.
        {
            use bnn_nn::network::Network as _;
            let mut params = net.params_mut();
            params[0].value.as_mut_slice()[0] += 0.5;
        }
        assert_ne!(net.weight_version(), v_after_first);
        let third = sampler.predict(&mut net, &x).unwrap();
        assert_ne!(first.mean_probs.as_slice(), third.mean_probs.as_slice());
        // A freshly built network with the same mutation agrees with the
        // post-mutation prediction, proving the cache was not stale.
        let mut fresh = small_lenet();
        {
            use bnn_nn::network::Network as _;
            let mut params = fresh.params_mut();
            params[0].value.as_mut_slice()[0] += 0.5;
        }
        let fresh_pred = sampler.predict(&mut fresh, &x).unwrap();
        assert_eq!(
            third.mean_probs.as_slice(),
            fresh_pred.mean_probs.as_slice()
        );
    }

    #[test]
    fn parallel_sampling_matches_sequential_bitwise() {
        let mut net_seq = small_net();
        let mut net_par = small_net();
        let x = Tensor::ones(&[3, 3, 12, 12]);
        let seq = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::sequential());
        let par = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(4));
        let a = seq.predict(&mut net_seq, &x).unwrap();
        let b = par.predict(&mut net_par, &x).unwrap();
        assert_eq!(a.mean_probs.as_slice(), b.mean_probs.as_slice());
        assert_eq!(a.per_sample.len(), b.per_sample.len());
        for (sa, sb) in a.per_sample.iter().zip(&b.per_sample) {
            assert_eq!(sa.as_slice(), sb.as_slice());
        }
    }

    #[test]
    fn predictions_are_seed_reproducible() {
        let mut net = small_net();
        let x = Tensor::ones(&[2, 3, 12, 12]);
        let sampler = McSampler::new(SamplingConfig::new(6));
        let a = sampler.predict(&mut net, &x).unwrap();
        let b = sampler.predict(&mut net, &x).unwrap();
        assert_eq!(a.mean_probs.as_slice(), b.mean_probs.as_slice());
        let other = McSampler::new(SamplingConfig::new(6).with_seed(7));
        let c = other.predict(&mut net, &x).unwrap();
        assert_ne!(a.mean_probs.as_slice(), c.mean_probs.as_slice());
    }

    #[test]
    fn single_exit_prediction_uses_requested_samples() {
        // Vanilla MCD: one exit with exit MCD, every sample a fresh pass.
        let config = ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16);
        let mut net = zoo::resnet18(&config)
            .with_exit_mcd(0.3)
            .unwrap()
            .build(11)
            .unwrap();
        let sampler = McSampler::new(SamplingConfig::new(5));
        let x = Tensor::ones(&[2, 3, 12, 12]);
        let pred = sampler.predict(&mut net, &x).unwrap();
        assert_eq!(pred.num_samples(), 5);
        assert_eq!(pred.mean_probs.dims(), &[2, 10]);
        assert_ne!(pred.per_sample[0].as_slice(), pred.per_sample[1].as_slice());
    }

    #[test]
    fn backbone_dropout_is_a_typed_error() {
        let config = ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4);
        let x = Tensor::ones(&[2, 1, 10, 10]);
        let sampler = McSampler::new(SamplingConfig::new(4));
        // LeNet-5's last three weight layers are the head's dense layers, so
        // one MCD layer lands in the exit and the fourth in block 1.
        let lenet = |mcd| zoo::lenet5(&config).with_mcd_layers(mcd, 0.25).unwrap();
        let in_exit = lenet(1);
        assert!(!in_exit
            .blocks
            .iter()
            .flatten()
            .any(LayerSpec::is_mc_dropout));
        assert!(sampler.predict(&mut in_exit.build(3).unwrap(), &x).is_ok());
        let in_backbone = lenet(4);
        assert!(matches!(
            sampler.predict(&mut in_backbone.build(3).unwrap(), &x),
            Err(BayesError::Invalid(_))
        ));
    }

    #[test]
    fn deterministic_prediction_is_repeatable() {
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[1, 3, 12, 12]);
        let a = sampler.predict_deterministic(&mut net, &x).unwrap();
        let b = sampler.predict_deterministic(&mut net, &x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn confidence_exit_reduces_flops_at_low_threshold() {
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[4, 3, 12, 12]);
        let eager = sampler.confidence_exit_predict(&mut net, &x, 0.0).unwrap();
        let strict = sampler
            .confidence_exit_predict(&mut net, &x, 0.999_999)
            .unwrap();
        // threshold 0 stops at the first exit; threshold ~1 runs to the end
        assert!(eager.exit_taken.iter().all(|&e| e == 0));
        assert!(strict.exit_taken.iter().all(|&e| e == net.num_exits() - 1));
        assert!(eager.mean_flops_fraction < strict.mean_flops_fraction);
        assert!(eager.mean_flops_fraction > 0.0);
        assert!(strict.mean_flops_fraction <= 1.0 + 1e-9);
        assert!(sampler.confidence_exit_predict(&mut net, &x, 1.5).is_err());
    }

    #[test]
    fn entropy_exit_mirrors_confidence_behaviour() {
        // Normalized entropy is always <= 1 and > 0 for non-degenerate
        // rows, so threshold 1 retires everything at exit 0 and threshold 0
        // runs everything to the last exit.
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[4, 3, 12, 12]);
        let eager = sampler.entropy_exit_predict(&mut net, &x, 1.0).unwrap();
        let strict = sampler.entropy_exit_predict(&mut net, &x, 0.0).unwrap();
        assert!(eager.exit_taken.iter().all(|&e| e == 0));
        assert!(strict.exit_taken.iter().all(|&e| e == net.num_exits() - 1));
        assert!(eager.mean_flops_fraction < strict.mean_flops_fraction);
        assert!(sampler
            .entropy_exit_predict(&mut net, &x, f64::NAN)
            .is_err());
        assert!(sampler.entropy_exit_predict(&mut net, &x, -0.5).is_err());
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let mut net = small_net();
        let sampler = McSampler::new(SamplingConfig::new(4));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut x = Tensor::ones(&[2, 3, 12, 12]);
            x.as_mut_slice()[100] = bad;
            assert!(
                matches!(
                    sampler.predict(&mut net, &x),
                    Err(BayesError::Model(bnn_models::ModelError::InvalidInput(_)))
                ),
                "{bad}"
            );
            assert!(matches!(
                sampler.confidence_exit_predict(&mut net, &x, 0.5),
                Err(BayesError::Model(bnn_models::ModelError::InvalidInput(_)))
            ));
        }
        for rank in [&[][..], &[5][..]] {
            let x = Tensor::zeros(rank);
            assert!(matches!(
                sampler.predict(&mut net, &x),
                Err(BayesError::Invalid(_))
            ));
            assert!(matches!(
                sampler.confidence_exit_predict(&mut net, &x, 0.5),
                Err(BayesError::Invalid(_))
            ));
        }
    }

    #[test]
    fn early_exit_probs_are_distributions() {
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[2, 3, 12, 12]);
        let pred = sampler.confidence_exit_predict(&mut net, &x, 0.5).unwrap();
        for b in 0..2 {
            let s: f32 = pred.probs.as_slice()[b * 10..(b + 1) * 10].iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
