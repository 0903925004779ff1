//! The float plan's zoo-wide contract: on every `Architecture::all()` model
//! — batch normalisation and residual blocks included — the compiled
//! `MultiExitPlan` reproduces the layer chain bit for bit, and so does every
//! sampler entry point that runs on it. The layer chain stays the reference
//! here; the references that used to live in the sampler as fallback paths
//! (`predict` pass by pass, the full-depth early-exit sweep) live in this
//! file. (The integer plan's bit-exactness contract is pinned against the
//! independent HLS golden-reference simulator in `tests/hls_golden_sim.rs`.)

mod fixtures;

use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
use bayesnn_fpga::bayes::BayesError;
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::{
    ExitPlan, ExitPolicy, LayerSpec, ModelConfig, ModelError, MultiExitNetwork, NetworkSpec,
};
use bayesnn_fpga::nn::{Mode, Network, NnError};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::ops::softmax;
use bayesnn_fpga::tensor::rng::{stream_seed, Xoshiro256StarStar};
use bayesnn_fpga::tensor::Tensor;

/// A small configuration of `arch` with an exit after every block and exit
/// MCD, optionally with MCD layers inside the backbone too.
fn spec(arch: Architecture, backbone_mcd: bool) -> NetworkSpec {
    let config = match arch {
        Architecture::LeNet5 => ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4),
        _ => ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16),
    };
    let spec = arch
        .spec(&config)
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.3)
        .unwrap();
    if backbone_mcd {
        spec.with_mcd_layers(3, 0.2).unwrap()
    } else {
        spec
    }
}

/// Every zoo subject, built and with its batch-norm running statistics
/// moved off their initial values by a few train-mode forwards.
fn subjects() -> Vec<(String, MultiExitNetwork, Tensor)> {
    let mut out = Vec::new();
    for arch in Architecture::all() {
        for backbone_mcd in [false, true] {
            let spec = spec(arch, backbone_mcd);
            let mut net = spec.build(7).unwrap();
            let mut dims = spec.input_shape(3).dims().to_vec();
            let mut rng = Xoshiro256StarStar::seed_from_u64(11);
            for _ in 0..3 {
                let x = Tensor::randn(&dims, &mut rng).map(|v| 1.5 * v + 0.4);
                net.forward_exits(&x, Mode::Train).unwrap();
            }
            dims[0] = 3;
            let input = Tensor::randn(&dims, &mut rng);
            out.push((format!("{arch} mcd={backbone_mcd}"), net, input));
        }
    }
    out
}

fn assert_bitwise(a: &[Tensor], b: &[Tensor], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.dims(), y.dims(), "{what} [{i}]");
        assert_eq!(x.as_slice(), y.as_slice(), "{what} [{i}]");
    }
}

#[test]
fn plan_matches_layer_chain_on_every_zoo_model() {
    for (name, mut net, x) in subjects() {
        let mut plan = net.compile_plan(&x.dims()[1..]).unwrap();
        for mode in [Mode::Eval, Mode::McSample] {
            for seed in [3u64, 77] {
                net.reseed_mc_streams(seed);
                plan.reseed_mc_streams(seed);
                let acts_ref = net.forward_backbone(&x, mode).unwrap();
                let acts = plan.forward_backbone(&x, mode).unwrap();
                assert_bitwise(&acts_ref, &acts, &format!("{name} backbone {mode:?}"));
                let exits_ref = net.forward_exits_from_activations(&acts_ref, mode).unwrap();
                let exits = plan.forward_exits_from_activations(&acts, mode).unwrap();
                assert_bitwise(&exits_ref, &exits, &format!("{name} exits {mode:?}"));
            }
        }
    }
}

/// The multi-exit MCD prediction computed pass by pass on the layer chain:
/// backbone once in eval mode, then per pass reseed every stream and re-run
/// the exits.
fn layer_chain_predict(
    net: &mut MultiExitNetwork,
    x: &Tensor,
    config: &SamplingConfig,
) -> (Tensor, Vec<Tensor>) {
    let passes = config.passes_for(net.num_exits()).max(1);
    let activations = net.forward_backbone(x, Mode::Eval).unwrap();
    let mut per_sample = Vec::new();
    for pass in 0..passes {
        net.reseed_mc_streams(stream_seed(config.seed, pass as u64));
        for logits in net
            .forward_exits_from_activations(&activations, Mode::McSample)
            .unwrap()
        {
            per_sample.push(softmax(&logits).unwrap());
        }
    }
    per_sample.truncate(config.n_samples);
    (Tensor::mean_of(&per_sample).unwrap(), per_sample)
}

#[test]
fn sampler_predict_matches_the_layer_chain_at_any_thread_count() {
    let config = SamplingConfig::new(7).with_seed(99);
    for (name, mut net, x) in subjects() {
        let (mean_ref, per_sample_ref) = layer_chain_predict(&mut net, &x, &config);
        for threads in [1, 4] {
            let sampler = McSampler::new(config).with_executor(Executor::new(threads));
            let pred = sampler.predict(&mut net, &x).unwrap();
            assert_eq!(
                pred.mean_probs.as_slice(),
                mean_ref.as_slice(),
                "{name} threads={threads}"
            );
            assert_bitwise(
                &pred.per_sample,
                &per_sample_ref,
                &format!("{name} threads={threads}"),
            );
        }
    }
}

/// Early exiting computed on the layer chain at full depth: every exit runs
/// in eval mode, then each row walks its running ensemble until `policy`
/// retires it.
fn layer_chain_adaptive(
    net: &mut MultiExitNetwork,
    x: &Tensor,
    policy: &ExitPolicy,
) -> (Vec<f32>, Vec<usize>) {
    let probs: Vec<Tensor> = net
        .forward_exits(x, Mode::Eval)
        .unwrap()
        .iter()
        .map(|logits| softmax(logits).unwrap())
        .collect();
    let (batch, classes) = (probs[0].dims()[0], probs[0].dims()[1]);
    let mut out = vec![0.0f32; batch * classes];
    let mut exit_taken = vec![0usize; batch];
    for b in 0..batch {
        let mut running = vec![0.0f32; classes];
        for (i, exit_probs) in probs.iter().enumerate() {
            let row = &exit_probs.as_slice()[b * classes..(b + 1) * classes];
            for (acc, &p) in running.iter_mut().zip(row) {
                *acc += p;
            }
            let denom = (i + 1) as f32;
            if policy.retires(&running, denom) || i + 1 == probs.len() {
                for (o, &r) in out[b * classes..(b + 1) * classes].iter_mut().zip(&running) {
                    *o = r / denom;
                }
                exit_taken[b] = i;
                break;
            }
        }
    }
    (out, exit_taken)
}

#[test]
fn adaptive_exit_matches_a_full_depth_layer_chain_sweep() {
    let sampler = McSampler::default();
    for (name, mut net, x) in subjects() {
        for policy in [
            ExitPolicy::Never,
            ExitPolicy::Confidence { threshold: 0.0 },
            ExitPolicy::Confidence { threshold: 0.15 },
            ExitPolicy::Entropy { threshold: 0.99 },
        ] {
            let (probs_ref, exits_ref) = layer_chain_adaptive(&mut net, &x, &policy);
            let pred = sampler
                .adaptive_exit_predict(&mut net, &x, &policy)
                .unwrap();
            assert_eq!(pred.probs.as_slice(), &probs_ref[..], "{name} {policy}");
            assert_eq!(pred.exit_taken, exits_ref, "{name} {policy}");
        }
    }
}

#[test]
fn resnet18_batched_predict_is_concat_of_single_sample_calls() {
    let (_, net, x) = subjects()
        .into_iter()
        .find(|(name, ..)| name == "resnet18 mcd=true")
        .unwrap();
    let mut plan = net.compile_plan(&x.dims()[1..]).unwrap();
    let mut all = Vec::new();
    let (batch, classes) = plan
        .predict_probs_batch_into(&x, 5, 2023, &mut all)
        .unwrap();
    let per: usize = x.dims()[1..].iter().product();
    let mut one = Vec::new();
    for b in 0..batch {
        let mut dims = x.dims().to_vec();
        dims[0] = 1;
        let sample =
            Tensor::from_vec(x.as_slice()[b * per..(b + 1) * per].to_vec(), &dims).unwrap();
        plan.predict_probs_batch_into(&sample, 5, 2023, &mut one)
            .unwrap();
        assert_eq!(&all[b * classes..(b + 1) * classes], &one[..], "row {b}");
    }
}

#[test]
fn a_softmax_spec_is_a_typed_error() {
    let mut spec = spec(Architecture::LeNet5, false);
    spec.exits
        .last_mut()
        .unwrap()
        .layers
        .push(LayerSpec::Softmax);
    let mut net = spec.build(1).unwrap();
    let x = Tensor::ones(spec.input_shape(2).dims());
    assert!(matches!(
        net.compile_plan(&x.dims()[1..]),
        Err(ModelError::Nn(NnError::UnsupportedLowering { .. }))
    ));
    let sampler = McSampler::new(SamplingConfig::new(4));
    assert!(matches!(
        sampler.predict(&mut net, &x),
        Err(BayesError::Model(ModelError::Nn(
            NnError::UnsupportedLowering { .. }
        )))
    ));
}

#[test]
fn cached_plan_tracks_train_mode_statistics_updates() {
    // A train-mode forward moves batch-norm running statistics without
    // touching a parameter; the cached plan must not serve the old ones.
    let (_, mut net, x) = subjects()
        .into_iter()
        .find(|(name, ..)| name == "vgg11 mcd=false")
        .unwrap();
    let sampler = McSampler::new(SamplingConfig::new(4));
    let before = sampler.predict(&mut net, &x).unwrap();
    net.forward_exits(&x.map(|v| 3.0 * v - 1.0), Mode::Train)
        .unwrap();
    let after = sampler.predict(&mut net, &x).unwrap();
    assert_ne!(before.mean_probs.as_slice(), after.mean_probs.as_slice());
    let (mean_ref, _) = layer_chain_predict(&mut net, &x, sampler.config());
    assert_eq!(after.mean_probs.as_slice(), mean_ref.as_slice());
}

/// On a trained network, the sampler's plan reproduces the prediction of a
/// replica rebuilt from the spec and a checkpoint — replicas share nothing
/// with the original but the checkpoint, so agreement pins the planned path
/// to the checkpointed arithmetic bit for bit, across executors.
#[test]
fn sampler_matches_a_checkpoint_restored_replica_bitwise() {
    let (mut network, _calib, eval) = fixtures::trained_lenet5(17, 4, 24);
    let mut replica = MultiExitNetwork::from_spec(network.spec(), 0).unwrap();
    replica.restore(&network.checkpoint()).unwrap();
    let parallel = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(4));
    let sequential = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::sequential());
    let a = parallel.predict(&mut network, &eval).unwrap();
    let b = sequential.predict(&mut replica, &eval).unwrap();
    assert_eq!(a.mean_probs.as_slice(), b.mean_probs.as_slice());
    assert_bitwise(&a.per_sample, &b.per_sample, "replica");
}
