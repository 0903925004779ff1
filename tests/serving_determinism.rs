//! Determinism suite of the serving layer and its batch-capable plans.
//!
//! Three properties are pinned, all bitwise:
//!
//! 1. **Batch-boundary invariance** — `predict_probs_batch*` on a batch of
//!    N samples equals the concatenation of N single-sample calls, for every
//!    fixed-point format in the paper's search space `{4, 6, 8, 16}` and
//!    across executors, and likewise for the float [`MultiExitPlan`]. This
//!    is the property that makes dynamic batching transparent.
//! 2. **Plan-cache invalidation under concurrency** — worker threads running
//!    [`McSampler::predict`] while another thread mutates weights through
//!    `params_mut` only ever observe the pre- or post-mutation prediction,
//!    never a stale cached plan.
//! 3. **Server invariance** — the same request stream produces identical
//!    per-request outputs regardless of batching config and worker count,
//!    on both the integer and the float engine.

use bayesnn_fpga::models::{zoo, ModelConfig};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
use bayesnn_fpga::serve::replay::{replay, ReplayConfig};
use bayesnn_fpga::serve::{
    BatchEngine, ExitPolicy, FloatEngine, InferenceServer, QuantEngine, ServerConfig,
};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use bnn_models::MultiExitNetwork;
use std::time::Duration;

const MC_SAMPLES: usize = 6;
const MC_SEED: u64 = 2023;

/// The small multi-exit LeNet-5 of the plan test suites (10x10, width/8,
/// 4 classes; 100 input elements per sample).
fn small_lenet() -> MultiExitNetwork {
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
    .build(3)
    .unwrap()
}

/// A batch of well-formed inputs plus the same data as single-sample chunks.
fn batch_and_singles(batch: usize) -> (Tensor, Vec<Tensor>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(11);
    let inputs = Tensor::randn(&[batch, 1, 10, 10], &mut rng);
    let singles = inputs
        .as_slice()
        .chunks_exact(100)
        .map(|c| Tensor::from_vec(c.to_vec(), &[1, 1, 10, 10]).unwrap())
        .collect();
    (inputs, singles)
}

/// Acceptance-criteria sweep: batched integer prediction is bit-exact with
/// per-sample calls for every searched format, on both the sequential and a
/// multi-threaded executor.
#[test]
fn quant_batched_predict_matches_singles_across_formats_and_executors() {
    let network = small_lenet();
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let (inputs, singles) = batch_and_singles(5);

    for format in FixedPointFormat::search_space() {
        let mut reference: Option<Vec<f32>> = None;
        for (name, exec) in [
            ("sequential", Executor::sequential()),
            ("threads(4)", Executor::new(4)),
        ] {
            let mut plan = calibrated.plan(format).unwrap();
            plan.set_executor(exec);
            let batched = plan
                .predict_probs_batch(&inputs, MC_SAMPLES, MC_SEED)
                .unwrap();
            let mut concat = Vec::new();
            for single in &singles {
                let one = plan
                    .predict_probs_batch(single, MC_SAMPLES, MC_SEED)
                    .unwrap();
                concat.extend_from_slice(one.as_slice());
            }
            assert_eq!(
                batched.as_slice(),
                &concat[..],
                "{format} on {name}: batched != concat of single-sample calls"
            );
            // Single-sample batched calls agree with the per-batch-mask
            // entry point (masks coincide at batch 1).
            let plain = plan
                .predict_probs(&singles[0], MC_SAMPLES, MC_SEED)
                .unwrap();
            assert_eq!(
                plain.as_slice(),
                &concat[..plain.len()],
                "{format} on {name}"
            );
            // And the whole thing is executor-invariant.
            match &reference {
                None => reference = Some(batched.as_slice().to_vec()),
                Some(r) => assert_eq!(
                    &r[..],
                    batched.as_slice(),
                    "{format}: results differ across executors"
                ),
            }
        }
    }
}

/// Float-side batch-boundary invariance of the compiled [`MultiExitPlan`].
#[test]
fn float_batched_predict_matches_singles() {
    let network = small_lenet();
    let (inputs, singles) = batch_and_singles(4);
    let mut plan = network.compile_plan(&[1, 10, 10]).unwrap();
    let batched = plan
        .predict_probs_batch(&inputs, MC_SAMPLES, MC_SEED)
        .unwrap();
    let mut concat = Vec::new();
    for single in &singles {
        let one = plan
            .predict_probs_batch(single, MC_SAMPLES, MC_SEED)
            .unwrap();
        concat.extend_from_slice(one.as_slice());
    }
    assert_eq!(
        batched.as_slice(),
        &concat[..],
        "float batched != concat of single-sample calls"
    );
}

/// Plan-cache invalidation race: reader threads predicting through the
/// network's cached plan while a writer mutates weights via `params_mut`
/// must only ever observe the v0 (pre-mutation) or v1 (post-mutation)
/// prediction — a stale cached plan would produce a third value.
#[test]
fn cached_plan_invalidation_is_safe_under_concurrent_prediction() {
    use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
    use bnn_nn::network::Network as _;
    use std::sync::{Arc, Mutex};

    let mutate = |net: &mut MultiExitNetwork| {
        let mut params = net.params_mut();
        params[0].value.as_mut_slice()[0] += 0.5;
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(23);
    let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
    let sampler = McSampler::new(SamplingConfig::new(4)).with_executor(Executor::new(2));

    // Reference predictions from fresh networks at both weight versions.
    let v0 = sampler.predict(&mut small_lenet(), &x).unwrap();
    let v1 = {
        let mut net = small_lenet();
        mutate(&mut net);
        sampler.predict(&mut net, &x).unwrap()
    };
    assert_ne!(v0.mean_probs.as_slice(), v1.mean_probs.as_slice());

    let shared = Arc::new(Mutex::new(small_lenet()));
    let observed: Vec<Vec<f32>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let sampler = &sampler;
                let x = &x;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..8 {
                        let mut net = shared.lock().unwrap();
                        let pred = sampler.predict(&mut net, x).unwrap();
                        seen.push(pred.mean_probs.as_slice().to_vec());
                    }
                    seen
                })
            })
            .collect();
        // Let some reads land on v0, then mutate mid-flight.
        std::thread::sleep(Duration::from_millis(5));
        mutate(&mut shared.lock().unwrap());
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });
    for (i, probs) in observed.iter().enumerate() {
        assert!(
            probs[..] == *v0.mean_probs.as_slice() || probs[..] == *v1.mean_probs.as_slice(),
            "observation {i} matches neither the v0 nor the v1 prediction: stale plan"
        );
    }
    // After the race, the cache serves the mutated weights.
    let after = sampler.predict(&mut shared.lock().unwrap(), &x).unwrap();
    assert_eq!(after.mean_probs.as_slice(), v1.mean_probs.as_slice());
}

/// Serving determinism: one request stream, identical per-request outputs
/// under every batching config and worker count (and bit-exact with direct
/// single-sample plan calls), for the integer and the float engine alike.
#[test]
fn server_outputs_are_invariant_to_batching_and_workers() {
    let network = small_lenet();
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let mut plan = calibrated
        .plan(FixedPointFormat::new(8, 3).unwrap())
        .unwrap();
    plan.set_executor(Executor::sequential());
    let mut float_plan = network.compile_plan(&[1, 10, 10]).unwrap();

    let pool: Vec<Vec<f32>> = {
        let mut rng = Xoshiro256StarStar::seed_from_u64(41);
        let data = Tensor::randn(&[6, 1, 10, 10], &mut rng);
        data.as_slice()
            .chunks_exact(100)
            .map(<[f32]>::to_vec)
            .collect()
    };
    // Direct per-sample references through each plan itself.
    let singles: Vec<Tensor> = pool
        .iter()
        .map(|s| Tensor::from_vec(s.clone(), &[1, 1, 10, 10]).unwrap())
        .collect();
    let quant_reference: Vec<Vec<f32>> = singles
        .iter()
        .map(|t| {
            plan.predict_probs_batch(t, MC_SAMPLES, MC_SEED)
                .unwrap()
                .as_slice()
                .to_vec()
        })
        .collect();
    let float_reference: Vec<Vec<f32>> = singles
        .iter()
        .map(|t| {
            float_plan
                .predict_probs_batch(t, MC_SAMPLES, MC_SEED)
                .unwrap()
                .as_slice()
                .to_vec()
        })
        .collect();
    assert_ne!(quant_reference, float_reference);

    let configs = [
        (1usize, 1usize, Duration::ZERO),
        (2, 4, Duration::from_micros(500)),
        (3, 8, Duration::from_millis(2)),
    ];
    for (engine, reference) in [("quant", &quant_reference), ("float", &float_reference)] {
        for (workers, max_batch, max_delay) in configs {
            let boxed: Box<dyn BatchEngine> = match engine {
                "quant" => Box::new(QuantEngine::new(plan.clone())),
                _ => Box::new(FloatEngine::new(float_plan.clone())),
            };
            let server = InferenceServer::start(
                boxed,
                ServerConfig {
                    workers,
                    max_batch,
                    max_delay,
                    mc_samples: MC_SAMPLES,
                    seed: MC_SEED,
                    policy: ExitPolicy::Never,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let outcome = replay(
                &server,
                &pool,
                &ReplayConfig {
                    requests: 48,
                    rate_per_sec: 50_000.0,
                    seed: 9,
                },
            )
            .unwrap();
            let stats = server.shutdown();
            assert_eq!(
                stats.completed, 48,
                "{engine}: every request must be served"
            );
            for (i, output) in outcome.outputs.iter().enumerate() {
                assert_eq!(
                    &output.probs[..],
                    &reference[i % pool.len()][..],
                    "{engine} workers={workers} max_batch={max_batch}: request {i} \
                     output depends on batch boundaries"
                );
            }
        }
    }
}
