//! Fast serving smoke test for `make ci`: a few hundred replayed requests
//! against a small quantized model on a real multi-worker server, asserting
//! that every response is delivered, correct (bit-exact with direct plan
//! calls), and that the replay report is internally consistent. Sized to
//! finish in a few seconds.

use bayesnn_fpga::models::{zoo, ExitPlan, ModelConfig};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
use bayesnn_fpga::serve::replay::{replay, ReplayConfig};
use bayesnn_fpga::serve::{ExitPolicy, InferenceServer, QuantEngine, ServeError, ServerConfig};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use std::time::Duration;

#[test]
fn replayed_requests_are_all_served_and_correct() {
    const REQUESTS: usize = 300;
    const MC_SAMPLES: usize = 4;
    const MC_SEED: u64 = 2023;

    let network = zoo::lenet5(
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
    .unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(13);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let mut plan = calibrated
        .plan(FixedPointFormat::new(8, 3).unwrap())
        .unwrap();
    plan.set_executor(Executor::sequential());

    let pool: Vec<Vec<f32>> = Tensor::randn(&[8, 1, 10, 10], &mut rng)
        .as_slice()
        .chunks_exact(100)
        .map(<[f32]>::to_vec)
        .collect();
    let reference: Vec<Vec<f32>> = pool
        .iter()
        .map(|s| {
            let t = Tensor::from_vec(s.clone(), &[1, 1, 10, 10]).unwrap();
            plan.predict_probs_batch(&t, MC_SAMPLES, MC_SEED)
                .unwrap()
                .as_slice()
                .to_vec()
        })
        .collect();

    let server = InferenceServer::start(
        Box::new(QuantEngine::new(plan)),
        ServerConfig {
            workers: 2,
            max_batch: 8,
            max_delay: Duration::from_micros(500),
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            policy: ExitPolicy::Never,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Out-of-range adaptive thresholds are rejected up front, typed.
    let reject_plan = calibrated
        .plan(FixedPointFormat::new(8, 3).unwrap())
        .unwrap();
    for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
        let config = ServerConfig::latency_biased(1, MC_SAMPLES, MC_SEED)
            .with_policy(ExitPolicy::Confidence { threshold: bad });
        assert!(
            matches!(
                InferenceServer::start(Box::new(QuantEngine::new(reject_plan.clone())), config),
                Err(ServeError::InvalidRequest(_))
            ),
            "threshold {bad} must be rejected"
        );
    }

    // Malformed submissions are rejected up front with typed errors: a
    // wrong element count, or a single non-finite value (which would
    // otherwise fail the whole batch it lands in — the replay below then
    // asserts every valid request delivered bit-exact and no failures).
    assert!(matches!(
        server.submit(&[0.0; 7]),
        Err(ServeError::InvalidRequest(_))
    ));
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut sample = pool[0].clone();
        sample[42] = bad;
        assert!(
            matches!(server.submit(&sample), Err(ServeError::InvalidRequest(_))),
            "{bad} must be rejected at submit"
        );
    }

    let outcome = replay(
        &server,
        &pool,
        &ReplayConfig {
            requests: REQUESTS,
            rate_per_sec: 30_000.0,
            seed: 3,
        },
    )
    .unwrap();
    let stats = server.shutdown();

    assert_eq!(outcome.outputs.len(), REQUESTS);
    assert_eq!(
        stats.completed as usize, REQUESTS,
        "all responses delivered"
    );
    // Happy path: nothing failed, shed, expired, crashed or degraded.
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.deadline_missed, 0);
    assert_eq!(stats.crashes, 0);
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.quality_tier, 0);
    assert!(outcome.outputs.iter().all(|o| o.quality_tier == 0));
    assert!(stats.batches > 0 && stats.max_batch_seen <= 8);
    // Fixed-depth serving reports full-depth metadata on every reply.
    let n_exits = stats.exit_counts.len();
    assert!(n_exits >= 2);
    assert_eq!(stats.exit_counts[n_exits - 1] as usize, REQUESTS);
    assert_eq!(stats.ops_executed, stats.ops_fixed);
    assert!(stats.ops_fixed > 0);
    for (i, output) in outcome.outputs.iter().enumerate() {
        assert_eq!(
            &output.probs[..],
            &reference[i % pool.len()][..],
            "request {i}: served output differs from the direct plan call"
        );
        assert_eq!(output.exit_taken, n_exits - 1);
        assert_eq!(output.mc_samples, MC_SAMPLES);
    }

    let r = &outcome.report;
    assert_eq!(r.requests, REQUESTS);
    assert!(r.throughput_rps > 0.0);
    assert!(r.p50_latency <= r.p99_latency);
    assert!(!r.elapsed.is_zero());
}
