//! Fault-tolerance suite for the serving layer, driven by the seeded
//! fault-injection harness (`bnn_serve::fault`): worker-panic isolation and
//! supervision (no hung handles, poisoned mutexes recovered, respawned
//! workers serve subsequent traffic), deadline eviction, bounded-queue
//! backpressure, the graceful-degradation ladder, and the chaos acceptance
//! run — 2 of 4 workers panic mid-run under Poisson load while the server
//! keeps serving, every accepted request gets exactly one reply, and
//! surviving replies stay bit-exact with direct plan calls.
//!
//! Run under `BNN_THREADS=1` and `4` via `make test-robust`.

use bayesnn_fpga::models::{zoo, ExitPlan, ExitPolicy, ModelConfig};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat, QuantPlan};
use bayesnn_fpga::serve::replay::{replay_under_faults, ReplayConfig};
use bayesnn_fpga::serve::{
    BatchEngine, DegradeConfig, FaultPlan, FaultyEngine, InferenceServer, QuantEngine, Reply,
    ResponseHandle, ServeError, ServerConfig,
};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use std::sync::Once;
use std::time::Duration;

const MC_SAMPLES: usize = 4;
const MC_SEED: u64 = 2023;
/// Generous bound on every wait: a hung handle fails the test in bounded
/// time instead of hanging the suite.
const WAIT: Duration = Duration::from_secs(20);

/// Injected panics are expected here; keep their backtraces out of the test
/// output while forwarding every real panic to the default hook.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// The small quantized multi-exit LeNet-5 of the serving suites (10x10,
/// width/8, 4 classes, 2 exits; 100 input elements per sample).
fn small_plan() -> QuantPlan {
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
    plan
}

fn pool(samples: usize) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(17);
    Tensor::randn(&[samples, 1, 10, 10], &mut rng)
        .as_slice()
        .chunks_exact(100)
        .map(<[f32]>::to_vec)
        .collect()
}

/// Direct single-sample plan call at an explicit `(mc, policy)` quality —
/// the bit-exactness reference for replies served at any tier.
fn reference(plan: &QuantPlan, sample: &[f32], mc: usize, policy: &ExitPolicy) -> Vec<f32> {
    let mut plan = plan.clone();
    let t = Tensor::from_vec(sample.to_vec(), &[1, 1, 10, 10]).unwrap();
    if policy.is_never() {
        plan.predict_probs_batch(&t, mc, MC_SEED)
            .unwrap()
            .as_slice()
            .to_vec()
    } else {
        plan.predict_adaptive_batch(&t, mc, MC_SEED, policy)
            .unwrap()
            .probs
            .as_slice()
            .to_vec()
    }
}

fn faulty_engine(plan: &QuantPlan, faults: FaultPlan) -> Box<dyn BatchEngine> {
    Box::new(FaultyEngine::new(
        Box::new(QuantEngine::new(plan.clone())),
        faults,
    ))
}

fn wait_all(handles: Vec<ResponseHandle>) -> Vec<Result<Reply, ServeError>> {
    handles.into_iter().map(|h| h.wait_timeout(WAIT)).collect()
}

/// A worker panic fails exactly its batch with `WorkerCrashed` (no handle
/// hangs), the shared mutexes stay usable, the supervisor respawns the
/// worker from a fresh fork, and the respawn serves subsequent traffic
/// bit-exactly.
#[test]
fn worker_panic_recovery_without_hung_handles() {
    silence_injected_panics();
    let plan = small_plan();
    let pool = pool(6);
    let server = InferenceServer::start(
        faulty_engine(&plan, FaultPlan::new().panic_on(0, 0)),
        ServerConfig {
            workers: 1,
            max_batch: 4,
            max_delay: Duration::from_micros(200),
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let first_wave: Vec<_> = (0..12)
        .map(|i| server.submit(&pool[i % pool.len()]).unwrap())
        .collect();
    let results = wait_all(first_wave);
    // The mutexes the panicking worker may have poisoned are recovered.
    let mid_stats = server.stats();
    assert_eq!(mid_stats.crashes, 1, "exactly the injected panic");
    assert_eq!(mid_stats.respawns, 1, "the supervisor replaced the worker");

    let mut crashed = 0usize;
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(reply) => {
                assert_eq!(
                    reply.probs,
                    reference(&plan, &pool[i % pool.len()], MC_SAMPLES, &ExitPolicy::Never),
                    "request {i}: post-crash reply differs from the direct plan call"
                );
            }
            Err(ServeError::WorkerCrashed(msg)) => {
                assert!(msg.contains("injected fault"), "unexpected crash: {msg}");
                crashed += 1;
            }
            Err(other) => panic!("request {i}: unexpected error {other}"),
        }
    }
    assert!(
        crashed >= 1,
        "the panicked batch must fail its requests with WorkerCrashed"
    );

    // The respawned worker (a fresh fault-free fork) serves a second wave.
    let second_wave: Vec<_> = (0..8)
        .map(|i| server.submit(&pool[i % pool.len()]).unwrap())
        .collect();
    for (i, result) in wait_all(second_wave).into_iter().enumerate() {
        let reply = result.unwrap_or_else(|e| panic!("post-respawn request {i} failed: {e}"));
        assert_eq!(
            reply.probs,
            reference(&plan, &pool[i % pool.len()], MC_SAMPLES, &ExitPolicy::Never)
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.respawns, 1);
    assert_eq!(stats.failed, crashed as u64);
    assert_eq!(stats.completed, 20 - crashed as u64);
}

/// With the respawn budget exhausted, the last crash marks the pool dead:
/// every pending request is failed (nothing hangs) and new submissions are
/// rejected with a typed `WorkerCrashed`.
#[test]
fn exhausted_respawn_budget_fails_pending_and_rejects() {
    silence_injected_panics();
    let plan = small_plan();
    let pool = pool(4);
    let server = InferenceServer::start(
        faulty_engine(&plan, FaultPlan::new().panic_on(0, 0)),
        ServerConfig {
            workers: 1,
            max_batch: 2,
            max_delay: Duration::from_micros(200),
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            max_respawns: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // The crash can race the submit loop: once the pool is marked dead,
    // submissions are rejected up front with the same typed error.
    let mut handles = Vec::new();
    let mut rejected_at_submit = 0usize;
    for i in 0..8 {
        match server.submit(&pool[i % pool.len()]) {
            Ok(handle) => handles.push(handle),
            Err(ServeError::WorkerCrashed(_)) => rejected_at_submit += 1,
            Err(e) => panic!("unexpected submit error {e}"),
        }
    }
    let accepted = handles.len();
    assert!(accepted >= 1, "the crashing batch needed at least one job");
    assert_eq!(accepted + rejected_at_submit, 8);
    // Every accepted request resolves (crashed batch or failed-pending
    // sweep); nothing waits forever.
    for (i, result) in wait_all(handles).into_iter().enumerate() {
        assert!(
            matches!(result, Err(ServeError::WorkerCrashed(_))),
            "request {i}: expected WorkerCrashed, got {result:?}"
        );
    }
    // Submissions are now rejected up front (give the supervisor a moment
    // to finish marking the pool dead).
    let mut rejected = false;
    let mut raced = 0usize;
    for _ in 0..100 {
        match server.submit(&pool[0]) {
            Err(ServeError::WorkerCrashed(_)) => {
                rejected = true;
                break;
            }
            Err(e) => panic!("unexpected rejection {e}"),
            Ok(handle) => {
                // Raced the dead-pool sweep: the accepted request must
                // still resolve, with the crash error.
                raced += 1;
                assert!(matches!(
                    handle.wait_timeout(WAIT),
                    Err(ServeError::WorkerCrashed(_))
                ));
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(rejected, "dead pool must reject new submissions");

    let stats = server.shutdown();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.failed, (accepted + raced) as u64);
}

/// A typed engine error fails its batch but does NOT kill the worker: no
/// crash, no respawn, and the same worker keeps serving.
#[test]
fn engine_error_fails_batch_without_crashing_worker() {
    let plan = small_plan();
    let pool = pool(4);
    let server = InferenceServer::start(
        faulty_engine(&plan, FaultPlan::new().error_on(0, 0, "transient")),
        ServerConfig {
            workers: 1,
            max_batch: 4,
            max_delay: Duration::from_micros(200),
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let results = wait_all(
        (0..12)
            .map(|i| server.submit(&pool[i % pool.len()]).unwrap())
            .collect(),
    );
    let errored = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Engine(_))))
        .count();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert!(errored >= 1, "the injected engine error must surface");
    assert_eq!(errored + ok, 12, "no other failure mode");

    let stats = server.shutdown();
    assert_eq!(stats.crashes, 0, "an engine error is not a crash");
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.failed, errored as u64);
    assert_eq!(stats.completed, ok as u64);
}

/// Requests whose deadline expires while queued behind a slow batch are
/// evicted at the next assembly with `DeadlineExceeded`; requests without a
/// deadline ride out the delay.
#[test]
fn expired_deadlines_are_evicted_at_assembly() {
    let plan = small_plan();
    let pool = pool(4);
    let server = InferenceServer::start(
        // The first batch stalls 400 ms — long enough for queued deadlines
        // to expire behind it.
        faulty_engine(
            &plan,
            FaultPlan::new().delay_on(0, 0, Duration::from_millis(400)),
        ),
        ServerConfig {
            workers: 1,
            max_batch: 4,
            max_delay: Duration::ZERO,
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            deadline: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // No-deadline override: rides into the slow batch and survives it.
    let slow = server.submit_with_deadline(&pool[0], None).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // These use the 50 ms config default and expire while the worker stalls.
    let doomed_default = server.submit(&pool[1]).unwrap();
    // Explicit override, also far shorter than the remaining stall.
    let doomed_override = server
        .submit_with_deadline(&pool[2], Some(Duration::from_millis(10)))
        .unwrap();
    // Generous override: survives the stall and is served afterwards.
    let patient = server
        .submit_with_deadline(&pool[3], Some(Duration::from_secs(30)))
        .unwrap();

    let slow_reply = slow.wait_timeout(WAIT).expect("stalled batch still serves");
    assert_eq!(
        slow_reply.probs,
        reference(&plan, &pool[0], MC_SAMPLES, &ExitPolicy::Never)
    );
    assert_eq!(
        doomed_default.wait_timeout(WAIT),
        Err(ServeError::DeadlineExceeded)
    );
    assert_eq!(
        doomed_override.wait_timeout(WAIT),
        Err(ServeError::DeadlineExceeded)
    );
    let patient_reply = patient.wait_timeout(WAIT).expect("generous deadline holds");
    assert_eq!(
        patient_reply.probs,
        reference(&plan, &pool[3], MC_SAMPLES, &ExitPolicy::Never)
    );

    let stats = server.shutdown();
    assert_eq!(stats.deadline_missed, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0, "evictions are not batch failures");
}

/// The bounded queue sheds with a typed `Overloaded` at the submit
/// boundary; accepted requests are unaffected.
#[test]
fn bounded_queue_rejects_with_overloaded() {
    let plan = small_plan();
    let pool = pool(4);
    let server = InferenceServer::start(
        faulty_engine(
            &plan,
            FaultPlan::new().delay_on(0, 0, Duration::from_millis(300)),
        ),
        ServerConfig {
            workers: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            queue_limit: Some(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // First request occupies the (stalled) worker...
    let in_flight = server.submit(&pool[0]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // ...the next two fill the bounded queue...
    let queued_a = server.submit(&pool[1]).unwrap();
    let queued_b = server.submit(&pool[2]).unwrap();
    // ...and the fourth is shed, typed.
    assert_eq!(server.submit(&pool[3]).err(), Some(ServeError::Overloaded));

    for (i, handle) in [(0, in_flight), (1, queued_a), (2, queued_b)] {
        let reply = handle.wait_timeout(WAIT).expect("accepted requests serve");
        assert_eq!(
            reply.probs,
            reference(&plan, &pool[i], MC_SAMPLES, &ExitPolicy::Never)
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
}

/// Under a sustained burst the hysteresis controller steps down the quality
/// ladder (fewer MC samples, then aggressive early exit) instead of
/// shedding; when pressure clears it steps back up. Every reply reports its
/// tier and stays bit-exact with a direct plan call at that tier's quality.
#[test]
fn degradation_ladder_steps_down_and_recovers() {
    let plan = small_plan();
    let pool = pool(4);
    let tier_quality = [
        (MC_SAMPLES, ExitPolicy::Never),
        (2, ExitPolicy::Never),
        (2, ExitPolicy::Confidence { threshold: 0.5 }),
    ];
    let server = InferenceServer::start(
        Box::new(QuantEngine::new(plan.clone())),
        ServerConfig {
            workers: 1,
            max_batch: 2,
            max_delay: Duration::ZERO,
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            degrade: Some(
                DegradeConfig::new(4, 1)
                    .with_step(tier_quality[1].0, tier_quality[1].1)
                    .with_step(tier_quality[2].0, tier_quality[2].1),
            ),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Tight hysteresis so a short test exercises both directions.
    assert_eq!(
        server.config().degrade.as_ref().unwrap().step_down_batches,
        2
    );

    // Phase 1 — a burst far above the high watermark: the controller must
    // step down (max_batch 2 means the 60-deep queue is observed high many
    // consecutive times).
    let burst = wait_all(
        (0..60)
            .map(|i| server.submit(&pool[i % pool.len()]).unwrap())
            .collect(),
    );
    // Phase 2 — a slow trickle at depth 1 (at/below the low watermark):
    // the controller must recover to full quality.
    let mut trickle = Vec::new();
    for i in 0..24 {
        let handle = server.submit(&pool[i % pool.len()]).unwrap();
        trickle.push(handle.wait_timeout(WAIT));
    }

    let stats = server.shutdown();
    assert!(
        stats.degrade_steps_down >= 2,
        "burst must walk down the ladder: {stats:?}"
    );
    assert!(
        stats.degrade_steps_up >= 2,
        "trickle must walk back up: {stats:?}"
    );
    assert_eq!(stats.quality_tier, 0, "recovered to full quality");

    let mut seen_tiers = [0u64; 3];
    for (i, result) in burst.iter().chain(trickle.iter()).enumerate() {
        let reply = result
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i}: {e}"));
        let tier = reply.quality_tier;
        assert!(tier < 3, "request {i}: tier {tier} out of range");
        seen_tiers[tier] += 1;
        let (mc, policy) = &tier_quality[tier];
        assert_eq!(
            reply.probs,
            reference(&plan, &pool[i % pool.len()], *mc, policy),
            "request {i}: tier-{tier} reply differs from the direct plan call at that quality"
        );
    }
    assert!(seen_tiers[0] > 0, "some requests at full quality");
    assert!(
        seen_tiers[1] + seen_tiers[2] > 0,
        "some requests served degraded: {seen_tiers:?}"
    );
    assert_eq!(stats.tier_counts, seen_tiers.to_vec());
    assert_eq!(stats.completed, 84);
    assert_eq!(stats.rejected + stats.failed + stats.deadline_missed, 0);
}

/// Acceptance chaos run: a seeded fault plan panics 2 of 4 workers mid-run
/// under Poisson load. The server keeps serving, every accepted request
/// receives exactly one reply (no handle waits forever), surviving replies
/// are bit-exact with direct plan calls, and `ServeStats` reports exactly
/// the crashes, respawns, deadline misses and sheds it observed.
#[test]
fn chaos_two_of_four_workers_panic_under_poisson_load() {
    silence_injected_panics();
    const REQUESTS: usize = 600;
    let plan = small_plan();
    let pool = pool(8);
    let references: Vec<Vec<f32>> = pool
        .iter()
        .map(|s| reference(&plan, s, MC_SAMPLES, &ExitPolicy::Never))
        .collect();

    // Workers 0 and 1 panic on their second batch — mid-run, while the
    // Poisson stream keeps arriving.
    let faults = FaultPlan::new().panic_on(0, 1).panic_on(1, 1);
    let server = InferenceServer::start(
        faulty_engine(&plan, faults),
        ServerConfig {
            workers: 4,
            max_batch: 8,
            max_delay: Duration::from_micros(500),
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let outcome = replay_under_faults(
        &server,
        &pool,
        &ReplayConfig {
            requests: REQUESTS,
            rate_per_sec: 30_000.0,
            seed: 11,
        },
        WAIT,
    )
    .unwrap();

    // Exactly one resolution per request, none by timeout: the
    // delivery guarantee held for every accepted request.
    assert_eq!(outcome.outcomes.len(), REQUESTS);
    assert_eq!(outcome.timed_out, 0, "a handle waited forever");
    assert_eq!(outcome.rejected, 0, "queue is unbounded here");
    assert_eq!(outcome.delivered + outcome.failed, REQUESTS);
    assert!(
        outcome.failed >= 2,
        "two panicked batches must fail their requests"
    );

    for (i, result) in outcome.outcomes.iter().enumerate() {
        match result {
            Ok(reply) => assert_eq!(
                reply.probs,
                references[i % pool.len()],
                "request {i}: survivor reply not bit-exact with the direct plan call"
            ),
            Err(ServeError::WorkerCrashed(msg)) => {
                assert!(msg.contains("injected fault"), "unexpected crash: {msg}")
            }
            Err(other) => panic!("request {i}: unexpected failure {other}"),
        }
    }

    // The server is still alive after the chaos: fresh traffic serves.
    let post = server.submit(&pool[0]).unwrap().wait_timeout(WAIT).unwrap();
    assert_eq!(post.probs, references[0]);

    let stats = server.shutdown();
    assert_eq!(stats.crashes, 2, "both injected panics observed: {stats:?}");
    assert_eq!(stats.respawns, 2, "both workers respawned: {stats:?}");
    assert_eq!(stats.completed, outcome.delivered as u64 + 1);
    assert_eq!(stats.failed, outcome.failed as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.deadline_missed, 0);
}
