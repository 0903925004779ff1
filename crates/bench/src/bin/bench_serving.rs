//! The serving replay harness behind `make bench-serving`: drives seeded
//! open-loop synthetic load against the dynamic-batching server on the
//! LeNet-5 8-bit integer plan and records requests/sec, p50/p99 latency,
//! mean batch occupancy and — for adaptive early-exit configs — the
//! per-exit retirement mix and integer-ops saved into `BENCH_serving.json`.
//!
//! ```text
//! cargo run --release -p bnn-bench --bin bench_serving -- BENCH_serving.json
//! ```
//!
//! Five configs are measured: fixed-depth latency-biased (small batches,
//! short deadline), fixed-depth throughput-biased (large batches, long
//! deadline), two adaptive configs (confidence- and entropy-threshold early
//! exit) on the throughput-biased batching so the only difference is the
//! policy — all on identical request streams — plus an `overload_degraded`
//! config driven at ~7x the others' offered rate with a bounded queue,
//! per-request deadlines and a two-step degradation ladder, recording how
//! much traffic was shed, missed its deadline, or was served degraded
//! (per-tier mix) while the server rode out the overload. The
//! request pool is **mixed-difficulty**: the clean synthetic test set plus
//! its severity-3 corruption shifts (`bnn-data`), and the thresholds are
//! calibrated to the pool's median first-exit score, so about half the
//! requests retire at the first exit and the rest ride to full depth — a
//! guaranteed mixed retirement pattern whose integer-op savings the report
//! records.
//!
//! The offered rate is sized from a quick single-sample service-time
//! estimate, so the comparison stays in the regime where the batching
//! policy matters (neither idle nor saturated). Response contents are
//! deterministic (batch-boundary-invariant engines, fixed seeds); the
//! recorded latencies are wall-clock measurements.

use bnn_bench::save::{json_str, render_report};
use bnn_data::{Corruption, Dataset, DatasetSpec, SyntheticConfig};
use bnn_models::{zoo, ExitPolicy, ModelConfig};
use bnn_quant::{CalibratedNetwork, FixedPointFormat, QuantPlan};
use bnn_serve::replay::{replay, replay_under_faults, ReplayConfig, ReplayReport};
use bnn_serve::{
    BatchEngine, DegradeConfig, InferenceServer, QuantEngine, ServeStats, ServerConfig,
};
use bnn_tensor::exec::Executor;
use bnn_tensor::Tensor;
use std::time::{Duration, Instant};

/// MC samples per prediction (matches the kernels bench).
const MC_SAMPLES: usize = 8;
/// Master seed every request is evaluated under.
const MC_SEED: u64 = 2023;
/// Requests per batching config.
const REQUESTS: usize = 1200;
/// Corruption severity of the shifted half of the request pool.
const SHIFT_SEVERITY: usize = 3;

/// Duration in nanoseconds, for JSON.
fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// The single-sample request pool the replay cycles through.
type RequestPool = Vec<Vec<f32>>;

/// The LeNet-5 plan of the kernels bench — MNIST-like at 12x12, width/4,
/// exits after every block with MC-dropout 0.25, quantized at 8 bits —
/// plus the mixed-difficulty request pool: the clean test set followed by
/// its severity-ladder corruption shifts.
fn build_plan() -> Result<(QuantPlan, RequestPool), Box<dyn std::error::Error>> {
    let spec = zoo::lenet5(
        &ModelConfig::mnist()
            .with_resolution(12, 12)
            .with_width_divisor(4),
    )
    .with_exits_after_every_block()?
    .with_exit_mcd(0.25)?;
    let net = spec.build(7)?;
    let data = SyntheticConfig::new(DatasetSpec::new("mnist-12", 1, 12, 12, 10))
        .with_samples(16, 64)
        .generate(3)?;
    let calibrated = CalibratedNetwork::calibrate(&net, data.train.inputs())?;
    let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
    // Workers run strictly allocation-free on their own thread each.
    plan.set_executor(Executor::sequential());

    let per: usize = plan.in_dims().iter().product();
    let as_rows = |d: &Dataset| -> Vec<Vec<f32>> {
        d.inputs()
            .as_slice()
            .chunks_exact(per)
            .map(|c| c.to_vec())
            .collect()
    };
    let mut pool: RequestPool = as_rows(&data.test);
    for (i, corruption) in Corruption::severity_ladder(SHIFT_SEVERITY)
        .iter()
        .enumerate()
    {
        let shifted = corruption.apply(&data.test, 100 + i as u64)?;
        pool.extend(as_rows(&shifted));
    }
    Ok((plan, pool))
}

/// Median of an unsorted sequence of finite scores.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Calibrates the confidence and entropy thresholds to the pool's median
/// first-exit ensemble score: by construction about half the mixed pool
/// retires at exit 0 under either policy, so the adaptive configs always
/// measure a genuinely mixed depth distribution.
fn calibrate_thresholds(
    plan: &mut QuantPlan,
    pool: &[Vec<f32>],
) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let n = pool.len().min(256);
    let mut flat = Vec::with_capacity(n * pool[0].len());
    for row in &pool[..n] {
        flat.extend_from_slice(row);
    }
    let inputs = Tensor::from_vec(flat, &[n, 1, 12, 12])?;
    // Threshold 0 retires everything at exit 0, so the returned rows are
    // exactly the first-exit MC ensembles the serving policies will score.
    let first_exit = plan.predict_adaptive_batch(
        &inputs,
        MC_SAMPLES,
        MC_SEED,
        &ExitPolicy::Confidence { threshold: 0.0 },
    )?;
    let classes = first_exit.stats.classes;
    let rows = first_exit.probs.as_slice();
    let mut confidences = Vec::with_capacity(n);
    let mut entropies = Vec::with_capacity(n);
    for row in rows.chunks_exact(classes) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        confidences.push(f64::from(max));
        let mut entropy = 0.0f32;
        for &p in row {
            if p > 1e-12 {
                entropy -= p * p.ln();
            }
        }
        entropies.push(f64::from(entropy / (classes as f32).ln()));
    }
    Ok((
        median(confidences).clamp(0.0, 1.0),
        median(entropies).clamp(0.0, 1.0),
    ))
}

/// One JSON entry of the report. `delivered`/`failed` come from the replay
/// outcome (the report's latency percentiles cover delivered requests
/// only); shed, deadline-miss, crash/respawn and quality-tier columns come
/// from the server's own counters so the happy-path configs record zeros
/// for them.
#[allow(clippy::too_many_arguments)]
fn entry_json(
    id: &str,
    config: &ServerConfig,
    r: &ReplayReport,
    stats: &ServeStats,
    offered_rps: f64,
    requests: usize,
    delivered: usize,
    failed: usize,
) -> String {
    let ops_per_request = stats.ops_executed as f64 / stats.completed.max(1) as f64;
    let fixed_per_request = stats.ops_fixed as f64 / stats.completed.max(1) as f64;
    let exit_fractions = stats
        .exit_fractions()
        .iter()
        .map(|f| format!("{f:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    let tier_total = stats.tier_counts.iter().sum::<u64>().max(1) as f64;
    let tier_fractions = stats
        .tier_counts
        .iter()
        .map(|&c| format!("{:.4}", c as f64 / tier_total))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"id\": \"{id}\", \"requests\": {requests}, \"offered_rps\": {offered_rps:.1}, \
         \"throughput_rps\": {:.1}, \"mean_ns\": {:.1}, \"p50_ns\": {:.1}, \
         \"p99_ns\": {:.1}, \"mean_batch_occupancy\": {:.3}, \
         \"max_batch_seen\": {}, \"max_batch\": {}, \"max_delay_us\": {}, \
         \"workers\": {}, \"policy\": \"{}\", \"threshold\": {}, \
         \"exit_fractions\": [{exit_fractions}], \
         \"ops_per_request\": {ops_per_request:.1}, \
         \"ops_fixed_per_request\": {fixed_per_request:.1}, \
         \"ops_saved_fraction\": {:.4}, \
         \"delivered\": {delivered}, \"failed\": {failed}, \"shed\": {}, \
         \"deadline_missed\": {}, \"crashes\": {}, \"respawns\": {}, \
         \"tier_fractions\": [{tier_fractions}], \
         \"degraded_fraction\": {:.4}}}",
        r.throughput_rps,
        ns(r.mean_latency),
        ns(r.p50_latency),
        ns(r.p99_latency),
        stats.mean_occupancy(),
        stats.max_batch_seen,
        config.max_batch,
        config.max_delay.as_micros(),
        config.workers,
        config.policy.name(),
        config
            .policy
            .threshold()
            .map_or("null".into(), |t| format!("{t:.6}")),
        stats.ops_saved_fraction(),
        stats.rejected,
        stats.deadline_missed,
        stats.crashes,
        stats.respawns,
        stats.degraded_fraction(),
    )
}

/// Mean single-sample service time of the engine (warm arena).
fn estimate_service_time(engine: &QuantEngine, pool: &[Vec<f32>]) -> Duration {
    let mut engine = engine.clone();
    engine.ensure_batch(1);
    let per = pool[0].len();
    let (mut out, mut exits) = (Vec::new(), Vec::new());
    let reps = 32usize;
    // Warm-up pass, then the timed passes.
    for phase in 0..2 {
        let start = Instant::now();
        for i in 0..reps {
            let t = bnn_tensor::Tensor::from_vec(pool[i % pool.len()].clone(), &[1, 1, 12, 12])
                .expect("pool samples are well-formed");
            assert_eq!(t.len(), per);
            engine
                .predict_adaptive_batch_into(
                    &t,
                    MC_SAMPLES,
                    MC_SEED,
                    &ExitPolicy::Never,
                    &mut out,
                    &mut exits,
                )
                .expect("estimate predict");
        }
        if phase == 1 {
            return start.elapsed() / reps as u32;
        }
    }
    unreachable!()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serving.json".into());
    let (mut plan, pool) = build_plan()?;
    let (conf_threshold, ent_threshold) = calibrate_thresholds(&mut plan, &pool)?;
    eprintln!(
        "bench_serving: calibrated thresholds: confidence {conf_threshold:.4}, \
         entropy {ent_threshold:.4}"
    );
    let prototype = QuantEngine::new(plan);

    let workers = Executor::global().threads().clamp(1, 4);
    let service = estimate_service_time(&prototype, &pool);
    // Offer ~40% of the pool's aggregate single-sample capacity: enough load
    // that the batcher actually batches, below the open-loop saturation
    // point where every queue grows without bound (the driver and collector
    // threads share cores with the workers, so headroom matters).
    let rate = 0.4 * workers as f64 / service.as_secs_f64().max(1e-9);
    eprintln!(
        "bench_serving: {workers} workers, single-sample service {:.1} us, offering {:.0} rps",
        service.as_secs_f64() * 1e6,
        rate
    );

    let throughput_batching = ServerConfig {
        workers,
        max_batch: 32,
        max_delay: Duration::from_millis(2),
        mc_samples: MC_SAMPLES,
        seed: MC_SEED,
        policy: ExitPolicy::Never,
        ..ServerConfig::default()
    };
    let configs = [
        (
            "latency_biased",
            ServerConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(200),
                ..throughput_batching.clone()
            },
        ),
        ("throughput_biased", throughput_batching.clone()),
        (
            "adaptive_confidence",
            throughput_batching
                .clone()
                .with_policy(ExitPolicy::Confidence {
                    threshold: conf_threshold,
                }),
        ),
        (
            "adaptive_entropy",
            throughput_batching
                .clone()
                .with_policy(ExitPolicy::Entropy {
                    threshold: ent_threshold,
                }),
        ),
    ];

    let mut entries = Vec::new();
    for (id, config) in configs {
        let server = InferenceServer::start(Box::new(prototype.clone()), config.clone())?;
        let outcome = replay(
            &server,
            &pool,
            &ReplayConfig {
                requests: REQUESTS,
                rate_per_sec: rate,
                seed: 7,
            },
        )?;
        let stats = server.shutdown();
        let r = &outcome.report;
        eprintln!(
            "bench_serving: {id}: {:.0} rps, p50 {:.1} us, p99 {:.1} us, occupancy {:.2}, \
             ops saved {:.1}%",
            r.throughput_rps,
            r.p50_latency.as_secs_f64() * 1e6,
            r.p99_latency.as_secs_f64() * 1e6,
            stats.mean_occupancy(),
            100.0 * stats.ops_saved_fraction(),
        );
        entries.push(entry_json(
            id, &config, r, &stats, rate, REQUESTS, REQUESTS, 0,
        ));
    }

    // Overload config: ~7x the offered rate of the other configs against a
    // bounded queue, per-request deadlines and a two-step quality ladder
    // (half the MC samples, then quarter samples with aggressive early
    // exit). Measures graceful degradation: how much traffic is shed or
    // expires versus served degraded, instead of the queue growing without
    // bound.
    let overload_rate = 3.0 * workers as f64 / service.as_secs_f64().max(1e-9);
    let overload = throughput_batching
        .clone()
        .with_queue_limit(256)
        .with_deadline(Duration::from_millis(2))
        .with_degrade(
            DegradeConfig::new(64, 8)
                .with_step(MC_SAMPLES / 2, ExitPolicy::Never)
                .with_step(
                    (MC_SAMPLES / 4).max(1),
                    ExitPolicy::Confidence {
                        threshold: conf_threshold,
                    },
                ),
        );
    let server = InferenceServer::start(Box::new(prototype.clone()), overload.clone())?;
    let outcome = replay_under_faults(
        &server,
        &pool,
        &ReplayConfig {
            requests: REQUESTS,
            rate_per_sec: overload_rate,
            seed: 7,
        },
        Duration::from_secs(30),
    )?;
    let stats = server.shutdown();
    eprintln!(
        "bench_serving: overload_degraded: offered {overload_rate:.0} rps, delivered {}, \
         shed {}, deadline missed {}, degraded {:.1}%, tiers {:?}",
        outcome.delivered,
        stats.rejected,
        stats.deadline_missed,
        100.0 * stats.degraded_fraction(),
        stats.tier_counts,
    );
    entries.push(entry_json(
        "overload_degraded",
        &overload,
        &outcome.report,
        &stats,
        overload_rate,
        REQUESTS,
        outcome.delivered,
        outcome.failed,
    ));

    let json = render_report(
        &[
            ("generated_by", json_str("make bench-serving")),
            (
                "backend",
                json_str(bnn_tensor::simd::active_backend().name()),
            ),
            ("threads", workers.to_string()),
            ("model", json_str("lenet5-mnist-12x12-div4-2exit-mcd0.25")),
            ("format", json_str("8.3")),
            ("mc_samples", MC_SAMPLES.to_string()),
            ("pool", json_str("clean + severity-3 corruption shifts")),
            ("single_sample_service_ns", format!("{:.1}", ns(service))),
        ],
        "entries",
        &entries,
    );
    std::fs::write(&target, json)?;
    eprintln!(
        "bench_serving: wrote {} config(s) to {target}",
        entries.len()
    );
    Ok(())
}
