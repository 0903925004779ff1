//! `serve_lenet5`: an open-loop Poisson stream at a fixed rate against
//! `InferenceServer` running the LeNet-5 8-bit plan with confidence-based
//! early exit, on a mixed-difficulty pool (the clean test set plus its
//! severity-3 corruption shifts).
//!
//! The benchmark drives `submit` from its own generator and times each
//! request from when it was **due**, so a stalled generator's wait counts
//! against the requests it delayed; the generator's lateness is reported
//! beside it. The collector thread blocks on `wait_at`, so the box runs one
//! compute thread (the server's single worker) plus the generator. The
//! offered rate is a constant, never derived from a timing taken at run
//! time. Latency is reported raw: it is mostly batching wait and queueing,
//! which do not scale with host speed.

use crate::gen::{permutation, poisson_schedule, Rng};
use crate::probe::Probe;
use crate::report::{metric, peak_rss_mb, RunResult};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use bnn_bayes::Evaluation;
use bnn_data::{Corruption, DatasetSpec, SyntheticConfig};
use bnn_models::{zoo, ExitPolicy, ModelConfig};
use bnn_nn::optimizer::Sgd;
use bnn_nn::trainer::{train, LabelledBatchSource, TrainConfig};
use bnn_quant::{CalibratedNetwork, FixedPointFormat, QuantPlan};
use bnn_serve::{InferenceServer, QuantEngine, Reply, ResponseHandle, ServeError, ServerConfig};
use bnn_tensor::exec::Executor;
use bnn_tensor::Tensor;
use std::error::Error;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests/s. Batches of `MAX_BATCH` take longer than
/// `MAX_DELAY` to fill at this rate, so most fire on the deadline with about
/// four requests. 15k requests/s, half the worker's capacity on an idle
/// 2-vCPU host, saturated it whenever the host ran at half speed (p50 from
/// 0.5 to 3 ms across runs), where 8k stayed within 0.61–0.74 ms.
pub const RATE: f64 = 8_000.0;
/// Server worker threads.
pub const WORKERS: usize = 1;
/// Largest batch the server assembles.
pub const MAX_BATCH: usize = 8;
/// Longest a batch waits to fill.
pub const MAX_DELAY: Duration = Duration::from_micros(500);
/// MC samples per request.
pub const MC_SAMPLES: usize = 8;
/// Seed of every request's MC-dropout masks.
pub const MC_SEED: u64 = 2023;
/// Seed of the dataset and of the model's weights.
const MODEL_SEED: u64 = 7;
/// Training and held-out sizes of the set-up model.
const TRAIN_SAMPLES: usize = 512;
const TEST_SAMPLES: usize = 64;
/// Corruption severity of the shifted part of the pool.
const SHIFT_SEVERITY: usize = 3;
/// Requests served back to back after the server starts, before timing.
const WARMUP_REQUESTS: usize = 256;
/// Replies checked bit for bit against direct plan calls.
const CHECKED_REPLIES: usize = 64;
/// One request in this many is recorded as spans in a traced run.
const TRACE_EVERY: usize = 16;
/// Calls timed for `quant.adaptive_batch_us`.
const KERNEL_REPS: usize = 200;

/// The set-up state.
struct Served {
    server: InferenceServer,
    plan: QuantPlan,
    policy: ExitPolicy,
    pool: Vec<Vec<f32>>,
    labels: Vec<usize>,
}

fn server_config(policy: ExitPolicy) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_batch: MAX_BATCH,
        max_delay: MAX_DELAY,
        mc_samples: MC_SAMPLES,
        seed: MC_SEED,
        policy,
        ..ServerConfig::default()
    }
}

/// Data generation, training, calibration, plan compile, threshold choice,
/// server start and warm-up.
fn setup() -> Result<Served, Box<dyn Error>> {
    let spec = zoo::lenet5(
        &ModelConfig::mnist()
            .with_resolution(12, 12)
            .with_width_divisor(4),
    )
    .with_exits_after_every_block()?
    .with_exit_mcd(0.25)?;
    let mut net = spec.build(MODEL_SEED)?;
    let data = SyntheticConfig::new(DatasetSpec::new("mnist-12", 1, 12, 12, 10))
        .with_samples(TRAIN_SAMPLES, TEST_SAMPLES)
        .generate(MODEL_SEED)?;
    let source =
        LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())?;
    let mut sgd = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(5e-4);
    let train_cfg = TrainConfig {
        epochs: 6,
        batch_size: 32,
        distillation_weight: 0.5,
        temperature: 2.0,
        seed: MODEL_SEED,
        shuffle: true,
    };
    train(&mut net, &source, &mut sgd, &train_cfg)?;
    let calibrated = CalibratedNetwork::calibrate(&net, &data.train.take(32)?.inputs().clone())?;
    let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
    plan.set_executor(Executor::sequential());

    let per: usize = plan.in_dims().iter().product();
    let mut pool: Vec<Vec<f32>> = Vec::new();
    let mut labels = Vec::new();
    let mut add = |d: &bnn_data::Dataset| {
        pool.extend(d.inputs().as_slice().chunks_exact(per).map(<[f32]>::to_vec));
        labels.extend_from_slice(d.labels());
    };
    add(&data.test);
    for (i, corruption) in Corruption::severity_ladder(SHIFT_SEVERITY)
        .iter()
        .enumerate()
    {
        add(&corruption.apply(&data.test, 100 + i as u64)?);
    }

    // Threshold at the pool's median first-exit confidence, so about half
    // the requests retire early: threshold 0 retires every sample at exit 0
    // and returns exactly the ensembles the policy will score.
    let mut dims = vec![pool.len()];
    dims.extend_from_slice(plan.in_dims());
    let all = Tensor::from_vec(pool.concat(), &dims)?;
    let first = plan.predict_adaptive_batch(
        &all,
        MC_SAMPLES,
        MC_SEED,
        &ExitPolicy::Confidence { threshold: 0.0 },
    )?;
    let confidences: Vec<f64> = first
        .probs
        .as_slice()
        .chunks_exact(first.stats.classes)
        .map(|row| f64::from(row.iter().copied().fold(f32::NEG_INFINITY, f32::max)))
        .collect();
    let threshold = median(&confidences).ok_or("empty pool")?.clamp(0.0, 1.0);
    let policy = ExitPolicy::Confidence { threshold };

    let server = InferenceServer::start(
        Box::new(QuantEngine::new(plan.clone())),
        server_config(policy),
    )?;
    let warm: Vec<ResponseHandle> = (0..WARMUP_REQUESTS)
        .map(|i| server.submit(&pool[i % pool.len()]))
        .collect::<Result<_, _>>()?;
    for h in warm {
        h.wait()?;
    }
    Ok(Served {
        server,
        plan,
        policy,
        pool,
        labels,
    })
}

/// What the generator and collector stamp for one request.
struct Stamp {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    /// The reply and its delivery instant, or why there is none. `None`
    /// until the collector has it.
    outcome: Option<Result<(Reply, Instant), ServeError>>,
}

impl Stamp {
    fn delivered(&self) -> Option<(&Reply, Instant)> {
        match &self.outcome {
            Some(Ok((reply, at))) => Some((reply, *at)),
            _ => None,
        }
    }
}

/// Drives the schedule: the calling thread submits each request at its due
/// time, a collector thread blocks on each handle's `wait_at`.
fn drive(s: &Served, due: &[Duration], order: &[usize]) -> (Instant, Vec<Stamp>) {
    let (tx, rx) = mpsc::channel::<(usize, ResponseHandle)>();
    let start = Instant::now() + Duration::from_millis(1);
    let mut stamps: Vec<Stamp> = Vec::with_capacity(due.len());
    let delivered = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut got = Vec::with_capacity(due.len());
            for (i, handle) in rx {
                let (result, at) = handle.wait_at();
                got.push((i, result.map(|reply| (reply, at))));
            }
            got
        });
        for (i, offset) in due.iter().enumerate() {
            let at = start + *offset;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let submit_start = Instant::now();
            let submitted = s.server.submit(&s.pool[order[i % order.len()]]);
            let submit_end = Instant::now();
            let outcome = match submitted {
                Ok(handle) => {
                    // The collector lives until `tx` drops below.
                    let _ = tx.send((i, handle));
                    None
                }
                Err(e) => Some(Err(e)),
            };
            stamps.push(Stamp {
                due: at,
                submit_start,
                submit_end,
                outcome,
            });
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    for (i, result) in delivered {
        stamps[i].outcome = Some(result);
    }
    (start, stamps)
}

fn us_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// The output checks: a request fails unless its reply is a finite
/// probability distribution, and a seeded subset of replies must be
/// bit-exact (probabilities and exit taken) with direct single-sample
/// `predict_adaptive_batch` calls at the server's samples, seed and policy.
/// Returns the number of failed requests.
fn check(
    s: &mut Served,
    stamps: &[Stamp],
    order: &[usize],
    seed: u64,
) -> Result<u64, Box<dyn Error>> {
    let mut bad: Vec<bool> = stamps
        .iter()
        .map(|st| match st.delivered() {
            Some((r, _)) => {
                let sum: f32 = r.probs.iter().sum();
                !(r.probs.iter().all(|p| p.is_finite()) && (sum - 1.0).abs() < 1e-3)
            }
            None => true,
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x5EED_C0DE);
    let mut dims = vec![1];
    dims.extend_from_slice(s.plan.in_dims());
    for _ in 0..CHECKED_REPLIES.min(stamps.len()) {
        let i = rng.below(stamps.len());
        if let Some((reply, _)) = stamps[i].delivered() {
            let sample = Tensor::from_vec(s.pool[order[i % order.len()]].clone(), &dims)?;
            let direct = s
                .plan
                .predict_adaptive_batch(&sample, MC_SAMPLES, MC_SEED, &s.policy)?;
            let same_bits = reply.probs.len() == direct.probs.len()
                && reply
                    .probs
                    .iter()
                    .zip(direct.probs.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same_bits || reply.exit_taken != direct.exit_taken[0] {
                bad[i] = true;
            }
        }
    }
    Ok(bad.iter().filter(|&&b| b).count() as u64)
}

/// Runs the workload: `setup_repeats` set-ups, then the stream for
/// `seconds`.
pub fn run(
    seed: u64,
    seconds: f64,
    setup_repeats: usize,
    tracer: &mut Tracer,
    probe: &mut Probe,
) -> Result<RunResult, Box<dyn Error>> {
    let (mut s, setups, setups_raw) = probe.repeat(setup_repeats, setup)?;
    let before = s.server.stats();

    let due = poisson_schedule(seed, RATE, Duration::from_secs_f64(seconds));
    let order = permutation(s.pool.len(), seed);
    let (start, stamps) = drive(&s, &due, &order);
    let after = s.server.stats();
    probe.sample(50);

    let mut result = RunResult {
        attempted: stamps.len() as u64,
        failed: check(&mut s, &stamps, &order, seed)?,
        ..RunResult::default()
    };
    let mut latencies = Vec::with_capacity(stamps.len());
    let mut probs = Vec::new();
    let mut labels = Vec::new();
    let mut last = start;
    for (i, st) in stamps.iter().enumerate() {
        if let Some((reply, at)) = st.delivered() {
            latencies.push(us_between(st.due, at) / 1e3);
            probs.extend_from_slice(&reply.probs);
            labels.push(s.labels[order[i % order.len()]]);
            last = last.max(at);
        }
    }
    let delivered = labels.len();
    let eval = Evaluation::from_probs(
        &Tensor::from_vec(probs, &[delivered, s.plan.num_classes()])?,
        &labels,
        10,
    )?;
    let lateness: Vec<f64> = stamps
        .iter()
        .map(|st| us_between(st.due, st.submit_start))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p50 = nearest_rank(&latencies, 50.0).ok_or("no request was delivered")?;
    let p99 = nearest_rank(&latencies, 99.0).ok_or("no request was delivered")?;
    let late_p50 = median(&lateness).unwrap_or(0.0);
    let late_max_ms = lateness.iter().copied().fold(0.0, f64::max) / 1e3;

    result.end_to_end = vec![
        metric("setup_s", median(&setups).expect("set-up ran"), "s"),
        metric("latency_p50_ms", p50, "ms"),
        metric(
            "throughput_per_s",
            delivered as f64 / last.saturating_duration_since(start).as_secs_f64(),
            "1/s",
        ),
        metric("ok_frac", result.ok_frac(), "ratio"),
        metric("accuracy", eval.accuracy, "ratio"),
        metric("ece", eval.ece, "ratio"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    result.record.extend([
        ("requests", stamps.len().to_string()),
        (
            "raw_setup_s",
            format!("{:?}", median(&setups_raw).unwrap_or(0.0)),
        ),
        ("latency_p99_ms", format!("{p99:?}")),
        ("gen_lateness_p50_us", format!("{late_p50:?}")),
        ("gen_lateness_max_ms", format!("{late_max_ms:?}")),
        (
            "threshold",
            format!("{:?}", s.policy.threshold().unwrap_or(0.0)),
        ),
    ]);
    s.server.shutdown();

    if tracer.enabled() {
        for (i, st) in stamps.iter().enumerate().step_by(TRACE_EVERY) {
            let end = st.delivered().map_or(st.submit_end, |(_, at)| at);
            let id = Some(i as u64);
            let parent = tracer.record("serve.request", st.due, end, None, id);
            tracer.record("gen.late", st.due, st.submit_start, parent, id);
            tracer.record("serve.submit", st.submit_start, st.submit_end, parent, id);
        }
        let submit_us: Vec<f64> = stamps
            .iter()
            .map(|st| us_between(st.submit_start, st.submit_end))
            .collect();
        let batches = after.batches - before.batches;
        let completed = after.completed - before.completed;
        let mean_batch = completed as f64 / batches.max(1) as f64;
        let exit0 = after.exit_counts.first().copied().unwrap_or(0)
            - before.exit_counts.first().copied().unwrap_or(0);
        let ops_saved = 1.0
            - (after.ops_executed - before.ops_executed) as f64
                / (after.ops_fixed - before.ops_fixed).max(1) as f64;
        let count = |now: u64, then: u64| (now - then) as f64;
        result.per_layer.extend([
            metric("gen.lateness_p50_us", late_p50, "us"),
            metric("gen.lateness_max_ms", late_max_ms, "ms"),
            metric("serve.submit_us", median(&submit_us).unwrap_or(0.0), "us"),
            metric(
                "serve.server_p50_us",
                median(&tracer.self_times_ms("serve.request")).unwrap_or(0.0) * 1e3,
                "us",
            ),
            metric("serve.batch_mean", mean_batch, "count"),
            metric("serve.batches", batches as f64, "count"),
            metric(
                "serve.exit0_frac",
                exit0 as f64 / completed.max(1) as f64,
                "ratio",
            ),
            metric("serve.ops_saved_frac", ops_saved, "ratio"),
            metric(
                "serve.rejected",
                count(after.rejected, before.rejected),
                "count",
            ),
            metric("serve.failed", count(after.failed, before.failed), "count"),
            metric(
                "serve.deadline_missed",
                count(after.deadline_missed, before.deadline_missed),
                "count",
            ),
            metric("serve.latency_p99_ms", p99, "ms"),
        ]);
        // The service share of latency: the adaptive path on the set-up's
        // plan at the observed mean batch.
        let b = (mean_batch.round() as usize).clamp(1, MAX_BATCH);
        let mut dims = vec![b];
        dims.extend_from_slice(s.plan.in_dims());
        let inputs: Vec<f32> = order[..b].iter().flat_map(|&i| s.pool[i].clone()).collect();
        let inputs = Tensor::from_vec(inputs, &dims)?;
        s.plan.ensure_batch(b);
        let (mut out, mut exits) = (Vec::new(), Vec::new());
        for _ in 0..KERNEL_REPS {
            tracer.begin("quant.adaptive_batch");
            s.plan.predict_adaptive_batch_into(
                &inputs, MC_SAMPLES, MC_SEED, &s.policy, &mut out, &mut exits,
            )?;
            tracer.end();
        }
        result.per_layer.push(metric(
            "quant.adaptive_batch_us",
            median(&tracer.durations_ms("quant.adaptive_batch")).unwrap_or(0.0) * 1e3,
            "us",
        ));
    }
    Ok(result)
}
