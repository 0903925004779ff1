//! `offline_resnet18`: batch scoring of a held-out set through the 8-bit
//! `QuantPlan` of a ResNet-18 multi-exit MC-dropout model trained in set-up.
//!
//! Read-only integer inference at batch 32 and 8 MC samples, with no queue
//! and no training: `quant` and `tensor` do nearly all the work, so kernel
//! and plan changes show here. A host probe slice runs between calls on the
//! same thread, and latency and throughput are reported scaled to the
//! nominal host (see [`crate::probe`]), the raw figures beside them.

use crate::gen::{permutation, Rng};
use crate::probe::{normalise_time, Probe};
use crate::report::{json_str, metric, peak_rss_mb, raw_record, RunResult};
use crate::stats::median;
use crate::trace::{ms, Tracer};
use bnn_bayes::Evaluation;
use bnn_core::ModelVariant;
use bnn_data::{DatasetSpec, SyntheticConfig};
use bnn_models::zoo::Architecture;
use bnn_models::ModelConfig;
use bnn_nn::optimizer::Sgd;
use bnn_nn::trainer::{train, LabelledBatchSource, TrainConfig};
use bnn_quant::{CalibratedNetwork, FixedPointFormat, QuantPlan, ScheduleOp};
use bnn_tensor::exec::Executor;
use bnn_tensor::int::{im2row_i16_into, matmul_wide_i32_into, requantize_i32_row_into};
use bnn_tensor::linalg::ConvGeometry;
use bnn_tensor::Tensor;
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

/// Samples per scoring call.
pub const BATCH: usize = 32;
/// MC samples per prediction.
pub const MC_SAMPLES: usize = 8;
/// Seed of every call's MC-dropout masks.
pub const MC_SEED: u64 = 2023;
/// Held-out samples scored (a whole number of batches).
const TEST_SAMPLES: usize = 256;
/// Training samples of the set-up model.
const TRAIN_SAMPLES: usize = 192;
/// Training epochs of the set-up model.
const EPOCHS: usize = 3;
/// Seed of the synthetic dataset and of the model's weights.
const MODEL_SEED: u64 = 11;
/// Calibration batch (phase 3's size).
const CALIB_SAMPLES: usize = 32;
/// Kernel calls timed per kernel in the traced run.
const KERNEL_REPS: usize = 25;

/// The set-up state: the compiled plan, the held-out batches in seeded
/// order, the checksum of each batch's output and the set's quality.
struct Scorer {
    plan: QuantPlan,
    batches: Vec<Tensor>,
    checksums: Vec<u64>,
    accuracy: f64,
    ece: f64,
}

/// FNV-1a over the output's bit patterns.
fn checksum(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Data generation, training, calibration, plan compile and a warm-up pass
/// over every batch that records the reference checksums.
fn setup(seed: u64) -> Result<Scorer, Box<dyn Error>> {
    let model = ModelConfig::cifar10()
        .with_resolution(12, 12)
        .with_width_divisor(16);
    let data = SyntheticConfig::new(DatasetSpec::cifar10_like().with_resolution(12, 12))
        .with_samples(TRAIN_SAMPLES, TEST_SAMPLES)
        .with_noise(0.45)
        .with_label_noise(0.08)
        .generate(MODEL_SEED)?;
    let spec = ModelVariant::McdMultiExit.build_spec(&Architecture::ResNet18.spec(&model), 0.25)?;
    let mut net = spec.build(MODEL_SEED)?;
    let source =
        LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())?;
    let mut sgd = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(5e-4);
    let train_cfg = TrainConfig {
        epochs: EPOCHS,
        batch_size: 32,
        distillation_weight: 0.5,
        temperature: 2.0,
        seed: MODEL_SEED,
        shuffle: true,
    };
    train(&mut net, &source, &mut sgd, &train_cfg)?;
    let calib = data.train.take(CALIB_SAMPLES)?.inputs().clone();
    let calibrated = CalibratedNetwork::calibrate(&net, &calib)?;
    let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
    plan.set_executor(Executor::sequential());
    plan.ensure_batch(BATCH);

    // The seed decides which held-out samples share a batch, and in which
    // order batches are scored.
    let order = permutation(data.test.len(), seed);
    let mut batches = Vec::new();
    let mut labels = Vec::with_capacity(order.len());
    for chunk in order.chunks_exact(BATCH) {
        let (inputs, l) = data.test.gather(chunk)?;
        batches.push(inputs);
        labels.extend(l);
    }
    let mut out = Vec::new();
    let mut checksums = Vec::with_capacity(batches.len());
    let mut probs = Vec::with_capacity(labels.len() * plan.num_classes());
    for inputs in &batches {
        plan.predict_probs_batch_into(inputs, MC_SAMPLES, MC_SEED, &mut out)?;
        checksums.push(checksum(&out));
        probs.extend_from_slice(&out);
    }
    let probs = Tensor::from_vec(probs, &[labels.len(), plan.num_classes()])?;
    let eval = Evaluation::from_probs(&probs, &labels, 10)?;
    Ok(Scorer {
        plan,
        batches,
        checksums,
        accuracy: eval.accuracy,
        ece: eval.ece,
    })
}

/// Runs the workload: `setup_repeats` set-ups, then scoring calls for
/// `seconds`, each followed by a probe slice.
pub fn run(
    seed: u64,
    seconds: f64,
    setup_repeats: usize,
    tracer: &mut Tracer,
    probe: &mut Probe,
) -> Result<RunResult, Box<dyn Error>> {
    let (mut s, setups, setups_raw) = probe.repeat(setup_repeats, || setup(seed))?;

    let mut result = RunResult::default();
    let mut out = Vec::new();
    let mut calls_ms = Vec::new();
    let mut probes_ms = vec![probe.run_ms()];
    let started = Instant::now();
    tracer.begin("offline.timed");
    let mut i = 0usize;
    while calls_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let b = i % s.batches.len();
        tracer.begin("quant.predict_batch");
        let t = Instant::now();
        let ok = s
            .plan
            .predict_probs_batch_into(&s.batches[b], MC_SAMPLES, MC_SEED, &mut out)
            .is_ok();
        calls_ms.push(ms(t.elapsed()));
        tracer.end();
        probes_ms.push(probe.run_ms());
        result.attempted += 1;
        if !ok || checksum(&out) != s.checksums[b] {
            result.failed += 1;
        }
        i += 1;
    }
    tracer.end();

    // Each call is scaled by the mean of the probe slices either side of it.
    let normalised: Vec<f64> = calls_ms
        .iter()
        .enumerate()
        .map(|(i, &c)| normalise_time(c, 0.5 * (probes_ms[i] + probes_ms[i + 1])))
        .collect();
    let samples = (calls_ms.len() * BATCH) as f64;
    let norm_rate = samples / (normalised.iter().sum::<f64>() / 1e3);
    result.end_to_end = vec![
        metric("setup_s", median(&setups).expect("set-up ran"), "s"),
        metric(
            "latency_p50_ms",
            median(&normalised).expect("calls ran"),
            "ms",
        ),
        metric("throughput_per_s", norm_rate, "1/s"),
        metric("ok_frac", result.ok_frac(), "ratio"),
        metric("accuracy", s.accuracy, "ratio"),
        metric("ece", s.ece, "ratio"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    result
        .record
        .extend(raw_record(&setups_raw, &calls_ms, BATCH));
    if tracer.enabled() {
        result.per_layer.push(metric(
            "quant.predict_batch_ms",
            median(&tracer.durations_ms("quant.predict_batch")).unwrap_or(0.0),
            "ms",
        ));
        kernel_layers(&s.plan, seed, tracer, &mut result)?;
    }
    Ok(result)
}

/// Times the integer kernels at the shapes of the plan's largest conv step
/// (by MACs) for one batch, and reports the plan's static per-sample work.
fn kernel_layers(
    plan: &QuantPlan,
    seed: u64,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), Box<dyn Error>> {
    let schedule = plan.schedule();
    let step = schedule
        .steps()
        .filter(|s| matches!(s.op, ScheduleOp::Conv { .. }))
        .max_by_key(|s| s.unit_ops)
        .ok_or("plan has no conv step")?;
    let ScheduleOp::Conv {
        weights,
        bias,
        out_c,
        in_c,
        kernel,
        stride,
        padding,
        shift,
        out,
        ..
    } = &step.op
    else {
        unreachable!("filtered to conv steps");
    };
    let (h, w) = (step.in_dims[1], step.in_dims[2]);
    let geom = ConvGeometry::square(h, w, *kernel, *stride, *padding);
    let mut rng = Rng::new(seed);
    let input: Vec<i16> = (0..BATCH * in_c * h * w)
        .map(|_| rng.below(256) as i16 - 128)
        .collect();
    let mut cols_buf = Vec::new();
    let (rows, cols) = im2row_i16_into(&input, BATCH, *in_c, &geom, &mut cols_buf)?;
    let mut acc = vec![0i32; out_c * cols];
    let mut codes = vec![0i16; out_c * cols];
    let exec = Executor::sequential();
    for _ in 0..KERNEL_REPS {
        tracer.begin("tensor.im2row");
        im2row_i16_into(black_box(&input), BATCH, *in_c, &geom, &mut cols_buf)?;
        tracer.end();
        tracer.begin("tensor.matmul");
        matmul_wide_i32_into(
            &exec,
            weights,
            &cols_buf[..rows * cols],
            *out_c,
            rows,
            cols,
            &mut acc,
        )?;
        tracer.end();
        tracer.begin("tensor.requantize");
        for (c, (acc_row, out_row)) in acc
            .chunks_exact(cols)
            .zip(codes.chunks_exact_mut(cols))
            .enumerate()
        {
            requantize_i32_row_into(acc_row, bias[c], *shift, out.qmin(), out.qmax(), out_row);
        }
        tracer.end();
        black_box(&codes);
    }
    let us = |name: &str| median(&tracer.durations_ms(name)).unwrap_or(0.0) * 1e3;

    // Static work per sample at this workload's MC samples: integer ops
    // exactly as the plan counts them, and bytes computed from the schedule
    // (i16 codes of every executed step's input and output, plus weight
    // codes once per call shared over the batch).
    let (_, ops) = plan.fixed_cost(1, MC_SAMPLES);
    let n_exits = schedule.exits.len().max(1);
    let passes = MC_SAMPLES.div_ceil(n_exits).max(1);
    let kept = MC_SAMPLES.min(passes * n_exits);
    let step_bytes = |s: &bnn_quant::ScheduleStep| -> f64 {
        let act: usize = s.in_dims.iter().product::<usize>() + s.out_dims.iter().product::<usize>();
        let weights = match &s.op {
            ScheduleOp::Conv { weights, .. } => weights.len(),
            ScheduleOp::Dense { weights_t, .. } => weights_t.len(),
            _ => 0,
        };
        2.0 * (act as f64 + weights as f64 / BATCH as f64)
    };
    let mut bytes: f64 = schedule.backbone.iter().map(step_bytes).sum();
    for (e, exit) in schedule.exits.iter().enumerate() {
        let runs = if e < kept {
            (kept - e - 1) / n_exits + 1
        } else {
            0
        };
        bytes += runs as f64 * exit.steps.iter().map(step_bytes).sum::<f64>();
    }
    result.per_layer.extend([
        metric("tensor.im2row_us", us("tensor.im2row"), "us"),
        metric("tensor.matmul_us", us("tensor.matmul"), "us"),
        metric("tensor.requantize_us", us("tensor.requantize"), "us"),
        metric("quant.int_ops_per_sample", ops as f64, "count"),
        metric("tensor.bytes_per_sample", bytes, "B"),
    ]);
    result.record.push((
        "kernel_shape",
        json_str(&format!(
            "conv {in_c}x{h}x{w} -> {out_c}, k{kernel} s{stride} p{padding}, batch {BATCH}"
        )),
    ));
    Ok(())
}
