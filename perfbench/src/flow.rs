//! `flow_resnet18`: repeated full four-phase `PipelineSession` passes on the
//! ResNet-18 quick-demo shape — the designer's loop.
//!
//! Phase-1 training and MC evaluation dominate a pass, so this workload is
//! where the float training path, batch-norm/residual handling and the
//! layered MC path show; the integer kernels barely register. A pass cannot
//! be interleaved with probe slices, so each pass is bracketed by them
//! instead and scaled to the nominal host (see [`crate::probe`]): over six
//! ten-second runs this cut the quartile spread of `latency_p50_ms` from 8%
//! raw to 2.6%. Passes are kept short so that a run holds dozens of them.

use crate::probe::Probe;
use crate::report::{metric, peak_rss_mb, raw_record, RunResult};
use crate::stats::median;
use crate::trace::Tracer;
use bnn_bayes::{Evaluation, McSampler, SamplingConfig};
use bnn_core::framework::FrameworkConfig;
use bnn_core::pipeline::{PhaseId, PipelineObserver, PipelineSession};
use bnn_core::ModelVariant;
use bnn_hls::{HlsConfig, LoweredDesign};
use bnn_hw::{AcceleratorConfig, AcceleratorModel, FpgaDevice};
use bnn_models::zoo::Architecture;
use bnn_nn::optimizer::Sgd;
use bnn_nn::trainer::{train, LabelledBatchSource};
use bnn_quant::{CalibratedNetwork, FixedPointFormat};
use bnn_tensor::exec::Executor;
use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Training set size of a pass (the quick demo uses 240).
pub const TRAIN_SAMPLES: usize = 48;
/// Held-out set size of a pass (the quick demo uses 120).
pub const TEST_SAMPLES: usize = 32;
/// Training epochs per candidate (the quick demo uses 6).
pub const EPOCHS: usize = 2;
/// Calibration batch of the replayed phase-3 calls (phase 3's own size).
const CALIB_SAMPLES: usize = 32;

/// The pass configuration: the ResNet-18 quick demo at one compute thread,
/// with training sized so that a pass takes well under a second, and a run
/// holds dozens of passes.
///
/// Every seed runs this same design problem (the quick demo's own master
/// seed): the selected design's accuracy and ECE swing threefold across
/// phase-1 seeds (0.09–0.34 and 0.10–0.30 over five seeds), which would
/// make them useless as guards against numerical drift.
pub fn config() -> FrameworkConfig {
    let mut config = FrameworkConfig::quick_demo(Architecture::ResNet18).with_threads(1);
    config.phase1.dataset = config
        .phase1
        .dataset
        .clone()
        .with_samples(TRAIN_SAMPLES, TEST_SAMPLES);
    config.phase1.train.epochs = EPOCHS;
    config
}

/// Observer stamping each phase's start and completion; clones share the
/// stamps, so the benchmark keeps one while the session owns another.
#[derive(Clone, Default)]
struct PhaseClock(Arc<Mutex<Vec<(PhaseId, bool, Instant)>>>);

impl PhaseClock {
    fn stamp(&self, phase: PhaseId, starting: bool) {
        let now = Instant::now();
        self.0
            .lock()
            .expect("phase clock lock poisoned by a panicking observer")
            .push((phase, starting, now));
    }
}

impl PipelineObserver for PhaseClock {
    fn on_phase_start(&self, phase: PhaseId) {
        self.stamp(phase, true);
    }

    fn on_phase_complete(&self, phase: PhaseId, _summary: &str) {
        self.stamp(phase, false);
    }
}

/// Span and per-layer metric name of each phase, in `PhaseId` order.
const PHASES: [(&str, &str); 4] = [
    ("core.phase1", "core.phase1_ms"),
    ("core.phase2", "core.phase2_ms"),
    ("core.phase3", "core.phase3_ms"),
    ("core.phase4", "core.phase4_ms"),
];

/// One pass: returns the selected design's (accuracy, ece), its summary,
/// and whether the output checks held.
fn pass(
    config: &FrameworkConfig,
    tracer: &mut Tracer,
) -> Result<(f64, f64, String, bool), Box<dyn Error>> {
    let start = Instant::now();
    let mut session = PipelineSession::new(config.clone())?;
    let clock = PhaseClock::default();
    if tracer.enabled() {
        session.set_observer(clock.clone());
    }
    let outcome = session.run()?;
    let end = Instant::now();
    if tracer.enabled() {
        let parent = tracer.record("core.pass", start, end, None, None);
        let events = clock
            .0
            .lock()
            .expect("phase clock lock poisoned by a panicking observer");
        for phase in PhaseId::all() {
            let at = |starting: bool| {
                events
                    .iter()
                    .find(|(p, s, _)| *p == phase && *s == starting)
                    .map(|e| e.2)
            };
            if let (Some(a), Some(b)) = (at(true), at(false)) {
                tracer.record(PHASES[phase.index()].0, a, b, parent, None);
            }
        }
    }
    let best = outcome.phase1.best();
    let spec = &best.spec;
    // Output check: the lowered design prices exactly the MACs the hardware
    // model counts for the selected spec.
    let macs_ok = match &outcome.phase4.lowered {
        Some(design) => design.summary().macs == bnn_hw::network_macs(spec)?,
        None => false,
    };
    let eval = &best.metrics.evaluation;
    Ok((eval.accuracy, eval.ece, outcome.summary(), macs_ok))
}

/// Runs the workload: `setup_repeats` set-ups (config, context and a
/// warm-up pass), then passes for `seconds`. Each set-up and each pass is
/// bracketed by probe slices and scaled to the nominal host; the raw
/// figures go to the run record.
pub fn run(
    seconds: f64,
    setup_repeats: usize,
    tracer: &mut Tracer,
    probe: &mut Probe,
) -> Result<RunResult, Box<dyn Error>> {
    let ((cfg, (accuracy, ece, summary, warm_ok)), setups, setups_raw) =
        probe.repeat(setup_repeats, || -> Result<_, Box<dyn Error>> {
            let cfg = config();
            let warm = pass(&cfg, &mut Tracer::new(false))?;
            Ok((cfg, warm))
        })?;

    let mut result = RunResult::default();
    let (mut raw, mut norm) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while raw.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (outcome, r, n) = probe.bracket(|| pass(&cfg, tracer));
        raw.push(r);
        norm.push(n);
        result.attempted += 1;
        match outcome {
            // Every pass must reproduce the set-up pass bit for bit.
            Ok((_, _, s, macs_ok)) if macs_ok && warm_ok && s == summary => {}
            _ => result.failed += 1,
        }
    }

    result.end_to_end = vec![
        metric("setup_s", median(&setups).expect("set-up ran"), "s"),
        metric("latency_p50_ms", median(&norm).expect("a pass ran"), "ms"),
        metric(
            "throughput_per_s",
            1e3 * norm.len() as f64 / norm.iter().sum::<f64>(),
            "1/s",
        ),
        metric("ok_frac", result.ok_frac(), "ratio"),
        metric("accuracy", accuracy, "ratio"),
        metric("ece", ece, "ratio"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    result.record.extend(raw_record(&setups_raw, &raw, 1));
    if tracer.enabled() {
        for (span, name) in PHASES {
            let p50 = median(&tracer.durations_ms(span)).unwrap_or(0.0);
            result.per_layer.push(metric(name, p50, "ms"));
        }
        replay_layers(&cfg, tracer, &mut result)?;
    }
    Ok(result)
}

/// Replays one phase-1 candidate and the phase-3/4 calls on the selected
/// format from outside, each call under its own span: dataset generation →
/// build → `trainer::train` → `McSampler::predict` →
/// `Evaluation::from_probs`, then `CalibratedNetwork::calibrate` →
/// `plan(format)` → `predict_probs` → `AcceleratorModel::estimate`, and
/// `LoweredDesign::generate`.
fn replay_layers(
    cfg: &FrameworkConfig,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), Box<dyn Error>> {
    let p1 = &cfg.phase1;
    tracer.begin("flow.replay");

    tracer.begin("data.generate");
    let data = p1.dataset.generate(p1.seed)?;
    tracer.end();

    let base = p1.architecture.spec(&p1.model);
    let rate = p1.dropout_rates[0];
    let spec = ModelVariant::McdMultiExit.build_spec(&base, rate)?;
    tracer.begin("models.build");
    let mut net = spec.build(p1.seed)?;
    tracer.end();

    let source =
        LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())?;
    let mut sgd = Sgd::new(p1.learning_rate)
        .with_momentum(0.9)
        .with_weight_decay(5e-4);
    tracer.begin("nn.train");
    train(&mut net, &source, &mut sgd, &p1.train)?;
    tracer.end();
    let steps = p1.train.epochs * data.train.len().div_ceil(p1.train.batch_size);

    let sampler = McSampler::new(SamplingConfig::new(p1.mc_samples).with_seed(p1.seed))
        .with_executor(Executor::sequential());
    tracer.begin("bayes.mc_predict");
    let prediction = sampler.predict(&mut net, data.test.inputs())?;
    tracer.end();
    tracer.begin("bayes.evaluate");
    Evaluation::from_probs(
        &prediction.mean_probs,
        data.test.labels(),
        p1.calibration_bins,
    )?;
    tracer.end();

    let calib = data.train.take(CALIB_SAMPLES)?.inputs().clone();
    let format = FixedPointFormat::new(8, 3)?;
    tracer.begin("quant.calibrate");
    let calibrated = CalibratedNetwork::calibrate(&net, &calib)?;
    tracer.end();
    tracer.begin("quant.plan_compile");
    let mut plan = calibrated.plan(format)?;
    tracer.end();
    plan.set_executor(Executor::sequential());
    tracer.begin("quant.score");
    plan.predict_probs(data.test.inputs(), cfg.phase3.mc_samples, p1.seed)?;
    tracer.end();
    let accel = AcceleratorConfig::new(FpgaDevice::xcku115())
        .with_clock_mhz(cfg.clock_mhz)
        .with_bits(format.total_bits())
        .with_reuse_factor(16)
        .with_mc_samples(cfg.mc_samples);
    tracer.begin("hw.estimate");
    AcceleratorModel::new(spec.clone(), accel)?.estimate()?;
    tracer.end();
    let hls = HlsConfig::new("perfbench").with_format(format);
    tracer.begin("hls.generate");
    LoweredDesign::generate(&calibrated, &hls)?;
    tracer.end();
    tracer.end();

    let one = |name: &str| tracer.durations_ms(name).last().copied().unwrap_or(0.0);
    let train_ms = one("nn.train");
    result.per_layer.extend([
        metric("data.generate_ms", one("data.generate"), "ms"),
        metric("nn.train_ms", train_ms, "ms"),
        metric(
            "nn.train_step_us",
            train_ms * 1e3 / steps.max(1) as f64,
            "us",
        ),
        metric("bayes.mc_predict_ms", one("bayes.mc_predict"), "ms"),
        metric("bayes.evaluate_ms", one("bayes.evaluate"), "ms"),
        metric("quant.calibrate_ms", one("quant.calibrate"), "ms"),
        metric("quant.plan_compile_ms", one("quant.plan_compile"), "ms"),
        metric("quant.score_ms", one("quant.score"), "ms"),
        metric("hw.estimate_us", one("hw.estimate") * 1e3, "us"),
        metric("hls.generate_ms", one("hls.generate"), "ms"),
    ]);
    Ok(())
}
