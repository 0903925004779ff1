//! The repository's benchmark: three workloads, their output checks, and one
//! JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_resnet18|offline_resnet18|serve_lenet5> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics of
//! the named workload; with `--trace 1` it carries the per-layer metrics,
//! timed by spans the benchmark records around calls into each workspace
//! crate. A traced run measures the named workload untraced and traced for
//! half the seconds each (their `latency_p50_ms` difference is
//! `trace.overhead_ms`), then runs the other two workloads briefly, traced,
//! so every run reports every layer. Spans are written to
//! `.bench_out/trace-<workload>-<seed>.jsonl` at the end.
//!
//! Every workload runs on one compute thread (`BNN_THREADS=1`, sequential
//! executors, one server worker): two busy threads on a 2-vCPU host widen
//! the run-to-run spread. Each set-up runs [`SETUP_REPEATS`] times and
//! `setup_s` is their median. The line before the result records the
//! workload constants, the host and `host.ref_ms`, the median time of the
//! fixed probe loop of [`probe`], so a reader can see which host speed a run
//! hit.

mod flow;
mod gen;
mod offline;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use probe::{host_factor, Probe};
use report::{json_object, json_str, metric, result_line, Metric, RunResult};
use std::error::Error;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Seconds each other workload runs for in a traced run.
const COMPANION_SECONDS: f64 = 1.0;

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "latency_p50_ms",
    "throughput_per_s",
    "ok_frac",
    "accuracy",
    "ece",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 38] = [
    "core.phase1_ms",
    "core.phase2_ms",
    "core.phase3_ms",
    "core.phase4_ms",
    "data.generate_ms",
    "nn.train_ms",
    "nn.train_step_us",
    "bayes.mc_predict_ms",
    "bayes.evaluate_ms",
    "quant.calibrate_ms",
    "quant.plan_compile_ms",
    "quant.score_ms",
    "hw.estimate_us",
    "hls.generate_ms",
    "quant.predict_batch_ms",
    "tensor.im2row_us",
    "tensor.matmul_us",
    "tensor.requantize_us",
    "quant.int_ops_per_sample",
    "tensor.bytes_per_sample",
    "gen.lateness_p50_us",
    "gen.lateness_max_ms",
    "serve.submit_us",
    "serve.server_p50_us",
    "serve.batch_mean",
    "serve.batches",
    "serve.exit0_frac",
    "serve.ops_saved_frac",
    "serve.rejected",
    "serve.failed",
    "serve.deadline_missed",
    "serve.latency_p99_ms",
    "quant.adaptive_batch_us",
    "host.ref_ms",
    "host.factor",
    "trace.overhead_ms",
    "trace.spans",
    "core.pass_self_ms",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated four-phase pipeline passes on ResNet-18.
    Flow,
    /// Batch scoring through the ResNet-18 8-bit plan.
    Offline,
    /// Fixed-rate open-loop serving of the LeNet-5 8-bit plan.
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Flow, Workload::Offline, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Flow => "flow_resnet18",
            Workload::Offline => "offline_resnet18",
            Workload::Serve => "serve_lenet5",
        }
    }

    fn run(
        self,
        seed: u64,
        seconds: f64,
        setup_repeats: usize,
        tracer: &mut Tracer,
        probe: &mut Probe,
    ) -> Result<RunResult, Box<dyn Error>> {
        match self {
            Workload::Flow => flow::run(seconds, setup_repeats, tracer, probe),
            Workload::Offline => offline::run(seed, seconds, setup_repeats, tracer, probe),
            Workload::Serve => serve::run(seed, seconds, setup_repeats, tracer, probe),
        }
    }

    /// The constants the workload runs with, as rendered JSON.
    fn constants(self) -> String {
        match self {
            Workload::Flow => json_object(&[
                (
                    "architecture",
                    json_str("resnet18 quick demo, 12x12, width/16"),
                ),
                ("train_samples", flow::TRAIN_SAMPLES.to_string()),
                ("test_samples", flow::TEST_SAMPLES.to_string()),
                ("epochs", flow::EPOCHS.to_string()),
            ]),
            Workload::Offline => json_object(&[
                (
                    "architecture",
                    json_str("resnet18 mcd multi-exit, 12x12, width/16"),
                ),
                ("format", json_str("8.3")),
                ("batch", offline::BATCH.to_string()),
                ("mc_samples", offline::MC_SAMPLES.to_string()),
                ("mc_seed", offline::MC_SEED.to_string()),
            ]),
            Workload::Serve => json_object(&[
                (
                    "architecture",
                    json_str("lenet5 mnist-12 width/4, exit per block"),
                ),
                ("format", json_str("8.3")),
                ("offered_rps", format!("{:?}", serve::RATE)),
                ("workers", serve::WORKERS.to_string()),
                ("max_batch", serve::MAX_BATCH.to_string()),
                ("max_delay_us", serve::MAX_DELAY.as_micros().to_string()),
                ("mc_samples", serve::MC_SAMPLES.to_string()),
                ("mc_seed", serve::MC_SEED.to_string()),
                ("policy", json_str("confidence at the pool's median")),
            ]),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out commit, when run from a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Keeps `names` in order, failing on any that is missing.
fn select(metrics: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&n| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .cloned()
                .ok_or(format!("metric {n} was not measured"))
        })
        .collect()
}

fn write_trace(args: &Args, tracers: &[(Workload, Tracer)]) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let mut text = String::new();
    for (w, t) in tracers {
        for line in t.to_json_lines().lines() {
            text.push_str(&format!(
                "{{\"workload\": {}, \"span\": {line}}}\n",
                json_str(w.name())
            ));
        }
    }
    std::fs::write(
        format!(
            ".bench_out/trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ),
        text,
    )
}

fn run(args: &Args) -> Result<(bool, RunResult, Vec<Metric>), Box<dyn Error>> {
    let mut probe = Probe::new();
    if !args.trace {
        let mut r = args.workload.run(
            args.seed,
            args.seconds,
            SETUP_REPEATS,
            &mut Tracer::new(false),
            &mut probe,
        )?;
        let ref_ms = probe.ref_ms().ok_or("the host probe never ran")?;
        r.record.push(("host_ref_ms", format!("{ref_ms:?}")));
        r.record
            .push(("host_factor", format!("{:?}", host_factor(ref_ms))));
        let metrics = select(&r.end_to_end, &END_TO_END)?;
        return Ok((r.failed == 0, r, metrics));
    }

    let half = 0.5 * args.seconds;
    let untraced = args.workload.run(
        args.seed,
        half,
        1,
        &mut Tracer::new(false),
        &mut Probe::new(),
    )?;
    let mut tracers = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut total = args
        .workload
        .run(args.seed, half, 1, &mut tracer, &mut probe)?;
    let overhead = value_of(&total.end_to_end, "latency_p50_ms")
        - value_of(&untraced.end_to_end, "latency_p50_ms");
    total.attempted += untraced.attempted;
    total.failed += untraced.failed;
    tracers.push((args.workload, tracer));
    for other in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
        let mut t = Tracer::new(true);
        let r = other.run(args.seed, COMPANION_SECONDS, 1, &mut t, &mut Probe::new())?;
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.per_layer.extend(r.per_layer);
        tracers.push((other, t));
    }
    let ref_ms = probe.ref_ms().ok_or("the host probe never ran")?;
    let spans: usize = tracers.iter().map(|(_, t)| t.spans().len()).sum();
    let self_ms = |w: Workload, name: &str| {
        let t = &tracers
            .iter()
            .find(|(x, _)| *x == w)
            .expect("every workload ran")
            .1;
        stats::median(&t.self_times_ms(name)).unwrap_or(0.0)
    };
    total.per_layer.extend([
        metric("host.ref_ms", ref_ms, "ms"),
        metric("host.factor", host_factor(ref_ms), "ratio"),
        metric("trace.overhead_ms", overhead, "ms"),
        metric("trace.spans", spans as f64, "count"),
        metric(
            "core.pass_self_ms",
            self_ms(Workload::Flow, "core.pass"),
            "ms",
        ),
    ]);
    write_trace(args, &tracers)?;
    let metrics = select(&total.per_layer, &PER_LAYER)?;
    Ok((total.failed == 0, total, metrics))
}

fn main() {
    // One compute thread everywhere, including any executor the workspace
    // resolves from the environment.
    let env_threads = std::env::var("BNN_THREADS").unwrap_or_default();
    std::env::set_var("BNN_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let (correct, r, metrics) = match run(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let mut record: Vec<(&str, String)> = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", args.trace.to_string()),
        ("commit", json_str(&commit())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "simd_backend",
            json_str(bnn_tensor::simd::active_backend().name()),
        ),
        ("bnn_threads", json_str("1")),
        ("bnn_threads_env", json_str(&env_threads)),
        ("compute_threads", "1".into()),
        (
            "setup_repeats",
            if args.trace { 1 } else { SETUP_REPEATS }.to_string(),
        ),
        ("constants", args.workload.constants()),
        ("wall_s", format!("{:?}", started.elapsed().as_secs_f64())),
    ];
    record.extend(r.record.iter().map(|(k, v)| (*k, v.clone())));
    println!(
        "{}",
        json_object(&[("perfbench_record", json_object(&record))])
    );
    match result_line(correct, r.attempted, r.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
