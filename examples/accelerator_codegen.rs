//! End-to-end transformation pipeline run: from a non-Bayesian LeNet-5
//! description to a generated HLS accelerator project on disk.
//!
//! This drives all four phases through a `PipelineSession` with
//! a `TraceObserver` streaming live per-phase progress (timings and the
//! selected result of every phase) to stderr, then writes the generated
//! hls4ml-style project — the calibrated design Phase 3 scored, one
//! `ap_fixed` type per tensor — under `target/generated_hls/`.
//!
//! Run with: `cargo run --release --example accelerator_codegen`

use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::pipeline::{PipelineSession, TraceObserver};
use bayesnn_fpga::core::{OptPriority, UserConstraints};
use bayesnn_fpga::models::zoo::Architecture;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = FrameworkConfig::quick_demo(Architecture::LeNet5)
        .with_priority(OptPriority::Energy)
        .with_constraints(UserConstraints::none().with_max_power_w(10.0));

    let mut session = PipelineSession::new(config)?;
    session.set_observer(TraceObserver::verbose());
    println!(
        "running the 4-phase transformation pipeline on {} thread(s) \
         (set BNN_THREADS to change; results are identical)...\n",
        session.config().executor().threads()
    );
    let outcome = session.run()?;
    println!("{}\n", outcome.summary());

    println!("phase 1 candidates:");
    for candidate in &outcome.phase1.candidates {
        println!(
            "  {:>6}  acc={:.3}  ece={:.3}  flops_ratio={:.3}",
            candidate.variant.label(),
            candidate.metrics.evaluation.accuracy,
            candidate.metrics.evaluation.ece,
            candidate.metrics.flops_ratio,
        );
    }
    println!("\nphase 2 mappings:");
    for mapping in &outcome.phase2.candidates {
        println!(
            "  {:>10}  latency={:.3}ms  lut={}  feasible={}",
            mapping.mapping.to_string(),
            mapping.report.latency_ms,
            mapping.report.total_resources.lut,
            mapping.feasible,
        );
    }

    let out_dir = PathBuf::from("target/generated_hls");
    outcome.phase4.write_project(&out_dir)?;
    if let Some(design) = &outcome.phase4.lowered {
        println!(
            "\nCalibrated per-tensor HLS project written to {} ({} stages, {} MACs):",
            out_dir.display(),
            design.summary().steps,
            design.summary().macs
        );
        for path in design.project().paths() {
            println!("  {path}");
        }
    }
    println!(
        "\nOpen {}/build_prj.tcl with Vivado-HLS to synthesise the design.",
        out_dir.display()
    );
    Ok(())
}
