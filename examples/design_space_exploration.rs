//! Design-space exploration with artifact reuse: run the algorithmic phases
//! once, checkpoint the Phase 2 artifact, then resume the hardware
//! co-exploration from that checkpoint under several optimization priorities
//! without retraining anything.
//!
//! This is the staged-pipeline workflow the `bnn-core::pipeline` API enables:
//! `run_to(Phase2)` produces a reusable artifact (trained candidates + chosen
//! MC-engine mapping), and each `resume_from` session re-runs only Phase 3
//! (bitwidth × reuse-factor grid) with a different objective.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::phase1::ModelVariant;
use bayesnn_fpga::core::pipeline::{PhaseId, PipelineSession, StageArtifact};
use bayesnn_fpga::core::OptPriority;
use bayesnn_fpga::data::{DatasetSpec, SyntheticConfig};
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::ModelConfig;

fn demo_config() -> FrameworkConfig {
    let mut config = FrameworkConfig::quick_demo(Architecture::LeNet5);
    config.phase1.model = ModelConfig::mnist()
        .with_resolution(12, 12)
        .with_width_divisor(8)
        .with_classes(6);
    config.phase1.dataset = SyntheticConfig::new(
        DatasetSpec::mnist_like()
            .with_resolution(12, 12)
            .with_classes(6),
    )
    .with_samples(192, 96);
    config.phase1.train.epochs = 4;
    config.phase1.variants = vec![ModelVariant::SingleExit, ModelVariant::McdMultiExit];
    config
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Run the expensive algorithmic phases exactly once. Phase 1 trains
    //    its candidates concurrently on the config's executor (BNN_THREADS
    //    overrides the thread count; the artifacts are identical either way).
    let mut session = PipelineSession::new(demo_config())?;
    println!(
        "phase 1+2 on {} thread(s)...",
        session.config().executor().threads()
    );
    session.run_to(PhaseId::Phase2)?;
    let checkpoint = session
        .artifacts()
        .phase2
        .clone()
        .expect("phase 2 artifact present after run_to(Phase2)");

    let best1 = checkpoint.phase1.result.best();
    println!(
        "phase 1 selected {} (acc {:.3}, ece {:.3}); phase 2 selected {} mapping\n",
        best1.variant,
        best1.metrics.evaluation.accuracy,
        best1.metrics.evaluation.ece,
        checkpoint.mapping(),
    );
    println!("phase 2 mapping candidates:");
    for candidate in &checkpoint.result.candidates {
        println!(
            "  {:>10}  latency={:.4}ms  lut={}  feasible={}",
            candidate.mapping.to_string(),
            candidate.report.latency_ms,
            candidate.report.total_resources.lut,
            candidate.feasible,
        );
    }

    // 2. Resume the co-exploration from the checkpoint under different
    //    priorities — Phase 1 training and Phase 2 mapping are both reused.
    for priority in [
        OptPriority::Latency,
        OptPriority::Energy,
        OptPriority::Accuracy,
    ] {
        let mut resumed = PipelineSession::new(demo_config().with_priority(priority))?;
        resumed.resume_from(StageArtifact::Phase2(checkpoint.clone()));
        resumed.run_to(PhaseId::Phase3)?;
        let artifact3 = resumed
            .artifacts()
            .phase3
            .as_ref()
            .expect("phase 3 artifact present after run_to(Phase3)");
        let best = artifact3.result.best();
        println!(
            "\npriority {priority:>12}: {} | reuse {:>3} | latency {:.4} ms | \
             energy {:.4} mJ | quantized acc {:.3}",
            best.format,
            best.reuse_factor,
            best.report.latency_ms,
            best.report.energy_per_image_j * 1e3,
            best.quantized_accuracy,
        );
    }

    println!(
        "\nEvery co-exploration above reused the same trained model and mapping — \
         only the bitwidth/reuse grid was re-scored."
    );
    Ok(())
}
