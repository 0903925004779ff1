//! Integration test: the full 4-phase transformation pipeline produces a
//! feasible accelerator design and a complete HLS project, driven through the
//! staged `PipelineSession` API.

use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::phase1::ModelVariant;
use bayesnn_fpga::core::pipeline::{PhaseId, PipelineSession};
use bayesnn_fpga::core::{OptPriority, UserConstraints};
use bayesnn_fpga::data::{DatasetSpec, SyntheticConfig};
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::ModelConfig;

fn small_config() -> FrameworkConfig {
    let mut config = FrameworkConfig::quick_demo(Architecture::LeNet5);
    config.phase1.model = ModelConfig::mnist()
        .with_resolution(10, 10)
        .with_width_divisor(8)
        .with_classes(4);
    config.phase1.dataset = SyntheticConfig::new(
        DatasetSpec::mnist_like()
            .with_resolution(10, 10)
            .with_classes(4),
    )
    .with_samples(96, 64);
    config.phase1.train.epochs = 3;
    config.phase1.variants = vec![ModelVariant::SingleExit, ModelVariant::McdMultiExit];
    config.phase1.confidence_thresholds = vec![0.8];
    config.phase3.reuse_factors = vec![16, 64];
    config
}

#[test]
fn pipeline_produces_feasible_design_and_project() {
    let config = small_config().with_priority(OptPriority::Energy);
    let mut session = PipelineSession::new(config).unwrap();

    // Drive the pipeline in two steps to exercise artifact caching: the
    // algorithmic phases first, then the rest.
    session.run_to(PhaseId::Phase2).unwrap();
    assert!(session.artifacts().phase1.is_some());
    assert!(session.artifacts().phase2.is_some());
    assert!(session.artifacts().phase3.is_none());
    assert_eq!(session.artifacts().latest_phase(), Some(PhaseId::Phase2));

    let outcome = session.run().unwrap();

    // Phase 1 explored both variants and produced sane metrics.
    assert_eq!(outcome.phase1.candidates.len(), 2);
    for candidate in &outcome.phase1.candidates {
        assert!((0.0..=1.0).contains(&candidate.metrics.evaluation.accuracy));
        assert!((0.0..=1.0).contains(&candidate.metrics.evaluation.ece));
    }

    // The phase 1 artifact carries every candidate's trained checkpoint, so
    // later phases (and resumed sessions) never retrain.
    let artifact1 = session.artifacts().phase1.as_ref().unwrap();
    assert_eq!(
        artifact1.candidate_checkpoints.len(),
        outcome.phase1.candidates.len()
    );

    // Hardware phases selected feasible points.
    assert!(outcome.phase2.best().feasible);
    assert!(outcome.phase3.best().feasible);

    // Phase 4 emitted the full lowered project and a design that fits the device.
    let report = &outcome.phase4.report;
    assert!(report.fits);
    assert!(report.latency_ms > 0.0);
    assert!(report.power.total_w() > report.power.static_w);
    assert!(report.energy_per_image_j > 0.0);
    let project = outcome.phase4.lowered.as_ref().unwrap().project();
    assert!(project
        .file("firmware/nnet_utils/nnet_mc_dropout.h")
        .is_some());
    assert!(project.file("build_prj.tcl").is_some());

    // The summary is printable and mentions the selected variant.
    let summary = outcome.summary();
    assert!(summary.contains("selected variant"));
}

#[test]
fn infeasible_constraints_surface_as_errors() {
    let config = small_config().with_constraints(UserConstraints::none().with_max_latency_ms(1e-9));
    let err = PipelineSession::new(config).unwrap().run().unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("no design satisfies the constraints"),
        "{text}"
    );
}
