//! Shared driver for the thread-count determinism tests: a small pipeline
//! configuration plus run/compare helpers asserting bitwise-equal artifacts.
//!
//! Lives in `tests/common/` so the two determinism test binaries share it —
//! the `BNN_THREADS` test must be its own binary (own process), because
//! mutating the environment while other test threads read it through
//! `Executor::from_env` is undefined behavior on glibc.

use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::phase1::ModelVariant;
use bayesnn_fpga::core::pipeline::{PipelineArtifacts, PipelineSession, RecordingObserver};
use bayesnn_fpga::data::{DatasetSpec, SyntheticConfig};
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::ModelConfig;

/// A two-candidate quick-demo configuration small enough to run the full
/// pipeline several times per test.
pub fn small_config() -> FrameworkConfig {
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
    .with_samples(80, 48);
    config.phase1.train.epochs = 2;
    config.phase1.variants = vec![ModelVariant::SingleExit, ModelVariant::McdMultiExit];
    config.phase1.confidence_thresholds = vec![0.8];
    config.phase3.reuse_factors = vec![16, 64];
    config
}

/// Runs the full pipeline, returning its artifacts and the recorded
/// observer event log.
pub fn run_pipeline(config: FrameworkConfig) -> (PipelineArtifacts, RecordingObserver) {
    let recorder = RecordingObserver::new();
    let mut session = PipelineSession::new(config).unwrap();
    session.set_observer(recorder.clone());
    session.run().unwrap();
    (session.artifacts().clone(), recorder)
}

/// Asserts every pipeline artifact — including each candidate's full trained
/// checkpoint — is bitwise equal between two runs.
pub fn assert_artifacts_identical(a: &PipelineArtifacts, b: &PipelineArtifacts) {
    let (a1, b1) = (a.phase1.as_ref().unwrap(), b.phase1.as_ref().unwrap());
    // Candidate metrics (accuracies, ECE, FLOPs ratios) and selection.
    assert_eq!(a1.result, b1.result);
    // Trained checkpoints: every parameter tensor and every piece of layer
    // state of every candidate, compared element-wise.
    assert_eq!(a1.candidate_checkpoints, b1.candidate_checkpoints);
    assert_eq!(a1.data, b1.data);
    // Mapping, co-exploration design points and the generated project.
    assert_eq!(
        a.phase2.as_ref().unwrap().result,
        b.phase2.as_ref().unwrap().result
    );
    assert_eq!(
        a.phase3.as_ref().unwrap().result,
        b.phase3.as_ref().unwrap().result
    );
    assert_eq!(
        a.phase4.as_ref().unwrap().output,
        b.phase4.as_ref().unwrap().output
    );
}
