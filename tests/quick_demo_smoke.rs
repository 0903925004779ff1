//! Smoke test: the stock `FrameworkConfig::quick_demo` configuration — the
//! one the README and the facade doctest advertise — must run all four phases
//! end-to-end quickly and populate every phase output.
//!
//! `tests/framework_end_to_end.rs` covers a hand-shrunk configuration in
//! depth; this test guards the out-of-the-box demo path and its runtime
//! budget.

use std::time::{Duration, Instant};

use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::pipeline::PipelineSession;
use bayesnn_fpga::models::zoo::Architecture;

#[test]
fn quick_demo_runs_all_four_phases_quickly() {
    let config = FrameworkConfig::quick_demo(Architecture::LeNet5);
    let started = Instant::now();
    let outcome = PipelineSession::new(config).unwrap().run().unwrap();
    let elapsed = started.elapsed();

    // Phase 1: algorithmic exploration produced candidates with sane metrics
    // and selected one.
    assert!(!outcome.phase1.candidates.is_empty());
    for candidate in &outcome.phase1.candidates {
        assert!((0.0..=1.0).contains(&candidate.metrics.evaluation.accuracy));
        assert!((0.0..=1.0).contains(&candidate.metrics.evaluation.ece));
    }
    let best1 = outcome.phase1.best();
    assert!((0.0..=1.0).contains(&best1.metrics.evaluation.accuracy));

    // Phase 2: mapping exploration found a feasible MC-engine mapping.
    assert!(!outcome.phase2.candidates.is_empty());
    assert!(outcome.phase2.best().feasible);

    // Phase 3: bitwidth/reuse co-exploration found a feasible design point.
    assert!(!outcome.phase3.points.is_empty());
    assert!(outcome.phase3.best().feasible);

    // Phase 4: the HLS project and implementation report are populated.
    let report = &outcome.phase4.report;
    assert!(report.latency_ms > 0.0);
    assert!(report.energy_per_image_j > 0.0);
    let design = outcome.phase4.lowered.as_ref().unwrap();
    assert!(!design.project().paths().is_empty());

    // The demo must stay demo-sized.
    assert!(
        elapsed < Duration::from_secs(30),
        "quick_demo took {elapsed:?}, budget is 30s"
    );
}
