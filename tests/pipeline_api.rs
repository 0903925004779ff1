//! Integration tests of the pipeline driver: `run_to`/`resume_from`
//! round-trips, observer event ordering, and the configuration checks
//! `PipelineSession::new` and every phase function apply.

use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::phase1::ModelVariant;
use bayesnn_fpga::core::pipeline::{
    NoopObserver, PhaseId, PipelineEvent, PipelineSession, RecordingObserver, StageArtifact,
};
use bayesnn_fpga::core::FrameworkError;
use bayesnn_fpga::core::{phase1, phase2, phase3, phase4};
use bayesnn_fpga::data::{DatasetSpec, SyntheticConfig};
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::ModelConfig;
use bayesnn_fpga::quant::FixedPointFormat;

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
    .with_samples(80, 48);
    config.phase1.train.epochs = 2;
    config.phase1.variants = vec![ModelVariant::SingleExit, ModelVariant::McdMultiExit];
    config.phase1.confidence_thresholds = vec![0.8];
    config.phase3.reuse_factors = vec![16, 64];
    config
}

#[test]
fn run_to_then_resume_equals_full_run() {
    // One uninterrupted run is the reference outcome.
    let reference = PipelineSession::new(small_config()).unwrap().run().unwrap();

    // Partial run: stop after Phase 2 and export the artifact.
    let mut first = PipelineSession::new(small_config()).unwrap();
    first.run_to(PhaseId::Phase2).unwrap();
    assert!(first.artifacts().phase3.is_none());
    let checkpoint = first.artifacts().phase2.clone().unwrap();

    // Resume in a brand-new session.
    let mut second = PipelineSession::new(small_config()).unwrap();
    second.resume_from(StageArtifact::Phase2(checkpoint));
    let resumed = second.run().unwrap();

    // The resumed pipeline selects exactly the same design.
    assert_eq!(resumed.phase1, reference.phase1);
    assert_eq!(resumed.phase2, reference.phase2);
    assert_eq!(resumed.phase3, reference.phase3);
    assert_eq!(resumed.phase4.report, reference.phase4.report);
    assert_eq!(resumed.phase4.hls_config, reference.phase4.hls_config);
    assert_eq!(resumed.summary(), reference.summary());
}

#[test]
fn resume_from_discards_later_artifacts() {
    let mut session = PipelineSession::new(small_config()).unwrap();
    session.run_to(PhaseId::Phase3).unwrap();
    let artifact1 = session.artifacts().phase1.clone().unwrap();

    session.resume_from(StageArtifact::Phase1(artifact1));
    assert!(session.artifacts().phase1.is_some());
    assert!(session.artifacts().phase2.is_none());
    assert!(session.artifacts().phase3.is_none());
    assert_eq!(session.artifacts().latest_phase(), Some(PhaseId::Phase1));

    // And the pipeline completes from the restored point.
    let outcome = session.run().unwrap();
    assert!(outcome.phase4.report.fits);
}

#[test]
fn observer_events_fire_once_per_phase_in_order() {
    let recorder = RecordingObserver::new();
    let mut session = PipelineSession::new(small_config()).unwrap();
    session.set_observer(recorder.clone());
    session.run().unwrap();

    let events = recorder.events();
    // Exactly one start and one complete per phase.
    for phase in PhaseId::all() {
        let starts = events
            .iter()
            .filter(|e| matches!(e, PipelineEvent::PhaseStart(p) if *p == phase))
            .count();
        let completes = events
            .iter()
            .filter(|e| matches!(e, PipelineEvent::PhaseComplete(p, _) if *p == phase))
            .count();
        assert_eq!(starts, 1, "{phase} started {starts} times");
        assert_eq!(completes, 1, "{phase} completed {completes} times");
    }

    // Lifecycle events arrive in pipeline order: start1 < complete1 <
    // start2 < complete2 < ...
    let boundaries: Vec<&PipelineEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                PipelineEvent::PhaseStart(_) | PipelineEvent::PhaseComplete(_, _)
            )
        })
        .collect();
    let expected: Vec<PhaseId> = PhaseId::all().into_iter().flat_map(|p| [p, p]).collect();
    assert_eq!(boundaries.len(), expected.len());
    for (event, phase) in boundaries.iter().zip(expected) {
        match event {
            PipelineEvent::PhaseStart(p) | PipelineEvent::PhaseComplete(p, _) => {
                assert_eq!(*p, phase)
            }
            _ => unreachable!(),
        }
    }

    // Every phase reported candidates, sandwiched between its start/complete.
    for phase in PhaseId::all() {
        let candidates = events
            .iter()
            .filter(|e| matches!(e, PipelineEvent::Candidate(p, _, _) if *p == phase))
            .count();
        assert!(candidates >= 1, "{phase} reported no candidates");
    }
}

#[test]
fn cached_phases_emit_no_events_after_resume() {
    let mut first = PipelineSession::new(small_config()).unwrap();
    first.run_to(PhaseId::Phase2).unwrap();
    let checkpoint = first.artifacts().phase2.clone().unwrap();

    let recorder = RecordingObserver::new();
    let mut second = PipelineSession::new(small_config()).unwrap();
    second.set_observer(recorder.clone());
    second.resume_from(StageArtifact::Phase2(checkpoint));
    second.run().unwrap();

    let events = recorder.events();
    assert!(!events.iter().any(|e| matches!(
        e,
        PipelineEvent::PhaseStart(PhaseId::Phase1 | PhaseId::Phase2)
    )));
    assert!(events
        .iter()
        .any(|e| matches!(e, PipelineEvent::PhaseStart(PhaseId::Phase3))));
    assert!(events
        .iter()
        .any(|e| matches!(e, PipelineEvent::PhaseStart(PhaseId::Phase4))));
}

#[test]
fn per_stage_validation_matches_old_constructor_checks() {
    // Every configuration the old per-stage and constructor checks rejected,
    // plus the non-finite values those checks let through.
    type Edit = fn(&mut FrameworkConfig);
    let rejected: [(&str, Edit); 19] = [
        ("zero clock", |c| c.clock_mhz = 0.0),
        ("negative clock", |c| c.clock_mhz = -1.0),
        ("NaN clock", |c| c.clock_mhz = f64::NAN),
        ("infinite clock", |c| c.clock_mhz = f64::INFINITY),
        ("zero MC samples", |c| c.mc_samples = 0),
        ("empty project name", |c| c.project_name.clear()),
        ("NaN minimum accuracy", |c| {
            c.constraints.min_accuracy = Some(f64::NAN)
        }),
        ("NaN maximum ECE", |c| {
            c.constraints.max_ece = Some(f64::NAN)
        }),
        ("infinite maximum FLOPs ratio", |c| {
            c.constraints.max_flops_ratio = Some(f64::INFINITY)
        }),
        ("NaN maximum latency", |c| {
            c.constraints.max_latency_ms = Some(f64::NAN)
        }),
        ("NaN maximum power", |c| {
            c.constraints.max_power_w = Some(f64::NAN)
        }),
        ("no phase 1 variants", |c| c.phase1.variants.clear()),
        ("all-MCD variants without dropout rates", |c| {
            c.phase1.variants = vec![ModelVariant::Mcd, ModelVariant::McdMultiExit];
            c.phase1.dropout_rates.clear();
        }),
        ("no phase 3 formats", |c| c.phase3.formats.clear()),
        ("no phase 3 reuse factors", |c| {
            c.phase3.reuse_factors.clear()
        }),
        ("a format wider than 16 bits", |c| {
            c.phase3.formats.push(FixedPointFormat::new(24, 8).unwrap())
        }),
        ("negative tolerance", |c| c.phase3.accuracy_tolerance = -0.1),
        ("NaN tolerance", |c| c.phase3.accuracy_tolerance = f64::NAN),
        ("zero phase 3 MC samples", |c| c.phase3.mc_samples = 0),
    ];
    for (case, edit) in rejected {
        let mut config = small_config();
        edit(&mut config);
        match PipelineSession::new(config) {
            Err(FrameworkError::InvalidConfig(_)) => {}
            other => panic!("{case}: expected InvalidConfig, got {other:?}"),
        }
    }

    // A mixed variant list with no dropout rates stays valid, and so does
    // the unmodified configuration.
    let mut mixed = small_config();
    mixed.phase1.dropout_rates.clear();
    assert!(PipelineSession::new(mixed).is_ok());
    assert!(PipelineSession::new(small_config()).is_ok());
}

#[test]
fn phase_functions_reject_an_invalid_config() {
    // A direct caller of a phase function gets `InvalidConfig`, not the
    // misleading `NoFeasibleDesign` a NaN bound produces once it reaches
    // candidate selection (`ece <= NaN` rejects every candidate).
    let mut bad = small_config();
    bad.constraints.max_ece = Some(f64::NAN);
    assert!(matches!(
        phase1::run(&bad, &NoopObserver),
        Err(FrameworkError::InvalidConfig(_))
    ));

    let good = small_config();
    let p1 = phase1::run(&good, &NoopObserver).unwrap();
    let p2 = phase2::run(&good, &p1, &NoopObserver).unwrap();
    let p3 = phase3::run(&good, &p2, &NoopObserver).unwrap();
    assert!(matches!(
        phase2::run(&bad, &p1, &NoopObserver),
        Err(FrameworkError::InvalidConfig(_))
    ));
    assert!(matches!(
        phase3::run(&bad, &p2, &NoopObserver),
        Err(FrameworkError::InvalidConfig(_))
    ));
    assert!(matches!(
        phase4::run(&bad, &p3, &NoopObserver),
        Err(FrameworkError::InvalidConfig(_))
    ));
}
