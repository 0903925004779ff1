//! Phase 4 — generation of the HLS-based BayesNN accelerator.
//!
//! Combines the Phase 1 network, the Phase 2 mapping and the Phase 3
//! bitwidth/reuse choice into the emitted HLS project (`bnn-hls`) plus the
//! predicted implementation report (`bnn-hw`), the artefacts a user would hand
//! to Vivado-HLS / Vivado for synthesis, place-and-route and onboard testing.
//!
//! The project is a [`LoweredDesign`] lowered from the calibration record
//! Phase 3 scored ([`Phase3Artifact::calibrated`]), compiled at the winning
//! format: the same [`bnn_quant::QuantPlan`] the winner's accuracy was
//! measured on, rendered as per-tensor `ap_fixed` typedefs, packed integer
//! weight codes and a `top()` that walks the identical flattened step list.
//! Phase 4 runs no float inference of its own. The design carries a
//! [`bnn_hls::StaticSchedule`] summary whose MAC count equals
//! [`bnn_hw::network_macs`] for the same spec, the invariant the golden
//! tests pin.

use crate::error::FrameworkError;
use crate::framework::FrameworkConfig;
use crate::phase3::Phase3Artifact;
use crate::pipeline::{PhaseId, PipelineObserver};
use bnn_hls::{HlsConfig, LoweredDesign};
use bnn_hw::accelerator::{AcceleratorModel, AcceleratorReport};
use std::path::Path;

/// Output of Phase 4: the generated design and its predicted implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase4Output {
    /// The predicted post-implementation report.
    pub report: AcceleratorReport,
    /// The HLS generation configuration that was used.
    pub hls_config: HlsConfig,
    /// The calibrated per-tensor design lowered from the winner's compiled
    /// integer plan. Always `Some` on an output [`run`] produced.
    pub lowered: Option<LoweredDesign>,
}

impl Phase4Output {
    /// Writes the lowered design's project files under `root`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_project(&self, root: &Path) -> Result<(), FrameworkError> {
        if let Some(lowered) = &self.lowered {
            lowered.project().write_to_dir(root)?;
        }
        Ok(())
    }
}

/// The reusable output of Phase 4: the generated design plus the embedded
/// Phase 3 artifact, so the whole decision chain stays inspectable.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase4Artifact {
    /// The Phase 3 artifact the accelerator was generated from.
    pub phase3: Phase3Artifact,
    /// The generated design and predicted implementation.
    pub output: Phase4Output,
}

/// Generates the accelerator with every upstream decision applied, reporting
/// the emitted design to `observer`. Every decision (mapping, bitwidth,
/// reuse factor) and the calibration record arrive through the Phase 3
/// artifact; the project name comes from the configuration.
///
/// # Errors
///
/// Returns [`FrameworkError::InvalidConfig`] if `framework` fails
/// [`FrameworkConfig::validate`], propagates estimation errors, and surfaces
/// [`bnn_hls::HlsError::Unsupported`] (via [`FrameworkError::Hls`]) when
/// the selected format has no integer plan.
pub fn run(
    framework: &FrameworkConfig,
    input: &Phase3Artifact,
    observer: &dyn PipelineObserver,
) -> Result<Phase4Artifact, FrameworkError> {
    framework.validate()?;
    let accel_config = framework
        .accelerator_baseline()
        .with_mapping(input.mapping())
        .with_bits(input.format().total_bits())
        .with_reuse_factor(input.reuse_factor());
    let hls_config = HlsConfig::new(&framework.project_name)
        .with_format(input.format())
        .with_reuse_factor(accel_config.layer_model.reuse_factor)
        .with_mapping(accel_config.mapping)
        .with_mc_samples(accel_config.mc_samples);
    let report =
        AcceleratorModel::new(input.phase2.phase1.best_spec().clone(), accel_config)?.estimate()?;
    let lowered = LoweredDesign::generate(&input.calibrated, &hls_config)?;
    observer.on_candidate(
        PhaseId::Phase4,
        0,
        &format!(
            "project {} ({} files): latency {:.4} ms, fits {}, lowered design: {} stages / {} MACs",
            framework.project_name,
            lowered.project().paths().len(),
            report.latency_ms,
            report.fits,
            lowered.summary().steps,
            lowered.summary().macs
        ),
    );
    Ok(Phase4Artifact {
        phase3: input.clone(),
        output: Phase4Output {
            report,
            hls_config,
            lowered: Some(lowered),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests::tiny_framework_config;
    use crate::pipeline::{NoopObserver, PipelineEvent, PipelineSession, RecordingObserver};
    use bnn_hls::HlsError;
    use bnn_quant::FixedPointFormat;
    use std::sync::OnceLock;

    /// One tiny pipeline run through Phase 3, shared by the tests below.
    fn phase3() -> &'static (FrameworkConfig, Phase3Artifact) {
        static RUN: OnceLock<(FrameworkConfig, Phase3Artifact)> = OnceLock::new();
        RUN.get_or_init(|| {
            let mut session = PipelineSession::new(tiny_framework_config()).unwrap();
            session.run_to(PhaseId::Phase3).unwrap();
            let a3 = session.artifacts().phase3.clone().unwrap();
            (session.config().clone(), a3)
        })
    }

    #[test]
    fn generates_project_and_report() {
        let (config, a3) = phase3();
        let observer = RecordingObserver::new();
        let a4 = run(config, a3, &observer).unwrap();
        let output = &a4.output;
        assert!(output.report.fits);
        let design = output.lowered.as_ref().expect("phase 4 always lowers");
        let cpp = format!("firmware/{}.cpp", config.project_name);
        assert!(design.project().file(&cpp).is_some());
        // Every Phase 3 decision reaches the emitted configuration.
        assert_eq!(output.hls_config.format, a3.format());
        assert_eq!(output.hls_config.reuse_factor, a3.reuse_factor());
        assert_eq!(output.hls_config.mapping, a3.mapping());
        assert_eq!(output.hls_config.mc_samples, config.mc_samples);
        // The observer counts the lowered files.
        let files = format!("({} files)", design.project().paths().len());
        match observer.events().as_slice() {
            [PipelineEvent::Candidate(PhaseId::Phase4, 0, msg)] => {
                assert!(msg.contains(&files), "{msg}");
            }
            other => panic!("expected one Phase 4 candidate event, got {other:?}"),
        }
    }

    #[test]
    fn lowered_design_macs_match_the_hw_model() {
        let (config, a3) = phase3();
        let a4 = run(config, a3, &NoopObserver).unwrap();
        let design = a4.output.lowered.unwrap();
        // The static schedule of the emitted design and the analytic hw
        // model price the same machine: exact MAC agreement, no tolerance.
        let spec = a3.phase2.phase1.best_spec();
        assert_eq!(design.summary().macs, bnn_hw::network_macs(spec).unwrap());
        assert!(design.summary().macs > 0);
    }

    #[test]
    fn project_round_trips_to_disk() {
        let (config, a3) = phase3();
        let output = run(config, a3, &NoopObserver).unwrap().output;
        let dir = std::env::temp_dir().join(format!("bnn_phase4_{}", std::process::id()));
        output.write_project(&dir).unwrap();
        // The lowered files land at the root of the output directory.
        let project = output.lowered.as_ref().unwrap().project();
        assert!(dir.join("build_prj.tcl").exists());
        for path in project.paths() {
            let written = std::fs::read_to_string(dir.join(path)).unwrap();
            assert_eq!(Some(written.as_str()), project.file(path), "{path}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wide_formats_surface_a_typed_unsupported_error() {
        let (config, a3) = phase3();
        let mut wide = a3.clone();
        let best = wide.result.best_index;
        wide.result.points[best].format = FixedPointFormat::new(24, 8).unwrap();
        match run(config, &wide, &NoopObserver) {
            Err(FrameworkError::Hls(HlsError::Unsupported(msg))) => {
                assert!(msg.contains("16"), "message should name the limit: {msg}");
            }
            other => panic!("expected FrameworkError::Hls(Unsupported), got {other:?}"),
        }
    }
}
