//! Phase 4 — generation of the HLS-based BayesNN accelerator.
//!
//! Combines the Phase 1 network, the Phase 2 mapping and the Phase 3
//! bitwidth/reuse choice into emitted HLS projects (`bnn-hls`) plus the
//! predicted implementation report (`bnn-hw`), the artefacts a user would hand
//! to Vivado-HLS / Vivado for synthesis, place-and-route and onboard testing.
//!
//! Two projects are emitted when the winning format fits the integer path
//! (≤ 16 bits): the spec-driven structural project ([`HlsProject`]) and the
//! calibrated per-tensor [`LoweredDesign`], generated from the same compiled
//! [`bnn_quant::QuantPlan`] the Phase 3 winner was scored on — per-tensor
//! `ap_fixed` typedefs, packed integer weight codes and a `top()` that walks
//! the identical flattened step list. The lowered design carries a
//! [`bnn_hls::StaticSchedule`] summary whose MAC count equals
//! [`bnn_hw::network_macs`] for the same spec, the invariant the golden
//! tests pin.

use crate::error::FrameworkError;
use crate::phase3::{Phase3Artifact, CALIBRATION_SAMPLES};
use crate::pipeline::{NoopObserver, PhaseId, PipelineContext, PipelineObserver};
use bnn_hls::{HlsConfig, HlsProject, LoweredDesign};
use bnn_hw::accelerator::{AcceleratorConfig, AcceleratorModel, AcceleratorReport};
use bnn_models::NetworkSpec;
use bnn_quant::{CalibratedNetwork, FixedPointFormat};
use std::path::Path;

/// Output of Phase 4: the generated project and its predicted implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase4Output {
    /// The generated spec-driven HLS project.
    pub project: HlsProject,
    /// The predicted post-implementation report.
    pub report: AcceleratorReport,
    /// The HLS generation configuration that was used.
    pub hls_config: HlsConfig,
    /// The calibrated per-tensor design lowered from the winner's compiled
    /// integer plan. `None` when the output was produced by the spec-only
    /// [`generate`] entry point, which has no calibration data.
    pub lowered: Option<LoweredDesign>,
}

impl Phase4Output {
    /// Writes the generated project under `root`. When a calibrated
    /// [`LoweredDesign`] is present, its project is written under
    /// `root/lowered`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_project(&self, root: &Path) -> Result<(), FrameworkError> {
        self.project.write_to_dir(root)?;
        if let Some(lowered) = &self.lowered {
            lowered.project().write_to_dir(&root.join("lowered"))?;
        }
        Ok(())
    }
}

/// The reusable output of Phase 4: the generated project plus the embedded
/// Phase 3 artifact, so the whole decision chain stays inspectable.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase4Artifact {
    /// The Phase 3 artifact the accelerator was generated from.
    pub phase3: Phase3Artifact,
    /// The generated project and predicted implementation.
    pub output: Phase4Output,
}

/// The Phase 4 stage: HLS accelerator generation.
///
/// Phase 4 has no configuration of its own — every decision (mapping,
/// bitwidth, reuse factor) arrives through the Phase 3 artifact and the
/// project name through the context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phase4Stage;

impl Phase4Stage {
    /// Creates the stage.
    pub fn new() -> Self {
        Phase4Stage
    }

    /// Validates the stage configuration (always succeeds; present for
    /// uniformity with the other stages).
    ///
    /// # Errors
    ///
    /// Never fails today.
    pub fn validate(&self) -> Result<(), FrameworkError> {
        Ok(())
    }

    /// Generates the accelerator with every upstream decision applied.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, estimation and generation errors.
    pub fn run(
        &self,
        ctx: &PipelineContext,
        input: &Phase3Artifact,
    ) -> Result<Phase4Artifact, FrameworkError> {
        self.run_observed(ctx, input, &NoopObserver)
    }

    /// Generates the accelerator, reporting the emitted project to `observer`.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, estimation and generation errors.
    pub fn run_observed(
        &self,
        ctx: &PipelineContext,
        input: &Phase3Artifact,
        observer: &dyn PipelineObserver,
    ) -> Result<Phase4Artifact, FrameworkError> {
        let final_config = ctx
            .accelerator_baseline()
            .with_mapping(input.mapping())
            .with_bits(input.format().total_bits())
            .with_reuse_factor(input.reuse_factor());
        let mut output = generate(
            input.phase2.phase1.best_spec(),
            &ctx.project_name,
            &final_config,
            input.format(),
        )?;
        // Lower the winner's compiled integer plan into the calibrated
        // per-tensor design, re-using Phase 3's calibration protocol: a
        // representative batch of *training* inputs. Phase 3 only selects
        // formats the integer plan holds (at most 16 bits).
        let trained = input.phase2.phase1.instantiate_best()?;
        let train = &input.phase2.phase1.data.train;
        let calib = train
            .take(CALIBRATION_SAMPLES.min(train.len()))?
            .inputs()
            .clone();
        let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
        output.lowered = Some(LoweredDesign::generate(&calibrated, &output.hls_config)?);
        let lowered_note = match &output.lowered {
            Some(design) => format!(
                ", lowered design: {} stages / {} MACs",
                design.summary().steps,
                design.summary().macs
            ),
            None => String::new(),
        };
        observer.on_candidate(
            PhaseId::Phase4,
            0,
            &format!(
                "project {} ({} files): latency {:.4} ms, fits {}{}",
                ctx.project_name,
                output.project.paths().len(),
                output.report.latency_ms,
                output.report.fits,
                lowered_note
            ),
        );
        Ok(Phase4Artifact {
            phase3: input.clone(),
            output,
        })
    }
}

/// Generates the accelerator for a network spec with a fully decided
/// accelerator configuration (the standalone entry point behind
/// [`Phase4Stage`]).
///
/// This entry point has no calibration data, so the returned output's
/// `lowered` field is `None`; [`Phase4Stage::run_observed`] fills it from
/// the pipeline's training set, and [`generate_lowered`] does the same for
/// a standalone [`CalibratedNetwork`].
///
/// # Errors
///
/// Propagates spec validation, estimation and generation errors.
pub fn generate(
    spec: &NetworkSpec,
    project_name: &str,
    accel_config: &AcceleratorConfig,
    format: FixedPointFormat,
) -> Result<Phase4Output, FrameworkError> {
    let report = AcceleratorModel::new(spec.clone(), accel_config.clone())?.estimate()?;
    let hls_config = HlsConfig::new(project_name)
        .with_format(format)
        .with_reuse_factor(accel_config.layer_model.reuse_factor)
        .with_mapping(accel_config.mapping)
        .with_mc_samples(accel_config.mc_samples);
    let project = HlsProject::generate(spec, &hls_config)?;
    Ok(Phase4Output {
        project,
        report,
        hls_config,
        lowered: None,
    })
}

/// Lowers a calibrated network's compiled integer plan into the per-tensor
/// HLS design — the standalone spelling of what [`Phase4Stage::run_observed`]
/// does with the pipeline's own calibration batch.
///
/// # Errors
///
/// Surfaces [`bnn_hls::HlsError::Unsupported`] (via
/// [`FrameworkError::Hls`]) when the configured format is wider than the
/// 16-bit integer path or a lowered node has no HLS emission rule, and
/// propagates plan-compilation errors.
pub fn generate_lowered(
    calibrated: &CalibratedNetwork,
    hls_config: &HlsConfig,
) -> Result<LoweredDesign, FrameworkError> {
    Ok(LoweredDesign::generate(calibrated, hls_config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_hls::HlsError;
    use bnn_hw::{FpgaDevice, MappingStrategy};
    use bnn_models::{zoo, ModelConfig};
    use bnn_tensor::rng::Xoshiro256StarStar;
    use bnn_tensor::Tensor;

    fn calibrated_lenet() -> (NetworkSpec, CalibratedNetwork) {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
        let net = spec.build(3).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let calib = Tensor::randn(&[6, 1, 10, 10], &mut rng);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        (spec, calibrated)
    }

    #[test]
    fn lowered_design_macs_match_the_hw_model() {
        let (spec, calibrated) = calibrated_lenet();
        let config = HlsConfig::new("lenet").with_format(FixedPointFormat::new(8, 3).unwrap());
        let design = generate_lowered(&calibrated, &config).unwrap();
        // The static schedule of the emitted design and the analytic hw
        // model price the same machine: exact MAC agreement, no tolerance.
        assert_eq!(design.summary().macs, bnn_hw::network_macs(&spec).unwrap());
        assert!(design.summary().macs > 0);
    }

    #[test]
    fn wide_formats_surface_a_typed_unsupported_error() {
        let (_, calibrated) = calibrated_lenet();
        let config = HlsConfig::new("lenet").with_format(FixedPointFormat::new(24, 8).unwrap());
        match generate_lowered(&calibrated, &config) {
            Err(FrameworkError::Hls(HlsError::Unsupported(msg))) => {
                assert!(msg.contains("16"), "message should name the limit: {msg}");
            }
            other => panic!("expected FrameworkError::Hls(Unsupported), got {other:?}"),
        }
    }

    #[test]
    fn generates_project_and_report() {
        let spec = zoo::lenet5(&ModelConfig::mnist().with_width_divisor(4))
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap();
        let config = AcceleratorConfig::new(FpgaDevice::xcku115())
            .with_bits(8)
            .with_mapping(MappingStrategy::Spatial)
            .with_mc_samples(3);
        let output = generate(
            &spec,
            "bayes_lenet",
            &config,
            FixedPointFormat::new(8, 3).unwrap(),
        )
        .unwrap();
        assert!(output.report.fits);
        assert!(output.project.file("firmware/bayes_lenet.cpp").is_some());
        assert_eq!(output.hls_config.mc_samples, 3);
        assert_eq!(output.hls_config.cpp_type(), "ap_fixed<8,3>");
    }

    #[test]
    fn project_round_trips_to_disk() {
        let spec = zoo::lenet5(&ModelConfig::mnist().with_width_divisor(8))
            .with_mcd_layers(1, 0.25)
            .unwrap();
        let config = AcceleratorConfig::new(FpgaDevice::xcku115());
        let output = generate(
            &spec,
            "disk_roundtrip",
            &config,
            FixedPointFormat::default_hls(),
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("bnn_phase4_{}", std::process::id()));
        output.write_project(&dir).unwrap();
        assert!(dir.join("build_prj.tcl").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
