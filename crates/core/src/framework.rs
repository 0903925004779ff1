//! The framework's one configuration and the outcome of a full run.
//!
//! [`FrameworkConfig`] carries every input of the four phases: the
//! per-phase grids ([`Phase1Config`], [`Phase3Config`]) and what every phase
//! sees (device, clock, MC samples, constraints, priority, thread count).
//! [`crate::pipeline::PipelineSession`] validates it once and drives the
//! phase functions over it.

use crate::constraints::{OptPriority, UserConstraints};
use crate::error::FrameworkError;
use crate::phase1::{Phase1Config, Phase1Result};
use crate::phase2::Phase2Result;
use crate::phase3::{Phase3Config, Phase3Result};
use crate::phase4::Phase4Output;
use bnn_hw::accelerator::AcceleratorConfig;
use bnn_hw::FpgaDevice;
use bnn_models::zoo::Architecture;
use bnn_tensor::exec::Executor;

/// Configuration of a full framework run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkConfig {
    /// Name of the generated HLS project.
    pub project_name: String,
    /// Phase 1 (multi-exit optimization) configuration.
    pub phase1: Phase1Config,
    /// Phase 3 (co-exploration) configuration.
    pub phase3: Phase3Config,
    /// Target FPGA device.
    pub device: FpgaDevice,
    /// Accelerator clock frequency in MHz.
    pub clock_mhz: f64,
    /// Number of MC samples the accelerator draws per input.
    pub mc_samples: usize,
    /// User constraints applied at every phase.
    pub constraints: UserConstraints,
    /// Optimization priority.
    pub priority: OptPriority,
    /// Thread count of the parallel phases. `None` (the default) resolves
    /// from the `BNN_THREADS` environment variable, falling back to the
    /// number of available CPUs. Results are bitwise identical for every
    /// setting; see the crate-level "Threading model" documentation.
    pub threads: Option<usize>,
}

impl FrameworkConfig {
    /// A laptop-scale end-to-end demonstration configuration for the given
    /// backbone architecture: reduced-width model, small synthetic dataset,
    /// the paper's default device (XCKU115 at 181 MHz) and 3 MC samples.
    pub fn quick_demo(architecture: Architecture) -> Self {
        FrameworkConfig {
            project_name: format!("bayes_{architecture}"),
            phase1: Phase1Config::quick(architecture),
            phase3: Phase3Config::default(),
            device: FpgaDevice::xcku115(),
            clock_mhz: 181.0,
            mc_samples: 3,
            constraints: UserConstraints::none(),
            priority: OptPriority::Calibration,
            threads: None,
        }
    }

    /// Sets the optimization priority.
    pub fn with_priority(mut self, priority: OptPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Pins the parallel phases to a fixed thread count (clamped to at
    /// least 1), overriding the `BNN_THREADS` / CPU-count default.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the user constraints.
    pub fn with_constraints(mut self, constraints: UserConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Validates the shared inputs and both phase grids.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::InvalidConfig`] for a clock frequency that
    /// is not positive and finite, zero MC samples, an empty project name, a
    /// non-finite constraint bound, or a failed
    /// [`Phase1Config::validate`] / [`Phase3Config::validate`].
    pub fn validate(&self) -> Result<(), FrameworkError> {
        if !(self.clock_mhz.is_finite() && self.clock_mhz > 0.0) {
            return Err(FrameworkError::InvalidConfig(format!(
                "clock frequency must be positive and finite, got {}",
                self.clock_mhz
            )));
        }
        if self.mc_samples == 0 {
            return Err(FrameworkError::InvalidConfig(
                "the accelerator must draw at least one MC sample".into(),
            ));
        }
        if self.project_name.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "the HLS project name must not be empty".into(),
            ));
        }
        self.constraints.validate()?;
        self.phase1.validate()?;
        self.phase3.validate()
    }

    /// The accelerator baseline shared by the hardware phases: the target
    /// device with this configuration's clock and MC sample count, before
    /// any mapping/bitwidth/reuse decision is applied.
    pub fn accelerator_baseline(&self) -> AcceleratorConfig {
        AcceleratorConfig::new(self.device.clone())
            .with_clock_mhz(self.clock_mhz)
            .with_mc_samples(self.mc_samples)
    }

    /// The executor the parallel phases fan out on: [`Self::threads`] when
    /// set, else the process default ([`Executor::global`]). An executor
    /// holds no worker state, so building one per phase costs nothing.
    pub fn executor(&self) -> Executor {
        self.threads.map_or_else(Executor::global, Executor::new)
    }
}

/// The result of a full framework run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkOutcome {
    /// Phase 1 result (algorithmic exploration).
    pub phase1: Phase1Result,
    /// Phase 2 result (mapping exploration).
    pub phase2: Phase2Result,
    /// Phase 3 result (bitwidth/reuse co-exploration).
    pub phase3: Phase3Result,
    /// Phase 4 output (generated HLS project + predicted implementation).
    pub phase4: Phase4Output,
}

impl FrameworkOutcome {
    /// A human-readable multi-line summary of the selected design.
    pub fn summary(&self) -> String {
        let best1 = self.phase1.best();
        let best2 = self.phase2.best();
        let best3 = self.phase3.best();
        let report = &self.phase4.report;
        format!(
            "selected variant : {} (dropout {:.3})\n\
             accuracy / ECE   : {:.4} / {:.4}\n\
             flops ratio      : {:.3}x single-exit\n\
             mapping          : {} ({} MC engine(s))\n\
             precision        : {} | reuse factor {}\n\
             latency          : {:.3} ms  ({} cycles)\n\
             power            : {:.2} W (dynamic {:.0}%)\n\
             energy / image   : {:.4} J\n\
             resources        : {}\n\
             fits device      : {}",
            best1.variant,
            best1.metrics.dropout_rate,
            best1.metrics.evaluation.accuracy,
            best1.metrics.evaluation.ece,
            best1.metrics.flops_ratio,
            best2.mapping,
            report.mc_engines,
            best3.format,
            best3.reuse_factor,
            report.latency_ms,
            report.latency_cycles,
            report.power.total_w(),
            100.0 * report.power.dynamic_fraction(),
            report.energy_per_image_j,
            report.total_resources,
            report.fits,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::phase1::ModelVariant;
    use crate::phase3::CALIBRATION_SAMPLES;
    use crate::pipeline::{PhaseId, PipelineSession, StageArtifact};
    use bnn_data::{DatasetSpec, SyntheticConfig};
    use bnn_hls::LoweredDesign;
    use bnn_models::ModelConfig;
    use bnn_quant::CalibratedNetwork;

    /// A LeNet-5 configuration small enough to run all four phases in a
    /// unit test.
    pub(crate) fn tiny_framework_config() -> FrameworkConfig {
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
        config.phase3.formats = vec![
            bnn_quant::FixedPointFormat::new(8, 3).unwrap(),
            bnn_quant::FixedPointFormat::new(16, 6).unwrap(),
        ];
        config
    }

    #[test]
    fn end_to_end_run_produces_a_complete_design() {
        let outcome = PipelineSession::new(tiny_framework_config())
            .unwrap()
            .run()
            .unwrap();
        // Phase 1 explored both requested variants.
        assert_eq!(outcome.phase1.candidates.len(), 2);
        // Phase 2 selected a feasible mapping.
        assert!(outcome.phase2.best().feasible);
        // Phase 3 kept quality within tolerance.
        assert!(outcome.phase3.best().feasible);
        // Phase 4 produced a project that fits the device.
        assert!(outcome.phase4.report.fits);
        let design = outcome.phase4.lowered.as_ref().unwrap();
        assert!(design.project().file("firmware/bayes_lenet5.cpp").is_some());
        assert_eq!(
            outcome.phase4.hls_config.format,
            outcome.phase3.best().format
        );
        let summary = outcome.summary();
        assert!(summary.contains("latency"));
        assert!(summary.contains("energy / image"));
    }

    #[test]
    fn phase4_lowers_the_design_the_recalibration_protocol_emitted() {
        let mut session = PipelineSession::new(tiny_framework_config()).unwrap();
        session.run_to(PhaseId::Phase4).unwrap();
        let a3 = session.artifacts().phase3.clone().unwrap();
        let a4 = session.artifacts().phase4.clone().unwrap();

        // Phase 4 lowers Phase 3's own record. It must emit the design a
        // fresh calibration of the rebuilt Phase 1 winner on the first
        // CALIBRATION_SAMPLES training inputs emits.
        let a1 = &a3.phase2.phase1;
        let calib = a1
            .data
            .train
            .take(CALIBRATION_SAMPLES)
            .unwrap()
            .inputs()
            .clone();
        let recalibrated =
            CalibratedNetwork::calibrate(&a1.instantiate_best().unwrap(), &calib).unwrap();
        assert_eq!(recalibrated, *a3.calibrated);
        let expected = LoweredDesign::generate(&recalibrated, &a4.output.hls_config).unwrap();
        assert_eq!(a4.output.lowered.as_ref(), Some(&expected));

        // Resuming from the Phase 3 artifact lowers the same design.
        let mut resumed = PipelineSession::new(tiny_framework_config()).unwrap();
        resumed.resume_from(StageArtifact::Phase3(a3));
        resumed.run_to(PhaseId::Phase4).unwrap();
        assert_eq!(
            resumed.artifacts().phase4.as_ref().unwrap().output,
            a4.output
        );
    }
}
