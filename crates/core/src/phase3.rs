//! Phase 3 — algorithm and hardware co-exploration.
//!
//! Grid search over exactly two axes: the datapath bitwidth ({4, 6, 8, 16}
//! bits, [`bnn_quant::FixedPointFormat::search_space`]) and the per-layer
//! reuse factor, constrained to not degrade algorithmic quality relative to
//! the full-precision reference (the paper's requirement) while minimising
//! the hardware cost for the chosen priority. The paper's third axis —
//! channel scaling ({C, C/2, C/4, C/8}) — is **not searched here**: channel
//! width is fixed by Phase 1's `width_divisor` before training, and every
//! Phase 3 candidate scores that same architecture. Re-opening channel width
//! would require retraining per candidate, which this phase never does.
//!
//! Algorithmic quality of a bitwidth is measured by post-training
//! quantization of the trained Phase 1 model (`bnn-quant`). Every design
//! point is scored on the **true integer inference path** via a compiled
//! execution plan ([`bnn_quant::QuantPlan`]): the float calibration forward
//! runs **once per candidate** over a representative training batch
//! ([`bnn_quant::CalibratedNetwork`]), and each searched format derives its
//! `i8`/`i16` weight codes, packed kernel layouts and arena-allocated
//! integer executor from the shared range record — the per-format loop runs
//! no float inference and rebuilds no model. Evaluation uses integer
//! accumulation and saturation — the arithmetic the generated accelerator
//! actually performs. Formats wider than 16 bits have no integer plan and
//! are rejected by [`Phase3Config::validate`].

use crate::constraints::{OptPriority, UserConstraints};
use crate::error::FrameworkError;
use crate::framework::FrameworkConfig;
use crate::phase2::Phase2Artifact;
use crate::pipeline::{PhaseId, PipelineObserver};
use bnn_bayes::metrics::accuracy;
use bnn_bayes::sampling::{McSampler, SamplingConfig};
use bnn_data::Dataset;
use bnn_hw::accelerator::{AcceleratorConfig, AcceleratorModel, AcceleratorReport};
use bnn_hw::MappingStrategy;
use bnn_models::{MultiExitNetwork, NetworkSpec};
use bnn_quant::{CalibratedNetwork, FixedPointFormat};
use bnn_tensor::exec::Executor;
use bnn_tensor::Tensor;
use std::sync::Arc;

/// Number of training samples used to calibrate activation ranges when a
/// design point is scored on the integer path.
pub(crate) const CALIBRATION_SAMPLES: usize = 32;

/// One evaluated (bitwidth, reuse factor) co-exploration point.
#[derive(Debug, Clone, PartialEq)]
pub struct CoExplorationPoint {
    /// Fixed-point format of the candidate.
    pub format: FixedPointFormat,
    /// Reuse factor of the candidate.
    pub reuse_factor: usize,
    /// Accuracy of the quantized model on the evaluation set, measured on
    /// the integer plan of this format.
    pub quantized_accuracy: f64,
    /// Hardware report of the candidate.
    pub report: AcceleratorReport,
    /// Whether the candidate keeps algorithmic quality within tolerance and
    /// satisfies the hardware constraints.
    pub feasible: bool,
}

/// Result of the Phase 3 co-exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase3Result {
    /// Accuracy of the unquantized reference model.
    pub reference_accuracy: f64,
    /// Every evaluated point.
    pub points: Vec<CoExplorationPoint>,
    /// Index of the selected point.
    pub best_index: usize,
}

impl Phase3Result {
    /// The selected co-exploration point.
    pub fn best(&self) -> &CoExplorationPoint {
        &self.points[self.best_index]
    }
}

/// Configuration of the Phase 3 grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase3Config {
    /// Candidate fixed-point formats (defaults to the paper's {4, 6, 8, 16}).
    pub formats: Vec<FixedPointFormat>,
    /// Candidate reuse factors.
    pub reuse_factors: Vec<usize>,
    /// Maximum tolerated accuracy drop versus the unquantized reference.
    pub accuracy_tolerance: f64,
    /// Number of MC samples used during quality evaluation.
    pub mc_samples: usize,
}

impl Default for Phase3Config {
    fn default() -> Self {
        Phase3Config {
            formats: FixedPointFormat::search_space(),
            reuse_factors: vec![8, 16, 32, 64],
            accuracy_tolerance: 0.02,
            mc_samples: 4,
        }
    }
}

impl Phase3Config {
    /// Validates the co-exploration grid.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::InvalidConfig`] for an empty format/reuse
    /// grid, a format wider than 16 bits (the integer plan's widest code), an
    /// accuracy tolerance that is negative or not finite, or zero evaluation
    /// MC samples.
    pub fn validate(&self) -> Result<(), FrameworkError> {
        if self.formats.is_empty() || self.reuse_factors.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "phase 3 must have at least one bitwidth and one reuse factor".into(),
            ));
        }
        if let Some(wide) = self.formats.iter().find(|f| f.total_bits() > 16) {
            return Err(FrameworkError::InvalidConfig(format!(
                "phase 3 scores formats on the integer plan, which holds at most 16 bits; got {wide}"
            )));
        }
        if !(self.accuracy_tolerance.is_finite() && self.accuracy_tolerance >= 0.0) {
            return Err(FrameworkError::InvalidConfig(format!(
                "phase 3 accuracy tolerance must be non-negative and finite, got {}",
                self.accuracy_tolerance
            )));
        }
        if self.mc_samples == 0 {
            return Err(FrameworkError::InvalidConfig(
                "phase 3 must evaluate with at least one MC sample".into(),
            ));
        }
        Ok(())
    }
}

/// The reusable output of Phase 3: the co-exploration result, the
/// calibration record every candidate was scored from, and the embedded
/// Phase 2 artifact, so it is a self-sufficient resume point.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase3Artifact {
    /// The Phase 2 artifact this exploration was run on.
    pub phase2: Phase2Artifact,
    /// The co-exploration result.
    pub result: Phase3Result,
    /// The calibrated Phase 1 winner whose per-format integer plans were
    /// scored; Phase 4 lowers the selected format from this same record.
    /// Shared, so the artifacts that embed this one do not copy the weights.
    pub calibrated: Arc<CalibratedNetwork>,
}

impl Phase3Artifact {
    /// The selected fixed-point format.
    pub fn format(&self) -> FixedPointFormat {
        self.result.best().format
    }

    /// The selected reuse factor.
    pub fn reuse_factor(&self) -> usize {
        self.result.best().reuse_factor
    }

    /// The mapping selected by Phase 2.
    pub fn mapping(&self) -> MappingStrategy {
        self.phase2.mapping()
    }
}

/// Runs the co-exploration on the Phase 1 trained model under the Phase 2
/// mapping, reporting each grid point to `observer`. The model is
/// instantiated from the artifact's stored weights — it is **not**
/// retrained.
///
/// The per-format design points evaluate concurrently on
/// [`FrameworkConfig::executor`], each from the one shared calibration
/// record; MC evaluation masks come from seeded streams, so the result —
/// and the observer event sequence, delivered in grid order at the phase
/// boundary — is independent of the thread count.
///
/// # Errors
///
/// Returns [`FrameworkError::InvalidConfig`] if `framework` fails
/// [`FrameworkConfig::validate`], [`FrameworkError::NoFeasibleDesign`] if no
/// point is feasible, or propagates evaluation/estimation errors.
pub fn run(
    framework: &FrameworkConfig,
    input: &Phase2Artifact,
    observer: &dyn PipelineObserver,
) -> Result<Phase3Artifact, FrameworkError> {
    framework.validate()?;
    let mut trained = input.phase1.instantiate_best()?;
    // Integer-path candidates calibrate their activation formats on a
    // representative batch of *training* inputs (never the held-out
    // evaluation set the quality check runs on).
    let train = &input.phase1.data.train;
    let calib = train
        .take(CALIBRATION_SAMPLES.min(train.len()))?
        .inputs()
        .clone();
    let (result, calibrated) = explore(
        input.phase1.best_spec(),
        &mut trained,
        &input.phase1.data.test,
        &calib,
        &framework
            .accelerator_baseline()
            .with_mapping(input.mapping()),
        &framework.phase3,
        &framework.constraints,
        framework.priority,
        &framework.executor(),
        observer,
    )?;
    Ok(Phase3Artifact {
        phase2: input.clone(),
        result,
        calibrated: Arc::new(calibrated),
    })
}

/// The co-exploration over a trained model, returned with the calibration
/// record every candidate was scored from.
///
/// `trained` itself is left untouched: every candidate derives its compiled
/// plan from one shared calibration record, so the per-format workers share
/// only immutable state, which is what lets the formats evaluate
/// concurrently on `executor`. `eval_set` is the held-out evaluation data;
/// `calib` is the representative input batch the single calibration forward
/// runs on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore(
    spec: &NetworkSpec,
    trained: &mut MultiExitNetwork,
    eval_set: &Dataset,
    calib: &Tensor,
    base_config: &AcceleratorConfig,
    phase3: &Phase3Config,
    constraints: &UserConstraints,
    priority: OptPriority,
    executor: &Executor,
    observer: &dyn PipelineObserver,
) -> Result<(Phase3Result, CalibratedNetwork), FrameworkError> {
    let sampler = McSampler::new(SamplingConfig::new(phase3.mc_samples));
    let inputs = eval_set.inputs().clone();
    let labels = eval_set.labels().to_vec();

    let reference_probs = sampler.predict(trained, &inputs)?.mean_probs;
    let reference_accuracy = accuracy(&reference_probs, &labels)?;

    // Calibrate once per candidate: one float forward over the calibration
    // batch records every weight/activation range, and each format's
    // compiled execution plan derives from the shared record — the
    // per-format loop below runs no float inference and builds no model
    // replica.
    let calibrated = CalibratedNetwork::calibrate(trained, calib)?;

    let outcomes = executor.par_map_indexed(
        &phase3.formats,
        |_, &format| -> Result<Vec<(CoExplorationPoint, String)>, FrameworkError> {
            // True fixed-point inference on the compiled plan: packed
            // weights, arena-allocated intermediates, seeded MC samples drawn
            // entirely in the integer domain.
            let quantized_probs = calibrated.plan(format)?.predict_probs(
                &inputs,
                phase3.mc_samples,
                sampler.config().seed,
            )?;
            let quantized_accuracy = accuracy(&quantized_probs, &labels)?;
            let quality_ok = quantized_accuracy + phase3.accuracy_tolerance >= reference_accuracy;

            let mut points = Vec::with_capacity(phase3.reuse_factors.len());
            for &reuse in &phase3.reuse_factors {
                let config = base_config
                    .clone()
                    .with_bits(format.total_bits())
                    .with_reuse_factor(reuse);
                let report = AcceleratorModel::new(spec.clone(), config.clone())?.estimate()?;
                let feasible = quality_ok
                    && report.fits
                    && constraints.accepts_hardware(
                        report.latency_ms,
                        report.power.total_w(),
                        &report.total_resources,
                        &config.device.resources,
                    );
                let summary = format!(
                    "{format} reuse {reuse}: quantized acc {quantized_accuracy:.4} (int), \
                     latency {:.4} ms, feasible {feasible}",
                    report.latency_ms
                );
                points.push((
                    CoExplorationPoint {
                        format,
                        reuse_factor: reuse,
                        quantized_accuracy,
                        report,
                        feasible,
                    },
                    summary,
                ));
            }
            Ok(points)
        },
    );

    let mut points = Vec::with_capacity(phase3.formats.len() * phase3.reuse_factors.len());
    for outcome in outcomes {
        for (point, summary) in outcome? {
            observer.on_candidate(PhaseId::Phase3, points.len(), &summary);
            points.push(point);
        }
    }

    let feasible: Vec<usize> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.feasible)
        .map(|(i, _)| i)
        .collect();
    if feasible.is_empty() {
        return Err(FrameworkError::NoFeasibleDesign(
            "no bitwidth/reuse-factor point preserves quality within the constraints".into(),
        ));
    }
    let best_index = feasible
        .into_iter()
        .min_by(|&a, &b| {
            let score = |i: usize| -> f64 {
                let p = &points[i];
                match priority {
                    OptPriority::Latency => p.report.latency_ms,
                    OptPriority::Energy => p.report.energy_per_image_j,
                    OptPriority::Accuracy => -p.quantized_accuracy,
                    _ => p.report.utilization.max_fraction(),
                }
            };
            score(a)
                .partial_cmp(&score(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("feasible set is non-empty");

    Ok((
        Phase3Result {
            reference_accuracy,
            points,
            best_index,
        },
        calibrated,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::NoopObserver;
    use bnn_data::{DatasetSpec, SyntheticConfig};
    use bnn_hw::FpgaDevice;
    use bnn_models::{zoo, ModelConfig};
    use bnn_nn::optimizer::Sgd;
    use bnn_nn::trainer::{train, LabelledBatchSource, TrainConfig};

    #[allow(clippy::too_many_arguments)]
    fn co_explore(
        spec: &NetworkSpec,
        trained: &mut MultiExitNetwork,
        eval_set: &Dataset,
        calib: &Tensor,
        base_config: &AcceleratorConfig,
        phase3: &Phase3Config,
        constraints: &UserConstraints,
        priority: OptPriority,
    ) -> Result<Phase3Result, FrameworkError> {
        explore(
            spec,
            trained,
            eval_set,
            calib,
            base_config,
            phase3,
            constraints,
            priority,
            &Executor::global(),
            &NoopObserver,
        )
        .map(|(result, _)| result)
    }

    fn trained_setup() -> (NetworkSpec, MultiExitNetwork, Dataset, Tensor) {
        let model_cfg = ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4);
        let spec = zoo::lenet5(&model_cfg)
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap();
        let data = SyntheticConfig::new(
            DatasetSpec::mnist_like()
                .with_resolution(10, 10)
                .with_classes(4),
        )
        .with_samples(64, 48)
        .generate(5)
        .unwrap();
        let mut network = spec.build(1).unwrap();
        let batches =
            LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())
                .unwrap();
        let mut sgd = Sgd::new(0.05).with_momentum(0.9);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..TrainConfig::default()
        };
        train(&mut network, &batches, &mut sgd, &cfg).unwrap();
        let calib = data.train.take(16).unwrap().inputs().clone();
        (spec, network, data.test, calib)
    }

    #[test]
    fn validate_rejects_formats_wider_than_the_integer_plan() {
        let mut config = Phase3Config::default();
        assert!(config.validate().is_ok());
        config.formats.push(FixedPointFormat::new(24, 8).unwrap());
        match config.validate() {
            Err(FrameworkError::InvalidConfig(msg)) => assert!(msg.contains("16"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn co_exploration_selects_a_feasible_point() {
        let (spec, mut network, test, calib) = trained_setup();
        let base = AcceleratorConfig::new(FpgaDevice::xcku115());
        let result = co_explore(
            &spec,
            &mut network,
            &test,
            &calib,
            &base,
            &Phase3Config::default(),
            &UserConstraints::none(),
            OptPriority::Energy,
        )
        .unwrap();
        assert_eq!(result.points.len(), 4 * 4);
        let best = result.best();
        assert!(best.feasible);
        // quality preserved within tolerance
        assert!(best.quantized_accuracy + 0.02 >= result.reference_accuracy);
    }

    #[test]
    fn sixteen_bit_candidates_preserve_accuracy() {
        let (spec, mut network, test, calib) = trained_setup();
        let base = AcceleratorConfig::new(FpgaDevice::xcku115());
        let result = co_explore(
            &spec,
            &mut network,
            &test,
            &calib,
            &base,
            &Phase3Config::default(),
            &UserConstraints::none(),
            OptPriority::Calibration,
        )
        .unwrap();
        let wide: Vec<&CoExplorationPoint> = result
            .points
            .iter()
            .filter(|p| p.format.total_bits() == 16)
            .collect();
        for p in wide {
            assert!(
                (p.quantized_accuracy - result.reference_accuracy).abs() < 0.05,
                "16-bit accuracy {} vs reference {}",
                p.quantized_accuracy,
                result.reference_accuracy
            );
        }
    }

    #[test]
    fn energy_priority_never_picks_a_slower_wider_design_than_needed() {
        let (spec, mut network, test, calib) = trained_setup();
        let base = AcceleratorConfig::new(FpgaDevice::xcku115());
        let result = co_explore(
            &spec,
            &mut network,
            &test,
            &calib,
            &base,
            &Phase3Config::default(),
            &UserConstraints::none(),
            OptPriority::Energy,
        )
        .unwrap();
        let best = result.best();
        for p in result.points.iter().filter(|p| p.feasible) {
            assert!(best.report.energy_per_image_j <= p.report.energy_per_image_j + 1e-12);
        }
    }
}
