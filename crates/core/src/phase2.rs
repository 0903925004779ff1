//! Phase 2 — spatial and temporal mapping optimization.
//!
//! Given the Phase 1 network and a target device, this phase explores how the
//! Monte-Carlo passes are mapped onto hardware MC engines (spatial, temporal or
//! hybrid, Fig. 4) and picks the cheapest mapping that satisfies the latency
//! and resource constraints — or the fastest one that fits, when the
//! optimization priority is latency.

use crate::constraints::{OptPriority, UserConstraints};
use crate::error::FrameworkError;
use crate::framework::FrameworkConfig;
use crate::phase1::Phase1Artifact;
use crate::pipeline::{PhaseId, PipelineObserver};
use bnn_hw::accelerator::{AcceleratorConfig, AcceleratorModel, AcceleratorReport};
use bnn_hw::MappingStrategy;
use bnn_models::{NetworkSpec, SampleSchedule};

/// One evaluated mapping candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingCandidate {
    /// The mapping strategy.
    pub mapping: MappingStrategy,
    /// The full hardware report under this mapping.
    pub report: AcceleratorReport,
    /// Whether the candidate satisfies the constraints and fits the device.
    pub feasible: bool,
}

/// Result of the Phase 2 exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Result {
    /// Every evaluated mapping.
    pub candidates: Vec<MappingCandidate>,
    /// Index of the selected mapping in `candidates`.
    pub best_index: usize,
}

impl Phase2Result {
    /// The selected mapping candidate.
    pub fn best(&self) -> &MappingCandidate {
        &self.candidates[self.best_index]
    }
}

/// The reusable output of Phase 2: the mapping exploration result plus the
/// embedded Phase 1 artifact, so it is a self-sufficient resume point.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Artifact {
    /// The Phase 1 artifact this exploration was run on.
    pub phase1: Phase1Artifact,
    /// The mapping exploration result.
    pub result: Phase2Result,
}

impl Phase2Artifact {
    /// The selected mapping strategy.
    pub fn mapping(&self) -> MappingStrategy {
        self.result.best().mapping
    }
}

/// Runs the mapping exploration on the Phase 1 best network, reporting each
/// mapping candidate to `observer`. The candidate set is derived from the
/// network and [`FrameworkConfig::mc_samples`].
///
/// # Errors
///
/// Returns [`FrameworkError::InvalidConfig`] if `framework` fails
/// [`FrameworkConfig::validate`], [`FrameworkError::NoFeasibleDesign`] if no
/// mapping fits the device and constraints, or propagates estimation errors.
pub fn run(
    framework: &FrameworkConfig,
    input: &Phase1Artifact,
    observer: &dyn PipelineObserver,
) -> Result<Phase2Artifact, FrameworkError> {
    framework.validate()?;
    let result = explore(
        input.best_spec(),
        &framework.accelerator_baseline(),
        &framework.constraints,
        framework.priority,
        observer,
    )?;
    Ok(Phase2Artifact {
        phase1: input.clone(),
        result,
    })
}

/// The mapping exploration over a network spec and accelerator baseline
/// (whose `mapping` field is ignored and swept instead).
pub(crate) fn explore(
    spec: &NetworkSpec,
    base_config: &AcceleratorConfig,
    constraints: &UserConstraints,
    priority: OptPriority,
    observer: &dyn PipelineObserver,
) -> Result<Phase2Result, FrameworkError> {
    let passes = SampleSchedule::new(base_config.mc_samples, spec.num_exits()).passes();
    let mut candidates = Vec::new();
    for mapping in MappingStrategy::candidates(passes) {
        let config = base_config.clone().with_mapping(mapping);
        let model = AcceleratorModel::new(spec.clone(), config.clone())?;
        let report = model.estimate()?;
        let feasible = report.fits
            && constraints.accepts_hardware(
                report.latency_ms,
                report.power.total_w(),
                &report.total_resources,
                &config.device.resources,
            );
        observer.on_candidate(
            PhaseId::Phase2,
            candidates.len(),
            &format!(
                "{mapping}: latency {:.4} ms, {} engine(s), feasible {feasible}",
                report.latency_ms, report.mc_engines
            ),
        );
        candidates.push(MappingCandidate {
            mapping,
            report,
            feasible,
        });
    }

    let feasible: Vec<usize> = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.feasible)
        .map(|(i, _)| i)
        .collect();
    if feasible.is_empty() {
        return Err(FrameworkError::NoFeasibleDesign(
            "no spatial/temporal mapping satisfies the latency/resource constraints".into(),
        ));
    }
    let best_index = feasible
        .into_iter()
        .min_by(|&a, &b| {
            let score = |i: usize| -> f64 {
                let r = &candidates[i].report;
                match priority {
                    OptPriority::Latency => r.latency_ms,
                    OptPriority::Energy => r.energy_per_image_j,
                    // Algorithm-side priorities fall back to minimising resources.
                    _ => r.utilization.max_fraction(),
                }
            };
            score(a)
                .partial_cmp(&score(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("feasible set is non-empty");

    Ok(Phase2Result {
        candidates,
        best_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::NoopObserver;
    use bnn_hw::FpgaDevice;
    use bnn_models::{zoo, ModelConfig};

    fn map(
        spec: &NetworkSpec,
        base_config: &AcceleratorConfig,
        constraints: &UserConstraints,
        priority: OptPriority,
    ) -> Result<Phase2Result, FrameworkError> {
        explore(spec, base_config, constraints, priority, &NoopObserver)
    }

    fn spec() -> NetworkSpec {
        zoo::lenet5(&ModelConfig::mnist().with_width_divisor(2))
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap()
    }

    fn config() -> AcceleratorConfig {
        AcceleratorConfig::new(FpgaDevice::xcku115())
            .with_bits(8)
            .with_reuse_factor(16)
            .with_mc_samples(8)
    }

    #[test]
    fn explores_multiple_mappings() {
        let result = map(
            &spec(),
            &config(),
            &UserConstraints::none(),
            OptPriority::Latency,
        )
        .unwrap();
        assert!(result.candidates.len() >= 2);
        assert!(result.best().feasible);
    }

    #[test]
    fn latency_priority_prefers_spatial() {
        let result = map(
            &spec(),
            &config(),
            &UserConstraints::none(),
            OptPriority::Latency,
        )
        .unwrap();
        // spatial has the lowest latency of all candidates
        let best_latency = result.best().report.latency_ms;
        for c in &result.candidates {
            assert!(best_latency <= c.report.latency_ms + 1e-12);
        }
        assert_eq!(result.best().mapping, MappingStrategy::Spatial);
    }

    #[test]
    fn resource_priority_prefers_temporal() {
        let result = map(
            &spec(),
            &config(),
            &UserConstraints::none(),
            OptPriority::Calibration,
        )
        .unwrap();
        assert_eq!(result.best().mapping, MappingStrategy::Temporal);
    }

    #[test]
    fn tight_latency_constraint_excludes_temporal() {
        // Find the spatial latency and constrain just above it.
        let unconstrained = map(
            &spec(),
            &config(),
            &UserConstraints::none(),
            OptPriority::Latency,
        )
        .unwrap();
        let spatial_latency = unconstrained.best().report.latency_ms;
        let constraints = UserConstraints::none().with_max_latency_ms(spatial_latency * 1.01);
        let result = map(&spec(), &config(), &constraints, OptPriority::Calibration).unwrap();
        assert_eq!(result.best().mapping, MappingStrategy::Spatial);
    }

    #[test]
    fn impossible_constraints_error() {
        let constraints = UserConstraints::none().with_max_latency_ms(1e-9);
        let err = map(&spec(), &config(), &constraints, OptPriority::Latency).unwrap_err();
        assert!(matches!(err, FrameworkError::NoFeasibleDesign(_)));
    }
}
