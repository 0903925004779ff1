//! User constraints and optimization priorities (the two inputs that steer the
//! design-space exploration in Fig. 3 of the paper).

use crate::error::FrameworkError;
use bnn_hw::ResourceUsage;

/// What the grid search optimises for once constraints are satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptPriority {
    /// Maximise top-1 accuracy.
    Accuracy,
    /// Minimise expected calibration error.
    #[default]
    Calibration,
    /// Minimise FLOPs (relative to the single-exit baseline).
    Flops,
    /// Minimise end-to-end latency.
    Latency,
    /// Minimise energy per image.
    Energy,
}

impl std::fmt::Display for OptPriority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            OptPriority::Accuracy => "accuracy",
            OptPriority::Calibration => "calibration",
            OptPriority::Flops => "flops",
            OptPriority::Latency => "latency",
            OptPriority::Energy => "energy",
        };
        write!(f, "{name}")
    }
}

/// Constraints a candidate design must satisfy to survive filtering.
///
/// All fields are optional; `None` means "unconstrained".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserConstraints {
    /// Minimum acceptable top-1 accuracy.
    pub min_accuracy: Option<f64>,
    /// Maximum acceptable expected calibration error.
    pub max_ece: Option<f64>,
    /// Maximum FLOPs relative to the single-exit baseline (1.0 = no increase).
    pub max_flops_ratio: Option<f64>,
    /// Maximum end-to-end latency in milliseconds.
    pub max_latency_ms: Option<f64>,
    /// Maximum total power in watts.
    pub max_power_w: Option<f64>,
    /// Resource budget (defaults to the target device's full capacity).
    pub resource_budget: Option<ResourceUsage>,
}

impl UserConstraints {
    /// No constraints at all.
    pub fn none() -> Self {
        UserConstraints::default()
    }

    /// Requires at least `accuracy` top-1 accuracy.
    pub fn with_min_accuracy(mut self, accuracy: f64) -> Self {
        self.min_accuracy = Some(accuracy);
        self
    }

    /// Requires at most `ece` expected calibration error.
    pub fn with_max_ece(mut self, ece: f64) -> Self {
        self.max_ece = Some(ece);
        self
    }

    /// Requires at most `ratio` × the single-exit FLOPs.
    pub fn with_max_flops_ratio(mut self, ratio: f64) -> Self {
        self.max_flops_ratio = Some(ratio);
        self
    }

    /// Requires at most `latency_ms` milliseconds of latency.
    pub fn with_max_latency_ms(mut self, latency_ms: f64) -> Self {
        self.max_latency_ms = Some(latency_ms);
        self
    }

    /// Requires at most `power_w` watts.
    pub fn with_max_power_w(mut self, power_w: f64) -> Self {
        self.max_power_w = Some(power_w);
        self
    }

    /// Checks that every set bound is finite. A NaN bound rejects every
    /// candidate, which would surface as a misleading
    /// [`FrameworkError::NoFeasibleDesign`].
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::InvalidConfig`] naming the first
    /// non-finite bound.
    pub fn validate(&self) -> Result<(), FrameworkError> {
        let bounds = [
            ("minimum accuracy", self.min_accuracy),
            ("maximum ECE", self.max_ece),
            ("maximum FLOPs ratio", self.max_flops_ratio),
            ("maximum latency", self.max_latency_ms),
            ("maximum power", self.max_power_w),
        ];
        for (name, bound) in bounds {
            if let Some(bound) = bound.filter(|b| !b.is_finite()) {
                return Err(FrameworkError::InvalidConfig(format!(
                    "the {name} constraint must be finite, got {bound}"
                )));
            }
        }
        Ok(())
    }

    /// Checks the algorithmic part of the constraints.
    pub fn accepts_algorithm(&self, accuracy: f64, ece: f64, flops_ratio: f64) -> bool {
        self.min_accuracy.map_or(true, |min| accuracy >= min)
            && self.max_ece.map_or(true, |max| ece <= max)
            && self.max_flops_ratio.map_or(true, |max| flops_ratio <= max)
    }

    /// Checks the hardware part of the constraints.
    pub fn accepts_hardware(
        &self,
        latency_ms: f64,
        power_w: f64,
        resources: &ResourceUsage,
        device_budget: &ResourceUsage,
    ) -> bool {
        let budget = self.resource_budget.as_ref().unwrap_or(device_budget);
        self.max_latency_ms.map_or(true, |max| latency_ms <= max)
            && self.max_power_w.map_or(true, |max| power_w <= max)
            && resources.fits_within(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_accepts_everything() {
        let c = UserConstraints::none();
        assert!(c.accepts_algorithm(0.0, 1.0, 100.0));
        assert!(c.accepts_hardware(
            1e9,
            1e9,
            &ResourceUsage::new(1, 1, 1, 1),
            &ResourceUsage::new(1, 1, 1, 1)
        ));
    }

    #[test]
    fn algorithm_constraints_filter() {
        let c = UserConstraints::none()
            .with_min_accuracy(0.7)
            .with_max_ece(0.05)
            .with_max_flops_ratio(1.1);
        assert!(c.accepts_algorithm(0.75, 0.04, 1.0));
        assert!(!c.accepts_algorithm(0.65, 0.04, 1.0));
        assert!(!c.accepts_algorithm(0.75, 0.06, 1.0));
        assert!(!c.accepts_algorithm(0.75, 0.04, 1.2));
    }

    #[test]
    fn hardware_constraints_filter() {
        let device = ResourceUsage::new(100, 100, 100, 100);
        let c = UserConstraints::none()
            .with_max_latency_ms(1.0)
            .with_max_power_w(5.0);
        assert!(c.accepts_hardware(0.5, 4.0, &ResourceUsage::new(1, 1, 1, 1), &device));
        assert!(!c.accepts_hardware(2.0, 4.0, &ResourceUsage::new(1, 1, 1, 1), &device));
        assert!(!c.accepts_hardware(0.5, 6.0, &ResourceUsage::new(1, 1, 1, 1), &device));
        assert!(!c.accepts_hardware(0.5, 4.0, &ResourceUsage::new(200, 1, 1, 1), &device));
    }

    #[test]
    fn explicit_budget_overrides_device() {
        let device = ResourceUsage::new(100, 100, 100, 100);
        let mut c = UserConstraints::none();
        c.resource_budget = Some(ResourceUsage::new(10, 10, 10, 10));
        assert!(!c.accepts_hardware(0.1, 0.1, &ResourceUsage::new(50, 1, 1, 1), &device));
    }

    #[test]
    fn priority_display() {
        assert_eq!(OptPriority::Accuracy.to_string(), "accuracy");
        assert_eq!(OptPriority::default(), OptPriority::Calibration);
    }
}
