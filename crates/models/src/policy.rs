//! Early-exit retirement policies and the accounting returned by adaptive
//! batched execution.
//!
//! An [`ExitPolicy`] is the per-sample decision rule of adaptive inference:
//! after each exit head's probabilities join a sample's running ensemble,
//! the policy decides whether that sample retires at this exit or keeps
//! paying for deeper blocks. The decision is deliberately **row-local** —
//! it reads one sample's accumulated probabilities and the ensemble size,
//! nothing else — which is what keeps adaptive batched execution bit-exact
//! with evaluating each sample alone: compacting a batch can never change
//! any survivor's arithmetic.
//!
//! Both compiled plan families (`bnn_quant::QuantPlan` and
//! [`MultiExitPlan`](crate::MultiExitPlan)) run the one adaptive walk in
//! [`walker`](crate::walker), which calls these exact decision functions,
//! so "the same policy" means the same bits everywhere.

use bnn_tensor::Tensor;

/// When a sample may retire at an intermediate exit.
///
/// The thresholds compare against the sample's *running equally-weighted
/// ensemble* over the exits consulted so far (the "largest possible
/// ensemble at each exit" variant of the paper): at exit `i` the ensemble
/// mean of all accumulated softmax samples is scored, and the sample stops
/// at the first exit that satisfies the rule — or at the last exit
/// unconditionally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitPolicy {
    /// Never retire early: every sample runs to full depth. Reproduces the
    /// fixed-depth `predict_probs_batch` behaviour (and is bit-exact with
    /// it when MC samples are drawn).
    Never,
    /// Retire once the ensemble's top-class probability reaches
    /// `threshold` (in `[0, 1]`).
    Confidence {
        /// Minimum top-class ensemble probability to retire.
        threshold: f64,
    },
    /// Retire once the ensemble's *normalized* predictive entropy — the
    /// Shannon entropy divided by `ln(classes)`, so `0` is a one-hot
    /// prediction and `1` the uniform distribution — drops to `threshold`
    /// (in `[0, 1]`) or below.
    Entropy {
        /// Maximum normalized predictive entropy to retire.
        threshold: f64,
    },
}

impl ExitPolicy {
    /// `true` for [`ExitPolicy::Never`] — the fixed-depth configuration.
    pub fn is_never(&self) -> bool {
        matches!(self, ExitPolicy::Never)
    }

    /// Short policy name for reports: `never`, `confidence` or `entropy`.
    pub fn name(&self) -> &'static str {
        match self {
            ExitPolicy::Never => "never",
            ExitPolicy::Confidence { .. } => "confidence",
            ExitPolicy::Entropy { .. } => "entropy",
        }
    }

    /// The threshold knob, when the policy has one.
    pub fn threshold(&self) -> Option<f64> {
        match self {
            ExitPolicy::Never => None,
            ExitPolicy::Confidence { threshold } | ExitPolicy::Entropy { threshold } => {
                Some(*threshold)
            }
        }
    }

    /// Validates the policy's threshold: it must be finite and in `[0, 1]`
    /// (confidence is a probability; entropy is normalized by
    /// `ln(classes)` so the uniform distribution scores exactly `1`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ExitPolicy::Never => Ok(()),
            ExitPolicy::Confidence { threshold } | ExitPolicy::Entropy { threshold } => {
                if threshold.is_finite() && (0.0..=1.0).contains(threshold) {
                    Ok(())
                } else {
                    Err(format!(
                        "{} threshold must be finite and in [0, 1], got {threshold}",
                        self.name()
                    ))
                }
            }
        }
    }

    /// The retirement decision for one sample: `acc_row` holds the sample's
    /// accumulated (un-normalized) softmax probabilities and `denom` the
    /// number of MC samples in the ensemble, so the ensemble mean of class
    /// `c` is `acc_row[c] / denom`.
    ///
    /// Row-local and allocation-free by construction; the adaptive walk
    /// calls exactly this function for both plan families, so the decision
    /// bits cannot diverge between them.
    pub fn retires(&self, acc_row: &[f32], denom: f32) -> bool {
        match self {
            ExitPolicy::Never => false,
            ExitPolicy::Confidence { threshold } => {
                // Max-then-divide: the division is monotone, so this picks
                // the same element as dividing first — and matches the
                // historical `confidence_exit_predict` arithmetic bit for
                // bit.
                let max = acc_row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                f64::from(max / denom) >= *threshold
            }
            ExitPolicy::Entropy { threshold } => {
                let classes = acc_row.len();
                if classes <= 1 {
                    // A single class has zero entropy: always confident.
                    return true;
                }
                // Same per-element arithmetic as `bnn_tensor::ops::row_entropy`
                // applied to the ensemble mean.
                let mut entropy = 0.0f32;
                for &a in acc_row {
                    let p = a / denom;
                    if p > 1e-12 {
                        entropy -= p * p.ln();
                    }
                }
                f64::from(entropy / (classes as f32).ln()) <= *threshold
            }
        }
    }
}

impl std::fmt::Display for ExitPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.threshold() {
            None => write!(f, "{}", self.name()),
            Some(t) => write!(f, "{}({t})", self.name()),
        }
    }
}

/// Execution accounting returned by the adaptive batched entry points
/// (`predict_adaptive_batch{,_into}` on both plan families).
///
/// `ops` counts are the plans' static integer-op estimate: multiply-
/// accumulates for convolution/dense steps, touched elements for
/// element-wise and pooling steps — summed as `unit_ops x live_rows` over
/// every step actually executed. `ops_fixed` prices the same batch under
/// [`ExitPolicy::Never`], so `ops_saved_fraction` is the adaptive win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Samples in the batch.
    pub batch: usize,
    /// Classes per output row.
    pub classes: usize,
    /// Plan step invocations executed (each processes the whole live batch).
    pub steps_executed: u64,
    /// Integer-op estimate actually spent across the batch.
    pub ops_executed: u64,
    /// Integer-op estimate the same batch would cost at fixed depth.
    pub ops_fixed: u64,
}

impl AdaptiveStats {
    /// Fraction of the fixed-depth op budget the adaptive run avoided
    /// (`0.0` when nothing was saved or nothing was measured).
    pub fn ops_saved_fraction(&self) -> f64 {
        if self.ops_fixed == 0 {
            0.0
        } else {
            1.0 - self.ops_executed as f64 / self.ops_fixed as f64
        }
    }
}

/// An adaptive batched prediction materialized as owned values — what
/// `predict_adaptive_batch` (the non-`_into` convenience) returns.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePrediction {
    /// Final probabilities, `[batch, classes]`; each retired sample's row
    /// is its running ensemble mean at the exit it stopped at.
    pub probs: Tensor,
    /// Index of the exit each sample retired at.
    pub exit_taken: Vec<usize>,
    /// Execution accounting.
    pub stats: AdaptiveStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_unit_interval_only() {
        assert!(ExitPolicy::Never.validate().is_ok());
        assert!(ExitPolicy::Confidence { threshold: 0.0 }.validate().is_ok());
        assert!(ExitPolicy::Confidence { threshold: 1.0 }.validate().is_ok());
        assert!(ExitPolicy::Entropy { threshold: 0.5 }.validate().is_ok());
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                ExitPolicy::Confidence { threshold: bad }
                    .validate()
                    .is_err(),
                "confidence {bad}"
            );
            assert!(
                ExitPolicy::Entropy { threshold: bad }.validate().is_err(),
                "entropy {bad}"
            );
        }
    }

    #[test]
    fn confidence_matches_max_over_mean() {
        // acc = 2 samples summed; mean max = 0.8/2 = 0.4
        let acc = [0.8f32, 0.6, 0.6];
        let p = |t| ExitPolicy::Confidence { threshold: t }.retires(&acc, 2.0);
        assert!(p(0.4));
        assert!(p(0.39));
        assert!(!p(0.41));
        assert!(!ExitPolicy::Never.retires(&acc, 2.0));
    }

    #[test]
    fn entropy_is_normalized() {
        // Uniform over 4 classes: normalized entropy exactly 1 (up to f32).
        let uniform = [1.0f32; 4];
        assert!(ExitPolicy::Entropy { threshold: 1.0 }.retires(&uniform, 4.0));
        assert!(!ExitPolicy::Entropy { threshold: 0.9 }.retires(&uniform, 4.0));
        // One-hot: entropy 0, retires at any threshold.
        let onehot = [1.0f32, 0.0, 0.0, 0.0];
        assert!(ExitPolicy::Entropy { threshold: 0.0 }.retires(&onehot, 1.0));
    }

    #[test]
    fn stats_saved_fraction() {
        let s = AdaptiveStats {
            batch: 4,
            classes: 2,
            steps_executed: 10,
            ops_executed: 250,
            ops_fixed: 1000,
        };
        assert!((s.ops_saved_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(AdaptiveStats::default().ops_saved_fraction(), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ExitPolicy::Never.to_string(), "never");
        assert_eq!(
            ExitPolicy::Confidence { threshold: 0.5 }.to_string(),
            "confidence(0.5)"
        );
        assert_eq!(
            ExitPolicy::Entropy { threshold: 0.25 }.to_string(),
            "entropy(0.25)"
        );
    }
}
