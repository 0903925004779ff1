//! FLOP accounting helpers.
//!
//! The paper reports FLOPs relative to the single-exit baseline (Table I) and
//! derives the multi-exit sampling cost reduction analytically (Eqs. 1–3).
//! This module provides the shared bookkeeping: a [`FlopReport`] splitting a
//! model's cost into its shared backbone ("main body") and its exits, plus the
//! closed-form sampling-cost formulas.

/// FLOP breakdown of a multi-exit model into backbone and exit components.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlopReport {
    /// FLOPs of the shared backbone ("main body" in the paper's notation).
    pub main_body: u64,
    /// FLOPs of each exit branch, ordered from the earliest to the final exit.
    pub exits: Vec<u64>,
}

impl FlopReport {
    /// Creates a report from backbone and per-exit FLOP counts.
    pub fn new(main_body: u64, exits: Vec<u64>) -> Self {
        FlopReport { main_body, exits }
    }

    /// Total FLOPs of one full forward pass through backbone and all exits.
    pub fn total(&self) -> u64 {
        self.main_body + self.exits.iter().sum::<u64>()
    }

    /// Summed FLOPs of all exit branches.
    pub fn exit_total(&self) -> u64 {
        self.exits.iter().sum()
    }

    /// The paper's `alpha = FLOP_exit / FLOP_main` ratio.
    pub fn alpha(&self) -> f64 {
        if self.main_body == 0 {
            return 0.0;
        }
        self.exit_total() as f64 / self.main_body as f64
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }
}

/// FLOPs needed by a *single-exit* BayesNN to draw `n_samples` MC samples
/// (paper Eq. 1): every sample reruns the entire network.
pub fn single_exit_sampling_flops(flop_main: u64, flop_exit: u64, n_samples: u64) -> u64 {
    n_samples * (flop_main + flop_exit)
}

/// FLOPs needed by an `n_exits` multi-exit BayesNN to draw `n_samples` MC
/// samples (paper Eq. 2): the backbone runs once per forward pass and each
/// pass yields `n_exits` samples.
///
/// `n_samples` is rounded up to a whole number of forward passes.
pub fn multi_exit_sampling_flops(
    flop_main: u64,
    flop_exit_total: u64,
    n_samples: u64,
    n_exits: u64,
) -> u64 {
    if n_exits == 0 {
        return 0;
    }
    let passes = n_samples.div_ceil(n_exits);
    flop_main + passes * flop_exit_total
}

/// The paper's Eq. 3: FLOP reduction rate of multi-exit over single-exit
/// sampling, `(1 + alpha) / (1/N_sample + alpha/N_exit)`.
pub fn flop_reduction_rate(alpha: f64, n_samples: f64, n_exits: f64) -> f64 {
    if n_samples <= 0.0 || n_exits <= 0.0 {
        return 0.0;
    }
    (1.0 + alpha) / (1.0 / n_samples + alpha / n_exits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn report_totals() {
        let r = FlopReport::new(1000, vec![50, 60, 70]);
        assert_eq!(r.total(), 1180);
        assert_eq!(r.exit_total(), 180);
        assert_eq!(r.num_exits(), 3);
        assert!((r.alpha() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn alpha_of_zero_backbone_is_zero() {
        let r = FlopReport::new(0, vec![10]);
        assert_eq!(r.alpha(), 0.0);
    }

    #[test]
    fn eq1_single_exit_cost_scales_linearly() {
        assert_eq!(single_exit_sampling_flops(100, 10, 1), 110);
        assert_eq!(single_exit_sampling_flops(100, 10, 5), 550);
    }

    #[test]
    fn eq2_multi_exit_cost() {
        // 4 exits, 8 samples -> 2 passes of all exits, backbone charged once.
        assert_eq!(multi_exit_sampling_flops(100, 40, 8, 4), 100 + 2 * 40);
        // samples not divisible by exits round up to a full pass
        assert_eq!(multi_exit_sampling_flops(100, 40, 9, 4), 100 + 3 * 40);
        assert_eq!(multi_exit_sampling_flops(100, 40, 3, 0), 0);
    }

    #[test]
    fn eq3_reduction_rate_examples() {
        // With alpha=0.1, 8 samples, 4 exits:
        let r = flop_reduction_rate(0.1, 8.0, 4.0);
        let expected = (1.0 + 0.1) / (1.0 / 8.0 + 0.1 / 4.0);
        assert!((r - expected).abs() < 1e-12);
        assert!(r > 1.0);
    }

    #[test]
    fn eq3_degenerate_inputs() {
        assert_eq!(flop_reduction_rate(0.1, 0.0, 4.0), 0.0);
        assert_eq!(flop_reduction_rate(0.1, 8.0, 0.0), 0.0);
    }

    proptest! {
        #[test]
        fn reduction_rate_at_least_one_when_samples_ge_exits(
            alpha in 0.0f64..10.0,
            n_exits in 1u32..16,
            extra in 0u32..64,
        ) {
            let n_samples = (n_exits + extra) as f64;
            let r = flop_reduction_rate(alpha, n_samples, n_exits as f64);
            // With more samples than exits, multi-exit can only help (>= 1).
            prop_assert!(r >= 1.0 - 1e-9, "rate {r}");
        }

        #[test]
        fn eq2_never_exceeds_eq1_per_pass_equivalence(
            flop_main in 1u64..1_000_000,
            flop_exit in 0u64..100_000,
            n_exits in 1u64..8,
            passes in 1u64..8,
        ) {
            let n_samples = n_exits * passes;
            let single = single_exit_sampling_flops(flop_main, flop_exit, n_samples);
            // Multi-exit total exit cost per pass is at most n_exits * flop_exit
            let multi = multi_exit_sampling_flops(flop_main, n_exits * flop_exit, n_samples, n_exits);
            prop_assert!(multi <= single + flop_main);
        }
    }
}
