//! Graceful degradation: a quality ladder with a hysteresis controller.
//!
//! The paper's co-design gives serving two *quality* dials that trade
//! compute for confidence — the MC-ensemble size and the early-exit
//! aggressiveness. Under sustained queue pressure the server should shed
//! **depth** before it sheds **requests**: step down a configured ladder of
//! `(mc_samples, policy)` quality steps, and step back up once pressure
//! clears. Every [`Reply`] carries the tier it was served at
//! (`quality_tier`, `0` = the configured full quality), so degraded
//! responses stay auditable and bit-exact with a direct plan call at the
//! same tier.
//!
//! The controller is hysteretic on purpose: a tier only changes after the
//! queue has been observed beyond a watermark for several consecutive batch
//! assemblies (`step_down_batches` / `step_up_batches`), so a single bursty
//! arrival or an idle gap cannot make the quality flap.
//!
//! [`Reply`]: crate::Reply

use crate::sync::lock_ok;
use bnn_models::ExitPolicy;
use std::sync::Mutex;

/// One rung of the quality ladder: the MC-sample count and exit policy
/// requests are served under while this tier is active.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityStep {
    /// Monte-Carlo samples per prediction at this tier (typically a
    /// fraction of the configured full-quality `mc_samples`).
    pub mc_samples: usize,
    /// Early-exit policy at this tier (typically more aggressive than the
    /// configured one: a lower confidence bar retires more samples early).
    pub policy: ExitPolicy,
}

/// Configuration of the degradation controller.
///
/// Tier `0` is the server's configured `(mc_samples, policy)`; `ladder[t-1]`
/// is the quality of tier `t`. The controller steps **down** (towards
/// cheaper tiers) after `step_down_batches` consecutive batch assemblies
/// observed the queue at or above `high_watermark`, and steps **up** after
/// `step_up_batches` consecutive assemblies observed it at or below
/// `low_watermark`. Depths between the watermarks reset both streaks — the
/// hysteresis band.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeConfig {
    /// Queue depth at/above which an assembly counts towards stepping down.
    pub high_watermark: usize,
    /// Queue depth at/below which an assembly counts towards stepping up.
    pub low_watermark: usize,
    /// Consecutive high-pressure assemblies required to step down one tier.
    pub step_down_batches: u32,
    /// Consecutive low-pressure assemblies required to step up one tier.
    pub step_up_batches: u32,
    /// The quality steps below full quality, cheapest last.
    pub ladder: Vec<QualityStep>,
}

impl DegradeConfig {
    /// A controller with the given watermarks, an empty ladder (add steps
    /// with [`DegradeConfig::with_step`]) and default streak lengths: step
    /// down after 2 pressured assemblies, up after 8 clear ones (recovering
    /// is deliberately slower than degrading).
    pub fn new(high_watermark: usize, low_watermark: usize) -> Self {
        DegradeConfig {
            high_watermark,
            low_watermark,
            step_down_batches: 2,
            step_up_batches: 8,
            ladder: Vec::new(),
        }
    }

    /// Appends a quality step (builder-style); the first appended step is
    /// tier 1, the next tier 2, and so on.
    pub fn with_step(mut self, mc_samples: usize, policy: ExitPolicy) -> Self {
        self.ladder.push(QualityStep { mc_samples, policy });
        self
    }

    /// Validates watermark ordering, streak lengths and every ladder step's
    /// MC-sample count and policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.ladder.is_empty() {
            return Err("degrade ladder needs at least one quality step".into());
        }
        if self.high_watermark == 0 {
            return Err("high_watermark must be >= 1".into());
        }
        if self.low_watermark >= self.high_watermark {
            return Err(format!(
                "low_watermark ({}) must be below high_watermark ({})",
                self.low_watermark, self.high_watermark
            ));
        }
        if self.step_down_batches == 0 || self.step_up_batches == 0 {
            return Err("step_down_batches and step_up_batches must be >= 1".into());
        }
        for (i, step) in self.ladder.iter().enumerate() {
            if step.mc_samples == 0 {
                return Err(format!("ladder step {}: mc_samples must be >= 1", i + 1));
            }
            step.policy
                .validate()
                .map_err(|e| format!("ladder step {}: {e}", i + 1))?;
        }
        Ok(())
    }
}

/// Mutable controller state: the active tier and the two pressure streaks.
struct CtlState {
    tier: usize,
    hot_streak: u32,
    cool_streak: u32,
    steps_down: u64,
    steps_up: u64,
}

/// The running hysteresis controller the worker pool shares.
pub(crate) struct DegradeCtl {
    cfg: DegradeConfig,
    state: Mutex<CtlState>,
}

impl DegradeCtl {
    pub(crate) fn new(cfg: DegradeConfig) -> Self {
        DegradeCtl {
            cfg,
            state: Mutex::new(CtlState {
                tier: 0,
                hot_streak: 0,
                cool_streak: 0,
                steps_down: 0,
                steps_up: 0,
            }),
        }
    }

    /// Records one batch-assembly observation of the queue depth and
    /// returns the tier the assembled batch must be served at.
    pub(crate) fn observe(&self, queue_depth: usize) -> usize {
        let mut s = lock_ok(&self.state);
        if queue_depth >= self.cfg.high_watermark {
            s.cool_streak = 0;
            s.hot_streak += 1;
            if s.hot_streak >= self.cfg.step_down_batches && s.tier < self.cfg.ladder.len() {
                s.tier += 1;
                s.steps_down += 1;
                s.hot_streak = 0;
            }
        } else if queue_depth <= self.cfg.low_watermark {
            s.hot_streak = 0;
            s.cool_streak += 1;
            if s.cool_streak >= self.cfg.step_up_batches && s.tier > 0 {
                s.tier -= 1;
                s.steps_up += 1;
                s.cool_streak = 0;
            }
        } else {
            // Inside the hysteresis band: neither streak survives.
            s.hot_streak = 0;
            s.cool_streak = 0;
        }
        s.tier
    }

    /// The currently active tier.
    pub(crate) fn tier(&self) -> usize {
        lock_ok(&self.state).tier
    }

    /// `(steps_down, steps_up)` transition counters so far.
    pub(crate) fn steps(&self) -> (u64, u64) {
        let s = lock_ok(&self.state);
        (s.steps_down, s.steps_up)
    }

    /// Number of tiers including full quality (for sizing per-tier stats).
    pub(crate) fn tiers(&self) -> usize {
        self.cfg.ladder.len() + 1
    }

    /// The `(mc_samples, policy)` quality of `tier`, given the configured
    /// full-quality baseline.
    pub(crate) fn quality(
        &self,
        tier: usize,
        base_mc: usize,
        base_policy: &ExitPolicy,
    ) -> (usize, ExitPolicy) {
        if tier == 0 {
            (base_mc, *base_policy)
        } else {
            let step = &self.cfg.ladder[tier - 1];
            (step.mc_samples, step.policy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_step() -> DegradeConfig {
        DegradeConfig::new(8, 2)
            .with_step(4, ExitPolicy::Never)
            .with_step(2, ExitPolicy::Confidence { threshold: 0.25 })
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(DegradeConfig::new(8, 2).validate().is_err()); // empty ladder
        assert!(DegradeConfig::new(2, 8)
            .with_step(4, ExitPolicy::Never)
            .validate()
            .is_err()); // inverted watermarks
        assert!(DegradeConfig::new(0, 0)
            .with_step(4, ExitPolicy::Never)
            .validate()
            .is_err()); // zero high watermark
        assert!(two_step()
            .with_step(1, ExitPolicy::Confidence { threshold: 2.0 })
            .validate()
            .is_err()); // out-of-range policy
        assert!(two_step()
            .with_step(0, ExitPolicy::Never)
            .validate()
            .is_err()); // a step without MC samples
        let mut zero_streak = two_step();
        zero_streak.step_down_batches = 0;
        assert!(zero_streak.validate().is_err());
        assert!(two_step().validate().is_ok());
    }

    #[test]
    fn steps_down_after_streak_and_back_up() {
        let ctl = DegradeCtl::new(two_step());
        assert_eq!(ctl.observe(10), 0); // hot streak 1 of 2
        assert_eq!(ctl.observe(10), 1); // streak complete: tier 1
        assert_eq!(ctl.observe(10), 1);
        assert_eq!(ctl.observe(12), 2); // second streak: tier 2 (floor)
        for _ in 0..4 {
            assert_eq!(ctl.observe(20), 2); // clamped at the ladder floor
        }
        // Recovery needs step_up_batches (8) consecutive clear assemblies.
        for i in 0..7 {
            assert_eq!(ctl.observe(0), 2, "observation {i}");
        }
        assert_eq!(ctl.observe(0), 1);
        assert_eq!(ctl.tier(), 1);
        assert_eq!(ctl.steps(), (2, 1));
    }

    #[test]
    fn hysteresis_band_resets_streaks() {
        let ctl = DegradeCtl::new(two_step());
        assert_eq!(ctl.observe(10), 0);
        assert_eq!(ctl.observe(5), 0); // in-band: hot streak dies
        assert_eq!(ctl.observe(10), 0); // streak restarts at 1
        assert_eq!(ctl.observe(10), 1);
    }

    #[test]
    fn quality_maps_tiers_to_ladder_steps() {
        let ctl = DegradeCtl::new(two_step());
        let base = ExitPolicy::Confidence { threshold: 0.9 };
        assert_eq!(ctl.quality(0, 8, &base), (8, base));
        assert_eq!(ctl.quality(1, 8, &base), (4, ExitPolicy::Never));
        assert_eq!(
            ctl.quality(2, 8, &base),
            (2, ExitPolicy::Confidence { threshold: 0.25 })
        );
        assert_eq!(ctl.tiers(), 3);
    }
}
