//! Hardware uniform random number generators for the MCD layer.
//!
//! The paper's Algorithm 1 compares a uniform random number against the keep
//! rate to build the dropout mask, and notes that "a random number generator is
//! used in our design to generate uniform random". This module provides the
//! bit-accurate generator such a design would instantiate (a Fibonacci LFSR)
//! together with its hardware cost, which feeds the MCD-layer resource model.

use crate::resource::ResourceUsage;

/// A 32-bit Fibonacci linear-feedback shift register (taps 32, 22, 2, 1).
///
/// # Example
///
/// ```
/// use bnn_hw::rng::Lfsr32;
///
/// let mut rng = Lfsr32::new(0xACE1_u32 as u32);
/// let a = rng.next_u32();
/// let b = rng.next_u32();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lfsr32 {
    state: u32,
}

impl Lfsr32 {
    /// Creates an LFSR from a non-zero seed (zero seeds are mapped to 1).
    pub fn new(seed: u32) -> Self {
        Lfsr32 {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// Advances one bit (one clock cycle of the shift register).
    fn step(&mut self) -> u32 {
        // Taps for a maximal-length 32-bit Fibonacci LFSR: 32, 22, 2, 1.
        let bit = (self.state ^ (self.state >> 10) ^ (self.state >> 30) ^ (self.state >> 31)) & 1;
        self.state = (self.state >> 1) | (bit << 31);
        bit
    }

    /// Produces a full 32-bit word (32 shifts; real designs run 32 LFSRs in
    /// parallel to get one word per cycle — the cost model accounts for that).
    pub fn next_u32(&mut self) -> u32 {
        let mut word = 0u32;
        for _ in 0..32 {
            word = (word << 1) | self.step();
        }
        word
    }

    /// A uniform value in `[0, 1)` with 24 bits of resolution.
    pub fn next_uniform(&mut self) -> f64 {
        (self.next_u32() >> 8) as f64 / (1u64 << 24) as f64
    }

    /// Hardware cost of one word-per-cycle uniform RNG instance (32 parallel
    /// LFSR bits plus the output register and comparator).
    pub fn hardware_cost() -> ResourceUsage {
        ResourceUsage::new(0, 0, 96, 72)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_is_deterministic_and_nonzero() {
        let mut a = Lfsr32::new(0xDEADBEEF);
        let mut b = Lfsr32::new(0xDEADBEEF);
        for _ in 0..64 {
            let x = a.next_u32();
            assert_eq!(x, b.next_u32());
            assert_ne!(x, 0);
        }
    }

    #[test]
    fn lfsr_zero_seed_is_fixed_up() {
        let mut rng = Lfsr32::new(0);
        assert_ne!(rng.next_u32(), 0);
    }

    #[test]
    fn lfsr_uniform_is_roughly_uniform() {
        let mut rng = Lfsr32::new(12345);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| rng.next_uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        // all samples in range
        let mut rng = Lfsr32::new(54321);
        assert!((0..1000).all(|_| {
            let u = rng.next_uniform();
            (0.0..1.0).contains(&u)
        }));
    }

    #[test]
    fn lfsr_does_not_cycle_quickly() {
        let mut rng = Lfsr32::new(7);
        let first = rng.next_u32();
        let mut cycled = false;
        for _ in 0..10_000 {
            if rng.next_u32() == first {
                cycled = true;
                break;
            }
        }
        assert!(!cycled);
    }

    #[test]
    fn hardware_costs_use_no_bram_or_dsp() {
        // The paper observes the MCD layer needs no BRAM; the RNG is pure logic.
        let c = Lfsr32::hardware_cost();
        assert_eq!(c.bram_36k, 0);
        assert_eq!(c.dsp, 0);
        assert!(c.lut > 0 && c.ff > 0);
    }

    #[test]
    fn bernoulli_rate_against_keep_rate_threshold() {
        // Reproduce the Algorithm 1 mask statistics: P(uniform > keep) = 1 - keep.
        let keep = 0.75;
        let mut rng = Lfsr32::new(2023);
        let n = 20_000;
        let dropped = (0..n).filter(|_| rng.next_uniform() > keep).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate}");
    }
}
