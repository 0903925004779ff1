//! The benchmark's own input generator: a seeded RNG, seeded permutations
//! and the open-loop arrival schedule. It uses no workspace code, so the
//! inputs a seed gives stay fixed while the program under test changes.

use std::time::Duration;

/// SplitMix64: small, seedable, and enough for schedules and shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Open-loop Poisson arrivals at a constant `rate` (requests/s): the due
/// offset of every request that falls inside `horizon`, from the start of
/// the stream. Gaps are exponential, drawn from `seed` alone.
pub fn poisson_schedule(seed: u64, rate: f64, horizon: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    let horizon = horizon.as_secs_f64();
    let mut due = Vec::with_capacity((rate * horizon * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= horizon {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_its_seed() {
        let h = Duration::from_secs(2);
        let a = poisson_schedule(11, 15_000.0, h);
        assert_eq!(a, poisson_schedule(11, 15_000.0, h));
        assert_ne!(a, poisson_schedule(12, 15_000.0, h));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&d| d < h));
        // ~30k arrivals expected; Poisson spread is ~±173.
        let n = a.len() as f64;
        assert!((n - 30_000.0).abs() < 1_000.0, "{n} arrivals");
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let p = permutation(100, 3);
        assert_eq!(p, permutation(100, 3));
        assert_ne!(p, permutation(100, 4));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut rng = Rng::new(0);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(rng.below(7) < 7);
        }
    }
}
