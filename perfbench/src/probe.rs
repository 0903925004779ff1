//! Host speed probe: fixed loops built from no workspace crate, so that
//! their cost changes only when the host does.
//!
//! The host this benchmark was tuned on (a 2-vCPU KVM guest) swings in
//! speed by up to half at a scale of seconds, and not uniformly: depending
//! on what shares the machine, vector float code, scalar dependency chains
//! and integer SIMD slow down by different amounts. One probe slice
//! therefore runs four loops, one of each kind, back to back. Timing a
//! slice between calls of a workload on the same thread and dividing each
//! call by its neighbouring slices gives a ratio that stays steadier than
//! the raw time (measured over 16 ten-second offline runs: quartile spread
//! 4% against 15% raw; any single loop alone did worse). `host.factor` is
//! the measured slice time over [`NOMINAL_PROBE_MS`]; timings are scaled to
//! the nominal host by it.

use std::hint::black_box;
use std::time::Instant;

/// Side of the square operands of the matrix loops.
const N: usize = 96;
/// Iterations of the integer dependency chain.
const CHAIN: usize = 200_000;

/// Slice time, in ms, of the nominal host that normalised timings refer
/// to. A unit choice, not a measurement this run depends on.
pub const NOMINAL_PROBE_MS: f64 = 1.0;

/// Slices whose median brackets one side of a long unit of work.
const BRACKET_SLICES: usize = 9;

/// The probe's operands, allocated once, and every slice time it measured.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    qa: Vec<i16>,
    qb: Vec<i16>,
    times_ms: Vec<f64>,
    /// Median of the bracket that closed the previous bracketed unit, which
    /// opens the next one.
    last_bracket: Option<f64>,
}

impl Probe {
    /// Builds the fixed operands.
    pub fn new() -> Self {
        Probe {
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.125).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32 * 0.25).collect(),
            c: vec![0.0; N * N],
            qa: (0..N * N).map(|i| (i % 251) as i16 - 125).collect(),
            qb: (0..N * N).map(|i| (i % 241) as i16 - 120).collect(),
            times_ms: Vec::new(),
            last_bracket: None,
        }
    }

    /// Runs `n` slices back to back, recording each.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.run_ms();
        }
    }

    /// Runs `f` between two brackets of probe slices and returns its result,
    /// its wall time in ms, and that time scaled to the nominal host by the
    /// mean of the two bracket medians. Consecutive units share the bracket
    /// between them. Work that cannot be interleaved with slices is normalised
    /// this way: coarser than per-call interleaving, since the host's speed
    /// can change within the unit.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = match self.last_bracket {
            Some(b) => b,
            None => self.slice_median(),
        };
        let start = Instant::now();
        let r = f();
        let raw = start.elapsed().as_secs_f64() * 1e3;
        let after = self.slice_median();
        self.last_bracket = Some(after);
        (r, raw, normalise_time(raw, 0.5 * (before + after)))
    }

    /// Runs a set-up `repeats` times (at least once), each bracketed, and
    /// returns the last set-up's result with every set-up's normalised and
    /// raw time in seconds. The previous result is dropped before the next
    /// set-up starts, outside its bracket.
    pub fn repeat<T, E>(
        &mut self,
        repeats: usize,
        mut setup: impl FnMut() -> Result<T, E>,
    ) -> Result<(T, Vec<f64>, Vec<f64>), E> {
        let (mut last, mut norm_s, mut raw_s) = (None, Vec::new(), Vec::new());
        for _ in 0..repeats.max(1) {
            drop(last.take());
            let (done, raw, norm) = self.bracket(&mut setup);
            last = Some(done?);
            norm_s.push(norm / 1e3);
            raw_s.push(raw / 1e3);
        }
        Ok((last.expect("at least one set-up ran"), norm_s, raw_s))
    }

    fn slice_median(&mut self) -> f64 {
        let first = self.times_ms.len();
        self.sample(BRACKET_SLICES);
        crate::stats::median(&self.times_ms[first..]).expect("slices just ran")
    }

    /// Median of every slice run so far (`host.ref_ms`), or `None` before
    /// the first.
    pub fn ref_ms(&self) -> Option<f64> {
        crate::stats::median(&self.times_ms)
    }

    /// Runs one probe slice, records it and returns its wall time in ms.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        // Vector float: row-streaming multiply-add, which LLVM vectorises.
        self.c.fill(0.0);
        for i in 0..N {
            for k in 0..N {
                let av = a[i * N + k];
                let row = &b[k * N..(k + 1) * N];
                for (c, &bv) in self.c[i * N..(i + 1) * N].iter_mut().zip(row) {
                    *c += av * bv;
                }
            }
        }
        black_box(&mut self.c);
        // Scalar float: dot-product reductions, a dependency chain LLVM may
        // not reorder.
        let mut total = 0.0f32;
        for i in 0..N {
            for j in 0..N {
                let mut sum = 0.0f32;
                for k in 0..N {
                    sum += a[i * N + k] * b[k * N + j];
                }
                total += sum;
            }
        }
        black_box(total);
        // Integer SIMD: widening i16 dot products.
        let (qa, qb) = (black_box(&self.qa), black_box(&self.qb));
        let mut acc = 0i32;
        for i in 0..N {
            for j in 0..N {
                let dot: i32 = qa[i * N..(i + 1) * N]
                    .iter()
                    .zip(&qb[j * N..(j + 1) * N])
                    .map(|(&x, &y)| i32::from(x) * i32::from(y))
                    .sum();
                acc = acc.wrapping_add(dot);
            }
        }
        black_box(acc);
        // Scalar integer: a xorshift dependency chain.
        let mut x = black_box(0x1234_5678_u64);
        for _ in 0..CHAIN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        let t = start.elapsed().as_secs_f64() * 1e3;
        self.times_ms.push(t);
        t
    }
}

/// Host factor of a probe time: how much slower than nominal the host ran.
pub fn host_factor(probe_ms: f64) -> f64 {
    probe_ms / NOMINAL_PROBE_MS
}

/// A call time scaled to the nominal host, given the probe time measured
/// next to it: `call / factor`, i.e. `call * nominal / probe`.
pub fn normalise_time(call_ms: f64, probe_ms: f64) -> f64 {
    call_ms / host_factor(probe_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_arithmetic() {
        assert!((host_factor(NOMINAL_PROBE_MS) - 1.0).abs() < 1e-12);
        assert!((host_factor(2.0 * NOMINAL_PROBE_MS) - 2.0).abs() < 1e-12);
        // A host running at half speed doubles both call and probe times:
        // the normalised time is unchanged.
        let fast = normalise_time(4.0, NOMINAL_PROBE_MS);
        let slow = normalise_time(8.0, 2.0 * NOMINAL_PROBE_MS);
        assert!((fast - 4.0).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
        assert!((normalise_time(3.0, 0.5 * NOMINAL_PROBE_MS) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn probe_does_fixed_work_and_records_it() {
        let mut p = Probe::new();
        p.sample(2);
        let first = p.c.clone();
        let t = p.run_ms();
        assert!(t > 0.0);
        assert_eq!(first, p.c, "each slice recomputes the same product");
        assert_eq!(p.times_ms.len(), 3);
        assert!(p.ref_ms().is_some());
        assert_eq!(Probe::new().ref_ms(), None);
    }

    #[test]
    fn brackets_share_their_boundary() {
        let mut p = Probe::new();
        let (v, raw, norm) = p.bracket(|| 7);
        assert_eq!(v, 7);
        assert!(raw >= 0.0 && norm >= 0.0);
        assert_eq!(p.times_ms.len(), 2 * BRACKET_SLICES);
        p.bracket(|| ());
        assert_eq!(p.times_ms.len(), 3 * BRACKET_SLICES);
        let mut n = 0;
        let (last, norm, raw) = p
            .repeat(3, || {
                n += 1;
                Ok::<_, ()>(n)
            })
            .unwrap();
        assert_eq!((last, norm.len(), raw.len()), (3, 3, 3));
        assert_eq!(p.times_ms.len(), 6 * BRACKET_SLICES);
    }
}
