//! Integer linear-algebra kernels for the fixed-point inference path.
//!
//! The float kernels in [`crate::linalg`] carry every value as `f32`. The
//! kernels here are the fixed-point article — `i8`/`i16` operands,
//! `i32`/`i64` accumulators — and model what an FPGA datapath with
//! `ap_fixed` arithmetic actually computes. They operate on raw slices (no `Tensor` wrapper):
//! scale/zero-point bookkeeping lives one layer up, in `bnn-quant`.
//!
//! # Arithmetic contract
//!
//! * **Exact accumulation.** `a[i8] * b[i8]` products are at most `2^14` in
//!   magnitude, so an `i32` accumulator is exact for reductions of fewer
//!   than `2^17` terms — far beyond any layer in this workspace (the widest
//!   reduction, a dense layer on flattened CIFAR features, is a few thousand
//!   terms). The `i16` kernel accumulates in `i64` and is exact for any
//!   practical reduction (up to `2^33` terms). Kernels therefore never
//!   saturate *during* accumulation; saturation is applied explicitly when a
//!   wide accumulator is requantized back to a narrow storage type (see
//!   [`round_shift`] and [`saturate`]).
//! * **Rounding.** [`round_shift`] rounds to nearest with ties away from
//!   zero — the same convention as `f32::round`, which
//!   `bnn_quant::FixedPointFormat::quantize` uses.
//! * **Determinism.** Integer addition is associative, so any execution
//!   order gives the same bits; the kernels still split work into disjoint
//!   output row blocks on a [`parpool::Executor`] exactly like the float
//!   kernels, preserving the PR-3 threading contract (one writer per output
//!   element, identical results for every thread count).
//! * **SIMD dispatch.** The hot inner loops — the packed matmul kernels
//!   (the outer-product convolution GEMM [`matmul_ab_i32_into`] /
//!   [`matmul_ab_i64_into`] and the 8-bit dot-product dense GEMM
//!   [`matmul_wide_i32_into`]) and the requantize row helpers — route
//!   through a runtime backend selected once per process (see
//!   [`crate::simd`]). Because accumulation is exact, every backend produces
//!   the same bits as the scalar reference; the scalar kernels stay compiled
//!   in as the fallback and as the oracle the parity suite checks vector
//!   backends against. The 16-bit dense GEMM [`matmul_abt_i64_into`] runs
//!   portable code only.
//! * **Elementwise steps in `i32` lanes.** [`AffineRequant`] and
//!   [`merge_i16_row_into`] are portable loops without a dispatch: they
//!   round by the branch-free ties-away identity in `i32` lanes, which the
//!   compiler vectorizes at baseline codegen. The merge is exact in `i32`
//!   for every pair of shifts; the affine map is exact when its constants
//!   prove the lanes cannot overflow ([`affine_fits_i32`]) and falls back
//!   to the scalar `i64` [`requantize`] otherwise. Either way the bits are
//!   those of [`requantize`].
//! * **The GEMM steps: one epilogue.** The plans' conv ([`conv_i32_into`],
//!   [`conv_i64_into`]: tap-major unfold, outer-product GEMM) and dense
//!   steps ([`dense_i32_into`], [`dense_i64_into`]: weights-left
//!   dot-product GEMM) fill one exact accumulator row per output channel
//!   and share one epilogue: a requantize pass per row with its one bias
//!   (in `i32` lanes when [`conv_requant_fits_i32`] holds), copied out a
//!   plane run per sample (one code per sample for a dense layer). The
//!   position-major [`im2row_i16_into`] is on no plan's path.

use crate::linalg::{fill_row_blocks, ConvGeometry};
use crate::simd::Backend;
use crate::TensorError;
use parpool::Executor;

/// Rounds `value / 2^shift` to the nearest integer, ties away from zero.
///
/// This is the requantization primitive of the fixed-point path: because
/// every scale in an `ap_fixed` pipeline is a power of two, rescaling an
/// accumulator to an output format is exactly a rounding right-shift. A
/// `shift` of zero returns the value unchanged.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::round_shift;
///
/// assert_eq!(round_shift(10, 2), 3); // 2.5 rounds away from zero
/// assert_eq!(round_shift(-10, 2), -3);
/// assert_eq!(round_shift(9, 2), 2); // 2.25 rounds down
/// assert_eq!(round_shift(7, 0), 7);
/// ```
pub fn round_shift(value: i64, shift: u32) -> i64 {
    if shift == 0 {
        return value;
    }
    let bias = 1i64 << (shift - 1);
    if value >= 0 {
        (value + bias) >> shift
    } else {
        // Mirror the positive case so ties round away from zero.
        -((-value + bias) >> shift)
    }
}

/// Clamps a wide accumulator value into `[min, max]` — the explicit
/// saturation step of the fixed-point path (matching `ap_fixed`'s `AP_SAT`
/// overflow mode rather than two's-complement wrap-around).
///
/// # Example
///
/// ```
/// use bnn_tensor::int::saturate;
///
/// assert_eq!(saturate(300, -128, 127), 127);
/// assert_eq!(saturate(-300, -128, 127), -128);
/// assert_eq!(saturate(5, -128, 127), 5);
/// ```
pub fn saturate(value: i64, min: i64, max: i64) -> i64 {
    value.clamp(min, max)
}

/// Rescales an accumulator by `2^-shift` (rounding to nearest, ties away
/// from zero) and saturates the result into `[min, max]` — the full
/// requantize-one-value operation. Negative shifts scale *up* (saturating),
/// for the rare case where the output format has more fractional bits than
/// the accumulator.
pub fn requantize(value: i64, shift: i32, min: i64, max: i64) -> i64 {
    let scaled = if shift >= 0 {
        round_shift(value, shift as u32)
    } else {
        value.saturating_mul(1i64 << (-shift).min(62))
    };
    saturate(scaled, min, max)
}

/// Returns true when the whole-row requantize can take the SIMD path:
/// a plain rounding right-shift (no scale-up) into bounds that fit the
/// `i16` storage type the vector kernels narrow into.
fn simd_requant_ok(backend: Backend, shift: i32, min: i64, max: i64) -> bool {
    backend != Backend::Scalar
        && shift >= 0
        && min >= i16::MIN as i64
        && max <= i16::MAX as i64
        && min <= max
}

/// Requantizes a whole row of `i32` accumulators sharing one bias into `i16`
/// storage: `out[i] = saturate(round_shift(acc[i] + bias, shift), min, max)`
/// — the per-output-channel epilogue of the conv and dense steps. Dispatches
/// to the active SIMD backend when the parameters fit its contract
/// (`shift >= 0`, bounds within `i16`), otherwise runs the scalar reference;
/// both produce identical bits.
///
/// # Panics
///
/// Panics if `acc` and `out` differ in length.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::requantize_i32_row_into;
///
/// let acc = [10i32, -10, 1000];
/// let mut out = [0i16; 3];
/// requantize_i32_row_into(&acc, 0, 2, -128, 127, &mut out);
/// assert_eq!(out, [3, -3, 127]);
/// ```
pub fn requantize_i32_row_into(
    acc: &[i32],
    bias: i64,
    shift: i32,
    min: i64,
    max: i64,
    out: &mut [i16],
) {
    assert_eq!(
        acc.len(),
        out.len(),
        "requantize_i32_row_into length mismatch"
    );
    let backend = simdkern::active();
    if simd_requant_ok(backend, shift, min, max) {
        simdkern::requantize_i32_row(backend, acc, bias, shift as u32, min, max, out);
    } else {
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = requantize(a as i64 + bias, shift, min, max) as i16;
        }
    }
}

/// [`requantize_i32_row_into`] for `i64` accumulators (the wide-format
/// conv and dense epilogue).
///
/// # Panics
///
/// Panics if `acc` and `out` differ in length.
pub fn requantize_i64_row_into(
    acc: &[i64],
    bias: i64,
    shift: i32,
    min: i64,
    max: i64,
    out: &mut [i16],
) {
    assert_eq!(
        acc.len(),
        out.len(),
        "requantize_i64_row_into length mismatch"
    );
    let backend = simdkern::active();
    if simd_requant_ok(backend, shift, min, max) {
        simdkern::requantize_i64_row(backend, acc, bias, shift as u32, min, max, out);
    } else {
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = requantize(a + bias, shift, min, max) as i16;
        }
    }
}

/// Returns true when the affine requantize `round_shift(x·m + b, shift)` is
/// exact in `i32` lanes for every `i16` code `x`:
/// `2^15·|m| + |b| + 2^shift < 2^31`. The product, the offset and the
/// rounding bias then never leave `i32`. [`AffineRequant`] decides its
/// lane width by this rule.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::affine_fits_i32;
///
/// // A folded batch-norm multiplier of about 1.0 at 12 fractional bits.
/// assert!(affine_fits_i32(4096, -300, 12));
/// // An inverted-dropout scale of 1/0.05 = 20 at 12 fractional bits.
/// assert!(!affine_fits_i32(81920, 0, 12));
/// ```
pub fn affine_fits_i32(m: i64, b: i64, shift: u32) -> bool {
    let reach = (u128::from(m.unsigned_abs()) << 15)
        + u128::from(b.unsigned_abs())
        + (1u128 << shift.min(64));
    reach < 1 << 31
}

/// One power-of-two requantize in `i32` lanes:
/// `clamp(((t << up) + half - [t < 0]) >> down, lo, hi)`. With `down > 0`,
/// `half = 2^(down-1)` and the `[t < 0]` correction this is the branch-free
/// form of [`round_shift`] (ties away from zero); with `down = 0` both are
/// zero and the value is only scaled up and clamped. Every caller proves
/// its lanes cannot overflow before building one.
#[derive(Debug, Clone, Copy)]
struct LaneRequant {
    up: u32,
    down: u32,
    half: i32,
    /// `-1` (all ones) when rounding, so `(t >> 31) & neg` is `-[t < 0]`.
    neg: i32,
    lo: i16,
    hi: i16,
}

impl LaneRequant {
    /// A rounding right shift by `down` into `[min, max]`.
    fn right(down: u32, min: i16, max: i16) -> Self {
        let rounding = down > 0;
        LaneRequant {
            up: 0,
            down,
            half: if rounding { 1 << (down - 1) } else { 0 },
            neg: -i32::from(rounding),
            lo: min,
            hi: max,
        }
    }

    /// [`requantize`] of one `i16` code by any `shift` into `[min, max]`,
    /// with shifts capped where the cap changes no result.
    /// A right shift of 17 or more rounds every `i16` code to 0 (the rounded
    /// `|x| / 2^17 <= 1/4`), so 17 stands for all of them. A scale-up of 15
    /// bits already takes every nonzero code to `|x| >= 2^15`, at or past
    /// both `i16` rails, so the clamp gives the same result as the saturating
    /// scale-up by more; `2^15 · 2^15` stays inside `i32`.
    fn code(shift: i32, min: i16, max: i16) -> Self {
        if shift >= 0 {
            Self::right(shift.unsigned_abs().min(17), min, max)
        } else {
            LaneRequant {
                up: shift.unsigned_abs().min(15),
                ..Self::right(0, min, max)
            }
        }
    }

    /// The clamp saturates into `i16` first and then clamps to the rails in
    /// `i16`: the same result, as one narrowing pack and two `i16` min/max
    /// at baseline codegen instead of `i32` compare-and-blend sequences.
    #[inline(always)]
    fn apply(self, t: i32) -> i16 {
        let t = t << self.up;
        let r = (t + self.half + ((t >> 31) & self.neg)) >> self.down;
        (r.clamp(i16::MIN.into(), i16::MAX.into()) as i16)
            .max(self.lo)
            .min(self.hi)
    }
}

/// The requantizing affine map
/// `x ↦ saturate(round_shift(x·m + b, shift), min, max)` on `i16` codes,
/// with exactly the bits of [`requantize`] — the folded batch-norm step of
/// the integer plans (and, with `b = 0`, the kept planes of inverted MC
/// dropout).
///
/// [`AffineRequant::new`] picks the lane width once, so a caller that maps
/// many small planes with the same constants decides only once: when
/// [`affine_fits_i32`] holds, [`AffineRequant::apply`] runs in `i32` lanes with the
/// branch-free ties-away rounding `(t + 2^(shift-1) - [t < 0]) >> shift`,
/// which the compiler vectorizes at baseline codegen; otherwise it runs the
/// scalar `i64` [`requantize`] on each code.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::AffineRequant;
///
/// // x * 1.5 - 0.5 at 2 fractional bits: m = 6, b = -2.
/// let mut codes = [1i16, 2, -1, 100];
/// AffineRequant::new(6, -2, 2, -128, 127).apply(&mut codes);
/// assert_eq!(codes, [1, 3, -2, 127]); // 1.0, 2.5 (ties away), -2.0, saturated
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AffineRequant {
    m: i64,
    b: i64,
    shift: u32,
    min: i16,
    max: i16,
    /// The `i32`-lane form, when the constants prove it exact.
    lane: Option<LaneRequant>,
}

impl AffineRequant {
    /// The map for one set of constants into the codes `[min, max]`
    /// (`min <= max`), with its lane width decided.
    pub fn new(m: i64, b: i64, shift: u32, min: i16, max: i16) -> Self {
        let exact = affine_fits_i32(m, b, shift);
        AffineRequant {
            m,
            b,
            shift,
            min,
            max,
            lane: exact.then(|| LaneRequant::right(shift, min, max)),
        }
    }

    /// Maps every code in place. To map `src` into a different `dst`, copy
    /// it there first.
    pub fn apply(&self, codes: &mut [i16]) {
        let (m, b) = (self.m, self.b);
        match self.lane {
            Some(lane) => {
                let (m, b) = (m as i32, b as i32);
                for v in codes.iter_mut() {
                    *v = lane.apply(*v as i32 * m + b);
                }
            }
            None => {
                let (shift, min, max) = (self.shift as i32, self.min.into(), self.max.into());
                for v in codes.iter_mut() {
                    *v = requantize(*v as i64 * m + b, shift, min, max) as i16;
                }
            }
        }
    }
}

/// The residual merge of the integer plans: each operand requantized to the
/// output format by its own shift, then the sum clamped into `[0, max]`
/// (the merge's ReLU):
/// `out[i] = (requantize(main[i], main_shift) + requantize(short[i], short_shift)).max(0).min(max)`,
/// both requantizes saturating into `[min, max]`. A negative shift scales
/// up (saturating), as in [`requantize`].
///
/// The loop runs in `i32` lanes for every pair of shifts: right shifts
/// round by the branch-free ties-away identity, and shifts are capped at 17
/// bits down and 15 bits up, beyond which no clamped result changes.
/// `[min, max]` are the output format's codes (`min <= max`).
///
/// # Panics
///
/// Panics if `main`, `short` and `out` differ in length.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::merge_i16_row_into;
///
/// // main at one more fractional bit than the output, shortcut at one fewer.
/// let (main, short) = ([5i16, -9, 254], [3i16, -1, 1]);
/// let mut out = [0i16; 3];
/// merge_i16_row_into(&main, &short, 1, -1, -128, 127, &mut out);
/// assert_eq!(out, [9, 0, 127]); // 3 + 6; max(-5 - 2, 0); 127 + 2 saturated
/// ```
pub fn merge_i16_row_into(
    main: &[i16],
    short: &[i16],
    main_shift: i32,
    short_shift: i32,
    min: i16,
    max: i16,
    out: &mut [i16],
) {
    assert_eq!(main.len(), out.len(), "merge_i16_row_into length mismatch");
    assert_eq!(short.len(), out.len(), "merge_i16_row_into length mismatch");
    let (a_lane, b_lane) = (
        LaneRequant::code(main_shift, min, max),
        LaneRequant::code(short_shift, min, max),
    );
    // Both operands lie in [min, max], so the saturating i16 sum clamps to
    // [0, max] exactly as the i64 sum does.
    for ((o, &a), &b) in out.iter_mut().zip(main).zip(short) {
        *o = a_lane
            .apply(a as i32)
            .saturating_add(b_lane.apply(b as i32))
            .max(0)
            .min(max);
    }
}

/// Checks the operand lengths of an `[m, k] x [k, n]` product (`b` either
/// `[k, n]` or, transposed, `[n, k]`) into `out_len` accumulators.
fn check_matmul(
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out_len: usize,
    op: &'static str,
) -> Result<(), TensorError> {
    if a.len() != m * k || b.len() != k * n || out_len != m * n {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![a.len(), m, k],
            rhs: vec![b.len(), k, n],
            op,
        });
    }
    Ok(())
}

/// Multiplies `a16` (`[m, k]` row-major) by the transpose of `bt16`
/// (`[n, k]` row-major) into the exact `i32` accumulator slice `out`
/// (`[m, n]`, fully overwritten) — the dense GEMM of the integer plans
/// ([`dense_i32_into`]), with the packed `[out_f, in_f]` weights as `a16`
/// and the `[batch, in_f]` input codes as `bt16`.
///
/// Operands must hold **i8-range** values widened to `i16`. Every output
/// is a dot product of two contiguous rows, vectorized along the reduction
/// and register-blocked eight `a16` rows per `bt16` row; row blocks fan out
/// over `exec`, and one thread allocates nothing.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if slice lengths do not match
/// `m * k` / `n * k` / `m * n`, or if `k` exceeds the exact-accumulation
/// bound for i8-range operands (`k < 2^17`; see the
/// [module documentation](self)).
///
/// # Example
///
/// ```
/// use bnn_tensor::exec::Executor;
/// use bnn_tensor::int::matmul_wide_i32_into;
///
/// # fn main() -> Result<(), bnn_tensor::TensorError> {
/// let a = [1i16, 2, 3, 4]; // [2, 2]
/// let bt = [5i16, 7, 6, 8]; // [5 6; 7 8] transposed
/// let mut out = [0i32; 4];
/// matmul_wide_i32_into(&Executor::sequential(), &a, &bt, 2, 2, 2, &mut out)?;
/// assert_eq!(out, [19, 22, 43, 50]);
/// # Ok(())
/// # }
/// ```
pub fn matmul_wide_i32_into(
    exec: &Executor,
    a16: &[i16],
    bt16: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) -> Result<(), TensorError> {
    check_matmul(a16, bt16, m, k, n, out.len(), "matmul_wide_i32_into")?;
    // Strict bound: |product| peaks at (-128)^2 = 2^14, so k = 2^17 terms
    // could reach exactly 2^31 and overflow i32; only k < 2^17 is exact.
    if k >= (1 << 17) {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![k, n],
            op: "matmul_wide_i32_into: k exceeds exact i32 accumulation bound (< 2^17)",
        });
    }
    let a16 = &a16[..m * k];
    let backend = if k < VECTOR_MATMUL_MIN_K {
        Backend::Scalar
    } else {
        simdkern::active()
    };
    fill_row_blocks(exec, out, m, n, |row0, chunk| {
        let rows = chunk.len() / n;
        let ablock = &a16[row0 * k..(row0 + rows) * k];
        match backend {
            Backend::Scalar => scalar_wide_i32_block(ablock, bt16, k, n, chunk),
            b => simdkern::matmul_wide_i32(b, ablock, bt16, k, n, chunk),
        }
    });
    Ok(())
}

/// Minimum reduction length before the vector dot-product kernels pay for
/// themselves: each output element costs a horizontal accumulator sum plus
/// a scalar tail of up to one vector width, so short dot products (a dense
/// layer on fewer than 32 features) run on the register-blocked scalar
/// core. Bits are identical either way.
const VECTOR_MATMUL_MIN_K: usize = 32;

/// The scalar register-blocked core of [`matmul_wide_i32_into`], operating
/// on one block of `a` rows (`chunk.len() / n` of them, relative-indexed).
/// This is the bit-exactness reference the SIMD backends are checked
/// against; `a16` must hold i8-range values.
fn scalar_wide_i32_block(a16: &[i16], bt16: &[i16], k: usize, n: usize, chunk: &mut [i32]) {
    // Register blocking: each transposed `b` row streams through the
    // core once per 8 (then 4, then 1) output rows, cutting the
    // bandwidth the plain dot layout needs while every reduction stays
    // pmaddwd-friendly. Measured on the 256^3 bench shape this is what
    // pushes the i8 kernel past the f32 axpy kernel.
    let rows = chunk.len() / n;
    let mut i = 0;
    while i + 8 <= rows {
        let base = i * k;
        let ar: [&[i16]; 8] = [
            &a16[base..base + k],
            &a16[base + k..base + 2 * k],
            &a16[base + 2 * k..base + 3 * k],
            &a16[base + 3 * k..base + 4 * k],
            &a16[base + 4 * k..base + 5 * k],
            &a16[base + 5 * k..base + 6 * k],
            &a16[base + 6 * k..base + 7 * k],
            &a16[base + 7 * k..base + 8 * k],
        ];
        for (j, bt_row) in bt16.chunks_exact(k).enumerate() {
            let mut s = [0i32; 8];
            for p in 0..k {
                let bv = bt_row[p] as i32;
                s[0] += ar[0][p] as i32 * bv;
                s[1] += ar[1][p] as i32 * bv;
                s[2] += ar[2][p] as i32 * bv;
                s[3] += ar[3][p] as i32 * bv;
                s[4] += ar[4][p] as i32 * bv;
                s[5] += ar[5][p] as i32 * bv;
                s[6] += ar[6][p] as i32 * bv;
                s[7] += ar[7][p] as i32 * bv;
            }
            for (r, &sv) in s.iter().enumerate() {
                chunk[(i + r) * n + j] = sv;
            }
        }
        i += 8;
    }
    while i + 4 <= rows {
        let base = i * k;
        let a0 = &a16[base..base + k];
        let a1 = &a16[base + k..base + 2 * k];
        let a2 = &a16[base + 2 * k..base + 3 * k];
        let a3 = &a16[base + 3 * k..base + 4 * k];
        for (j, bt_row) in bt16.chunks_exact(k).enumerate() {
            let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
            for p in 0..k {
                let bv = bt_row[p] as i32;
                s0 += a0[p] as i32 * bv;
                s1 += a1[p] as i32 * bv;
                s2 += a2[p] as i32 * bv;
                s3 += a3[p] as i32 * bv;
            }
            chunk[i * n + j] = s0;
            chunk[(i + 1) * n + j] = s1;
            chunk[(i + 2) * n + j] = s2;
            chunk[(i + 3) * n + j] = s3;
        }
        i += 4;
    }
    // Remainder rows (1..=3) share a single pass over `bt` — small-`m`
    // products (a few-output-channel convolution over a huge patch
    // count) would otherwise re-stream the whole packed right-hand side
    // once per row. Integer accumulation is exact, so the fused order
    // produces the same bits as the row-at-a-time loop.
    if i < rows {
        let rem = rows - i;
        let ar = &a16[i * k..(i + rem) * k];
        for (j, bt_row) in bt16.chunks_exact(k).enumerate() {
            let mut s = [0i32; 3];
            for (r, a_row) in ar.chunks_exact(k).enumerate() {
                let mut acc = 0i32;
                for (&av, &bv) in a_row.iter().zip(bt_row) {
                    acc += av as i32 * bv as i32;
                }
                s[r] = acc;
            }
            for (r, &sv) in s[..rem].iter().enumerate() {
                chunk[(i + r) * n + j] = sv;
            }
        }
    }
}

/// Multiplies `a` (`[m, k]` row-major `i16`) by the transpose of `bt`
/// (`[n, k]` row-major) into the exact `i64` accumulator slice `out`
/// (`[m, n]`, fully overwritten) — the wide-format (9–16 bit) counterpart of
/// [`matmul_wide_i32_into`] and the GEMM of [`dense_i64_into`].
///
/// Every output element is an ascending-index dot product of two contiguous
/// rows, in portable code on every backend: its one plan caller is the
/// 16-bit exit heads, whose few outputs leave nothing for a vector body to
/// win. Row blocks fan out over `exec`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if slice lengths do not match.
pub fn matmul_abt_i64_into(
    exec: &Executor,
    a: &[i16],
    bt: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i64],
) -> Result<(), TensorError> {
    check_matmul(a, bt, m, k, n, out.len(), "matmul_abt_i64_into")?;
    fill_row_blocks(exec, out, m, n, |row0, chunk| {
        let rows = chunk.len() / n;
        scalar_abt_i64_block(&a[row0 * k..(row0 + rows) * k], bt, k, n, chunk);
    });
    Ok(())
}

/// The core of [`matmul_abt_i64_into`] on one relative-indexed block of `a`
/// rows.
fn scalar_abt_i64_block(a: &[i16], bt: &[i16], k: usize, n: usize, chunk: &mut [i64]) {
    // Four output rows per pass over `bt`: each right-hand-side row is
    // streamed once per row *block* instead of once per row.
    let rows = chunk.len() / n;
    let mut i = 0;
    while i < rows {
        let block = (rows - i).min(4);
        let ar = &a[i * k..(i + block) * k];
        for (j, bt_row) in bt.chunks_exact(k).enumerate() {
            let mut s = [0i64; 4];
            for (r, a_row) in ar.chunks_exact(k).enumerate() {
                let mut acc = 0i64;
                for (&av, &bv) in a_row.iter().zip(bt_row) {
                    acc += av as i64 * bv as i64;
                }
                s[r] = acc;
            }
            for (r, &sv) in s[..block].iter().enumerate() {
                chunk[(i + r) * n + j] = sv;
            }
        }
        i += block;
    }
}

/// Multiplies `a` (`[m, k]` row-major, i8-range codes widened to `i16`) by
/// `b` (`[k, n]` row-major, i8-range) into the exact `i32` accumulator
/// slice `out` (`[m, n]`, fully overwritten) — the convolution GEMM of the
/// integer plans, with the packed `[out_c, c * kh * kw]` weights as `a` and
/// the tap-major columns of [`im2col_i16_into`] as `b`.
///
/// The kernel vectorizes along the output columns (an outer product per
/// tap pair, see `simdkern::matmul_ab_i32`), so the reduction length costs
/// nothing per output: no horizontal sum, no scalar tail, and a 27-tap
/// convolution runs on the vector path like a 288-tap one. Row blocks fan
/// out over `exec`; integer accumulation is exact, so every backend and
/// thread count gives the same bits as a plain dot product.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if slice lengths do not match
/// `m * k` / `k * n` / `m * n`, or if `k` exceeds the exact-accumulation
/// bound for i8-range operands (`k < 2^17`).
///
/// # Example
///
/// ```
/// use bnn_tensor::exec::Executor;
/// use bnn_tensor::int::matmul_ab_i32_into;
///
/// # fn main() -> Result<(), bnn_tensor::TensorError> {
/// let a = [1i16, 2, 3, 4]; // [2, 2]
/// let b = [5i16, 6, 7, 8]; // [2, 2]
/// let mut out = [0i32; 4];
/// matmul_ab_i32_into(&Executor::sequential(), &a, &b, 2, 2, 2, &mut out)?;
/// assert_eq!(out, [19, 22, 43, 50]);
/// # Ok(())
/// # }
/// ```
pub fn matmul_ab_i32_into(
    exec: &Executor,
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) -> Result<(), TensorError> {
    check_matmul(a, b, m, k, n, out.len(), "matmul_ab_i32_into")?;
    if k >= (1 << 17) {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![k, n],
            op: "matmul_ab_i32_into: k exceeds exact i32 accumulation bound (< 2^17)",
        });
    }
    let backend = simdkern::active();
    fill_row_blocks(exec, out, m, n, |row0, chunk| {
        let rows = chunk.len() / n;
        simdkern::matmul_ab_i32(backend, &a[row0 * k..(row0 + rows) * k], b, k, n, chunk);
    });
    Ok(())
}

/// [`matmul_ab_i32_into`] for full-range `i16` operands into exact `i64`
/// accumulators — the wide-format (9–16 bit) convolution GEMM.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if slice lengths do not match.
pub fn matmul_ab_i64_into(
    exec: &Executor,
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i64],
) -> Result<(), TensorError> {
    check_matmul(a, b, m, k, n, out.len(), "matmul_ab_i64_into")?;
    let backend = simdkern::active();
    fill_row_blocks(exec, out, m, n, |row0, chunk| {
        let rows = chunk.len() / n;
        simdkern::matmul_ab_i64(backend, &a[row0 * k..(row0 + rows) * k], b, k, n, chunk);
    });
    Ok(())
}

/// Unfolds an NCHW `i16` code tensor into the tap-major column matrix
/// `[rows, cols]` (`rows = channels * kh * kw` taps,
/// `cols = batch * out_h * out_w` output positions) — the layout of
/// [`crate::linalg::im2col`],
/// filled by the same stacked unfold, and the right-hand side of
/// [`matmul_ab_i32_into`]/[`matmul_ab_i64_into`]. Padding taps hold integer
/// zero. Channels fan out over `exec`. Only the first `rows * cols`
/// elements of `out` are written (all of them), and it only grows, so the
/// steady state of an arena incurs no heap allocation.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not hold
/// `batch * channels * in_h * in_w` codes.
pub fn im2col_i16_into(
    exec: &Executor,
    input: &[i16],
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut Vec<i16>,
) -> Result<(usize, usize), TensorError> {
    if input.len() != batch * channels * geom.in_h * geom.in_w {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![input.len()],
            rhs: vec![batch, channels, geom.in_h, geom.in_w],
            op: "im2col_i16_into",
        });
    }
    let rows = channels * geom.kernel_h * geom.kernel_w;
    let cols = batch * geom.out_h() * geom.out_w();
    if out.len() < rows * cols {
        out.resize(rows * cols, 0);
    }
    crate::unfold::im2col(exec, input, batch, channels, geom, &mut out[..rows * cols]);
    Ok((rows, cols))
}

/// Returns true when a conv or dense step's requantize
/// `round_shift(acc + bias, shift)` is exact in `i32` lanes for every
/// accumulator of a `k`-tap reduction over i8-range codes:
/// `k·2^14 + |bias| + 2^shift < 2^31` with `shift >= 0`. Each product is at
/// most `2^14` in magnitude, so the sum, the bias and the rounding bias then
/// never leave `i32`. [`conv_i32_into`] and [`dense_i32_into`] decide each
/// output channel's lane width by this rule.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::conv_requant_fits_i32;
///
/// assert!(conv_requant_fits_i32(288, -5_000, 9));
/// assert!(!conv_requant_fits_i32(288, i64::from(i32::MAX) - 4_000_000, 9));
/// assert!(!conv_requant_fits_i32(288, 0, -1)); // a scale-up stays in i64
/// ```
pub fn conv_requant_fits_i32(k: usize, bias: i64, shift: i32) -> bool {
    let Ok(shift) = u32::try_from(shift) else {
        return false;
    };
    let reach = ((k as u128) << 14) + u128::from(bias.unsigned_abs()) + (1u128 << shift.min(64));
    reach < 1 << 31
}

/// One integer convolution step: its geometry, the packed
/// `[out_c, in_c * kh * kw]` weight codes, one accumulator-scale bias per
/// output channel, the requantize shift and the output codes' rails.
#[derive(Debug, Clone, Copy)]
pub struct IntConv<'a> {
    /// The window geometry.
    pub geom: ConvGeometry,
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Weight codes, `[out_c, in_c * kh * kw]` row-major.
    pub weights: &'a [i16],
    /// Bias at the accumulator's scale, one per output channel.
    pub bias: &'a [i64],
    /// Requantize shift from the accumulator's scale to the output's; a
    /// negative shift scales up.
    pub shift: i32,
    /// Lowest output code.
    pub min: i16,
    /// Highest output code.
    pub max: i16,
}

impl IntConv<'_> {
    /// Taps of one output: `in_c * kh * kw`.
    fn taps(&self) -> usize {
        self.in_c * self.geom.kernel_h * self.geom.kernel_w
    }

    /// Positions of one output plane: `out_h * out_w`.
    fn plane(&self) -> usize {
        self.geom.out_h() * self.geom.out_w()
    }
}

/// One integer dense step: the packed `[out_f, in_f]` weight codes, one
/// accumulator-scale bias per output feature, the requantize shift and the
/// output codes' rails.
#[derive(Debug, Clone, Copy)]
pub struct IntDense<'a> {
    /// Input features.
    pub in_f: usize,
    /// Output features.
    pub out_f: usize,
    /// Weight codes, `[out_f, in_f]` row-major.
    pub weights: &'a [i16],
    /// Bias at the accumulator's scale, one per output feature.
    pub bias: &'a [i64],
    /// Requantize shift from the accumulator's scale to the output's; a
    /// negative shift scales up.
    pub shift: i32,
    /// Lowest output code.
    pub min: i16,
    /// Highest output code.
    pub max: i16,
}

/// Runs an integer convolution on i8-range NCHW codes into NCHW output
/// codes: the tap-major unfold into `cols` ([`im2col_i16_into`]), the
/// outer-product GEMM into exact `i32` accumulators in `acc`
/// ([`matmul_ab_i32_into`]), then the epilogue shared with
/// [`dense_i32_into`]: each output channel's whole `[batch * out_plane]`
/// row is requantized with its bias — in `i32` lanes by the branch-free
/// ties-away identity when [`conv_requant_fits_i32`] holds, else by
/// [`requantize_i32_row_into`], both with the bits of [`requantize`] — and
/// its plane runs are written into the output. `cols` and `acc` only grow;
/// the first `batch * out_c * out_h * out_w` codes of `out` are written.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `input`, the weights, the
/// biases or `out` do not match the convolution, or the reduction breaks
/// the `k < 2^17` bound.
pub fn conv_i32_into(
    exec: &Executor,
    conv: &IntConv<'_>,
    input: &[i16],
    batch: usize,
    cols: &mut Vec<i16>,
    acc: &mut Vec<i32>,
    out: &mut [i16],
) -> Result<(), TensorError> {
    let requant = requant_i32(conv.taps(), conv.shift, conv.min, conv.max);
    gemm_step_into(
        conv.bias,
        batch,
        conv.plane(),
        cols,
        acc,
        out,
        requant,
        |cols, acc| {
            let (k, n) = im2col_i16_into(exec, input, batch, conv.in_c, &conv.geom, cols)?;
            matmul_ab_i32_into(exec, conv.weights, &cols[..k * n], conv.out_c, k, n, acc)
        },
    )
}

/// [`conv_i32_into`] for full-range `i16` codes: exact `i64` accumulators
/// ([`matmul_ab_i64_into`]) requantized a whole output-channel row at a
/// time by [`requantize_i64_row_into`].
///
/// # Errors
///
/// As [`conv_i32_into`], without the reduction bound.
pub fn conv_i64_into(
    exec: &Executor,
    conv: &IntConv<'_>,
    input: &[i16],
    batch: usize,
    cols: &mut Vec<i16>,
    acc: &mut Vec<i64>,
    out: &mut [i16],
) -> Result<(), TensorError> {
    let requant = requant_i64(conv.shift, conv.min, conv.max);
    gemm_step_into(
        conv.bias,
        batch,
        conv.plane(),
        cols,
        acc,
        out,
        requant,
        |cols, acc| {
            let (k, n) = im2col_i16_into(exec, input, batch, conv.in_c, &conv.geom, cols)?;
            matmul_ab_i64_into(exec, conv.weights, &cols[..k * n], conv.out_c, k, n, acc)
        },
    )
}

/// Runs an integer dense layer on i8-range `[batch, in_f]` codes into
/// `[batch, out_f]` codes, weights on the left: the dot-product GEMM
/// `acc[out_f, batch] = weights · inputᵀ` ([`matmul_wide_i32_into`]), then
/// the epilogue of [`conv_i32_into`] with one-code planes, each row staged
/// in `codes`. `codes` and `acc` only grow; the first `batch * out_f` codes
/// of `out` are written.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `input`, the weights, the
/// biases or `out` do not match the layer, or `in_f` breaks the
/// `k < 2^17` bound.
pub fn dense_i32_into(
    exec: &Executor,
    dense: &IntDense<'_>,
    input: &[i16],
    batch: usize,
    codes: &mut Vec<i16>,
    acc: &mut Vec<i32>,
    out: &mut [i16],
) -> Result<(), TensorError> {
    let d = dense;
    let requant = requant_i32(d.in_f, d.shift, d.min, d.max);
    gemm_step_into(d.bias, batch, 1, codes, acc, out, requant, |_, acc| {
        matmul_wide_i32_into(exec, d.weights, input, d.out_f, d.in_f, batch, acc)
    })
}

/// [`dense_i32_into`] for full-range `i16` codes: exact `i64` accumulators
/// ([`matmul_abt_i64_into`]) requantized a whole output-feature row at a
/// time by [`requantize_i64_row_into`].
///
/// # Errors
///
/// As [`dense_i32_into`], without the reduction bound.
pub fn dense_i64_into(
    exec: &Executor,
    dense: &IntDense<'_>,
    input: &[i16],
    batch: usize,
    codes: &mut Vec<i16>,
    acc: &mut Vec<i64>,
    out: &mut [i16],
) -> Result<(), TensorError> {
    let d = dense;
    let requant = requant_i64(d.shift, d.min, d.max);
    gemm_step_into(d.bias, batch, 1, codes, acc, out, requant, |_, acc| {
        matmul_abt_i64_into(exec, d.weights, input, d.out_f, d.in_f, batch, acc)
    })
}

/// The row requantize of the `i32` GEMM steps over `k`-tap reductions: in
/// `i32` lanes when [`conv_requant_fits_i32`] holds for the row's bias,
/// else [`requantize_i32_row_into`].
fn requant_i32(k: usize, shift: i32, min: i16, max: i16) -> impl Fn(&[i32], i64, &mut [i16]) {
    move |row, bias, codes| {
        if conv_requant_fits_i32(k, bias, shift) {
            let (lane, bias) = (LaneRequant::right(shift as u32, min, max), bias as i32);
            for (o, &a) in codes.iter_mut().zip(row) {
                *o = lane.apply(a + bias);
            }
        } else {
            requantize_i32_row_into(row, bias, shift, min.into(), max.into(), codes);
        }
    }
}

/// The row requantize of the `i64` GEMM steps.
fn requant_i64(shift: i32, min: i16, max: i16) -> impl Fn(&[i64], i64, &mut [i16]) {
    move |row, bias, codes| requantize_i64_row_into(row, bias, shift, min.into(), max.into(), codes)
}

/// The one epilogue of the integer GEMM steps. `gemm` fills the exact
/// accumulators `[rows, batch * plane]` (`rows = bias.len()`, using
/// `scratch` as it needs); then each row is requantized with its one bias
/// by `requant` into the head of `scratch` and written into `out` as
/// `[batch, rows, plane]`, one run of `plane` codes per sample — NCHW for
/// a conv, `[batch, out_f]` for a dense layer (`plane = 1`). `scratch` and
/// `acc` only grow.
#[allow(clippy::too_many_arguments)]
fn gemm_step_into<A: Copy + Default>(
    bias: &[i64],
    batch: usize,
    plane: usize,
    scratch: &mut Vec<i16>,
    acc: &mut Vec<A>,
    out: &mut [i16],
    requant: impl Fn(&[A], i64, &mut [i16]),
    gemm: impl FnOnce(&mut Vec<i16>, &mut [A]) -> Result<(), TensorError>,
) -> Result<(), TensorError> {
    let (rows, n) = (bias.len(), batch * plane);
    if out.len() < rows * n {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![out.len()],
            rhs: vec![batch, rows, plane],
            op: "gemm_step_into",
        });
    }
    if acc.len() < rows * n {
        acc.resize(rows * n, A::default());
    }
    let acc = &mut acc[..rows * n];
    gemm(scratch, acc)?;
    if n == 0 {
        return Ok(());
    }
    if scratch.len() < n {
        scratch.resize(n, 0);
    }
    let codes = &mut scratch[..n];
    for (row_idx, (row, &b)) in acc.chunks_exact(n).zip(bias).enumerate() {
        requant(row, b, codes);
        for (sample, run) in codes.chunks_exact(plane).enumerate() {
            out[(sample * rows + row_idx) * plane..][..plane].copy_from_slice(run);
        }
    }
    Ok(())
}

/// Unfolds an NCHW `i16` code tensor directly into the **transposed** im2col
/// layout `[cols, rows]` (`cols = batch * out_h * out_w` patch positions,
/// `rows = channels * kh * kw` taps) — the right-hand-side layout of the
/// dot-product kernel [`matmul_wide_i32_into`], produced without a separate
/// transpose pass, by the same padded-plane unfold as
/// [`crate::linalg::im2col`]. The integer plans' conv runs on the tap-major
/// [`im2col_i16_into`] instead; this layout stays for the benchmark's
/// per-layer rows.
/// Padding taps hold integer zero. Only the first `rows * cols` elements of
/// `out` are written (all of them), and it only grows, so the steady state
/// of an arena incurs no heap allocation.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not hold
/// `batch * channels * in_h * in_w` codes.
pub fn im2row_i16_into(
    input: &[i16],
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut Vec<i16>,
) -> Result<(usize, usize), TensorError> {
    if input.len() != batch * channels * geom.in_h * geom.in_w {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![input.len()],
            rhs: vec![batch, channels, geom.in_h, geom.in_w],
            op: "im2row_i16_into",
        });
    }
    let out_h = geom.out_h();
    let out_w = geom.out_w();
    let rows = channels * geom.kernel_h * geom.kernel_w;
    let cols = batch * out_h * out_w;
    // Grow-only: the buffer is a shared arena scratch sized for the largest
    // convolution of a plan; only the first `rows * cols` elements are
    // written (and they all are), so a larger buffer needs no trimming.
    if out.len() < rows * cols {
        out.resize(rows * cols, 0);
    }
    crate::unfold::im2row_i16(input, batch, channels, geom, &mut out[..rows * cols]);
    Ok((rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{im2col, matmul};
    use crate::rng::{Rng, Xoshiro256StarStar};
    use crate::Tensor;

    fn random_codes_i8(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<i8> {
        (0..n).map(|_| (rng.next_u64() % 255) as i8).collect()
    }

    #[test]
    fn round_shift_matches_float_rounding() {
        for v in -2000i64..=2000 {
            for shift in 1u32..=6 {
                let expected = (v as f64 / (1i64 << shift) as f64).round() as i64;
                assert_eq!(round_shift(v, shift), expected, "v={v} shift={shift}");
            }
            assert_eq!(round_shift(v, 0), v);
        }
    }

    #[test]
    fn requantize_saturates_at_bounds() {
        assert_eq!(requantize(1000, 2, -128, 127), 127);
        assert_eq!(requantize(-1000, 2, -128, 127), -128);
        assert_eq!(requantize(100, 2, -128, 127), 25);
        // negative shift scales up and saturates
        assert_eq!(requantize(100, -2, -128, 127), 127);
        assert_eq!(requantize(5, -2, -128, 127), 20);
        assert_eq!(requantize(i64::MAX / 2, -30, i64::MIN, i64::MAX), i64::MAX);
    }

    /// Every `i16` code, ascending.
    fn every_code() -> Vec<i16> {
        (i16::MIN..=i16::MAX).collect()
    }

    /// The `(qmin, qmax)` rails of the 4-, 6-, 8- and 16-bit formats.
    fn format_rails() -> [(i16, i16); 4] {
        [4u32, 6, 8, 16].map(|bits| {
            let half = 1i32 << (bits - 1);
            (-half as i16, (half - 1) as i16)
        })
    }

    /// Checks `AffineRequant` on every code against the scalar
    /// `requantize`, in place on the whole slice and through the plans'
    /// out-of-place route (copy the source into a distinct destination,
    /// then map it there).
    fn check_affine(m: i64, b: i64, shift: u32, min: i16, max: i16) {
        let codes = every_code();
        let (lo, hi) = (min.into(), max.into());
        let expected: Vec<i16> = codes
            .iter()
            .map(|&x| requantize(x as i64 * m + b, shift as i32, lo, hi) as i16)
            .collect();
        let map = AffineRequant::new(m, b, shift, min, max);
        let mut in_place = codes.clone();
        map.apply(&mut in_place);
        assert_eq!(
            in_place, expected,
            "in place m={m} b={b} shift={shift} [{min}, {max}]"
        );
        let mut dst = vec![i16::MAX; codes.len()];
        dst.copy_from_slice(&codes);
        map.apply(&mut dst);
        assert_eq!(dst, expected, "out of place m={m} b={b} shift={shift}");
        assert_eq!(codes, every_code(), "the source is read only");
    }

    #[test]
    fn affine_kernel_matches_requantize_on_every_code() {
        const SHIFT: u32 = 12;
        // The largest 2^15·|m| + |b| with the rounding bias still in i32.
        let reach = (1i64 << 31) - (1 << SHIFT) - 1;
        let m_edge = reach >> 15;
        let b_edge = reach - (m_edge << 15);
        let mut cases = vec![
            // Folded batch-norm constants of the usual size.
            (4096, 0, true),
            (4096, -300, true),
            (6000, 12345, true),
            (-12288, 7, true),
            (1, 0, true),
            (0, 5, true),
        ];
        for (sm, sb) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
            cases.push((sm * m_edge, sb * b_edge, true));
            cases.push((sm * m_edge, sb * (b_edge + 1), false));
            cases.push((sm * (m_edge + 1), sb * b_edge, false));
        }
        // Inverted-dropout scales, round(2^12 / keep): rates 0, 0.25, 0.5
        // and 0.9 fit i32 lanes; 0.95 (81920) does not. With b = 0 the edge
        // is m = 2^16 - 1.
        for (rate, fits) in [
            (0.0, true),
            (0.25, true),
            (0.5, true),
            (0.9, true),
            (0.95, false),
        ] {
            let scale_q = (1.0 / (1.0 - rate) * 4096.0f64).round() as i64;
            cases.push((scale_q, 0, fits));
        }
        cases.extend([(65535, 0, true), (65536, 0, false)]);
        for (m, b, fits) in cases {
            assert_eq!(affine_fits_i32(m, b, SHIFT), fits, "m={m} b={b}");
            for (min, max) in format_rails() {
                check_affine(m, b, SHIFT, min, max);
            }
        }
        // Other shifts, including no rounding at all.
        for shift in [0, 1, 5] {
            check_affine(3, -2, shift, -128, 127);
            check_affine(-700, 9, shift, -32768, 32767);
        }
    }

    /// Checks `merge_i16_row_into` against the scalar per-operand
    /// `requantize`, on every code as the main operand (and, reversed, as
    /// the shortcut).
    fn check_merge(main_shift: i32, short_shift: i32, min: i16, max: i16) {
        let (lo, hi) = (min.into(), max.into());
        let main = every_code();
        let short: Vec<i16> = main.iter().rev().copied().collect();
        let expected: Vec<i16> = main
            .iter()
            .zip(&short)
            .map(|(&a, &b)| {
                let x = requantize(a as i64, main_shift, lo, hi);
                let y = requantize(b as i64, short_shift, lo, hi);
                (x + y).max(0).min(hi) as i16
            })
            .collect();
        let mut out = vec![0i16; main.len()];
        merge_i16_row_into(&main, &short, main_shift, short_shift, min, max, &mut out);
        assert_eq!(
            out, expected,
            "shifts {main_shift}/{short_shift} [{min}, {max}]"
        );
    }

    #[test]
    fn merge_kernel_matches_requantize_on_every_code_and_shift() {
        // Every shift in -17..=17 on each side, plus shifts past the lane
        // caps (17 down, 15 up), where the caps must change no result.
        let beyond = [-40, -31, -20, -16, 18, 20, 31, 40];
        for (min, max) in format_rails() {
            for s in (-17..=17).chain(beyond) {
                for t in [-17, -1, 0, 1, 17, -s] {
                    check_merge(s, t, min, max);
                    check_merge(t, s, min, max);
                }
            }
        }
    }

    /// `b` (`[k, n]` row-major) widened to `i16` and transposed to
    /// `[n, k]`: the right-hand layout of the dot-product kernels.
    fn pack_bt<T: Copy + Into<i16>>(b: &[T], k: usize, n: usize) -> Vec<i16> {
        let mut bt = vec![0i16; n * k];
        for (p, row) in b.chunks_exact(n.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                bt[j * k + p] = v.into();
            }
        }
        bt
    }

    /// `[m, k] x [k, n]` on `i8` codes through [`matmul_wide_i32_into`].
    fn matmul_i8(
        exec: &Executor,
        a: &[i8],
        b: &[i8],
        m: usize,
        k: usize,
        n: usize,
    ) -> Result<Vec<i32>, TensorError> {
        let a16: Vec<i16> = a.iter().map(|&v| v.into()).collect();
        let mut out = vec![0i32; m * n];
        matmul_wide_i32_into(exec, &a16, &pack_bt(b, k, n), m, k, n, &mut out)?;
        Ok(out)
    }

    /// `[m, k] x [k, n]` on `i16` codes through [`matmul_abt_i64_into`].
    fn matmul_i16(
        exec: &Executor,
        a: &[i16],
        b: &[i16],
        m: usize,
        k: usize,
        n: usize,
    ) -> Result<Vec<i64>, TensorError> {
        let mut out = vec![0i64; m * n];
        matmul_abt_i64_into(exec, a, &pack_bt(b, k, n), m, k, n, &mut out)?;
        Ok(out)
    }

    /// The plain `[m, k] x [k, n]` triple loop in `i64`.
    fn matmul_reference<T: Copy + Into<i64>>(
        a: &[T],
        b: &[T],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<i64> {
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k)
                    .map(|p| a[i * k + p].into() * b[p * n + j].into())
                    .sum();
            }
        }
        out
    }

    #[test]
    fn matmul_i8_known_values() {
        let seq = Executor::sequential();
        let a: Vec<i8> = vec![1, 2, 3, 4];
        let b: Vec<i8> = vec![5, 6, 7, 8];
        assert_eq!(
            matmul_i8(&seq, &a, &b, 2, 2, 2).unwrap(),
            vec![19, 22, 43, 50]
        );
        assert!(matmul_i8(&seq, &a, &b, 2, 3, 2).is_err());
    }

    #[test]
    fn matmul_i8_matches_float_on_integer_values() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let (m, k, n) = (13, 29, 17);
        let a = random_codes_i8(m * k, &mut rng);
        let b = random_codes_i8(k * n, &mut rng);
        let af = Tensor::from_vec(a.iter().map(|&v| v as f32).collect(), &[m, k]).unwrap();
        let bf = Tensor::from_vec(b.iter().map(|&v| v as f32).collect(), &[k, n]).unwrap();
        let cf = matmul(&af, &bf).unwrap();
        let ci = matmul_i8(&Executor::sequential(), &a, &b, m, k, n).unwrap();
        // products and partial sums stay far below 2^24, so f32 is exact here
        for (x, &y) in ci.iter().zip(cf.as_slice()) {
            assert_eq!(*x as f32, y);
        }
    }

    #[test]
    fn matmul_i16_matches_i8_on_narrow_values() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let (m, k, n) = (7, 11, 9);
        let a8 = random_codes_i8(m * k, &mut rng);
        let b8 = random_codes_i8(k * n, &mut rng);
        let a16: Vec<i16> = a8.iter().map(|&v| v as i16).collect();
        let b16: Vec<i16> = b8.iter().map(|&v| v as i16).collect();
        let seq = Executor::sequential();
        let c8 = matmul_i8(&seq, &a8, &b8, m, k, n).unwrap();
        let c16 = matmul_i16(&seq, &a16, &b16, m, k, n).unwrap();
        for (x, y) in c8.iter().zip(&c16) {
            assert_eq!(*x as i64, *y);
        }
    }

    #[test]
    fn parallel_integer_matmul_is_identical_to_sequential() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let (m, k, n) = (37, 23, 41);
        let a = random_codes_i8(m * k, &mut rng);
        let b = random_codes_i8(k * n, &mut rng);
        let seq = matmul_i8(&Executor::sequential(), &a, &b, m, k, n).unwrap();
        let par = matmul_i8(&Executor::new(4), &a, &b, m, k, n).unwrap();
        assert_eq!(seq, par);
        let a16: Vec<i16> = a.iter().map(|&v| v as i16 * 100).collect();
        let b16: Vec<i16> = b.iter().map(|&v| v as i16 * 100).collect();
        let seq = matmul_i16(&Executor::sequential(), &a16, &b16, m, k, n).unwrap();
        let par = matmul_i16(&Executor::new(4), &a16, &b16, m, k, n).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn matmul_i8_rejects_oversized_reduction() {
        let seq = Executor::sequential();
        let a = vec![0i8; 1 << 18];
        let b = vec![0i8; 1 << 18];
        assert!(matmul_i8(&seq, &a, &b, 1, 1 << 18, 1).is_err());
        // Boundary: k = 2^17 all-extreme products reach exactly 2^31, one
        // past i32::MAX, so the bound is strict.
        let a = vec![i8::MIN; 1 << 17];
        assert!(matmul_i8(&seq, &a, &a, 1, 1 << 17, 1).is_err());
        let a = vec![i8::MIN; (1 << 17) - 1];
        let c = matmul_i8(&seq, &a, &a, 1, (1 << 17) - 1, 1).unwrap();
        assert_eq!(c[0], (1 << 14) * ((1 << 17) - 1));
    }

    #[test]
    fn packed_kernels_match_naive_reference() {
        // The dot-product kernels on operands packed once, as the plans
        // hold them, against the plain triple loop.
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let (m, k, n) = (19, 31, 23);
        let a = random_codes_i8(m * k, &mut rng);
        let b = random_codes_i8(k * n, &mut rng);
        let a16: Vec<i16> = a.iter().map(|&v| v as i16).collect();
        let bt16 = pack_bt(&b, k, n);
        let mut out = vec![0i32; m * n];
        matmul_wide_i32_into(&Executor::sequential(), &a16, &bt16, m, k, n, &mut out).unwrap();
        let out: Vec<i64> = out.into_iter().map(i64::from).collect();
        assert_eq!(out, matmul_reference(&a, &b, m, k, n));

        let aw: Vec<i16> = a16.iter().map(|&v| v * 50).collect();
        let bw: Vec<i16> = b.iter().map(|&v| v as i16 * 50).collect();
        let mut out64 = vec![0i64; m * n];
        matmul_abt_i64_into(
            &Executor::new(4),
            &aw,
            &pack_bt(&bw, k, n),
            m,
            k,
            n,
            &mut out64,
        )
        .unwrap();
        assert_eq!(out64, matmul_reference(&aw, &bw, m, k, n));

        // shape validation
        let mut out = vec![0i32; m * n];
        assert!(
            matmul_wide_i32_into(&Executor::sequential(), &a16, &bt16, m, k + 1, n, &mut out)
                .is_err()
        );
        let huge = vec![0i16; 1 << 17];
        let mut one = vec![0i32; 1];
        assert!(matmul_wide_i32_into(
            &Executor::sequential(),
            &huge,
            &huge,
            1,
            1 << 17,
            1,
            &mut one
        )
        .is_err());
    }

    #[test]
    fn dense_steps_match_the_per_element_requantize() {
        // Each output feature's bias lands on its own column of the
        // `[batch, out_f]` codes; feature 0's bias breaks the i32-lane
        // bound, so both requantize routes run in one call. The 11 features
        // span the 8-row register block and its remainder, four threads
        // split them, batch 0 writes nothing and the code past the last
        // output is left alone.
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let (in_f, out_f, shift) = (40usize, 11usize, 9i32);
        let mut bias: Vec<i64> = (0..out_f)
            .map(|_| (rng.next_u64() % 20_000) as i64 - 10_000)
            .collect();
        bias[0] = 1 << 31;
        assert!(!conv_requant_fits_i32(in_f, bias[0], shift));
        assert!(conv_requant_fits_i32(in_f, bias[1], shift));
        for wide in [false, true] {
            let codes = |n: usize, rng: &mut Xoshiro256StarStar| -> Vec<i16> {
                let v = random_codes_i8(n, rng);
                v.iter()
                    .map(|&c| c as i16 * if wide { 199 } else { 1 })
                    .collect()
            };
            let weights = codes(out_f * in_f, &mut rng);
            let (min, max) = if wide {
                (i16::MIN, i16::MAX)
            } else {
                (-128, 127)
            };
            let dense = IntDense {
                in_f,
                out_f,
                weights: &weights,
                bias: &bias,
                shift,
                min,
                max,
            };
            for batch in [0usize, 1, 3, 33] {
                let input = codes(batch * in_f, &mut rng);
                let mut expected = vec![7i16; batch * out_f + 1];
                for s in 0..batch {
                    for o in 0..out_f {
                        let dot: i64 = (0..in_f)
                            .map(|p| input[s * in_f + p] as i64 * weights[o * in_f + p] as i64)
                            .sum();
                        let code = requantize(dot + bias[o], shift, min.into(), max.into());
                        expected[s * out_f + o] = code as i16;
                    }
                }
                let mut out = vec![7i16; batch * out_f + 1];
                let exec = Executor::new(4);
                let (mut scratch, mut acc32, mut acc64) = (Vec::new(), Vec::new(), Vec::new());
                let (input, scratch) = (&input, &mut scratch);
                match wide {
                    false => {
                        dense_i32_into(&exec, &dense, input, batch, scratch, &mut acc32, &mut out)
                    }
                    true => {
                        dense_i64_into(&exec, &dense, input, batch, scratch, &mut acc64, &mut out)
                    }
                }
                .unwrap();
                assert_eq!(out, expected, "wide={wide} batch={batch}");
            }
        }
    }

    #[test]
    fn im2row_is_the_transposed_im2col() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let (b, c, h, w) = (2usize, 3usize, 7usize, 5usize);
        let codes8 = random_codes_i8(b * c * h * w, &mut rng);
        let codes: Vec<i16> = codes8.iter().map(|&v| v as i16).collect();
        let geom = ConvGeometry {
            in_h: h,
            in_w: w,
            kernel_h: 3,
            kernel_w: 2,
            stride_h: 2,
            stride_w: 1,
            pad_h: 1,
            pad_w: 1,
        };
        // The float im2col of the same values is the reference layout;
        // small integers are exact in f32.
        let xf =
            Tensor::from_vec(codes8.iter().map(|&v| v as f32).collect(), &[b, c, h, w]).unwrap();
        let cols_f = im2col(&xf, &geom).unwrap();
        let (rows, cols) = (cols_f.dims()[0], cols_f.dims()[1]);
        let mut packed = vec![99i16; 3]; // wrong size + stale contents
        let (r2, c2) = im2row_i16_into(&codes, b, c, &geom, &mut packed).unwrap();
        assert_eq!((rows, cols), (r2, c2));
        for row in 0..rows {
            for col in 0..cols {
                assert_eq!(
                    packed[col * rows + row] as f32,
                    cols_f.as_slice()[row * cols + col],
                    "mismatch at ({row}, {col})"
                );
            }
        }
        assert!(im2row_i16_into(&codes[1..], b, c, &geom, &mut packed).is_err());
    }

    #[test]
    fn i16_accumulation_handles_max_magnitude_inputs() {
        // Saturation edge case: every operand at the most negative code.
        // (-2^15) * (-2^15) * k accumulates exactly in i64.
        let k = 64usize;
        let a = vec![i16::MIN; k];
        let b = vec![i16::MIN; k];
        let c = matmul_i16(&Executor::sequential(), &a, &b, 1, k, 1).unwrap();
        assert_eq!(c[0], (i16::MIN as i64) * (i16::MIN as i64) * k as i64);
        // requantizing that into an i16 range must saturate, not wrap
        assert_eq!(requantize(c[0], 8, i16::MIN as i64, i16::MAX as i64), 32767);
    }
}
