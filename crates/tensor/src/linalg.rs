//! Dense linear-algebra kernels: matrix multiplication and the im2col /
//! col2im transforms used to express convolution as a matrix product (both
//! run the crate's one padded-plane unfold, shared with
//! [`crate::int::im2row_i16_into`]).
//!
//! # Parallelism and determinism
//!
//! The heavy kernels ([`matmul`], [`im2col`], [`col2im`]) split their
//! **output** into disjoint row/plane blocks and fill the blocks on a
//! [`parpool::Executor`]. Every output element is computed by exactly one
//! thread with exactly the accumulation order of the sequential loop, so
//! results are bitwise identical for every thread count. The plain
//! entry points auto-select between the process-global executor and inline
//! execution based on a work-size threshold; the `*_with` variants accept an
//! explicit executor (used by tests and by callers that manage their own
//! pool).

use crate::{Tensor, TensorError};
use parpool::Executor;

/// Minimum number of multiply-accumulates before a matrix product is worth
/// fanning out over the global executor (scoped threads are spawned per
/// call, so tiny products stay inline).
const PAR_MACS_THRESHOLD: usize = 1 << 20;

/// Minimum number of output elements before the im2col/col2im transforms are
/// worth fanning out over the global executor.
const PAR_ELEMS_THRESHOLD: usize = 1 << 17;

/// The executor the plain kernel entry points use for `work` units against a
/// threshold: inline below it, the process-global pool at or above it.
fn auto_executor(work: usize, threshold: usize) -> Executor {
    if work >= threshold {
        Executor::global()
    } else {
        Executor::sequential()
    }
}

/// Splits `out` (`m` rows of `n` elements) into one contiguous row block per
/// executor thread and fills each block with `fill(block_row0, block)`.
/// Shared by the float kernels here and the integer kernels in
/// [`crate::int`], so the row-block split can never diverge between them.
pub(crate) fn fill_row_blocks<T, F>(exec: &Executor, out: &mut [T], m: usize, n: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    // One thread means one block covering every row; calling `fill` directly
    // keeps the single-threaded hot path free of the chunk bookkeeping (and
    // its per-call allocation) — the zero-steady-state-allocation contract of
    // the compiled execution plans relies on this.
    if exec.threads() <= 1 || parpool::in_parallel_region() {
        fill(0, out);
        return;
    }
    let rows_per_block = m.div_ceil(exec.threads());
    exec.par_chunks_mut(out, rows_per_block * n, |block, chunk| {
        fill(block * rows_per_block, chunk)
    });
}

/// Multiplies two matrices: `[m, k] x [k, n] -> [m, n]`.
///
/// Large products are parallelized over output row blocks (see the
/// [module documentation](self)); results are identical for every thread
/// count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ or
/// either operand is not rank 2.
///
/// # Example
///
/// ```
/// use bnn_tensor::{Tensor, linalg::matmul};
///
/// # fn main() -> Result<(), bnn_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &b)?.as_slice(), a.as_slice());
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k) = a.shape().as_matrix()?;
    let (_, n) = b.shape().as_matrix()?;
    matmul_with(&auto_executor(m * k * n, PAR_MACS_THRESHOLD), a, b)
}

/// [`matmul`] on an explicit executor.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ or
/// either operand is not rank 2.
pub fn matmul_with(exec: &Executor, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k_a) = a.shape().as_matrix()?;
    let (k_b, n) = b.shape().as_matrix()?;
    if k_a != k_b {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = vec![0.0f32; m * n];
    matmul_slices_into_with(exec, a.as_slice(), b.as_slice(), m, k_a, n, &mut out)?;
    Tensor::from_vec(out, &[m, n])
}

/// [`matmul_slices_into_with`] on the same auto-selected executor as
/// [`matmul`] (global pool above the work threshold, inline below).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the slice lengths do not match
/// `m * k` / `k * n` / `m * n`.
pub fn matmul_slices_into(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    matmul_slices_into_with(
        &auto_executor(m * k * n, PAR_MACS_THRESHOLD),
        a,
        b,
        m,
        k,
        n,
        out,
    )
}

/// [`matmul`] over raw slices into a caller-provided exact-length slice —
/// the arena-aware entry point used by the compiled float execution plans.
///
/// `out` must hold exactly `m * n` elements; it is overwritten by exactly
/// the kernel [`matmul`] runs, so results are bitwise identical to
/// the allocating entry point. The slice is never reallocated, so several
/// steps of a plan can share one scratch buffer, and the call performs no
/// heap allocation on a single thread.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the slice lengths do not match
/// `m * k` / `k * n` / `m * n`.
pub fn matmul_slices_into_with(
    exec: &Executor,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    if a.len() != m * k || b.len() != k * n || out.len() != m * n {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![a.len(), b.len(), out.len()],
            rhs: vec![m, k, n],
            op: "matmul_slices_into",
        });
    }
    // Each row block runs the register-tiled kernel of the active SIMD
    // backend, which is bitwise identical on every backend (see
    // [`crate::simd`]).
    let backend = simdkern::active();
    fill_row_blocks(exec, out, m, n, |row0, chunk| {
        let rows = chunk.len() / n;
        simdkern::matmul_f32(backend, &a[row0 * k..(row0 + rows) * k], b, k, n, chunk)
    });
    Ok(())
}

/// Transposes a matrix `[m, n] -> [n, m]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the operand is not rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor, TensorError> {
    let (m, n) = a.shape().as_matrix()?;
    let data = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = data[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, m])
}

/// Geometry of a 2-D convolution / pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along height.
    pub stride_h: usize,
    /// Stride along width.
    pub stride_w: usize,
    /// Zero padding along height (applied on both sides).
    pub pad_h: usize,
    /// Zero padding along width (applied on both sides).
    pub pad_w: usize,
}

impl ConvGeometry {
    /// Creates a square geometry with identical kernel/stride/padding on both axes.
    pub fn square(in_h: usize, in_w: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        ConvGeometry {
            in_h,
            in_w,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        }
    }

    /// Output height of the convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad_h).saturating_sub(self.kernel_h) / self.stride_h + 1
    }

    /// Output width of the convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad_w).saturating_sub(self.kernel_w) / self.stride_w + 1
    }
}

/// Unfolds an NCHW input into columns: output shape
/// `[channels * kernel_h * kernel_w, batch * out_h * out_w]`.
///
/// Convolution then becomes `weights [out_c, c*kh*kw] x columns`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 4.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    let mut out = Vec::new();
    let (rows, cols) = im2col_into(input, geom, &mut out)?;
    Tensor::from_vec(out, &[rows, cols])
}

/// [`im2col`] into a caller-provided buffer, returning the `[rows, cols]`
/// dimensions of the column matrix.
///
/// `out` is cleared and resized; reusing one buffer per convolution layer
/// avoids reallocating the (large) column matrix on every batch. Channels
/// are independent, so they are distributed over the executor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 4.
pub fn im2col_into(
    input: &Tensor,
    geom: &ConvGeometry,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), TensorError> {
    let (batch, channels, in_h, in_w) = input.shape().as_nchw()?;
    debug_assert_eq!(in_h, geom.in_h);
    debug_assert_eq!(in_w, geom.in_w);
    // The fill writes every element (padding taps write literal 0.0), so a
    // buffer that is already the right size needs no re-initialisation — the
    // steady-state reuse path is a pure overwrite. A buffer with room keeps
    // its allocation across batch sizes (a short last batch only truncates
    // it); only outgrowing it allocates afresh, through `vec![0.0; n]`
    // (calloc's lazily zeroed pages) rather than `resize`, which would also
    // copy the stale contents over.
    let len = channels * geom.kernel_h * geom.kernel_w * batch * geom.out_h() * geom.out_w();
    if len > out.capacity() {
        *out = vec![0.0f32; len];
    } else {
        out.resize(len, 0.0);
    }
    im2col_slices_into(input.as_slice(), batch, channels, geom, out)
}

/// [`im2col_slices_into_with`] on the same auto-selected executor as
/// [`im2col_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `data` does not hold
/// `batch * channels * in_h * in_w` elements or `out` is not exactly the
/// column matrix's size.
pub fn im2col_slices_into(
    data: &[f32],
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut [f32],
) -> Result<(usize, usize), TensorError> {
    let elems = data
        .len()
        .saturating_mul(geom.kernel_h * geom.kernel_w)
        .max(1);
    im2col_slices_into_with(
        &auto_executor(elems, PAR_ELEMS_THRESHOLD),
        data,
        batch,
        channels,
        geom,
        out,
    )
}

/// [`im2col_into`] on an explicit executor, over a raw NCHW slice into an
/// exact-length slice of `channels * k * k` rows by `batch * out_h * out_w`
/// columns — the arena-aware entry point used by the compiled float
/// execution plans (bitwise identical fill). Every element is overwritten
/// and `out` is never reallocated, so plan steps can share one scratch
/// buffer.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `data` does not hold
/// `batch * channels * in_h * in_w` elements or `out` is not exactly the
/// column matrix's size.
pub fn im2col_slices_into_with(
    exec: &Executor,
    data: &[f32],
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut [f32],
) -> Result<(usize, usize), TensorError> {
    if data.len() != batch * channels * geom.in_h * geom.in_w {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![data.len()],
            rhs: vec![batch, channels, geom.in_h, geom.in_w],
            op: "im2col_slices_into",
        });
    }
    let out_h = geom.out_h();
    let out_w = geom.out_w();
    let rows = channels * geom.kernel_h * geom.kernel_w;
    let cols = batch * out_h * out_w;
    if out.len() != rows * cols {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![out.len()],
            rhs: vec![rows, cols],
            op: "im2col_slices_into",
        });
    }
    if rows * cols == 0 {
        return Ok((rows, cols));
    }
    crate::unfold::im2col(exec, data, batch, channels, geom, out);
    Ok((rows, cols))
}

/// Folds columns back into an NCHW gradient tensor — the adjoint of [`im2col`].
///
/// Overlapping contributions are accumulated, which is exactly the gradient of
/// the unfold operation.
///
/// # Errors
///
/// Returns an error if `columns` does not have the shape produced by
/// [`im2col`] for the given geometry and output dimensions.
pub fn col2im(
    columns: &Tensor,
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
) -> Result<Tensor, TensorError> {
    let rows = channels * geom.kernel_h * geom.kernel_w;
    let cols = batch * geom.out_h() * geom.out_w();
    let (r, c) = columns.shape().as_matrix()?;
    if r != rows || c != cols {
        return Err(TensorError::ShapeMismatch {
            lhs: columns.dims().to_vec(),
            rhs: vec![rows, cols],
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; batch * channels * geom.in_h * geom.in_w];
    col2im_slices_into(columns.as_slice(), batch, channels, geom, &mut out)?;
    Tensor::from_vec(out, &[batch, channels, geom.in_h, geom.in_w])
}

/// [`col2im_slices_into_with`] on the same auto-selected executor as
/// [`col2im`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `columns` is not exactly the
/// column matrix's size or `out` does not hold
/// `batch * channels * in_h * in_w` elements.
pub fn col2im_slices_into(
    columns: &[f32],
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut [f32],
) -> Result<(), TensorError> {
    col2im_slices_into_with(
        &auto_executor(out.len(), PAR_ELEMS_THRESHOLD),
        columns,
        batch,
        channels,
        geom,
        out,
    )
}

/// [`col2im`] over a raw column-matrix slice (`channels * k * k` rows by
/// `batch * out_h * out_w` columns) into an exact-length NCHW slice, which
/// is overwritten (bitwise identical fold; `out` is never reallocated).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `columns` is not exactly the
/// column matrix's size or `out` does not hold
/// `batch * channels * in_h * in_w` elements.
pub fn col2im_slices_into_with(
    exec: &Executor,
    columns: &[f32],
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let out_plane = geom.out_h() * geom.out_w();
    let taps = geom.kernel_h * geom.kernel_w;
    let cols = batch * out_plane;
    let plane = geom.in_h * geom.in_w;
    if columns.len() != channels * taps * cols || out.len() != batch * channels * plane {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![columns.len(), out.len()],
            rhs: vec![batch, channels, geom.in_h, geom.in_w],
            op: "col2im_slices_into",
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    crate::unfold::col2im(exec, columns, batch, channels, geom, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let eye =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]).unwrap();
        let c = matmul(&a, &eye).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_checks() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn parallel_kernels_are_bitwise_identical_to_sequential() {
        // The determinism contract of the threading layer: any executor
        // produces exactly the single-threaded result.
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let a = Tensor::randn(&[37, 23], &mut rng);
        let b = Tensor::randn(&[23, 41], &mut rng);
        let seq = Executor::sequential();
        let par = Executor::new(4);
        assert_eq!(
            matmul_with(&seq, &a, &b).unwrap().as_slice(),
            matmul_with(&par, &a, &b).unwrap().as_slice()
        );
    }

    #[test]
    fn im2col_fill_orders_are_bitwise_identical() {
        // The sequential fill and the per-channel pooled split must write
        // exactly the same values.
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let input = Tensor::randn(&[3, 4, 9, 7], &mut rng);
        let geom = ConvGeometry {
            in_h: 9,
            in_w: 7,
            kernel_h: 3,
            kernel_w: 2,
            stride_h: 2,
            stride_w: 1,
            pad_h: 1,
            pad_w: 0,
        };
        let len = 4 * 3 * 2 * 3 * geom.out_h() * geom.out_w();
        let (mut seq, mut par) = (vec![0.0; len], vec![0.0; len]);
        let data = input.as_slice();
        let dims_seq =
            im2col_slices_into_with(&Executor::sequential(), data, 3, 4, &geom, &mut seq).unwrap();
        let dims_par =
            im2col_slices_into_with(&Executor::new(4), data, 3, 4, &geom, &mut par).unwrap();
        assert_eq!(dims_seq, dims_par);
        assert_eq!(seq, par);
    }

    /// The per-element unfold: every column entry bounds-checked on its own.
    fn im2col_reference<T: Copy + Default>(
        data: &[T],
        batch: usize,
        channels: usize,
        g: &ConvGeometry,
        unset: T,
    ) -> Vec<T> {
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let cols = batch * out_h * out_w;
        let mut out = vec![unset; channels * g.kernel_h * g.kernel_w * cols];
        for b in 0..batch {
            for c in 0..channels {
                for kh in 0..g.kernel_h {
                    for kw in 0..g.kernel_w {
                        let row = (c * g.kernel_h + kh) * g.kernel_w + kw;
                        for oh in 0..out_h {
                            for ow in 0..out_w {
                                let ih = (oh * g.stride_h + kh) as isize - g.pad_h as isize;
                                let iw = (ow * g.stride_w + kw) as isize - g.pad_w as isize;
                                let inside = ih >= 0
                                    && iw >= 0
                                    && (ih as usize) < g.in_h
                                    && (iw as usize) < g.in_w;
                                out[row * cols + (b * out_h + oh) * out_w + ow] = if inside {
                                    data[((b * channels + c) * g.in_h + ih as usize) * g.in_w
                                        + iw as usize]
                                } else {
                                    T::default()
                                };
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The per-element fold, accumulating in (kh, kw, oh, ow) order.
    fn col2im_reference(
        cols_data: &[f32],
        batch: usize,
        channels: usize,
        g: &ConvGeometry,
    ) -> Vec<f32> {
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let cols = batch * out_h * out_w;
        let mut out = vec![0.0f32; batch * channels * g.in_h * g.in_w];
        for b in 0..batch {
            for c in 0..channels {
                for kh in 0..g.kernel_h {
                    for kw in 0..g.kernel_w {
                        let row = (c * g.kernel_h + kh) * g.kernel_w + kw;
                        for oh in 0..out_h {
                            for ow in 0..out_w {
                                let ih = (oh * g.stride_h + kh) as isize - g.pad_h as isize;
                                let iw = (ow * g.stride_w + kw) as isize - g.pad_w as isize;
                                if ih < 0
                                    || iw < 0
                                    || ih as usize >= g.in_h
                                    || iw as usize >= g.in_w
                                {
                                    continue;
                                }
                                out[((b * channels + c) * g.in_h + ih as usize) * g.in_w
                                    + iw as usize] +=
                                    cols_data[row * cols + (b * out_h + oh) * out_w + ow];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN read as one value: which payload a sum of
    /// two NaNs carries is unspecified (the compiler may swap the operands
    /// of an addition), so a fold is held to NaN-ness, not to payloads.
    fn sum_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// The per-element im2row: the transposed unfold, one `rows`-long patch
    /// per output position.
    fn im2row_reference(data: &[i16], batch: usize, channels: usize, g: &ConvGeometry) -> Vec<i16> {
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let rows = channels * g.kernel_h * g.kernel_w;
        let mut out = vec![i16::MIN; rows * batch * out_h * out_w];
        for b in 0..batch {
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let col = (b * out_h + oh) * out_w + ow;
                    for c in 0..channels {
                        for kh in 0..g.kernel_h {
                            for kw in 0..g.kernel_w {
                                let row = (c * g.kernel_h + kh) * g.kernel_w + kw;
                                let ih = (oh * g.stride_h + kh) as isize - g.pad_h as isize;
                                let iw = (ow * g.stride_w + kw) as isize - g.pad_w as isize;
                                let inside = ih >= 0
                                    && iw >= 0
                                    && (ih as usize) < g.in_h
                                    && (iw as usize) < g.in_w;
                                out[col * rows + row] = if inside {
                                    data[((b * channels + c) * g.in_h + ih as usize) * g.in_w
                                        + iw as usize]
                                } else {
                                    0
                                };
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn segment_unfold_and_fold_match_per_element_reference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        // (in_h, in_w, kernel_h, kernel_w, stride_h, stride_w): strides 2 and
        // 3, kernels larger than the (padded) input, 1x1, 2x2, 3x3 and 1-wide
        // planes, non-square planes and kernels, output planes just below
        // and at the size from which planes stop stacking (7x9 and 8x8 at
        // padding 1); every padding from 0 up to the kernel size.
        let shapes = [
            (7usize, 9usize, 3usize, 3usize, 2usize, 2usize),
            (8, 5, 3, 2, 3, 3),
            (5, 6, 4, 4, 3, 2),
            (2, 3, 5, 4, 1, 2),
            (1, 1, 3, 3, 1, 1),
            (1, 1, 1, 1, 1, 1),
            (6, 1, 3, 1, 2, 1),
            (1, 7, 1, 3, 1, 3),
            (4, 4, 1, 1, 2, 2),
            (2, 2, 3, 3, 1, 1),
            (3, 3, 3, 3, 1, 1),
            (3, 3, 2, 2, 2, 2),
            (12, 12, 3, 3, 2, 2),
            (6, 4, 1, 1, 2, 3),
            (3, 2, 2, 3, 3, 1),
            (7, 9, 3, 3, 1, 1),
            (8, 8, 3, 3, 1, 1),
        ];
        // Non-finite values and -0.0: unfolds copy them bit for bit, folds
        // add them in the reference's order.
        let specials = [
            f32::from_bits(0x7fc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
        ];
        let with_specials = |t: Tensor| {
            let mut v = t.into_vec();
            for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 5 == 2) {
                *x = specials[i / 5 % specials.len()];
            }
            v
        };
        let pooled = Executor::new(4);
        for (in_h, in_w, kernel_h, kernel_w, stride_h, stride_w) in shapes {
            for pad in 0..=kernel_h.max(kernel_w) {
                let geom = ConvGeometry {
                    in_h,
                    in_w,
                    kernel_h,
                    kernel_w,
                    stride_h,
                    stride_w,
                    pad_h: pad.min(kernel_h),
                    pad_w: pad.min(kernel_w),
                };
                // A batch that is not a multiple of the stacked group, where
                // planes stack.
                let group = crate::unfold::stack_group(&geom, usize::MAX);
                let ragged = (group > 1).then_some((group + group / 2 + 1, 2));
                for (batch, channels) in
                    [(1usize, 1usize), (3, 2), (1, 3)].into_iter().chain(ragged)
                {
                    let ctx = format!("{geom:?} batch={batch} channels={channels}");
                    let data =
                        with_specials(Tensor::randn(&[batch, channels, in_h, in_w], &mut rng));
                    let expected = im2col_reference(&data, batch, channels, &geom, f32::NAN);
                    let grad = with_specials(Tensor::randn(&[expected.len()], &mut rng));
                    let folded = col2im_reference(&grad, batch, channels, &geom);
                    for exec in [Executor::sequential(), pooled] {
                        let mut cols = vec![f32::NAN; expected.len()];
                        im2col_slices_into_with(&exec, &data, batch, channels, &geom, &mut cols)
                            .unwrap();
                        assert_eq!(bits(&cols), bits(&expected), "im2col {ctx}");
                        let mut fold = vec![f32::NAN; folded.len()];
                        col2im_slices_into_with(&exec, &grad, batch, channels, &geom, &mut fold)
                            .unwrap();
                        assert_eq!(sum_bits(&fold), sum_bits(&folded), "col2im {ctx}");
                    }
                    let codes: Vec<i16> = data.iter().map(|&v| (v * 4096.0) as i16).collect();
                    let code_cols = im2col_reference(&codes, batch, channels, &geom, i16::MIN);
                    for exec in [Executor::sequential(), pooled] {
                        let mut got = vec![i16::MIN; expected.len() + 3];
                        let dims = crate::int::im2col_i16_into(
                            &exec, &codes, batch, channels, &geom, &mut got,
                        )
                        .unwrap();
                        assert_eq!(dims.0 * dims.1, expected.len(), "i16 im2col dims {ctx}");
                        assert_eq!(got[..expected.len()], code_cols, "i16 im2col {ctx}");
                        assert_eq!(got[expected.len()..], [i16::MIN; 3], "i16 im2col {ctx}");
                    }
                    let mut patches = vec![i16::MIN; expected.len() + 3];
                    let dims =
                        crate::int::im2row_i16_into(&codes, batch, channels, &geom, &mut patches)
                            .unwrap();
                    assert_eq!(dims.0 * dims.1, expected.len(), "im2row dims {ctx}");
                    assert_eq!(
                        patches[..expected.len()],
                        im2row_reference(&codes, batch, channels, &geom),
                        "im2row {ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn im2col_into_reuses_buffer() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let input = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let geom = ConvGeometry::square(6, 6, 3, 1, 1);
        let reference = im2col(&input, &geom).unwrap();
        let mut buf = vec![99.0f32; 7]; // wrong size + stale contents
        let (rows, cols) = im2col_into(&input, &geom, &mut buf).unwrap();
        assert_eq!((rows, cols), (reference.dims()[0], reference.dims()[1]));
        assert_eq!(buf.as_slice(), reference.as_slice());
        // A smaller batch, then the full one again, reuse the allocation.
        let ptr = buf.as_ptr();
        let half = Tensor::from_vec(input.as_slice()[..3 * 36].to_vec(), &[1, 3, 6, 6]).unwrap();
        im2col_into(&half, &geom, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), im2col(&half, &geom).unwrap().as_slice());
        im2col_into(&input, &geom, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), reference.as_slice());
        assert_eq!(buf.as_ptr(), ptr);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        let back = transpose(&t).unwrap();
        assert_eq!(back.as_slice(), a.as_slice());
    }

    #[test]
    fn conv_geometry_output_dims() {
        let g = ConvGeometry::square(32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = ConvGeometry::square(28, 28, 5, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (24, 24));
        let g = ConvGeometry::square(32, 32, 2, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is just a reshuffle.
        let input = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let geom = ConvGeometry::square(2, 2, 1, 1, 0);
        let cols = im2col(&input, &geom).unwrap();
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn im2col_known_patch() {
        // 2x2 input, 2x2 kernel -> a single column listing the whole image.
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let geom = ConvGeometry::square(2, 2, 2, 1, 0);
        let cols = im2col(&input, &geom).unwrap();
        assert_eq!(cols.dims(), &[4, 1]);
        assert_eq!(cols.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let input = Tensor::ones(&[1, 1, 1, 1]);
        let geom = ConvGeometry::square(1, 1, 3, 1, 1);
        let cols = im2col(&input, &geom).unwrap();
        // Only the centre tap sees the single input pixel.
        assert_eq!(cols.dims(), &[9, 1]);
        assert_eq!(cols.sum(), 1.0);
        assert_eq!(cols.as_slice()[4], 1.0);
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct 3x3 convolution vs im2col+matmul on a small random case.
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let (b, c_in, h, w, c_out, k) = (2usize, 3usize, 5usize, 5usize, 4usize, 3usize);
        let input = Tensor::randn(&[b, c_in, h, w], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, k, k], &mut rng);
        let geom = ConvGeometry::square(h, w, k, 1, 1);
        let out_h = geom.out_h();
        let out_w = geom.out_w();

        // im2col path
        let cols = im2col(&input, &geom).unwrap();
        let w2d = weight.reshape(&[c_out, c_in * k * k]).unwrap();
        let out2d = matmul(&w2d, &cols).unwrap(); // [c_out, b*oh*ow]

        // direct path
        let mut direct = vec![0.0f32; b * c_out * out_h * out_w];
        for bi in 0..b {
            for co in 0..c_out {
                for oh in 0..out_h {
                    for ow in 0..out_w {
                        let mut acc = 0.0f32;
                        for ci in 0..c_in {
                            for kh in 0..k {
                                for kw in 0..k {
                                    let ih = (oh + kh) as isize - 1;
                                    let iw = (ow + kw) as isize - 1;
                                    if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w
                                    {
                                        acc +=
                                            input.get(&[bi, ci, ih as usize, iw as usize]).unwrap()
                                                * weight.get(&[co, ci, kh, kw]).unwrap();
                                    }
                                }
                            }
                        }
                        direct[((bi * c_out + co) * out_h + oh) * out_w + ow] = acc;
                    }
                }
            }
        }
        // Compare: out2d[co, bi*oh*ow + ...] vs direct[bi, co, ...]
        for bi in 0..b {
            for co in 0..c_out {
                for oh in 0..out_h {
                    for ow in 0..out_w {
                        let col = (bi * out_h + oh) * out_w + ow;
                        let v_cols = out2d.get(&[co, col]).unwrap();
                        let v_direct = direct[((bi * c_out + co) * out_h + oh) * out_w + ow];
                        assert!(
                            (v_cols - v_direct).abs() < 1e-3,
                            "mismatch at ({bi},{co},{oh},{ow}): {v_cols} vs {v_direct}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property).
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let (b, c, h, w, k) = (1usize, 2usize, 4usize, 4usize, 3usize);
        let geom = ConvGeometry::square(h, w, k, 1, 1);
        let x = Tensor::randn(&[b, c, h, w], &mut rng);
        let cols = im2col(&x, &geom).unwrap();
        let y = Tensor::randn(cols.dims(), &mut rng);
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let folded = col2im(&y, b, c, &geom).unwrap();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(folded.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_shape_validation() {
        let geom = ConvGeometry::square(4, 4, 3, 1, 1);
        let wrong = Tensor::zeros(&[3, 3]);
        assert!(col2im(&wrong, 1, 2, &geom).is_err());
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_addition(
            a_vals in proptest::collection::vec(-2.0f32..2.0, 6..=6),
            b_vals in proptest::collection::vec(-2.0f32..2.0, 6..=6),
            c_vals in proptest::collection::vec(-2.0f32..2.0, 6..=6),
        ) {
            let a = Tensor::from_vec(a_vals, &[2, 3]).unwrap();
            let b = Tensor::from_vec(b_vals, &[3, 2]).unwrap();
            let c = Tensor::from_vec(c_vals, &[3, 2]).unwrap();
            let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
            let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn transpose_involution(vals in proptest::collection::vec(-5.0f32..5.0, 12..=12)) {
            let a = Tensor::from_vec(vals, &[3, 4]).unwrap();
            let back = transpose(&transpose(&a).unwrap()).unwrap();
            prop_assert_eq!(a.as_slice(), back.as_slice());
        }
    }
}
