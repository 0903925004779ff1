//! The one unfold behind every convolution: the tap-major im2col fill (of
//! `f32` values for the float layers and plans, of `i16` codes for the
//! integer plan), its `f32` col2im adjoint and the position-major `i16`
//! im2row fill.
//!
//! The input planes of one channel are copied, a group of batch rows at a
//! time, into a stack of zero-bordered padded planes of
//! `(out - 1) * stride + kernel` rows and columns each (so a kernel wider
//! than the padded input still reads zeros). One per-geometry offset map
//! covers the whole stack, so every kernel tap fills free of padding
//! branches: with one plain copy loop over `group * out_h * out_w`
//! positions, [`gather`], or, at unit stride from [`WIDE_ROW`] output
//! columns on, with one block copy per output row ([`copy_runs`]: each
//! row's windows read one contiguous run of the stack). Wide planes go one
//! at a time (their loops are long already); small planes stack the batch,
//! which is what keeps a 3x3 or 2x2 plane from paying a loop set-up per
//! handful of copied elements ([`stack_group`]). The im2col body is generic
//! over the element type, so the integer plan's
//! `[c * kh * kw, batch * out_plane]` code columns come from the same loops
//! as the float ones.
//!
//! The fold adds each tap's column row into a zeroed stack through the same
//! map, in `(kh, kw)` tap order, and copies the interiors out: element by
//! element on narrow outputs, by output-row runs (the contiguous loop that
//! vectorizes) from [`WIDE_ROW`] columns on. Within one tap the stack
//! targets are distinct (one window position per target and plane), so
//! every input element still receives its contributions in `(kh, kw)`
//! order starting from `+0.0`, whatever the group or the path: the fold's
//! addition order is the per-element definition's. Unfolds are pure copies,
//! so all of them are bit-identical to their per-element definitions. The
//! position-major `i16` im2row (`int::im2row_i16_into`, on no plan's
//! path) goes one plane at a time: each position's patch is its own short
//! copy, so stacking would lengthen no copy loop. The stack and
//! the map are grow-only thread-local scratch: no steady-state allocation.

use crate::linalg::{fill_row_blocks, ConvGeometry};
use parpool::Executor;
use std::cell::RefCell;
use std::thread::LocalKey;

thread_local! {
    static F32_SCRATCH: RefCell<TapMap<f32>> = RefCell::default();
    static I16_SCRATCH: RefCell<TapMap<i16>> = RefCell::default();
}

/// Output positions below which a plane is small enough to stack.
const SMALL_PLANE: usize = 64;

/// Most output positions one stack of small planes holds, bounding the
/// scratch for large batches.
const STACK_POSITIONS: usize = 4096;

/// Output width from which the fold adds whole output-row runs (a
/// contiguous, vectorizing loop at unit stride) instead of scattering
/// element by element, and a unit-stride unfold copies whole output-row
/// runs instead of gathering element by element.
const WIDE_ROW: usize = 8;

/// Batch rows unfolded or folded together for geometry `g`: one for planes
/// of [`SMALL_PLANE`] output positions or more, otherwise as many as fit
/// in [`STACK_POSITIONS`] positions, up to the whole batch.
pub(crate) fn stack_group(g: &ConvGeometry, batch: usize) -> usize {
    let out_plane = g.out_h() * g.out_w();
    if out_plane >= SMALL_PLANE {
        1
    } else {
        (STACK_POSITIONS / out_plane).clamp(1, batch.max(1))
    }
}

/// An element type the unfolds copy, with its thread's scratch.
pub(crate) trait Element: Copy + Default + Send + Sync + 'static {
    /// This thread's unfold scratch for the type.
    fn scratch() -> &'static LocalKey<RefCell<TapMap<Self>>>;
}

impl Element for f32 {
    fn scratch() -> &'static LocalKey<RefCell<TapMap<f32>>> {
        &F32_SCRATCH
    }
}

impl Element for i16 {
    fn scratch() -> &'static LocalKey<RefCell<TapMap<i16>>> {
        &I16_SCRATCH
    }
}

/// One thread's unfold scratch: where each window of a stack of planes of
/// one geometry reads the stack, and the stack.
#[derive(Debug, Default)]
pub(crate) struct TapMap<T> {
    /// Padded plane rows and columns.
    dims: (usize, usize),
    /// Window origin of each output position, `(plane, oh, ow)` order.
    pos: Vec<usize>,
    /// Offset of each kernel tap inside a window, `(kh, kw)` order.
    taps: Vec<usize>,
    /// The stacked padded planes.
    padded: Vec<T>,
}

impl<T: Copy + Default> TapMap<T> {
    /// Rebuilds the map for a stack of `group` planes of geometry `g` and
    /// zeroes the stack, in place (the vectors only grow).
    fn rebuild(&mut self, g: &ConvGeometry, group: usize) {
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let pw = (out_w - 1) * g.stride_w + g.kernel_w;
        self.dims = ((out_h - 1) * g.stride_h + g.kernel_h, pw);
        let plane = self.plane_len();
        self.padded.clear();
        self.padded.resize(group * plane, T::default());
        self.pos.clear();
        for p in 0..group {
            for oh in 0..out_h {
                self.pos.extend(
                    (0..out_w).map(|ow| p * plane + oh * g.stride_h * pw + ow * g.stride_w),
                );
            }
        }
        self.taps.clear();
        for kh in 0..g.kernel_h {
            self.taps.extend((0..g.kernel_w).map(|kw| kh * pw + kw));
        }
    }

    /// Elements of one padded plane.
    fn plane_len(&self) -> usize {
        self.dims.0 * self.dims.1
    }

    /// `(plane offset, padded offset, length)` of each input row's part
    /// inside a padded plane; rows and columns past the last window's reach
    /// are never read.
    fn interior<'a>(
        &self,
        g: &'a ConvGeometry,
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        let (ph, pw) = self.dims;
        let w = g.in_w.min(pw.saturating_sub(g.pad_w));
        let h = if w == 0 {
            0
        } else {
            g.in_h.min(ph.saturating_sub(g.pad_h))
        };
        (0..h).map(move |ih| (ih * g.in_w, (ih + g.pad_h) * pw + g.pad_w, w))
    }

    /// Copies input `plane` into stack slot `slot`, leaving its border zero.
    fn pad(&mut self, g: &ConvGeometry, slot: usize, plane: &[T]) {
        let base = slot * self.plane_len();
        for (src, at, w) in self.interior(g) {
            self.padded[base + at..][..w].copy_from_slice(&plane[src..][..w]);
        }
    }
}

/// Runs `f` on this thread's scratch for `T`, rebuilt for a stack of
/// `group` planes of geometry `g`.
fn with_map<T: Element>(g: &ConvGeometry, group: usize, f: impl FnOnce(&mut TapMap<T>)) {
    T::scratch().with(|map| {
        let map = &mut *map.borrow_mut();
        map.rebuild(g, group);
        f(map)
    })
}

/// Fills `dst[k * stride..]` with `src` read at `outer[k] + inner[i]` for
/// every `i`: im2col walks the taps outside and the window positions
/// inside, im2row the reverse.
fn gather_rows<T: Copy>(dst: &mut [T], stride: usize, src: &[T], outer: &[usize], inner: &[usize]) {
    for (k, &origin) in outer.iter().enumerate() {
        gather(&mut dst[k * stride..][..inner.len()], &src[origin..], inner);
    }
}

/// [`gather_rows`] for unit-stride windows at least [`WIDE_ROW`] positions
/// wide: the `width` positions of one output row read one contiguous run
/// of the stack, so each row is one block copy.
fn copy_runs<T: Copy>(
    dst: &mut [T],
    stride: usize,
    src: &[T],
    taps: &[usize],
    pos: &[usize],
    width: usize,
) {
    for (k, &tap) in taps.iter().enumerate() {
        let dst = &mut dst[k * stride..][..pos.len()];
        for (run, &origin) in dst.chunks_exact_mut(width).zip(pos.iter().step_by(width)) {
            run.copy_from_slice(&src[origin + tap..][..width]);
        }
    }
}

/// `dst[i] = src[idx[i]]`, four loads per iteration: the copy loop every
/// unfold runs.
fn gather<T: Copy>(dst: &mut [T], src: &[T], idx: &[usize]) {
    let mut dst4 = dst.chunks_exact_mut(4);
    let mut idx4 = idx.chunks_exact(4);
    for (d, i) in (&mut dst4).zip(&mut idx4) {
        d.copy_from_slice(&[src[i[0]], src[i[1]], src[i[2]], src[i[3]]]);
    }
    for (d, &i) in dst4.into_remainder().iter_mut().zip(idx4.remainder()) {
        *d = src[i];
    }
}

/// `dst[idx[i]] += src[i]` with distinct `idx`, four elements per
/// iteration: the fold's add loop on narrow planes.
fn scatter_add(dst: &mut [f32], src: &[f32], idx: &[usize]) {
    let mut src4 = src.chunks_exact(4);
    let mut idx4 = idx.chunks_exact(4);
    for (s, i) in (&mut src4).zip(&mut idx4) {
        dst[i[0]] += s[0];
        dst[i[1]] += s[1];
        dst[i[2]] += s[2];
        dst[i[3]] += s[3];
    }
    for (&s, &i) in src4.remainder().iter().zip(idx4.remainder()) {
        dst[i] += s;
    }
}

/// `run[i * stride] += grad[i]`: one output-row run of the fold on wide
/// planes, each element added once. Unit stride is the contiguous loop that
/// vectorizes; taking both as parameters tells the compiler they do not
/// overlap.
fn add_run(run: &mut [f32], grad: &[f32], stride: usize) {
    if stride == 1 {
        run.iter_mut().zip(grad).for_each(|(a, &v)| *a += v);
    } else {
        run.iter_mut()
            .step_by(stride)
            .zip(grad)
            .for_each(|(a, &v)| *a += v);
    }
}

/// The batch rows `lo..hi` whose plane of channel `c` lies in NCHW planes
/// `p0..p1` of a `channels`-channel tensor.
fn batch_rows(p0: usize, p1: usize, c: usize, channels: usize) -> std::ops::Range<usize> {
    p0.saturating_sub(c).div_ceil(channels)..p1.saturating_sub(c).div_ceil(channels)
}

/// Fills the tap-major `[channels * kh * kw, batch * out_h * out_w]`
/// column matrix `out` from NCHW `data` (lengths checked by the caller),
/// channels split over `exec`.
pub(crate) fn im2col<T: Element>(
    exec: &Executor,
    data: &[T],
    batch: usize,
    channels: usize,
    g: &ConvGeometry,
    out: &mut [T],
) {
    let (in_plane, out_plane) = (g.in_h * g.in_w, g.out_h() * g.out_w());
    let cols = batch * out_plane;
    let block = g.kernel_h * g.kernel_w * cols;
    let group = stack_group(g, batch);
    let out_w = g.out_w();
    let runs = g.stride_w == 1 && out_w >= WIDE_ROW;
    fill_row_blocks(exec, out, channels, block, |c0, rows| {
        with_map(g, group, |map: &mut TapMap<T>| {
            for (c, rows) in (c0..).zip(rows.chunks_exact_mut(block)) {
                for b0 in (0..batch).step_by(group) {
                    let n = group.min(batch - b0);
                    for slot in 0..n {
                        let plane = &data[((b0 + slot) * channels + c) * in_plane..];
                        map.pad(g, slot, plane);
                    }
                    let (pos, dst) = (&map.pos[..n * out_plane], &mut rows[b0 * out_plane..]);
                    if runs {
                        copy_runs(dst, cols, &map.padded, &map.taps, pos, out_w);
                    } else {
                        gather_rows(dst, cols, &map.padded, &map.taps, pos);
                    }
                }
            }
        });
    });
}

/// Folds the column matrix `columns` into NCHW `out` (lengths checked by
/// the caller), overwriting every element: the adjoint of [`im2col`].
/// Planes are split over `exec`.
pub(crate) fn col2im(
    exec: &Executor,
    columns: &[f32],
    batch: usize,
    channels: usize,
    g: &ConvGeometry,
    out: &mut [f32],
) {
    let (in_plane, out_w) = (g.in_h * g.in_w, g.out_w());
    let out_plane = g.out_h() * out_w;
    let (cols, taps) = (batch * out_plane, g.kernel_h * g.kernel_w);
    let group = stack_group(g, batch);
    let scatter = out_w < WIDE_ROW;
    fill_row_blocks(exec, out, batch * channels, in_plane, |p0, planes| {
        let p1 = p0 + planes.len() / in_plane;
        with_map(g, group, |map: &mut TapMap<f32>| {
            let (plane_len, row_step) = (map.plane_len(), map.dims.1 * g.stride_h);
            for c in 0..channels {
                let rows = batch_rows(p0, p1, c, channels);
                for b0 in rows.clone().step_by(group) {
                    let n = group.min(rows.end - b0);
                    let stack = &mut map.padded[..n * plane_len];
                    stack.fill(0.0);
                    for (t, &tap) in map.taps.iter().enumerate() {
                        let grad = &columns[(c * taps + t) * cols + b0 * out_plane..];
                        let grad = &grad[..n * out_plane];
                        if scatter {
                            scatter_add(&mut stack[tap..], grad, &map.pos[..grad.len()]);
                        } else {
                            for (slot, grad) in grad.chunks_exact(out_plane).enumerate() {
                                let runs = stack[slot * plane_len + tap..].chunks_mut(row_step);
                                for (run, grad_row) in runs.zip(grad.chunks_exact(out_w)) {
                                    add_run(run, grad_row, g.stride_w);
                                }
                            }
                        }
                    }
                    for slot in 0..n {
                        let dst = &mut planes[((b0 + slot) * channels + c - p0) * in_plane..];
                        let dst = &mut dst[..in_plane];
                        dst.fill(0.0);
                        let padded = &map.padded[slot * plane_len..];
                        for (dst_row, src, w) in map.interior(g) {
                            dst[dst_row..][..w].copy_from_slice(&padded[src..][..w]);
                        }
                    }
                }
            }
        });
    });
}

/// Fills the transposed `[batch * out_h * out_w, channels * kh * kw]`
/// im2row layout `out` from NCHW `i16` codes (lengths checked by the
/// caller): one contiguous patch per output position.
pub(crate) fn im2row_i16(
    input: &[i16],
    batch: usize,
    channels: usize,
    g: &ConvGeometry,
    out: &mut [i16],
) {
    let (in_plane, out_plane) = (g.in_h * g.in_w, g.out_h() * g.out_w());
    let taps = g.kernel_h * g.kernel_w;
    let rows = channels * taps;
    with_map(g, 1, |map: &mut TapMap<i16>| {
        for p in 0..batch * channels {
            let (b, c) = (p / channels, p % channels);
            map.pad(g, 0, &input[p * in_plane..]);
            let dst = &mut out[b * out_plane * rows + c * taps..];
            gather_rows(dst, rows, &map.padded, &map.pos, &map.taps);
        }
    });
}
