//! The one unfold behind every convolution: the f32 im2col fill, its col2im
//! adjoint and the `i16` im2row fill.
//!
//! Each `(batch, channel)` plane is copied once into a zero-bordered padded
//! plane of `(out - 1) * stride + kernel` rows and columns (so a kernel wider
//! than the padded input still reads zeros); a per-geometry offset map then
//! fills every tap with one plain copy loop, [`gather`], free of padding
//! branches. The fold adds the taps into a zeroed padded plane in
//! `(kh, kw, oh, ow)` order and copies the interior out. Unfolds are pure
//! copies and the fold keeps the per-element addition order, so all three
//! are bit-identical to their per-element definitions. The padded plane and
//! the map are grow-only thread-local scratch: no steady-state allocation.

use crate::linalg::{fill_row_blocks, ConvGeometry};
use parpool::Executor;
use std::cell::RefCell;
use std::thread::LocalKey;

thread_local! {
    static F32_SCRATCH: RefCell<TapMap<f32>> = RefCell::default();
    static I16_SCRATCH: RefCell<TapMap<i16>> = RefCell::default();
}

/// One thread's unfold scratch: where each window of one geometry reads
/// its padded plane, and the plane.
#[derive(Debug, Default)]
struct TapMap<T> {
    /// Padded plane rows and columns.
    dims: (usize, usize),
    /// Window origin of each output position, `(oh, ow)` order.
    pos: Vec<usize>,
    /// Offset of each kernel tap inside a window, `(kh, kw)` order.
    taps: Vec<usize>,
    /// The padded plane.
    padded: Vec<T>,
}

impl<T: Copy + Default> TapMap<T> {
    /// Rebuilds the map for `g` and zeroes a padded plane of its size, in
    /// place (the vectors only grow).
    fn rebuild(&mut self, g: &ConvGeometry) {
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let pw = (out_w - 1) * g.stride_w + g.kernel_w;
        self.dims = ((out_h - 1) * g.stride_h + g.kernel_h, pw);
        self.padded.clear();
        self.padded.resize(self.dims.0 * pw, T::default());
        self.pos.clear();
        for oh in 0..out_h {
            self.pos
                .extend((0..out_w).map(|ow| oh * g.stride_h * pw + ow * g.stride_w));
        }
        self.taps.clear();
        for kh in 0..g.kernel_h {
            self.taps.extend((0..g.kernel_w).map(|kw| kh * pw + kw));
        }
    }

    /// `(plane offset, padded offset, length)` of each input row's part
    /// inside the padded plane; rows and columns past the last window's
    /// reach are never read.
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

    /// Pads one input `plane`, then fills `dst[k * stride..]` with the
    /// padded plane read at `outer[k] + inner[i]` for every `i`: im2col
    /// walks the taps outside and the window positions inside, im2row
    /// (`taps_outside == false`) the reverse.
    fn unfold(
        &mut self,
        g: &ConvGeometry,
        plane: &[T],
        taps_outside: bool,
        dst: &mut [T],
        stride: usize,
    ) {
        for (src, at, w) in self.interior(g) {
            self.padded[at..][..w].copy_from_slice(&plane[src..][..w]);
        }
        let (outer, inner) = if taps_outside {
            (&self.taps, &self.pos)
        } else {
            (&self.pos, &self.taps)
        };
        for (k, &origin) in outer.iter().enumerate() {
            gather(
                &mut dst[k * stride..][..inner.len()],
                &self.padded[origin..],
                inner,
            );
        }
    }
}

/// Runs `f` on this thread's scratch in `key`, rebuilt for `g`.
fn with_map<T: Copy + Default>(
    key: &'static LocalKey<RefCell<TapMap<T>>>,
    g: &ConvGeometry,
    f: impl FnOnce(&mut TapMap<T>),
) {
    key.with(|map| {
        let map = &mut *map.borrow_mut();
        map.rebuild(g);
        f(map)
    })
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

/// Fills the `[channels * kh * kw, batch * out_h * out_w]` column matrix
/// `out` from NCHW `data` (lengths checked by the caller), channels split
/// over `exec`.
pub(crate) fn im2col(
    exec: &Executor,
    data: &[f32],
    batch: usize,
    channels: usize,
    g: &ConvGeometry,
    out: &mut [f32],
) {
    let (in_plane, out_plane) = (g.in_h * g.in_w, g.out_h() * g.out_w());
    let cols = batch * out_plane;
    let block = g.kernel_h * g.kernel_w * cols;
    fill_row_blocks(exec, out, channels, block, |c0, rows| {
        with_map(&F32_SCRATCH, g, |map| {
            for (c, rows) in (c0..).zip(rows.chunks_exact_mut(block)) {
                for b in 0..batch {
                    let plane = &data[(b * channels + c) * in_plane..];
                    map.unfold(g, plane, true, &mut rows[b * out_plane..], cols);
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
    fill_row_blocks(exec, out, batch * channels, in_plane, |p0, planes| {
        with_map(&F32_SCRATCH, g, |map| {
            let row_step = map.dims.1 * g.stride_h;
            for (p, dst) in (p0..).zip(planes.chunks_exact_mut(in_plane)) {
                let (b, c) = (p / channels, p % channels);
                map.padded.fill(0.0);
                for (t, &tap) in map.taps.iter().enumerate() {
                    let grad = &columns[(c * taps + t) * cols + b * out_plane..][..out_plane];
                    let runs = map.padded[tap..].chunks_mut(row_step);
                    for (run, grad_row) in runs.zip(grad.chunks_exact(out_w)) {
                        add_run(run, grad_row, g.stride_w);
                    }
                }
                dst.fill(0.0);
                for (dst_row, src, w) in map.interior(g) {
                    dst[dst_row..][..w].copy_from_slice(&map.padded[src..][..w]);
                }
            }
        });
    });
}

/// `run[i * stride] += grad[i]`: one output-row run of the fold, each
/// element added once. Unit stride is the contiguous loop that vectorizes;
/// taking both as parameters tells the compiler they do not overlap.
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
    with_map(&I16_SCRATCH, g, |map| {
        for p in 0..batch * channels {
            let (b, c) = (p / channels, p % channels);
            let patches = &mut out[b * out_plane * rows + c * taps..];
            map.unfold(g, &input[p * in_plane..], false, patches, rows);
        }
    });
}
