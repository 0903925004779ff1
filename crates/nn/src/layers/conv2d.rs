//! 2-D convolution layer implemented with im2col + matrix multiplication.

use crate::layer::{Layer, Mode, Param};
use crate::NnError;
use bnn_tensor::init::Init;
use bnn_tensor::linalg::{col2im_slices_into, im2col_into, matmul_slices_into, ConvGeometry};
use bnn_tensor::rng::Xoshiro256StarStar;
use bnn_tensor::{Shape, Tensor};
use std::cell::RefCell;

/// The temporaries of [`Conv2d::backward`], reused across batches. One set
/// per thread serves every convolution layer, since backward passes run one
/// layer at a time: per-layer sets would keep all of them alive for every
/// layer of the network.
#[derive(Default)]
struct BackwardScratch {
    /// `grad_output` as `[out_c, batch * plane]`.
    g2d: Vec<f32>,
    /// `g2d` transposed: `[batch * plane, out_c]`.
    g2d_t: Vec<f32>,
    /// The weight matrix transposed: `[c * k * k, out_c]`.
    w_t: Vec<f32>,
    /// The transposed weight gradient `cols * g2dᵀ`: `[c * k * k, out_c]`.
    grad_w_t: Vec<f32>,
    /// One input channel's rows of the column gradient `Wᵀ * g2d`:
    /// `[k * k, batch * plane]`.
    dcols: Vec<f32>,
    /// The input gradient in channel-major order: `[c, batch, in_h, in_w]`.
    grad_cm: Vec<f32>,
}

thread_local! {
    static BACKWARD_SCRATCH: RefCell<BackwardScratch> = RefCell::new(BackwardScratch::default());
}

/// `buf` resized to exactly `len` elements (stale contents kept: every
/// caller overwrites the whole slice).
fn resized(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.resize(len, 0.0);
    buf
}

/// Reorders a `[out_c, batch * plane]` convolution product into
/// `[batch, out_c, plane]`, adding each channel's bias — the epilogue shared
/// by [`Conv2d::forward`] and the compiled float plan. Rows of `plane`
/// elements are contiguous in both layouts, so whole rows are copied
/// (autovectorizes; no per-element bounds checks).
pub(crate) fn scatter_bias(acc: &[f32], bias: &[f32], batch: usize, plane: usize, out: &mut [f32]) {
    // chunks_exact panics on a zero chunk size.
    if batch * plane == 0 {
        return;
    }
    for (co, src_chan) in acc.chunks_exact(batch * plane).enumerate() {
        for (b, src_row) in src_chan.chunks_exact(plane).enumerate() {
            let start = (b * bias.len() + co) * plane;
            for (d, s) in out[start..start + plane].iter_mut().zip(src_row) {
                *d = s + bias[co];
            }
        }
    }
}

/// A 2-D convolution over NCHW tensors.
///
/// The weight tensor has shape `[out_channels, in_channels, kernel, kernel]`
/// and the bias `[out_channels]`. Forward evaluation lowers the convolution to
/// a matrix product through [`im2col_into`] (one column buffer reused per
/// layer across batches); the same columns are cached and read in place by
/// the backward pass, which only ever transposes the small gradient/weight
/// matrices — never the column matrix.
///
/// # Example
///
/// ```
/// use bnn_nn::prelude::*;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), bnn_nn::NnError> {
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0)?;
/// let y = conv.forward(&Tensor::ones(&[2, 3, 16, 16]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
    bias: Param,
    cached_cols: Option<Tensor>,
    cached_input_dims: Option<Vec<usize>>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-normal weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any of the channel counts, kernel
    /// size or stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(format!(
                "conv2d parameters must be positive: in={in_channels} out={out_channels} k={kernel} s={stride}"
            )));
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Init::KaimingNormal.create(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            fan_out,
            &mut rng,
        );
        Ok(Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Param::new(weight, true),
            bias: Param::new(Tensor::zeros(&[out_channels]), false),
            cached_cols: None,
            cached_input_dims: None,
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (square).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride (same on both axes).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding (same on both axes).
    pub fn padding(&self) -> usize {
        self.padding
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> ConvGeometry {
        ConvGeometry::square(in_h, in_w, self.kernel, self.stride, self.padding)
    }

    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize, usize), NnError> {
        let shape = Shape::from(dims);
        let (n, c, h, w) = shape.as_nchw().map_err(NnError::from)?;
        if c != self.in_channels {
            return Err(NnError::BadInputShape {
                layer: "conv2d".into(),
                got: dims.to_vec(),
                expected: format!("[batch, {}, h, w]", self.in_channels),
            });
        }
        Ok((n, c, h, w))
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        let (batch, _c, in_h, in_w) = self.check_input(input.dims())?;
        let geom = self.geometry(in_h, in_w);
        let out_h = geom.out_h();
        let out_w = geom.out_w();
        // Reuse one column buffer per layer across batches: take the buffer
        // back out of the previous forward's cache instead of reallocating
        // the (large) im2col matrix on every call.
        let mut col_buf = self
            .cached_cols
            .take()
            .map_or_else(Vec::new, Tensor::into_vec);
        let (col_rows, col_cols) = im2col_into(input, &geom, &mut col_buf)?;
        let cols = Tensor::from_vec(col_buf, &[col_rows, col_cols])?;
        // The `[out_c, in_c, k, k]` weights are already the row-major
        // `[out_c, in_c*k*k]` operand: no reshaped copy.
        let mut out2d = vec![0.0f32; self.out_channels * col_cols]; // [out_c, batch*out_h*out_w]
        matmul_slices_into(
            self.weight.value.as_slice(),
            cols.as_slice(),
            self.out_channels,
            col_rows,
            col_cols,
            &mut out2d,
        )?;

        let mut out = vec![0.0f32; batch * self.out_channels * out_h * out_w];
        scatter_bias(
            &out2d,
            self.bias.value.as_slice(),
            batch,
            out_h * out_w,
            &mut out,
        );
        self.cached_cols = Some(cols);
        self.cached_input_dims = Some(input.dims().to_vec());
        Tensor::from_vec(out, &[batch, self.out_channels, out_h, out_w]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let grad = self.backward_with(grad_output, true)?;
        Ok(grad.expect("backward_with returns the input gradient when asked for it"))
    }

    /// Skips the input gradient's `Wᵀ·g` GEMM and `col2im` fold.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        self.backward_with(grad_output, false).map(drop)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn lowering(&self) -> crate::lowering::LayerLowering {
        crate::lowering::LayerLowering::Conv2d {
            weight: self.weight.value.clone(),
            bias: self.bias.value.clone(),
            stride: self.stride,
            padding: self.padding,
        }
    }
}

impl Conv2d {
    /// The backward pass: accumulates the weight and bias gradients and,
    /// when `input_grad` is set, returns the input gradient (`Wᵀ·g` folded
    /// back by `col2im`); without it that GEMM and the fold are skipped.
    fn backward_with(
        &mut self,
        grad_output: &Tensor,
        input_grad: bool,
    ) -> Result<Option<Tensor>, NnError> {
        let cols = self
            .cached_cols
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "conv2d".into(),
            })?;
        let input_dims =
            self.cached_input_dims
                .clone()
                .ok_or_else(|| NnError::MissingForwardCache {
                    layer: "conv2d".into(),
                })?;
        let (batch, _c, in_h, in_w) = self.check_input(&input_dims)?;
        let geom = self.geometry(in_h, in_w);
        let plane = geom.out_h() * geom.out_w();
        let (out_c, taps) = (self.out_channels, self.kernel * self.kernel);
        let rows = self.in_channels * taps;
        let cols_n = batch * plane;
        let g = grad_output.as_slice();
        if g.len() != out_c * cols_n {
            return Err(NnError::BadInputShape {
                layer: "conv2d".into(),
                got: grad_output.dims().to_vec(),
                expected: format!("[{batch}, {out_c}, {}, {}]", geom.out_h(), geom.out_w()),
            });
        }
        BACKWARD_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            // Reorder grad_output [b, out_c, oh, ow] into g2d [out_c, b*oh*ow]
            // (contiguous rows of `plane`) and its transpose g2dᵀ
            // [b*oh*ow, out_c]. Guard the empty case: chunks_exact panics on
            // a zero chunk size.
            let g2d = resized(&mut scratch.g2d, out_c * cols_n);
            let g2d_t = resized(&mut scratch.g2d_t, cols_n * out_c);
            if plane > 0 {
                for (src_idx, src_row) in g.chunks_exact(plane).enumerate() {
                    let (b, co) = (src_idx / out_c, src_idx % out_c);
                    g2d[co * cols_n + b * plane..][..plane].copy_from_slice(src_row);
                    for (s, &v) in src_row.iter().enumerate() {
                        g2d_t[(b * plane + s) * out_c + co] = v;
                    }
                }
            }

            // dW = g2d * colsᵀ, computed as dWᵀ = cols * g2dᵀ so the column
            // matrix ([c*k*k, b*oh*ow], the dominant buffer) is read in place
            // and never transposed.
            let grad_w_t = resized(&mut scratch.grad_w_t, rows * out_c);
            matmul_slices_into(cols.as_slice(), g2d_t, rows, cols_n, out_c, grad_w_t)?;
            let dw = self.weight.grad.as_mut_slice();
            for (r, row) in grad_w_t.chunks_exact(out_c).enumerate() {
                for (co, &v) in row.iter().enumerate() {
                    dw[co * rows + r] += v;
                }
            }

            // db = row sums of g2d.
            let db = self.bias.grad.as_mut_slice();
            if cols_n > 0 {
                for (d, row) in db.iter_mut().zip(g2d.chunks_exact(cols_n)) {
                    *d += row.iter().sum::<f32>();
                }
            }

            if !input_grad {
                return Ok(None);
            }

            // dcols = Wᵀ * g2d, folded back to the input shape one input
            // channel at a time: a channel's `k*k` rows of dcols fold into
            // that channel's planes only, so the column gradient never needs
            // more than one channel's rows. The fold writes channel-major
            // planes, reordered to NCHW at the end.
            let w_t = resized(&mut scratch.w_t, rows * out_c);
            for (co, row) in self.weight.value.as_slice().chunks_exact(rows).enumerate() {
                for (r, &v) in row.iter().enumerate() {
                    w_t[r * out_c + co] = v;
                }
            }
            let in_plane = in_h * in_w;
            let mut grad_input = vec![0.0f32; batch * self.in_channels * in_plane];
            if batch * in_plane == 0 {
                return Ok(Some(Tensor::from_vec(grad_input, &input_dims)?));
            }
            let dcols = resized(&mut scratch.dcols, taps * cols_n);
            let grad_cm = resized(&mut scratch.grad_cm, grad_input.len());
            for (w_rows, grad_ch) in w_t
                .chunks_exact(taps * out_c)
                .zip(grad_cm.chunks_exact_mut(batch * in_plane))
            {
                matmul_slices_into(w_rows, g2d, taps, out_c, cols_n, dcols)?;
                col2im_slices_into(dcols, batch, 1, &geom, grad_ch)?;
            }
            for (cb, src) in grad_cm.chunks_exact(in_plane).enumerate() {
                let (ch, b) = (cb / batch, cb % batch);
                grad_input[(b * self.in_channels + ch) * in_plane..][..in_plane]
                    .copy_from_slice(src);
            }
            Ok(Some(Tensor::from_vec(grad_input, &input_dims)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weight and bias gradient bits of a layer.
    fn grad_bits(conv: &Conv2d) -> Vec<u32> {
        conv.params()
            .iter()
            .flat_map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn backward_params_accumulates_the_gradients_of_backward() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        // Stride 2 and padding 1: a 7x7 plane maps to 4x4.
        let x = Tensor::randn(&[3, 2, 7, 7], &mut rng);
        let g = Tensor::randn(&[3, 4, 4, 4], &mut rng);
        let mut full = Conv2d::new(2, 4, 3, 2, 1, 9).unwrap();
        let mut params_only = Conv2d::new(2, 4, 3, 2, 1, 9).unwrap();
        // Twice, so the second pass accumulates onto the first.
        for _ in 0..2 {
            full.forward(&x, Mode::Train).unwrap();
            params_only.forward(&x, Mode::Train).unwrap();
            full.backward(&g).unwrap();
            params_only.backward_params(&g).unwrap();
        }
        assert!(grad_bits(&full).iter().any(|&b| b != 0));
        assert_eq!(grad_bits(&full), grad_bits(&params_only));
    }

    #[test]
    fn forward_shape() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0).unwrap();
        let y = conv
            .forward(&Tensor::ones(&[2, 3, 16, 16]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        let mut conv = Conv2d::new(3, 4, 5, 1, 0, 0).unwrap();
        let y = conv
            .forward(&Tensor::ones(&[1, 3, 28, 28]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[1, 4, 24, 24]);
    }

    #[test]
    fn identity_kernel_reproduces_input_channel() {
        // A 1x1 conv with identity weights copies the selected input channel.
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, 0).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]).unwrap();
        conv.weight.value = w;
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, 0).unwrap();
        for w in conv.weight.value.as_mut_slice() {
            *w = 0.0;
        }
        conv.bias.value = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let y = conv
            .forward(&Tensor::ones(&[1, 1, 2, 2]), Mode::Eval)
            .unwrap();
        assert_eq!(y.get(&[0, 0, 1, 1]).unwrap(), 1.5);
        assert_eq!(y.get(&[0, 1, 0, 0]).unwrap(), -2.0);
    }

    #[test]
    fn zero_batch_forward_is_empty() {
        // Regression: the slice-based reorder must not panic on empty chunks.
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0).unwrap();
        let y = conv
            .forward(&Tensor::zeros(&[0, 3, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[0, 8, 8, 8]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, 0).unwrap();
        assert!(conv
            .forward(&Tensor::ones(&[1, 2, 8, 8]), Mode::Eval)
            .is_err());
        assert!(Conv2d::new(0, 4, 3, 1, 1, 0).is_err());
        assert!(Conv2d::new(3, 4, 0, 1, 1, 0).is_err());
    }

    #[test]
    fn gradient_check_small() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 7).unwrap();
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let out = conv.forward(&x, Mode::Train).unwrap();
        let grad_out = Tensor::ones(out.dims());
        conv.zero_grad();
        let grad_in = conv.backward(&grad_out).unwrap();

        let eps = 1e-2f32;
        // input gradient spot checks
        for idx in [0usize, 13, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv.forward(&xp, Mode::Train).unwrap().sum();
            let fm = conv.forward(&xm, Mode::Train).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(1.0),
                "input grad mismatch at {idx}: {num} vs {ana}"
            );
        }
        // weight gradient spot checks
        let wl = conv.weight.value.len();
        for idx in [0usize, wl / 2, wl - 1] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = conv.forward(&x, Mode::Train).unwrap().sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = conv.forward(&x, Mode::Train).unwrap().sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = conv.weight.grad.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(1.0),
                "weight grad mismatch at {idx}: {num} vs {ana}"
            );
        }
        // bias gradient: each bias sees out_h*out_w*batch ones
        for &b in conv.bias.grad.as_slice() {
            assert!((b - (2 * 5 * 5) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut conv = Conv2d::new(3, 6, 3, 2, 1, 0).unwrap();
        let geom = ConvGeometry::square(32, 32, 3, 2, 1);
        let actual = conv
            .forward(&Tensor::zeros(&[2, 3, 32, 32]), Mode::Eval)
            .unwrap();
        assert_eq!(actual.dims(), &[2, 6, geom.out_h(), geom.out_w()]);
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut conv = Conv2d::new(4, 4, 3, 2, 1, 0).unwrap();
        let out = conv
            .forward(&Tensor::zeros(&[1, 4, 32, 32]), Mode::Eval)
            .unwrap();
        assert_eq!(out.dims(), &[1, 4, 16, 16]);
    }

    #[test]
    fn num_params_counts_weights_and_bias() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 0).unwrap();
        assert_eq!(conv.num_params(), 3 * 8 * 9 + 8);
    }
}
