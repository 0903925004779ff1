//! Pooling layers: max pooling and global average pooling.

use crate::layer::{Layer, Mode};
use crate::NnError;
use bnn_tensor::linalg::ConvGeometry;
use bnn_tensor::{Shape, Tensor};

fn check_nchw(name: &str, dims: &[usize]) -> Result<(usize, usize, usize, usize), NnError> {
    Shape::from(dims)
        .as_nchw()
        .map_err(|_| NnError::BadInputShape {
            layer: name.into(),
            got: dims.to_vec(),
            expected: "[batch, channels, h, w]".into(),
        })
}

/// The square max-pooling windows over an NCHW batch. Their forward loop is
/// shared by [`MaxPool2d`] and the compiled float plan.
pub(crate) struct Window {
    dims: [usize; 4],
    kernel: usize,
    stride: usize,
    out: (usize, usize),
}

impl Window {
    pub(crate) fn new(dims: [usize; 4], kernel: usize, stride: usize) -> Self {
        let geom = ConvGeometry::square(dims[2], dims[3], kernel, stride, 0);
        Window {
            dims,
            kernel,
            stride,
            out: (geom.out_h(), geom.out_w()),
        }
    }

    /// Max pooling over the in-bounds taps of every window, in row-major tap
    /// order (strict `>` from `-inf`, so the first maximal tap wins),
    /// optionally recording each winner's input offset.
    pub(crate) fn max_into(&self, data: &[f32], out: &mut [f32], mut argmax: Option<&mut [usize]>) {
        let [n, c, h, w] = self.dims;
        let (oh, ow) = self.out;
        for plane in 0..n * c {
            for y in 0..oh {
                for x in 0..ow {
                    let (mut best, mut best_off) = (f32::NEG_INFINITY, 0usize);
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            let (iy, ix) = (y * self.stride + ky, x * self.stride + kx);
                            if iy < h && ix < w {
                                let off = (plane * h + iy) * w + ix;
                                if data[off] > best {
                                    (best, best_off) = (data[off], off);
                                }
                            }
                        }
                    }
                    let o = (plane * oh + y) * ow + x;
                    out[o] = best;
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax[o] = best_off;
                    }
                }
            }
        }
    }
}

/// Global average pooling of every `plane`-element channel of `data` into
/// one output each.
pub(crate) fn global_avg_into(data: &[f32], plane: usize, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = data[i * plane..(i + 1) * plane].iter().sum::<f32>() / plane as f32;
    }
}

/// 2-D max pooling with a square window.
///
/// # Example
///
/// ```
/// use bnn_nn::prelude::*;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), bnn_nn::NnError> {
/// let mut pool = MaxPool2d::new(2, 2)?;
/// let y = pool.forward(&Tensor::ones(&[1, 3, 8, 8]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[1, 3, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// For each output element, the flat input offset of the winning element.
    argmax: Option<Vec<usize>>,
    input_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if kernel or stride is zero.
    pub fn new(kernel: usize, stride: usize) -> Result<Self, NnError> {
        if kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(
                "pooling kernel/stride must be positive".into(),
            ));
        }
        Ok(MaxPool2d {
            kernel,
            stride,
            argmax: None,
            input_dims: None,
        })
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "max_pool2d"
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        let (n, c, h, w) = check_nchw("max_pool2d", input.dims())?;
        let window = Window::new([n, c, h, w], self.kernel, self.stride);
        let (oh, ow) = window.out;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        window.max_into(input.as_slice(), &mut out, Some(&mut argmax));
        self.argmax = Some(argmax);
        self.input_dims = Some(input.dims().to_vec());
        Tensor::from_vec(out, &[n, c, oh, ow]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let argmax = self
            .argmax
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "max_pool2d".into(),
            })?;
        let dims = self
            .input_dims
            .clone()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "max_pool2d".into(),
            })?;
        let mut grad = Tensor::zeros(&dims);
        let gslice = grad.as_mut_slice();
        for (g, &off) in grad_output.as_slice().iter().zip(argmax) {
            gslice[off] += g;
        }
        Ok(grad)
    }

    fn lowering(&self) -> crate::lowering::LayerLowering {
        crate::lowering::LayerLowering::MaxPool2d {
            kernel: self.kernel,
            stride: self.stride,
        }
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
///
/// Used before the final classifier in ResNet-style networks and in the exit
/// branches of multi-exit networks.
#[derive(Debug, Default)]
pub struct GlobalAvgPool2d {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool2d { input_dims: None }
    }
}

impl Layer for GlobalAvgPool2d {
    fn name(&self) -> &str {
        "global_avg_pool2d"
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        let (n, c, h, w) = check_nchw("global_avg_pool2d", input.dims())?;
        let mut out = vec![0.0f32; n * c];
        global_avg_into(input.as_slice(), h * w, &mut out);
        self.input_dims = Some(input.dims().to_vec());
        Tensor::from_vec(out, &[n, c]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .input_dims
            .clone()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "global_avg_pool2d".into(),
            })?;
        let (n, c, h, w) = check_nchw("global_avg_pool2d", &dims)?;
        let norm = 1.0 / (h * w) as f32;
        let g = grad_output.as_slice();
        let mut grad = Tensor::zeros(&dims);
        let gs = grad.as_mut_slice();
        for b in 0..n {
            for ch in 0..c {
                let gv = g[b * c + ch] * norm;
                let start = (b * c + ch) * h * w;
                for v in &mut gs[start..start + h * w] {
                    *v = gv;
                }
            }
        }
        Ok(grad)
    }

    fn lowering(&self) -> crate::lowering::LayerLowering {
        crate::lowering::LayerLowering::GlobalAvgPool2d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_takes_maximum() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let _ = pool.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let gi = pool.backward(&g).unwrap();
        assert_eq!(gi.sum(), 4.0);
        assert_eq!(gi.get(&[0, 0, 1, 1]).unwrap(), 1.0); // 6.0 was the max of the top-left window
        assert_eq!(gi.get(&[0, 0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn global_avg_pool() {
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::from_vec((1..=8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 6.5]);
        let gi = pool.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(gi.dims(), &[1, 2, 2, 2]);
        assert!((gi.sum() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MaxPool2d::new(0, 2).is_err());
        assert!(MaxPool2d::new(2, 0).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        assert!(pool.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());
        let mut pool = GlobalAvgPool2d::new();
        assert!(pool.backward(&Tensor::ones(&[1, 2])).is_err());
    }

    #[test]
    fn output_shapes() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let y = pool
            .forward(&Tensor::ones(&[2, 8, 32, 32]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        let mut gap = GlobalAvgPool2d::new();
        let y = gap
            .forward(&Tensor::ones(&[2, 8, 4, 4]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 8]);
        assert!(gap.forward(&Tensor::ones(&[2, 8]), Mode::Eval).is_err());
    }
}
