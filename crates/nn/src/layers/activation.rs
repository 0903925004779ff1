//! Activation layers: ReLU and Softmax.

use crate::layer::{Layer, Mode};
use crate::NnError;
use bnn_tensor::ops::softmax;
use bnn_tensor::Tensor;

/// Rectified linear unit applied elementwise.
///
/// # Example
///
/// ```
/// use bnn_nn::prelude::*;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), bnn_nn::NnError> {
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?, Mode::Eval)?;
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        let mask: Vec<bool> = input.as_slice().iter().map(|&x| x > 0.0).collect();
        let out = input.map(|x| if x > 0.0 { x } else { 0.0 });
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "relu".into(),
            })?;
        if mask.len() != grad_output.len() {
            return Err(NnError::BadInputShape {
                layer: "relu".into(),
                got: grad_output.dims().to_vec(),
                expected: format!("{} elements (same as forward input)", mask.len()),
            });
        }
        let mut grad = grad_output.clone();
        // A select, not a branch: the mask is data-dependent, so a branch
        // mispredicts, while the select vectorizes.
        for (g, &keep) in grad.as_mut_slice().iter_mut().zip(mask) {
            *g = if keep { *g } else { 0.0 };
        }
        Ok(grad)
    }

    fn lowering(&self) -> Result<crate::lowering::LayerLowering, NnError> {
        Ok(crate::lowering::LayerLowering::Relu)
    }
}

/// Softmax over the class axis of a `[batch, classes]` tensor.
///
/// Usually the loss consumes raw logits directly (the cross-entropy gradient is
/// cheaper and better conditioned that way); this layer exists for exits whose
/// probabilities are combined into ensembles at inference time.
#[derive(Debug, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Softmax {
            cached_output: None,
        }
    }
}

impl Layer for Softmax {
    fn name(&self) -> &str {
        "softmax"
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        let out = softmax(input)?;
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let y = self
            .cached_output
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "softmax".into(),
            })?;
        // dL/dx_i = y_i * (g_i - sum_j g_j y_j) per row.
        let (batch, classes) = y.shape().as_matrix()?;
        let yd = y.as_slice();
        let gd = grad_output.as_slice();
        if gd.len() != yd.len() {
            return Err(NnError::BadInputShape {
                layer: "softmax".into(),
                got: grad_output.dims().to_vec(),
                expected: format!("[{batch}, {classes}]"),
            });
        }
        let mut out = vec![0.0f32; yd.len()];
        for b in 0..batch {
            let ys = &yd[b * classes..(b + 1) * classes];
            let gs = &gd[b * classes..(b + 1) * classes];
            let dot: f32 = ys.iter().zip(gs).map(|(y, g)| y * g).sum();
            for c in 0..classes {
                out[b * classes + c] = ys[c] * (gs[c] - dot);
            }
        }
        Tensor::from_vec(out, &[batch, classes]).map_err(NnError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_tensor::rng::Xoshiro256StarStar;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[1, 5]).unwrap();
        let y = relu.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 1.0, -3.0, 2.0], &[1, 4]).unwrap();
        let _ = relu.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(&[1, 4]);
        let gi = relu.backward(&g).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    /// Inputs and gradients with every sign, zero, infinity and NaN payload
    /// the masks must pass through bit for bit.
    fn special_values() -> Vec<f32> {
        vec![
            -2.0,
            1.5,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffc0_0042),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE / 2.0,
        ]
    }

    #[test]
    fn relu_backward_matches_branchy_mask_bitwise() {
        let vals = special_values();
        let n = vals.len();
        // Every input against every gradient.
        let x: Vec<f32> = (0..n * n).map(|i| vals[i / n]).collect();
        let g: Vec<f32> = (0..n * n).map(|i| vals[i % n]).collect();
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_vec(x.clone(), &[n, n]).unwrap(), Mode::Train)
            .unwrap();
        let got = relu
            .backward(&Tensor::from_vec(g.clone(), &[n, n]).unwrap())
            .unwrap();
        let mut expected = g;
        for (e, &xi) in expected.iter_mut().zip(&x) {
            let keep = xi > 0.0;
            if !keep {
                *e = 0.0;
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.as_slice()), bits(&expected));
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::ones(&[1, 4])).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut sm = Softmax::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0], &[2, 3]).unwrap();
        let y = sm.forward(&x, Mode::Eval).unwrap();
        for b in 0..2 {
            let s: f32 = y.as_slice()[b * 3..(b + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_gradient_matches_numerical() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let weights = Tensor::randn(&[2, 4], &mut rng); // random linear functional of outputs
        let mut sm = Softmax::new();
        let y = sm.forward(&x, Mode::Train).unwrap();
        let _ = y;
        let grad = sm.backward(&weights).unwrap();
        let eps = 1e-3f32;
        let f = |input: &Tensor| -> f32 {
            let mut sm2 = Softmax::new();
            let out = sm2.forward(input, Mode::Train).unwrap();
            out.as_slice()
                .iter()
                .zip(weights.as_slice())
                .map(|(o, w)| o * w)
                .sum()
        };
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            let ana = grad.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn shapes_preserved() {
        let mut relu = Relu::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        assert_eq!(relu.forward(&x, Mode::Eval).unwrap().dims(), x.dims());
        let mut sm = Softmax::new();
        assert!(sm.forward(&x, Mode::Eval).is_err());
        assert_eq!(
            sm.forward(&Tensor::ones(&[2, 10]), Mode::Eval)
                .unwrap()
                .dims(),
            &[2, 10]
        );
    }
}
