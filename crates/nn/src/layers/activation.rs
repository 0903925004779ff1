//! Activation layers: ReLU.

use crate::layer::{Layer, Mode};
use crate::NnError;
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

    fn lowering(&self) -> crate::lowering::LayerLowering {
        crate::lowering::LayerLowering::Relu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn shapes_preserved() {
        let mut relu = Relu::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        assert_eq!(relu.forward(&x, Mode::Eval).unwrap().dims(), x.dims());
    }
}
