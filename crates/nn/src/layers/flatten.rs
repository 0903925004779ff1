//! Flatten layer: `[n, c, h, w] -> [n, c*h*w]`.

use crate::layer::{Layer, Mode};
use crate::NnError;
use bnn_tensor::Tensor;

/// Flattens all axes but the batch axis.
///
/// # Example
///
/// ```
/// use bnn_nn::prelude::*;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), bnn_nn::NnError> {
/// let mut flatten = Flatten::new();
/// let y = flatten.forward(&Tensor::ones(&[2, 3, 4, 4]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[2, 48]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        if input.shape().rank() < 2 {
            return Err(NnError::BadInputShape {
                layer: "flatten".into(),
                got: input.dims().to_vec(),
                expected: "rank >= 2".into(),
            });
        }
        let batch = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        self.input_dims = Some(input.dims().to_vec());
        input.reshape(&[batch, rest]).map_err(NnError::from)
    }

    fn lowering(&self) -> crate::lowering::LayerLowering {
        crate::lowering::LayerLowering::Flatten
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .input_dims
            .clone()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "flatten".into(),
            })?;
        grad_output.reshape(&dims).map_err(NnError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_unflatten() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = f.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y).unwrap();
        assert_eq!(g.dims(), &[2, 3, 2, 2]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn rejects_rank_one() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::ones(&[3]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut f = Flatten::new();
        assert!(f.backward(&Tensor::ones(&[2, 12])).is_err());
    }
}
