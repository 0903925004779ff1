//! Fully-connected (dense) layer.

use crate::layer::{Layer, Mode, Param};
use crate::NnError;
use bnn_tensor::init::Init;
use bnn_tensor::linalg::{matmul, transpose};
use bnn_tensor::rng::Xoshiro256StarStar;
use bnn_tensor::Tensor;

/// Adds `bias` to every `bias.len()`-wide row of a `[batch, out]` product —
/// the epilogue shared by [`Dense::forward`] and the compiled float plan.
pub(crate) fn add_bias_rows(out: &mut [f32], bias: &[f32]) {
    for row in out.chunks_exact_mut(bias.len()) {
        for (o, &bv) in row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// A fully-connected layer computing `y = x W + b` for `x: [batch, in]`.
///
/// # Example
///
/// ```
/// use bnn_nn::prelude::*;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), bnn_nn::NnError> {
/// let mut dense = Dense::new(4, 2, 0)?;
/// let y = dense.forward(&Tensor::ones(&[3, 4]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-normal weights seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Result<Self, NnError> {
        Dense::with_init(in_features, out_features, Init::KaimingNormal, seed)
    }

    /// Creates a dense layer with an explicit initialisation scheme.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either feature count is zero.
    pub fn with_init(
        in_features: usize,
        out_features: usize,
        init: Init,
        seed: u64,
    ) -> Result<Self, NnError> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidConfig(format!(
                "dense layer features must be positive, got {in_features}x{out_features}"
            )));
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let weight = init.create(
            &[in_features, out_features],
            in_features,
            out_features,
            &mut rng,
        );
        Ok(Dense {
            in_features,
            out_features,
            weight: Param::new(weight, true),
            bias: Param::new(Tensor::zeros(&[out_features]), false),
            cached_input: None,
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        let (_, features) = input.shape().as_matrix().map_err(NnError::from)?;
        if features != self.in_features {
            return Err(NnError::BadInputShape {
                layer: "dense".into(),
                got: input.dims().to_vec(),
                expected: format!("[batch, {}]", self.in_features),
            });
        }
        let mut out = matmul(input, &self.weight.value)?;
        add_bias_rows(out.as_mut_slice(), self.bias.value.as_slice());
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "dense".into(),
            })?;
        // dW = x^T g
        let grad_w = matmul(&transpose(input)?, grad_output)?;
        self.weight.grad.add_scaled_inplace(&grad_w, 1.0)?;
        // db = column sums of g
        let (batch, out_f) = grad_output.shape().as_matrix()?;
        let g = grad_output.as_slice();
        let db = self.bias.grad.as_mut_slice();
        for b in 0..batch {
            for (d, &gv) in db.iter_mut().zip(&g[b * out_f..(b + 1) * out_f]) {
                *d += gv;
            }
        }
        // dx = g W^T
        let grad_input = matmul(grad_output, &transpose(&self.weight.value)?)?;
        Ok(grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn lowering(&self) -> crate::lowering::LayerLowering {
        crate::lowering::LayerLowering::Dense {
            weight: self.weight.value.clone(),
            bias: self.bias.value.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_grad_check(dense: &mut Dense, x: &Tensor) {
        // Analytic gradient of sum(output) wrt input and weights vs finite differences.
        let out = dense.forward(x, Mode::Train).unwrap();
        let grad_out = Tensor::ones(out.dims());
        dense.zero_grad();
        let grad_in = dense.backward(&grad_out).unwrap();

        let eps = 1e-3f32;
        // check a handful of input coordinates
        for idx in [0usize, 1, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = dense.forward(&xp, Mode::Train).unwrap().sum();
            let fm = dense.forward(&xm, Mode::Train).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.as_slice()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "input grad mismatch at {idx}: {num} vs {ana}"
            );
        }
        // check a handful of weight coordinates
        let w_len = dense.weight.value.len();
        for idx in [0usize, w_len / 3, w_len - 1] {
            let orig = dense.weight.value.as_slice()[idx];
            dense.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = dense.forward(x, Mode::Train).unwrap().sum();
            dense.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = dense.forward(x, Mode::Train).unwrap().sum();
            dense.weight.value.as_mut_slice()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = dense.weight.grad.as_slice()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "weight grad mismatch at {idx}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut dense = Dense::new(3, 2, 0).unwrap();
        // Zero the weights so output equals the bias.
        for w in dense.weight.value.as_mut_slice() {
            *w = 0.0;
        }
        dense.bias.value = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let y = dense.forward(&Tensor::ones(&[4, 3]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(y.get(&[2, 0]).unwrap(), 1.0);
        assert_eq!(y.get(&[2, 1]).unwrap(), -1.0);
    }

    #[test]
    fn rejects_bad_input() {
        let mut dense = Dense::new(3, 2, 0).unwrap();
        assert!(dense.forward(&Tensor::ones(&[4, 5]), Mode::Eval).is_err());
        assert!(Dense::new(0, 2, 0).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut dense = Dense::new(3, 2, 0).unwrap();
        assert!(dense.backward(&Tensor::ones(&[1, 2])).is_err());
    }

    #[test]
    fn gradient_check() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut dense = Dense::new(6, 4, 3).unwrap();
        let x = Tensor::randn(&[5, 6], &mut rng);
        numerical_grad_check(&mut dense, &x);
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut dense = Dense::new(2, 3, 1).unwrap();
        let x = Tensor::ones(&[4, 2]);
        let _ = dense.forward(&x, Mode::Train).unwrap();
        dense.zero_grad();
        let g = Tensor::ones(&[4, 3]);
        let _ = dense.backward(&g).unwrap();
        for &v in dense.bias.grad.as_slice() {
            assert_eq!(v, 4.0);
        }
    }

    #[test]
    fn num_params() {
        let dense = Dense::new(7, 5, 0).unwrap();
        assert_eq!(dense.num_params(), 7 * 5 + 5);
    }

    #[test]
    fn deterministic_init() {
        let a = Dense::new(4, 4, 9).unwrap();
        let b = Dense::new(4, 4, 9).unwrap();
        assert_eq!(a.weight.value.as_slice(), b.weight.value.as_slice());
        let c = Dense::new(4, 4, 10).unwrap();
        assert_ne!(a.weight.value.as_slice(), c.weight.value.as_slice());
    }
}
