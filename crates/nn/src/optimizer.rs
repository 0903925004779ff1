//! The SGD optimiser.
//!
//! The paper trains its models with SGD (momentum 0.9, weight decay 5e-4,
//! initial learning rate 0.1); [`Sgd`] reproduces exactly those dynamics.

use crate::layer::Param;

/// Stochastic gradient descent with momentum and decoupled weight decay.
///
/// # Example
///
/// ```
/// use bnn_nn::optimizer::Sgd;
/// use bnn_nn::layer::Param;
/// use bnn_tensor::Tensor;
///
/// let mut sgd = Sgd::new(0.1).with_momentum(0.9);
/// let mut p = Param::new(Tensor::ones(&[2]), true);
/// p.grad = Tensor::ones(&[2]);
/// sgd.step(&mut [&mut p]);
/// assert!(p.value.as_slice()[0] < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    /// One velocity buffer per parameter, keyed by position in the `step` slice.
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimiser with the given constant learning rate (no
    /// momentum, no weight decay).
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight-decay coefficient (applied only to parameters with
    /// `decay == true`).
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Applies one SGD update to the given parameters and zeroes their gradients.
    ///
    /// The slice must present the same parameters in the same order on every
    /// call, otherwise momentum buffers are matched to the wrong parameters.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        for (param, velocity) in params.iter_mut().zip(self.velocity.iter_mut()) {
            if velocity.len() != param.len() {
                *velocity = vec![0.0; param.len()];
            }
            let decay = if param.decay { self.weight_decay } else { 0.0 };
            let values = param.value.as_mut_slice();
            let grads = param.grad.as_mut_slice();
            for ((v, g), vel) in values
                .iter_mut()
                .zip(grads.iter_mut())
                .zip(velocity.iter_mut())
            {
                let total_grad = *g + decay * *v;
                *vel = self.momentum * *vel + total_grad;
                *v -= self.lr * *vel;
                *g = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_tensor::Tensor;

    fn param_with_grad(value: f32, grad: f32, decay: bool) -> Param {
        let mut p = Param::new(Tensor::full(&[4], value), decay);
        p.grad = Tensor::full(&[4], grad);
        p
    }

    #[test]
    fn plain_sgd_step() {
        let mut sgd = Sgd::new(0.5);
        let mut p = param_with_grad(1.0, 0.2, false);
        sgd.step(&mut [&mut p]);
        for &v in p.value.as_slice() {
            assert!((v - 0.9).abs() < 1e-6);
        }
        // gradient cleared after the step
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn momentum_accumulates() {
        let mut sgd = Sgd::new(0.1).with_momentum(0.9);
        let mut p = param_with_grad(0.0, 1.0, false);
        sgd.step(&mut [&mut p]);
        let after_first = p.value.as_slice()[0];
        p.grad = Tensor::full(&[4], 1.0);
        sgd.step(&mut [&mut p]);
        let delta_second = p.value.as_slice()[0] - after_first;
        // second step is larger in magnitude because velocity accumulated
        assert!(delta_second.abs() > after_first.abs());
    }

    #[test]
    fn weight_decay_only_on_decay_params() {
        let mut sgd = Sgd::new(1.0).with_weight_decay(0.1);
        let mut w = param_with_grad(1.0, 0.0, true);
        let mut b = param_with_grad(1.0, 0.0, false);
        sgd.step(&mut [&mut w, &mut b]);
        assert!(w.value.as_slice()[0] < 1.0);
        assert_eq!(b.value.as_slice()[0], 1.0);
    }

    #[test]
    fn gradient_descent_converges_on_quadratic() {
        // minimise f(x) = (x - 3)^2 => grad = 2(x-3)
        let mut sgd = Sgd::new(0.1).with_momentum(0.9);
        let mut p = Param::new(Tensor::zeros(&[1]), false);
        for _ in 0..200 {
            let x = p.value.as_slice()[0];
            p.grad = Tensor::from_vec(vec![2.0 * (x - 3.0)], &[1]).unwrap();
            sgd.step(&mut [&mut p]);
        }
        assert!((p.value.as_slice()[0] - 3.0).abs() < 1e-2);
    }
}
