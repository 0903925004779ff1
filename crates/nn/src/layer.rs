//! The [`Layer`] trait and supporting types shared by every layer
//! implementation.

use crate::NnError;
use bnn_tensor::rng::SplitMix64;
use bnn_tensor::Tensor;

/// Execution mode of a forward pass.
///
/// The distinction between [`Mode::Eval`] and [`Mode::McSample`] is the core of
/// Monte-Carlo Dropout: an MC dropout layer samples a fresh mask not only in
/// training but also during `McSample` inference passes, which is how the
/// BayesNN draws Monte-Carlo samples from the approximate posterior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training pass: every stochastic layer samples, batch-norm uses batch statistics.
    Train,
    /// Deterministic inference: dropout disabled, batch-norm uses running statistics.
    #[default]
    Eval,
    /// Monte-Carlo inference: MC-dropout layers sample, batch-norm uses running statistics.
    McSample,
}

impl Mode {
    /// Returns `true` for the training mode.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }

    /// Returns `true` if MC-dropout layers should sample a mask in this mode.
    pub fn samples_mc_dropout(self) -> bool {
        matches!(self, Mode::Train | Mode::McSample)
    }
}

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to the value.
    pub grad: Tensor,
    /// Whether weight decay should be applied (true for weights, false for
    /// biases and batch-norm affine parameters, following common practice).
    pub decay: bool,
}

impl Param {
    /// Creates a parameter with a zeroed gradient buffer.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad, decay }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.as_mut_slice() {
            *g = 0.0;
        }
    }

    /// Number of scalar values in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward`] so that
/// [`Layer::backward`] can compute input gradients and accumulate parameter
/// gradients. `backward` must be called with the gradient of the loss with
/// respect to the layer output and returns the gradient with respect to the
/// layer input.
///
/// Layers are `Send` so whole networks can move across the worker threads of
/// the parallel-execution layer (e.g. per-candidate training).
pub trait Layer: std::fmt::Debug + Send {
    /// A short human-readable identifier (`"conv2d"`, `"mc_dropout"`, ...).
    fn name(&self) -> &str;

    /// Runs the layer on `input` and returns its output.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError>;

    /// Propagates `grad_output` backwards, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError>;

    /// Returns this layer's inference-graph lowering: an owned, structural
    /// description (weights, geometry, folded constants) that inference
    /// backends — notably the fixed-point integer path in `bnn-quant` —
    /// consume without touching the training machinery. Containers lower
    /// recursively.
    fn lowering(&self) -> crate::lowering::LayerLowering;

    /// [`Layer::backward`] for a layer whose input gradient nothing reads
    /// (the first layer of a network): accumulates the same parameter
    /// gradients and returns no input gradient, so a layer may skip the work
    /// of computing it. The default runs `backward` and drops the result.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        self.backward(grad_output).map(drop)
    }

    /// Mutable access to the layer's trainable parameters (may be empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Immutable access to the layer's trainable parameters (may be empty).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Total number of trainable scalars.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Zeroes all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Whether this layer is a Monte-Carlo Dropout layer (used by the
    /// transformation framework when counting Bayesian layers).
    fn is_mc_dropout(&self) -> bool {
        false
    }

    /// Snapshot of the layer's non-trainable state tensors (e.g. batchnorm
    /// running statistics), in a stable order. Stateless layers return an
    /// empty vec. Together with [`Layer::params`] this captures everything a
    /// checkpoint must preserve to reproduce the layer's evaluation
    /// behaviour.
    fn state(&self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Number of state tensors [`Layer::state`] returns, without cloning them
    /// (containers use this to route a flattened snapshot back to children).
    fn state_len(&self) -> usize {
        0
    }

    /// Reseeds the layer's Monte-Carlo Dropout stream(s) from `streams`.
    ///
    /// Stochastic MC layers draw one seed from `streams` (in layer order —
    /// containers forward the generator to their children), so a network
    /// reseeded with the same master stream redraws exactly the same masks.
    /// Deterministic layers do nothing and must not consume from `streams`.
    /// This is what makes Monte-Carlo sampling independent of which thread
    /// (or how many threads) executes which pass.
    fn reseed_mc_streams(&mut self, streams: &mut SplitMix64) {
        let _ = streams;
    }

    /// Restores a snapshot captured by [`Layer::state`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the snapshot does not match the
    /// layer's state layout.
    fn set_state(&mut self, state: &[Vec<f32>]) -> Result<(), NnError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(NnError::InvalidConfig(format!(
                "layer {} is stateless but received {} state tensor(s)",
                self.name(),
                state.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
        assert!(Mode::Train.samples_mc_dropout());
        assert!(Mode::McSample.samples_mc_dropout());
        assert!(!Mode::Eval.samples_mc_dropout());
        assert_eq!(Mode::default(), Mode::Eval);
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(&[2, 2]), true);
        p.grad = Tensor::ones(&[2, 2]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }
}
