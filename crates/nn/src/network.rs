//! The [`Network`] trait: the minimal interface the trainer, the Bayesian
//! sampler and the transformation framework need from a model.
//!
//! A network exposes its prediction heads ("exits"). A conventional
//! single-exit CNN returns one logit tensor; a multi-exit network returns one
//! per exit, ordered from the earliest (shallowest) exit to the final one.

use crate::layer::{Mode, Param};
use crate::NnError;
use bnn_tensor::Tensor;

/// A trainable model with one or more prediction exits.
pub trait Network: std::fmt::Debug {
    /// Human-readable model name (e.g. `"resnet18"`).
    fn name(&self) -> &str;

    /// Runs a forward pass and returns the logits of every exit, ordered from
    /// the earliest exit to the final exit.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape does not match the model.
    fn forward_exits(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>, NnError>;

    /// Propagates per-exit logit gradients back through the network,
    /// accumulating parameter gradients. `grads` must have one entry per exit
    /// in the same order as [`Network::forward_exits`].
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward_exits` or if the gradient
    /// count does not match the exit count.
    fn backward_exits(&mut self, grads: &[Tensor]) -> Result<(), NnError>;

    /// Mutable access to every trainable parameter, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Number of prediction exits.
    fn num_exits(&self) -> usize;

    /// Number of classes predicted by the exits.
    fn num_classes(&self) -> usize;

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Zeroes every accumulated parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Reseeds every Monte-Carlo Dropout stream in the network from
    /// `master_seed`, assigning each stochastic layer its own deterministic
    /// sub-stream (in layer order).
    ///
    /// After `reseed_mc_streams(s)`, a [`Mode::McSample`] forward pass draws
    /// exactly the masks determined by `s`, independent of any previous
    /// passes — the hook the Bayesian sampler uses to make MC sampling
    /// reproducible and thread-count independent. The default implementation
    /// is a no-op for networks without stochastic layers.
    fn reseed_mc_streams(&mut self, master_seed: u64) {
        let _ = master_seed;
    }

    /// Convenience wrapper returning only the final exit's logits.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Network::forward_exits`].
    fn forward_final(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let mut exits = self.forward_exits(input, mode)?;
        exits
            .pop()
            .ok_or_else(|| NnError::InvalidConfig("network produced no exits".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::dense::Dense;
    use crate::sequential::Sequential;

    #[test]
    fn forward_final_returns_last_exit() {
        let mut net = Sequential::new("t");
        net.push(Dense::new(3, 2, 0).unwrap());
        let out = net
            .forward_final(&Tensor::ones(&[1, 3]), Mode::Eval)
            .unwrap();
        assert_eq!(out.dims(), &[1, 2]);
    }
}
