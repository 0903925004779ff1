//! A sequential container of layers.

use crate::layer::{Layer, Mode, Param};
use crate::network::Network;
use crate::NnError;
use bnn_tensor::Tensor;

/// An ordered stack of layers executed one after another.
///
/// `Sequential` is both a [`Layer`] building block (so backbones and exit
/// branches can be nested) and a single-exit [`Network`].
///
/// # Example
///
/// ```
/// use bnn_nn::prelude::*;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), bnn_nn::NnError> {
/// let mut mlp = Sequential::new("mlp");
/// mlp.push(Dense::new(8, 16, 0)?);
/// mlp.push(Relu::new());
/// mlp.push(Dense::new(16, 4, 1)?);
/// let logits = mlp.forward(&Tensor::ones(&[2, 8]), Mode::Eval)?;
/// assert_eq!(logits.dims(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the contained layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Box<dyn Layer>> {
        self.layers.iter()
    }

    /// Mutable iteration over the contained layers.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Box<dyn Layer>> {
        self.layers.iter_mut()
    }

    /// Number of Monte-Carlo Dropout layers contained (recursively counts only
    /// this container's direct layers).
    pub fn mc_dropout_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_mc_dropout()).count()
    }

    /// Runs a full forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let mut current = input.clone();
        for layer in &mut self.layers {
            current = layer.forward(&current, mode)?;
        }
        Ok(current)
    }

    /// Runs a full backward pass through every layer in reverse order and
    /// returns the gradient with respect to the container input.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut current = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            current = layer.backward(&current)?;
        }
        Ok(current)
    }

    /// [`Sequential::backward`] without the container's input gradient: the
    /// first layer runs [`Layer::backward_params`], so it may skip
    /// computing a gradient nothing reads.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut current = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            current = layer.backward(&current)?;
        }
        first.backward_params(&current)
    }

    /// Mutable access to every parameter of every layer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        Sequential::forward(self, input, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        Sequential::backward(self, grad_output)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        Sequential::backward_params(self, grad_output)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Sequential::params_mut(self)
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn reseed_mc_streams(&mut self, streams: &mut bnn_tensor::rng::SplitMix64) {
        for layer in &mut self.layers {
            layer.reseed_mc_streams(streams);
        }
    }

    fn lowering(&self) -> crate::lowering::LayerLowering {
        crate::lowering::LayerLowering::Sequence(self.layers.iter().map(|l| l.lowering()).collect())
    }

    fn state(&self) -> Vec<Vec<f32>> {
        self.layers.iter().flat_map(|l| l.state()).collect()
    }

    fn state_len(&self) -> usize {
        self.layers.iter().map(|l| l.state_len()).sum()
    }

    fn set_state(&mut self, state: &[Vec<f32>]) -> Result<(), NnError> {
        let mut rest = state;
        for layer in &mut self.layers {
            let n = layer.state_len();
            if rest.len() < n {
                return Err(NnError::InvalidConfig(format!(
                    "container {} needs {} more state tensor(s) for layer {}, got {}",
                    self.name,
                    n,
                    layer.name(),
                    rest.len()
                )));
            }
            let (head, tail) = rest.split_at(n);
            layer.set_state(head)?;
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(NnError::InvalidConfig(format!(
                "container {} received {} extra state tensor(s)",
                self.name,
                rest.len()
            )));
        }
        Ok(())
    }
}

impl Network for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_exits(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>, NnError> {
        Ok(vec![Sequential::forward(self, input, mode)?])
    }

    fn backward_exits(&mut self, grads: &[Tensor]) -> Result<(), NnError> {
        if grads.len() != 1 {
            return Err(NnError::InvalidConfig(format!(
                "sequential network has 1 exit but received {} gradients",
                grads.len()
            )));
        }
        let _ = Sequential::backward(self, &grads[0])?;
        Ok(())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Sequential::params_mut(self)
    }

    fn num_exits(&self) -> usize {
        1
    }

    fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut streams = bnn_tensor::rng::SplitMix64::new(master_seed);
        Layer::reseed_mc_streams(self, &mut streams);
    }

    fn num_classes(&self) -> usize {
        // Best effort: the last dense layer's parameter count tells us the class count.
        self.layers
            .iter()
            .rev()
            .flat_map(|l| l.params())
            .find(|p| p.value.shape().rank() == 1)
            .map(|p| p.value.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::Relu;
    use crate::layers::conv2d::Conv2d;
    use crate::layers::dense::Dense;
    use crate::layers::dropout::McDropout;
    use crate::layers::flatten::Flatten;
    use crate::layers::pool::MaxPool2d;
    use crate::loss::cross_entropy;
    use crate::optimizer::Sgd;
    use bnn_tensor::rng::{Rng, Xoshiro256StarStar};

    fn small_cnn() -> Sequential {
        let mut net = Sequential::new("small_cnn");
        net.push(Conv2d::new(1, 4, 3, 1, 1, 1).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(Flatten::new());
        net.push(Dense::new(4 * 4 * 4, 3, 2).unwrap());
        net
    }

    #[test]
    fn forward_shapes_through_cnn() {
        let mut net = small_cnn();
        let y = net
            .forward(&Tensor::ones(&[2, 1, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn mc_dropout_count() {
        let mut net = small_cnn();
        assert_eq!(net.mc_dropout_count(), 0);
        net.push(McDropout::new(0.5, 0).unwrap());
        assert_eq!(net.mc_dropout_count(), 1);
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        // Learn to classify two linearly separable clusters.
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut net = Sequential::new("toy");
        net.push(Dense::new(2, 16, 1).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(16, 2, 2).unwrap());

        let n = 64;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let centre = if class == 0 { -1.0 } else { 1.0 };
            data.push(centre + 0.3 * rng.normal());
            data.push(centre + 0.3 * rng.normal());
            labels.push(class);
        }
        let x = Tensor::from_vec(data, &[n, 2]).unwrap();

        let mut sgd = Sgd::new(0.1).with_momentum(0.9);
        let first_loss = {
            let logits = net.forward(&x, Mode::Train).unwrap();
            cross_entropy(&logits, &labels).unwrap().loss
        };
        let mut last_loss = first_loss;
        for _ in 0..60 {
            let logits = net.forward(&x, Mode::Train).unwrap();
            let out = cross_entropy(&logits, &labels).unwrap();
            net.zero_grad();
            net.backward(&out.grad).unwrap();
            let mut params = Sequential::params_mut(&mut net);
            sgd.step(&mut params);
            last_loss = out.loss;
        }
        assert!(
            last_loss < first_loss * 0.3,
            "loss did not decrease: {first_loss} -> {last_loss}"
        );
    }

    #[test]
    fn network_trait_single_exit() {
        let mut net = small_cnn();
        let exits = net
            .forward_exits(&Tensor::ones(&[1, 1, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(exits.len(), 1);
        assert_eq!(Network::num_exits(&net), 1);
        assert_eq!(Network::num_classes(&net), 3);
        assert!(net.backward_exits(&[Tensor::ones(&[1, 3])]).is_ok());
        assert!(net.backward_exits(&[]).is_err());
    }

    #[test]
    fn reseed_mc_streams_reproduces_masks() {
        let mut net = Sequential::new("mc");
        net.push(McDropout::new(0.5, 1).unwrap());
        net.push(Relu::new());
        net.push(McDropout::new(0.5, 2).unwrap());
        let x = Tensor::ones(&[2, 64]);
        Network::reseed_mc_streams(&mut net, 99);
        let a = net.forward(&x, Mode::McSample).unwrap();
        let b = net.forward(&x, Mode::McSample).unwrap();
        // fresh draws differ, but reseeding replays the exact mask sequence
        assert_ne!(a.as_slice(), b.as_slice());
        Network::reseed_mc_streams(&mut net, 99);
        let a2 = net.forward(&x, Mode::McSample).unwrap();
        assert_eq!(a.as_slice(), a2.as_slice());
        // a different master stream draws different masks
        Network::reseed_mc_streams(&mut net, 100);
        let c = net.forward(&x, Mode::McSample).unwrap();
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn num_params_counts_everything() {
        let net = small_cnn();
        // conv: in*out*k*k + bias, dense: in*out + bias
        #[allow(clippy::identity_op)]
        let expected = (1 * 4 * 9 + 4) + (4 * 4 * 4 * 3 + 3);
        assert_eq!(net.num_params(), expected);
    }
}
