//! Mini-batch trainer for [`Network`] implementations.
//!
//! The trainer supports both conventional cross-entropy training and the
//! exit-ensemble distillation used to train multi-exit networks in the paper:
//! every exit minimises its own cross-entropy plus a KL term pulling it
//! towards the (equally weighted) ensemble of all exits.

use crate::layer::Mode;
use crate::loss::{cross_entropy, distillation_kl};
use crate::network::Network;
use crate::optimizer::Sgd;
use crate::NnError;
use bnn_tensor::ops::softmax;
use bnn_tensor::rng::{Rng, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 64).
    pub batch_size: usize,
    /// Weight of the distillation KL term added to each exit's loss
    /// (0 disables distillation).
    pub distillation_weight: f32,
    /// Distillation temperature.
    pub temperature: f32,
    /// Seed controlling batch shuffling.
    pub seed: u64,
    /// Whether to shuffle the training set every epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 64,
            distillation_weight: 0.0,
            temperature: 2.0,
            seed: 0,
            shuffle: true,
        }
    }
}

impl TrainConfig {
    /// Configuration mirroring the paper's multi-exit distillation training.
    pub fn with_distillation(mut self, weight: f32, temperature: f32) -> Self {
        self.distillation_weight = weight;
        self.temperature = temperature;
        self
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochStats {
    /// Mean loss over all batches (summed over exits).
    pub loss: f32,
    /// Training accuracy of the final exit.
    pub accuracy: f64,
}

/// History of a full training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainHistory {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainHistory {
    /// Final epoch statistics, if any epoch ran.
    pub fn last(&self) -> Option<&EpochStats> {
        self.epochs.last()
    }
}

/// A labelled dataset held in memory as one tensor of inputs (first axis is
/// the sample index) and one label per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledBatchSource {
    inputs: Tensor,
    labels: Vec<usize>,
}

impl LabelledBatchSource {
    /// Creates a batch source.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLabels`] if the number of labels differs from the
    /// number of samples.
    pub fn new(inputs: Tensor, labels: Vec<usize>) -> Result<Self, NnError> {
        let n = inputs.dims().first().copied().unwrap_or(0);
        if labels.len() != n {
            return Err(NnError::BadLabels(format!(
                "{} labels for {n} samples",
                labels.len()
            )));
        }
        Ok(LabelledBatchSource { inputs, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the source holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The full input tensor.
    pub fn inputs(&self) -> &Tensor {
        &self.inputs
    }

    /// The label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Gathers the samples at `indices` into a contiguous batch.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors if an index is out of range.
    pub fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), NnError> {
        let mut samples = Vec::with_capacity(indices.len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            samples.push(self.inputs.select_batch(i)?);
            labels.push(self.labels[i]);
        }
        Ok((Tensor::stack(&samples)?, labels))
    }
}

/// Trains `network` on `data` and returns per-epoch statistics.
///
/// # Errors
///
/// Returns [`NnError::NoExits`] if a forward pass yields no exit logits, and
/// propagates any layer or loss error encountered during training.
pub fn train(
    network: &mut dyn Network,
    data: &LabelledBatchSource,
    optimizer: &mut Sgd,
    config: &TrainConfig,
) -> Result<TrainHistory, NnError> {
    let mut history = TrainHistory::default();
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
    let n = data.len();
    if n == 0 {
        return Ok(history);
    }
    let mut order: Vec<usize> = (0..n).collect();

    for _ in 0..config.epochs {
        if config.shuffle {
            rng.shuffle(&mut order);
        }
        let mut epoch_loss = 0.0f32;
        let mut correct = 0usize;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let (inputs, labels) = data.gather(chunk)?;
            let exits = network.forward_exits(&inputs, Mode::Train)?;
            let Some(final_logits) = exits.last() else {
                return Err(NnError::NoExits {
                    network: network.name().to_string(),
                });
            };
            let mut grads = Vec::with_capacity(exits.len());
            let mut batch_loss = 0.0f32;

            // Ensemble teacher (mean of per-exit softmax probabilities).
            let teacher = if config.distillation_weight > 0.0 && exits.len() > 1 {
                let probs: Result<Vec<Tensor>, NnError> = exits
                    .iter()
                    .map(|e| softmax(e).map_err(NnError::from))
                    .collect();
                Some(Tensor::mean_of(&probs?)?)
            } else {
                None
            };

            for logits in &exits {
                let ce = cross_entropy(logits, &labels)?;
                batch_loss += ce.loss;
                let mut grad = ce.grad;
                if let Some(teacher) = &teacher {
                    let kl = distillation_kl(logits, teacher, config.temperature)?;
                    batch_loss += config.distillation_weight * kl.loss;
                    grad.add_scaled_inplace(&kl.grad, config.distillation_weight)?;
                }
                grads.push(grad);
            }

            // accuracy of the final exit
            let preds = bnn_tensor::ops::argmax_rows(final_logits)?;
            correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();

            network.zero_grad();
            network.backward_exits(&grads)?;
            let mut params = network.params_mut();
            optimizer.step(&mut params);

            epoch_loss += batch_loss;
            batches += 1;
        }
        history.epochs.push(EpochStats {
            loss: epoch_loss / batches.max(1) as f32,
            accuracy: correct as f64 / n as f64,
        });
    }
    Ok(history)
}

/// Computes the classification accuracy of the final exit on a dataset.
///
/// # Errors
///
/// Propagates layer errors.
pub fn evaluate_accuracy(
    network: &mut dyn Network,
    data: &LabelledBatchSource,
    batch_size: usize,
) -> Result<f64, NnError> {
    let n = data.len();
    if n == 0 {
        return Ok(0.0);
    }
    let indices: Vec<usize> = (0..n).collect();
    let mut correct = 0usize;
    for chunk in indices.chunks(batch_size.max(1)) {
        let (inputs, labels) = data.gather(chunk)?;
        let logits = network.forward_final(&inputs, Mode::Eval)?;
        let preds = bnn_tensor::ops::argmax_rows(&logits)?;
        correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    }
    Ok(correct as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Param;
    use crate::layers::activation::Relu;
    use crate::layers::dense::Dense;
    use crate::sequential::Sequential;

    fn two_moons(n: usize, seed: u64) -> LabelledBatchSource {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut data = Vec::with_capacity(2 * n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let centre = if class == 0 { (-1.0, -1.0) } else { (1.0, 1.0) };
            data.push(centre.0 + 0.4 * rng.normal());
            data.push(centre.1 + 0.4 * rng.normal());
            labels.push(class);
        }
        LabelledBatchSource::new(Tensor::from_vec(data, &[n, 2]).unwrap(), labels).unwrap()
    }

    fn small_mlp() -> Sequential {
        let mut net = Sequential::new("mlp");
        net.push(Dense::new(2, 16, 1).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(16, 2, 2).unwrap());
        net
    }

    #[test]
    fn batch_source_validation() {
        assert!(LabelledBatchSource::new(Tensor::zeros(&[4, 2]), vec![0, 1]).is_err());
        let src = LabelledBatchSource::new(Tensor::zeros(&[4, 2]), vec![0, 1, 0, 1]).unwrap();
        assert_eq!(src.len(), 4);
        let (batch, labels) = src.gather(&[1, 3]).unwrap();
        assert_eq!(batch.dims(), &[2, 2]);
        assert_eq!(labels, vec![1, 1]);
    }

    #[test]
    fn training_improves_loss_and_accuracy() {
        let data = two_moons(128, 3);
        let config = TrainConfig {
            epochs: 15,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let mut net = small_mlp();
        let mut sgd = Sgd::new(0.05).with_momentum(0.9);
        let history = train(&mut net, &data, &mut sgd, &config).unwrap();
        assert_eq!(history.epochs.len(), 15);
        let first = &history.epochs[0];
        let last = history.last().unwrap();
        assert!(last.loss < first.loss);
        assert!(last.accuracy > 0.9, "accuracy {}", last.accuracy);
        let test = two_moons(64, 10);
        let acc = evaluate_accuracy(&mut net, &test, 16).unwrap();
        assert!(acc > 0.9, "test accuracy {acc}");
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let data = LabelledBatchSource::new(Tensor::zeros(&[0, 2]), vec![]).unwrap();
        let mut net = small_mlp();
        let mut sgd = Sgd::new(0.1);
        let history = train(&mut net, &data, &mut sgd, &TrainConfig::default()).unwrap();
        assert!(history.epochs.is_empty());
        assert_eq!(evaluate_accuracy(&mut net, &data, 8).unwrap(), 0.0);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let data = two_moons(64, 5);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let run = |seed: u64| {
            let mut net = small_mlp();
            let mut sgd = Sgd::new(0.05);
            let mut cfg = config.clone();
            cfg.seed = seed;
            train(&mut net, &data, &mut sgd, &cfg)
                .unwrap()
                .last()
                .unwrap()
                .loss
        };
        assert_eq!(run(7), run(7));
    }

    /// A network whose forward pass returns no exits.
    #[derive(Debug)]
    struct NoExitNetwork;

    impl Network for NoExitNetwork {
        fn name(&self) -> &str {
            "no-exit"
        }
        fn forward_exits(&mut self, _input: &Tensor, _mode: Mode) -> Result<Vec<Tensor>, NnError> {
            Ok(Vec::new())
        }
        fn backward_exits(&mut self, _grads: &[Tensor]) -> Result<(), NnError> {
            Ok(())
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            Vec::new()
        }
        fn num_exits(&self) -> usize {
            0
        }
        fn num_classes(&self) -> usize {
            2
        }
    }

    #[test]
    fn zero_exit_network_is_a_typed_error() {
        let data = two_moons(8, 1);
        let mut sgd = Sgd::new(0.1);
        let err = train(&mut NoExitNetwork, &data, &mut sgd, &TrainConfig::default()).unwrap_err();
        assert!(
            matches!(&err, NnError::NoExits { network } if network == "no-exit"),
            "{err}"
        );
    }
}
