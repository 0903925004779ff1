//! A trained multi-exit LeNet-5 shared by the integration suites that need
//! trained weights rather than a build initialisation.

use bayesnn_fpga::models::{zoo, ModelConfig};
use bayesnn_fpga::nn::optimizer::Sgd;
use bayesnn_fpga::nn::trainer::{train, LabelledBatchSource, TrainConfig};
use bayesnn_fpga::tensor::Tensor;
use bnn_data::{DatasetSpec, SyntheticConfig};
use bnn_models::MultiExitNetwork;

/// A 4-class 10x10 multi-exit MCD LeNet-5 trained for two epochs on 64
/// synthetic samples from `data_seed`, built from `build_seed`. Returns the
/// network, a 24-sample calibration batch drawn from the training split and
/// the `test_samples`-sample test split as the evaluation batch.
pub fn trained_lenet5(
    data_seed: u64,
    build_seed: u64,
    test_samples: usize,
) -> (MultiExitNetwork, Tensor, Tensor) {
    let model_cfg = ModelConfig::mnist()
        .with_resolution(10, 10)
        .with_width_divisor(8)
        .with_classes(4);
    let spec = zoo::lenet5(&model_cfg)
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
    let data = SyntheticConfig::new(
        DatasetSpec::mnist_like()
            .with_resolution(10, 10)
            .with_classes(4),
    )
    .with_samples(64, test_samples)
    .generate(data_seed)
    .unwrap();
    let mut network = spec.build(build_seed).unwrap();
    let batches =
        LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())
            .unwrap();
    let mut sgd = Sgd::new(0.05).with_momentum(0.9);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    train(&mut network, &batches, &mut sgd, &cfg).unwrap();
    let calib = data.train.take(24).unwrap().inputs().clone();
    let eval = data.test.inputs().clone();
    (network, calib, eval)
}
