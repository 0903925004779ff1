//! Quickstart: build a multi-exit MCD BayesNN, train it on a synthetic
//! MNIST-like task, draw Monte-Carlo samples, and estimate its FPGA
//! implementation.
//!
//! This walks the substrate crates step by step; the pipeline in
//! `bnn-core::pipeline` automates the same flow (see the
//! `accelerator_codegen` and `design_space_exploration` examples).
//!
//! Run with: `cargo run --release --example quickstart`

use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
use bayesnn_fpga::bayes::Evaluation;
use bayesnn_fpga::data::{DatasetSpec, SyntheticConfig};
use bayesnn_fpga::hw::accelerator::{AcceleratorConfig, AcceleratorModel};
use bayesnn_fpga::hw::{FpgaDevice, MappingStrategy};
use bayesnn_fpga::models::{zoo, ModelConfig};
use bayesnn_fpga::nn::optimizer::Sgd;
use bayesnn_fpga::nn::trainer::{train, LabelledBatchSource, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic MNIST-like dataset (the real dataset cannot be downloaded
    //    here; see the README's substitution note).
    let data = SyntheticConfig::new(DatasetSpec::mnist_like().with_resolution(14, 14))
        .with_samples(512, 256)
        .generate(2023)?;
    println!(
        "dataset: {} train / {} test samples, {} classes",
        data.train.len(),
        data.test.len(),
        data.train.classes()
    );

    // 2. Transform LeNet-5 into a multi-exit MCD BayesNN: an exit after every
    //    pooling-separated block, an MCD layer at every exit.
    let config = ModelConfig::mnist()
        .with_resolution(14, 14)
        .with_width_divisor(2);
    let spec = zoo::lenet5(&config)
        .with_exits_after_every_block()?
        .with_exit_mcd(0.25)?;
    println!(
        "model: {} with {} exits, {} MCD layers, {} parameters, {:.1} MFLOPs",
        spec.name,
        spec.num_exits(),
        spec.mcd_layer_count(),
        spec.param_count(),
        spec.total_flops()? as f64 / 1e6
    );
    let mut network = spec.build(7)?;

    // 3. Train with the paper's recipe (SGD + momentum + exit distillation).
    let batches =
        LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())?;
    let mut sgd = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(5e-4);
    let train_cfg = TrainConfig {
        epochs: 8,
        batch_size: 32,
        distillation_weight: 0.5,
        temperature: 2.0,
        ..TrainConfig::default()
    };
    let history = train(&mut network, &batches, &mut sgd, &train_cfg)?;
    if let Some(last) = history.last() {
        println!(
            "training: final loss {:.3}, train accuracy {:.3}",
            last.loss, last.accuracy
        );
    }

    // 4. Bayesian inference: 8 MC samples obtained by re-running only the exit
    //    branches on the cached backbone activations. The independent passes
    //    fan out across the process-global thread pool (BNN_THREADS); the
    //    seeded per-pass mask streams keep the result identical either way.
    let sampler = McSampler::new(SamplingConfig::new(8));
    let prediction = sampler.predict(&mut network, data.test.inputs())?;
    let eval = Evaluation::from_probs(&prediction.mean_probs, data.test.labels(), 15)?;
    println!("bayesian evaluation: {eval}");

    // 5. Estimate the FPGA accelerator for this network (XCKU115 @ 181 MHz,
    //    8-bit datapath, spatial mapping of the MC engines).
    let accel = AcceleratorModel::new(
        spec,
        AcceleratorConfig::new(FpgaDevice::xcku115())
            .with_bits(8)
            .with_mapping(MappingStrategy::Spatial)
            .with_mc_samples(8),
    )?
    .estimate()?;
    println!(
        "accelerator: {:.3} ms latency, {:.2} W, {:.4} J/image, resources {} (fits: {})",
        accel.latency_ms,
        accel.power.total_w(),
        accel.energy_per_image_j,
        accel.total_resources,
        accel.fits
    );
    Ok(())
}
