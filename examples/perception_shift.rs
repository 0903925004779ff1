//! Autonomous-perception dataset shift: compare how a plain single-exit CNN
//! and a multi-exit MCD BayesNN behave as the test distribution drifts away
//! from the training distribution (fog/noise-like corruptions).
//!
//! Both models come out of a single Phase 1 exploration of the transformation
//! pipeline: the stage trains every requested variant, and the phase artifact
//! lets us instantiate each trained candidate directly — no retraining, no
//! manual training-loop plumbing.
//!
//! The desirable behaviour for a safety-critical perception stack is that
//! predictive entropy *rises* with corruption severity — the model knows that
//! it does not know — while the deterministic network stays overconfident.
//!
//! Run with: `cargo run --release --example perception_shift`

use bayesnn_fpga::bayes::metrics::mean_predictive_entropy;
use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
use bayesnn_fpga::bayes::Evaluation;
use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::phase1::{self, ModelVariant};
use bayesnn_fpga::core::pipeline::NoopObserver;
use bayesnn_fpga::data::{Corruption, DatasetSpec, SyntheticConfig};
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::ModelConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1 over a synthetic "road scene patch" classification task,
    // exploring the deterministic baseline and the paper's MCD+ME proposal.
    let mut config = FrameworkConfig::quick_demo(Architecture::Vgg11);
    config.phase1.model = ModelConfig::new(3, 16, 16, 6).with_width_divisor(8);
    config.phase1.dataset = SyntheticConfig::new(DatasetSpec::new("synthetic-road", 3, 16, 16, 6))
        .with_samples(480, 240)
        .with_noise(0.4);
    config.phase1.train.epochs = 8;
    config.phase1.variants = vec![ModelVariant::SingleExit, ModelVariant::McdMultiExit];
    config.phase1.seed = 21;

    println!(
        "phase 1: training candidates on {} thread(s) (BNN_THREADS overrides)",
        config.executor().threads()
    );
    let artifact = phase1::run(&config, &NoopObserver)?;

    // Instantiate both trained candidates from the artifact.
    let se_index = artifact
        .result
        .best_index_of_variant(ModelVariant::SingleExit)
        .expect("single-exit variant was explored");
    let bayes_index = artifact
        .result
        .best_index_of_variant(ModelVariant::McdMultiExit)
        .expect("MCD+ME variant was explored");
    let mut se = artifact.instantiate(se_index)?;
    let mut bayes = artifact.instantiate(bayes_index)?;

    let sampler = McSampler::new(SamplingConfig::new(8));
    println!("severity | SE acc  SE ECE  SE entropy | MCD+ME acc  MCD+ME ECE  MCD+ME entropy");
    println!("---------+----------------------------+---------------------------------------");
    for severity in 0..=4usize {
        // Apply the corruption ladder for this severity to the artifact's
        // held-out test split.
        let mut shifted = artifact.data.test.clone();
        for (i, corruption) in Corruption::severity_ladder(severity).iter().enumerate() {
            shifted = corruption.apply(&shifted, 100 + severity as u64 * 10 + i as u64)?;
        }
        let labels = shifted.labels();

        let se_probs = sampler.predict_deterministic(&mut se, shifted.inputs())?;
        let se_eval = Evaluation::from_probs(&se_probs, labels, 15)?;
        let se_entropy = mean_predictive_entropy(&se_probs)?;

        let bayes_probs = sampler.predict(&mut bayes, shifted.inputs())?.mean_probs;
        let bayes_eval = Evaluation::from_probs(&bayes_probs, labels, 15)?;
        let bayes_entropy = mean_predictive_entropy(&bayes_probs)?;

        println!(
            "    {severity}    | {:.3}   {:.3}   {:.3}      | {:.3}        {:.3}        {:.3}",
            se_eval.accuracy,
            se_eval.ece,
            se_entropy,
            bayes_eval.accuracy,
            bayes_eval.ece,
            bayes_entropy,
        );
    }
    println!("\nExpected shape: both accuracies fall with severity, but the MCD+ME model's");
    println!("entropy rises faster and its ECE stays lower — calibrated uncertainty under shift.");
    Ok(())
}
