//! Medical-imaging triage: use the multi-exit MCD BayesNN's predictive
//! uncertainty to refer ambiguous cases to a human expert.
//!
//! The paper motivates BayesNNs with safety-critical applications such as
//! medical imaging: a well-calibrated model can *defer* when it is unsure.
//! This example drives Phase 1 of the transformation pipeline to train and
//! select an MCD+ME model on a synthetic diagnostic task, instantiates the
//! trained model straight from the phase artifact (no retraining), ranks test
//! cases by predictive entropy, refers the most uncertain fraction and shows
//! that accuracy on the retained (automated) cases improves.
//!
//! It then turns the same uncertainty signal into a *compute* knob: an
//! entropy-threshold [`ExitPolicy`] lets confident cases retire at the first
//! exit (the multi-exit early-exit path of the paper), and the per-exit
//! retirement table shows how the caseload and FLOPs split across exits as
//! the threshold tightens.
//!
//! Run with: `cargo run --release --example medical_triage`

use bayesnn_fpga::bayes::metrics::accuracy;
use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
use bayesnn_fpga::core::framework::FrameworkConfig;
use bayesnn_fpga::core::phase1::{self, ModelVariant};
use bayesnn_fpga::core::pipeline::NoopObserver;
use bayesnn_fpga::data::{DatasetSpec, SyntheticConfig};
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::{ExitPolicy, ModelConfig};
use bayesnn_fpga::nn::network::Network as _;
use bayesnn_fpga::tensor::ops::row_entropy;
use bayesnn_fpga::tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1 configuration: a synthetic "diagnostic imaging" task (4
    // findings, noisy acquisitions) on a reduced ResNet-18 backbone, exploring
    // only the MCD+multi-exit variant the paper proposes.
    let mut config = FrameworkConfig::quick_demo(Architecture::ResNet18);
    config.phase1.model = ModelConfig::new(3, 16, 16, 4).with_width_divisor(8);
    config.phase1.dataset =
        SyntheticConfig::new(DatasetSpec::new("synthetic-histology", 3, 16, 16, 4))
            .with_samples(480, 240)
            .with_noise(0.55)
            .with_label_noise(0.06);
    config.phase1.train.epochs = 8;
    config.phase1.variants = vec![ModelVariant::McdMultiExit];
    config.phase1.seed = 11;

    println!(
        "phase 1: training candidates on {} thread(s) (BNN_THREADS overrides)",
        config.executor().threads()
    );
    let artifact = phase1::run(&config, &NoopObserver)?;
    println!(
        "phase 1 trained {} candidate(s); best: {} (acc {:.3}, ece {:.3})",
        artifact.result.candidates.len(),
        artifact.result.best().variant,
        artifact.result.best().metrics.evaluation.accuracy,
        artifact.result.best().metrics.evaluation.ece,
    );

    // Instantiate the trained model from the artifact — no retraining — and
    // reuse the artifact's held-out test split.
    let mut network = artifact.instantiate_best()?;
    let test = &artifact.data.test;

    // Bayesian prediction with 8 MC samples.
    let sampler = McSampler::new(SamplingConfig::new(8));
    let prediction = sampler.predict(&mut network, test.inputs())?;
    let labels = test.labels();
    let overall = accuracy(&prediction.mean_probs, labels)?;
    println!("automated accuracy on every case: {overall:.3}");

    // Rank cases by predictive entropy and refer the most uncertain ones.
    let entropies = row_entropy(&prediction.mean_probs)?;
    let mut order: Vec<usize> = (0..entropies.len()).collect();
    order.sort_by(|&a, &b| entropies[a].partial_cmp(&entropies[b]).unwrap());

    for referral_fraction in [0.1, 0.25, 0.5] {
        let keep = ((1.0 - referral_fraction) * order.len() as f64).round() as usize;
        let kept = &order[..keep.max(1)];
        let (probs, kept_labels): (Vec<Tensor>, Vec<usize>) = kept
            .iter()
            .map(|&i| (prediction.mean_probs.select_batch(i).unwrap(), labels[i]))
            .unzip();
        let rows: Vec<Tensor> = probs
            .iter()
            .map(|p| p.reshape(&[1, p.len()]).unwrap())
            .collect();
        let stacked = Tensor::stack(&rows)?;
        let flat = stacked.reshape(&[kept.len(), prediction.mean_probs.dims()[1]])?;
        let retained_accuracy = accuracy(&flat, &kept_labels)?;
        println!(
            "refer {:>4.0}% most uncertain -> accuracy on retained cases: {:.3}",
            100.0 * referral_fraction,
            retained_accuracy
        );
    }
    println!("\nUncertainty-based referral keeps the automated decisions trustworthy:");
    println!("accuracy on retained cases should rise as more uncertain cases are referred.");

    // The same entropy signal, used mid-network: an entropy-threshold exit
    // policy retires confident cases at the first exit instead of running
    // them to full depth. For each threshold, the table shows where the
    // caseload retired, the mean fraction of full-network FLOPs spent, and
    // the automated accuracy of the adaptive predictions.
    let n_exits = network.num_exits();
    println!("\nAdaptive early exit (entropy policy, running MC ensemble):");
    println!(
        "{:>11} | {} | {:>10} | {:>8}",
        "threshold",
        (0..n_exits)
            .map(|e| format!("exit {e} "))
            .collect::<Vec<_>>()
            .join("| "),
        "mean FLOPs",
        "accuracy"
    );
    for threshold in [0.3, 0.5, 0.7, 0.9] {
        let policy = ExitPolicy::Entropy { threshold };
        let adaptive = sampler.adaptive_exit_predict(&mut network, test.inputs(), &policy)?;
        let mut retired = vec![0usize; n_exits];
        for &e in &adaptive.exit_taken {
            retired[e] += 1;
        }
        let total = adaptive.exit_taken.len().max(1);
        let row = retired
            .iter()
            .map(|&c| format!("{:>6.1}% ", 100.0 * c as f64 / total as f64))
            .collect::<Vec<_>>()
            .join("| ");
        println!(
            "{:>11.2} | {row}| {:>9.1}% | {:>8.3}",
            threshold,
            100.0 * adaptive.mean_flops_fraction,
            accuracy(&adaptive.probs, labels)?,
        );
    }
    println!("\nLoose thresholds retire the whole caseload at the first exit; tight ones");
    println!("run everything to full depth. The threshold is the deployment knob trading");
    println!("compute for caution, and the exits are calibrated enough that the easy");
    println!("majority can retire early without giving up automated accuracy.");
    Ok(())
}
