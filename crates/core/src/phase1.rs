//! Phase 1 — multi-exit optimization.
//!
//! Constructs the four model variants the paper compares in Table I
//! (single-exit, MCD, multi-exit, MCD+multi-exit), trains each candidate on
//! the target dataset, evaluates accuracy / calibration / FLOPs, filters the
//! candidates against the user constraints and selects the best configuration
//! for the chosen optimization priority (Fig. 3).
//!
//! # Parallel exploration
//!
//! The candidates are independent — each builds, trains and evaluates its own
//! network — so the exploration fans out across
//! [`FrameworkConfig::executor`]. Every candidate derives its own RNG streams
//! (weight init, batch shuffling, MC evaluation masks) from the master seed
//! and its candidate index via [`bnn_tensor::rng::stream_seed`], so the
//! artifact is bitwise identical for every thread count. Observer candidate
//! events are delivered in candidate-index order at the phase boundary.

use crate::constraints::OptPriority;
use crate::error::FrameworkError;
use crate::framework::FrameworkConfig;
use crate::pipeline::{PhaseId, PipelineObserver};
use bnn_bayes::sampling::{McPrediction, McSampler, SamplingConfig};
use bnn_bayes::Evaluation;
use bnn_data::{Dataset, SyntheticConfig, TrainTestSplit};
use bnn_models::zoo::Architecture;
use bnn_models::{ModelConfig, MultiExitNetwork, NetworkCheckpoint, NetworkSpec};
use bnn_nn::network::Network;
use bnn_nn::optimizer::Sgd;
use bnn_nn::trainer::{train, LabelledBatchSource, TrainConfig};
use bnn_tensor::rng::stream_seed;
use bnn_tensor::Tensor;
use std::sync::Arc;

/// The four model variants compared in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelVariant {
    /// Single-exit, no MCD (the original non-Bayesian network).
    SingleExit,
    /// MCD applied to the single exit (vanilla MCD BayesNN).
    Mcd,
    /// Multi-exit without MCD.
    MultiExit,
    /// Multi-exit with MCD at every exit — the paper's proposal.
    McdMultiExit,
}

impl ModelVariant {
    /// All four variants in the paper's Table I order.
    pub fn all() -> [ModelVariant; 4] {
        [
            ModelVariant::SingleExit,
            ModelVariant::Mcd,
            ModelVariant::MultiExit,
            ModelVariant::McdMultiExit,
        ]
    }

    /// The label used in Table I.
    pub fn label(&self) -> &'static str {
        match self {
            ModelVariant::SingleExit => "SE",
            ModelVariant::Mcd => "MCD",
            ModelVariant::MultiExit => "ME",
            ModelVariant::McdMultiExit => "MCD+ME",
        }
    }

    /// Whether this variant uses Monte-Carlo Dropout.
    pub fn uses_mcd(&self) -> bool {
        matches!(self, ModelVariant::Mcd | ModelVariant::McdMultiExit)
    }

    /// Whether this variant uses multiple exits.
    pub fn uses_multi_exit(&self) -> bool {
        matches!(self, ModelVariant::MultiExit | ModelVariant::McdMultiExit)
    }

    /// Builds the variant's network spec from the base single-exit spec.
    ///
    /// # Errors
    ///
    /// Propagates spec transformation errors.
    pub fn build_spec(
        &self,
        base: &NetworkSpec,
        dropout_rate: f64,
    ) -> Result<NetworkSpec, FrameworkError> {
        let spec = match self {
            ModelVariant::SingleExit => base.clone(),
            ModelVariant::Mcd => base.clone().with_exit_mcd(dropout_rate)?,
            ModelVariant::MultiExit => base.clone().with_exits_after_every_block()?,
            ModelVariant::McdMultiExit => base
                .clone()
                .with_exits_after_every_block()?
                .with_exit_mcd(dropout_rate)?,
        };
        Ok(spec)
    }
}

impl std::fmt::Display for ModelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Configuration of the Phase 1 exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Config {
    /// Backbone architecture.
    pub architecture: Architecture,
    /// Model geometry (input size, classes, width divisor).
    pub model: ModelConfig,
    /// Synthetic dataset generator configuration.
    pub dataset: SyntheticConfig,
    /// Dropout rates searched for MCD variants (paper: 0.125, 0.25, 0.375, 0.5).
    pub dropout_rates: Vec<f64>,
    /// Confidence thresholds searched for early exiting (paper §V-B).
    pub confidence_thresholds: Vec<f64>,
    /// Number of MC samples drawn when evaluating MCD variants.
    pub mc_samples: usize,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Variants to explore (defaults to all four).
    pub variants: Vec<ModelVariant>,
    /// Calibration bin count for ECE.
    pub calibration_bins: usize,
    /// Master seed.
    pub seed: u64,
}

impl Phase1Config {
    /// A laptop-scale configuration: reduced resolution/width, small grids.
    pub fn quick(architecture: Architecture) -> Self {
        let model = ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16);
        let dataset =
            SyntheticConfig::new(bnn_data::DatasetSpec::cifar10_like().with_resolution(12, 12))
                .with_samples(240, 120)
                .with_noise(0.45)
                .with_label_noise(0.08);
        Phase1Config {
            architecture,
            model,
            dataset,
            dropout_rates: vec![0.25],
            confidence_thresholds: vec![0.5, 0.8, 0.95],
            mc_samples: 4,
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                distillation_weight: 0.5,
                temperature: 2.0,
                seed: 7,
                shuffle: true,
            },
            learning_rate: 0.05,
            variants: ModelVariant::all().to_vec(),
            calibration_bins: 10,
            seed: 2023,
        }
    }

    /// The paper's full grid (dropout rates and confidence thresholds of §V-B).
    pub fn paper_grid(mut self) -> Self {
        self.dropout_rates = vec![0.125, 0.25, 0.375, 0.5];
        self.confidence_thresholds =
            vec![0.1, 0.15, 0.25, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999];
        self
    }

    /// Validates the exploration grid.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::InvalidConfig`] for an empty variant list or
    /// an MCD variant with no dropout rates to search.
    pub fn validate(&self) -> Result<(), FrameworkError> {
        if self.variants.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "phase 1 must explore at least one model variant".into(),
            ));
        }
        // MCD variants contribute one candidate per dropout rate, so an
        // all-MCD exploration with no rates could never produce a candidate.
        // A mixed variant list stays valid: its other variants still give
        // candidates.
        if self.variants.iter().all(ModelVariant::uses_mcd) && self.dropout_rates.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "phase 1 explores only MCD variants but has no dropout rates to search".into(),
            ));
        }
        Ok(())
    }

    /// The deterministic candidate grid: one `(variant, dropout-rate)` pair
    /// per candidate, in exploration order.
    fn candidate_grid(&self) -> Vec<(ModelVariant, f64)> {
        let mut grid = Vec::new();
        for &variant in &self.variants {
            if variant.uses_mcd() {
                grid.extend(self.dropout_rates.iter().map(|&r| (variant, r)));
            } else {
                grid.push((variant, 0.0));
            }
        }
        grid
    }
}

/// Metrics of one evaluated configuration of one variant.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateMetrics {
    /// Dropout rate used (0 for non-MCD variants).
    pub dropout_rate: f64,
    /// Confidence threshold used for early exiting, if any.
    pub confidence_threshold: Option<f64>,
    /// Full evaluation of the predictive distribution.
    pub evaluation: Evaluation,
    /// FLOPs relative to the single-exit baseline (per forward pass, or the
    /// measured average fraction when confidence exiting is active).
    pub flops_ratio: f64,
}

/// One fully evaluated Phase 1 candidate (one variant × one dropout rate).
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Candidate {
    /// The model variant.
    pub variant: ModelVariant,
    /// The trained network's spec.
    pub spec: NetworkSpec,
    /// Metrics of the plain (no early-exit) ensemble prediction.
    pub metrics: CandidateMetrics,
    /// Metrics of the additional configurations searched by the grid:
    /// per-exit predictions and confidence-exiting thresholds.
    pub threshold_metrics: Vec<CandidateMetrics>,
}

impl Phase1Candidate {
    /// The configuration with the highest accuracy among all evaluated settings.
    pub fn accuracy_optimal(&self) -> &CandidateMetrics {
        std::iter::once(&self.metrics)
            .chain(&self.threshold_metrics)
            .max_by(|a, b| {
                a.evaluation
                    .accuracy
                    .partial_cmp(&b.evaluation.accuracy)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least the base metrics exist")
    }

    /// The configuration with the lowest ECE among all evaluated settings.
    pub fn ece_optimal(&self) -> &CandidateMetrics {
        std::iter::once(&self.metrics)
            .chain(&self.threshold_metrics)
            .min_by(|a, b| {
                a.evaluation
                    .ece
                    .partial_cmp(&b.evaluation.ece)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least the base metrics exist")
    }
}

/// Aggregated result of the Phase 1 exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Result {
    /// Every evaluated candidate.
    pub candidates: Vec<Phase1Candidate>,
    /// Index (into `candidates`) of the selected best design.
    pub best_index: usize,
    /// FLOPs of the single-exit baseline (the denominator of `flops_ratio`).
    pub baseline_flops: u64,
}

impl Phase1Result {
    /// The selected best candidate.
    pub fn best(&self) -> &Phase1Candidate {
        &self.candidates[self.best_index]
    }

    /// The best candidate of a given variant, if it was explored.
    pub fn best_of_variant(&self, variant: ModelVariant) -> Option<&Phase1Candidate> {
        self.best_index_of_variant(variant)
            .map(|i| &self.candidates[i])
    }

    /// Index (into `candidates`) of the best candidate of a given variant.
    pub fn best_index_of_variant(&self, variant: ModelVariant) -> Option<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.variant == variant)
            .max_by(|(_, a), (_, b)| {
                a.metrics
                    .evaluation
                    .accuracy
                    .partial_cmp(&b.metrics.evaluation.accuracy)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }
}

/// The reusable output of Phase 1: every evaluated candidate plus the trained
/// checkpoint (weights and batchnorm statistics) of each candidate's network,
/// so later phases (and resumed sessions) instantiate trained models instead
/// of retraining from scratch.
///
/// The heavy payloads (dataset, checkpoints) are behind `Arc`, so the clones
/// taken when later artifacts embed this one are pointer bumps, not copies.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Artifact {
    /// The exploration result (candidates, metrics, selection).
    pub result: Phase1Result,
    /// Trained checkpoint of each candidate, aligned with
    /// `result.candidates`.
    pub candidate_checkpoints: Arc<Vec<NetworkCheckpoint>>,
    /// The generated train/test split the candidates were trained on.
    pub data: Arc<TrainTestSplit>,
    /// The master exploration seed (each candidate derives its own
    /// weight-init / shuffle / MC-mask streams from it). Also used as the
    /// scaffolding seed when re-instantiating candidates — the checkpoint
    /// then overwrites every parameter and every piece of layer state, so
    /// the instantiated network's behaviour does not depend on it.
    pub seed: u64,
}

impl Phase1Artifact {
    /// The spec of the selected best candidate.
    pub fn best_spec(&self) -> &NetworkSpec {
        &self.result.best().spec
    }

    /// Instantiates the selected best candidate with its trained weights.
    ///
    /// # Errors
    ///
    /// Propagates construction errors and
    /// [`FrameworkError::ArtifactMismatch`] if the stored weights do not fit
    /// the spec.
    pub fn instantiate_best(&self) -> Result<MultiExitNetwork, FrameworkError> {
        self.instantiate(self.result.best_index)
    }

    /// Instantiates candidate `index` with its trained checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::ArtifactMismatch`] for an out-of-range index
    /// or a checkpoint that does not fit the candidate's spec, and propagates
    /// construction errors.
    pub fn instantiate(&self, index: usize) -> Result<MultiExitNetwork, FrameworkError> {
        let candidate = self.result.candidates.get(index).ok_or_else(|| {
            FrameworkError::ArtifactMismatch(format!(
                "candidate index {index} out of range ({} candidates)",
                self.result.candidates.len()
            ))
        })?;
        let checkpoint = self.candidate_checkpoints.get(index).ok_or_else(|| {
            FrameworkError::ArtifactMismatch(format!("no stored checkpoint for candidate {index}"))
        })?;
        let mut network = candidate.spec.build(self.seed)?;
        network
            .restore(checkpoint)
            .map_err(|e| FrameworkError::ArtifactMismatch(e.to_string()))?;
        Ok(network)
    }
}

fn dataset_to_batches(dataset: &Dataset) -> Result<LabelledBatchSource, FrameworkError> {
    Ok(LabelledBatchSource::new(
        dataset.inputs().clone(),
        dataset.labels().to_vec(),
    )?)
}

/// The decorrelated RNG streams of one exploration candidate, derived from
/// the master seed and the candidate index.
///
/// One sub-stream per random decision (weight initialisation, batch
/// shuffling, MC evaluation masks) makes every candidate self-contained: its
/// result depends only on its own streams, never on which thread trained it,
/// in what order, or what other candidates did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CandidateStreams {
    /// Network build (weight initialisation) seed.
    build: u64,
    /// Batch shuffling seed.
    shuffle: u64,
    /// MC-Dropout evaluation mask stream seed.
    sampler: u64,
}

impl CandidateStreams {
    fn derive(config: &Phase1Config, index: u64) -> Self {
        let master = stream_seed(config.seed, index);
        CandidateStreams {
            build: stream_seed(master, 0),
            shuffle: stream_seed(master, 1),
            sampler: stream_seed(master, 2),
        }
    }
}

/// Trains one spec from the given weight-initialisation and
/// batch-shuffling seeds (one candidate's streams of the parallel
/// exploration) and returns the trained runtime network.
fn train_spec_seeded(
    spec: &NetworkSpec,
    data: &TrainTestSplit,
    config: &Phase1Config,
    build_seed: u64,
    shuffle_seed: u64,
) -> Result<MultiExitNetwork, FrameworkError> {
    let mut network = spec.build(build_seed)?;
    let mut optimizer = Sgd::new(config.learning_rate)
        .with_momentum(0.9)
        .with_weight_decay(5e-4);
    let train_data = dataset_to_batches(&data.train)?;
    let mut train_cfg = config.train.clone();
    train_cfg.seed = shuffle_seed;
    if !spec
        .exits
        .iter()
        .take(spec.exits.len().saturating_sub(1))
        .any(|_| true)
    {
        // single-exit models do not use distillation
        train_cfg.distillation_weight = 0.0;
    }
    train(&mut network, &train_data, &mut optimizer, &train_cfg)?;
    Ok(network)
}

/// Evaluates one trained network under its variant's prediction rule: the
/// single-exit baseline deterministically, every other variant through
/// [`McSampler::predict`] (for MCD on one exit that walk draws the masks a
/// whole-network re-run would, since only the exit is stochastic).
///
/// `sampler_seed` seeds the MC-Dropout mask streams, so the evaluation is a
/// pure function of the trained network, the inputs and the seed.
#[allow(clippy::too_many_arguments)]
fn evaluate_network(
    variant: ModelVariant,
    network: &mut MultiExitNetwork,
    test_inputs: &Tensor,
    test_labels: &[usize],
    config: &Phase1Config,
    baseline_flops: u64,
    spec: &NetworkSpec,
    sampler_seed: u64,
) -> Result<(CandidateMetrics, Vec<CandidateMetrics>), FrameworkError> {
    let sampler = McSampler::new(SamplingConfig::new(config.mc_samples).with_seed(sampler_seed));
    let spec_flops = spec.total_flops()? as f64;
    let base_ratio = spec_flops / baseline_flops.max(1) as f64;

    // MC sampling is seeded, so one prediction serves both the base metrics
    // and the per-exit breakdown below (a second predict would redraw the
    // exact same samples).
    let prediction: Option<McPrediction> = match variant {
        ModelVariant::SingleExit => None,
        _ => Some(sampler.predict(network, test_inputs)?),
    };
    let probs = match &prediction {
        Some(prediction) => prediction.mean_probs.clone(),
        None => sampler.predict_deterministic(network, test_inputs)?,
    };
    let metrics = CandidateMetrics {
        dropout_rate: spec
            .exits
            .first()
            .and_then(|e| {
                e.layers.iter().find_map(|l| match l {
                    bnn_models::LayerSpec::McDropout { rate } => Some(*rate),
                    _ => None,
                })
            })
            .unwrap_or(0.0),
        confidence_threshold: None,
        evaluation: Evaluation::from_probs(&probs, test_labels, config.calibration_bins)?,
        flops_ratio: base_ratio,
    };

    // Additional configurations searched by the paper's grid (§V-B): the
    // prediction of each individual exit (MC-averaged over that exit's
    // samples) and confidence-threshold early exiting over exit ensembles.
    let mut threshold_metrics = Vec::new();
    if let Some(prediction) = prediction.filter(|_| variant.uses_multi_exit()) {
        let n_exits = network.num_exits();
        for exit in 0..n_exits {
            let exit_samples: Vec<Tensor> = prediction
                .per_sample
                .iter()
                .skip(exit)
                .step_by(n_exits)
                .cloned()
                .collect();
            if exit_samples.is_empty() {
                continue;
            }
            let exit_probs = Tensor::mean_of(&exit_samples).map_err(bnn_bayes::BayesError::from)?;
            threshold_metrics.push(CandidateMetrics {
                dropout_rate: metrics.dropout_rate,
                confidence_threshold: None,
                evaluation: Evaluation::from_probs(
                    &exit_probs,
                    test_labels,
                    config.calibration_bins,
                )?,
                flops_ratio: base_ratio,
            });
        }
        for &threshold in &config.confidence_thresholds {
            let pred = sampler.confidence_exit_predict(network, test_inputs, threshold)?;
            threshold_metrics.push(CandidateMetrics {
                dropout_rate: metrics.dropout_rate,
                confidence_threshold: Some(threshold),
                evaluation: Evaluation::from_probs(
                    &pred.probs,
                    test_labels,
                    config.calibration_bins,
                )?,
                flops_ratio: base_ratio * pred.mean_flops_fraction,
            });
        }
    }
    Ok((metrics, threshold_metrics))
}

/// Runs the Phase 1 exploration, reporting each evaluated candidate to
/// `observer`.
///
/// Candidates train and evaluate concurrently on
/// [`FrameworkConfig::executor`]; each derives its own RNG streams from the
/// master seed and its grid index, so the artifact — and the observer event
/// sequence, delivered in grid order once all candidates finish — is
/// independent of the thread count.
///
/// # Errors
///
/// Returns [`FrameworkError::InvalidConfig`] if `framework` fails
/// [`FrameworkConfig::validate`], [`FrameworkError::NoFeasibleDesign`] if
/// every candidate violates the constraints, or propagates
/// training/evaluation errors.
pub fn run(
    framework: &FrameworkConfig,
    observer: &dyn PipelineObserver,
) -> Result<Phase1Artifact, FrameworkError> {
    framework.validate()?;
    let config = &framework.phase1;
    let data = config.dataset.generate(config.seed)?;
    let base_spec = config.architecture.spec(&config.model);
    let baseline_flops = base_spec.total_flops()?;
    let test_labels = data.test.labels().to_vec();
    let test_inputs = data.test.inputs().clone();

    struct TrainedCandidate {
        candidate: Phase1Candidate,
        checkpoint: NetworkCheckpoint,
        summary: String,
    }

    let grid = config.candidate_grid();
    let outcomes = framework.executor().par_map_indexed(
        &grid,
        |index, &(variant, rate)| -> Result<TrainedCandidate, FrameworkError> {
            let streams = CandidateStreams::derive(config, index as u64);
            let spec = variant.build_spec(&base_spec, rate)?;
            let mut network =
                train_spec_seeded(&spec, &data, config, streams.build, streams.shuffle)?;
            let (metrics, threshold_metrics) = evaluate_network(
                variant,
                &mut network,
                &test_inputs,
                &test_labels,
                config,
                baseline_flops,
                &spec,
                streams.sampler,
            )?;
            let summary = format!(
                "{variant} dropout {rate:.3}: acc {:.4}, ece {:.4}, flops {:.3}x",
                metrics.evaluation.accuracy, metrics.evaluation.ece, metrics.flops_ratio
            );
            Ok(TrainedCandidate {
                candidate: Phase1Candidate {
                    variant,
                    spec,
                    metrics,
                    threshold_metrics,
                },
                checkpoint: network.checkpoint(),
                summary,
            })
        },
    );

    let mut candidates = Vec::with_capacity(grid.len());
    let mut candidate_checkpoints = Vec::with_capacity(grid.len());
    for (index, outcome) in outcomes.into_iter().enumerate() {
        let trained = outcome?;
        observer.on_candidate(PhaseId::Phase1, index, &trained.summary);
        candidates.push(trained.candidate);
        candidate_checkpoints.push(trained.checkpoint);
    }

    // Constraint filtering, then priority-based selection.
    let feasible: Vec<usize> = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            framework.constraints.accepts_algorithm(
                c.metrics.evaluation.accuracy,
                c.metrics.evaluation.ece,
                c.metrics.flops_ratio,
            )
        })
        .map(|(i, _)| i)
        .collect();
    if feasible.is_empty() {
        return Err(FrameworkError::NoFeasibleDesign(
            "no Phase 1 candidate satisfies the accuracy/ECE/FLOPs constraints".into(),
        ));
    }
    let best_index = feasible
        .into_iter()
        .max_by(|&a, &b| {
            let score = |i: usize| -> f64 {
                let c = &candidates[i];
                match framework.priority {
                    OptPriority::Accuracy => c.accuracy_optimal().evaluation.accuracy,
                    OptPriority::Calibration => -c.ece_optimal().evaluation.ece,
                    OptPriority::Flops => -c.ece_optimal().flops_ratio,
                    // Latency/energy are hardware priorities; at this phase
                    // they reduce to minimising FLOPs.
                    OptPriority::Latency | OptPriority::Energy => -c.metrics.flops_ratio,
                }
            };
            score(a)
                .partial_cmp(&score(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("feasible set is non-empty");

    let result = Phase1Result {
        candidates,
        best_index,
        baseline_flops,
    };
    Ok(Phase1Artifact {
        result,
        candidate_checkpoints: Arc::new(candidate_checkpoints),
        data: Arc::new(data),
        seed: config.seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::UserConstraints;
    use crate::pipeline::NoopObserver;

    fn run_tiny(
        phase1: Phase1Config,
        priority: OptPriority,
        constraints: UserConstraints,
    ) -> Result<Phase1Artifact, FrameworkError> {
        let mut framework = FrameworkConfig::quick_demo(Architecture::LeNet5)
            .with_priority(priority)
            .with_constraints(constraints);
        framework.phase1 = phase1;
        run(&framework, &NoopObserver)
    }

    fn tiny_config() -> Phase1Config {
        let mut config = Phase1Config::quick(Architecture::LeNet5);
        config.model = ModelConfig::cifar10()
            .with_resolution(10, 10)
            .with_width_divisor(16)
            .with_classes(4);
        config.dataset = SyntheticConfig::new(
            bnn_data::DatasetSpec::cifar10_like()
                .with_resolution(10, 10)
                .with_classes(4),
        )
        .with_samples(96, 64)
        .with_noise(0.4)
        .with_label_noise(0.05);
        config.train.epochs = 3;
        config.mc_samples = 4;
        config.confidence_thresholds = vec![0.6, 0.9];
        config
    }

    #[test]
    fn variant_spec_construction() {
        let base = Architecture::LeNet5.spec(&ModelConfig::mnist().with_width_divisor(8));
        let se = ModelVariant::SingleExit.build_spec(&base, 0.25).unwrap();
        assert_eq!(se.num_exits(), 1);
        assert_eq!(se.mcd_layer_count(), 0);
        let mcd = ModelVariant::Mcd.build_spec(&base, 0.25).unwrap();
        assert_eq!(mcd.num_exits(), 1);
        assert_eq!(mcd.mcd_layer_count(), 1);
        let me = ModelVariant::MultiExit.build_spec(&base, 0.25).unwrap();
        assert!(me.num_exits() > 1);
        assert_eq!(me.mcd_layer_count(), 0);
        let both = ModelVariant::McdMultiExit.build_spec(&base, 0.25).unwrap();
        assert_eq!(both.mcd_layer_count(), both.num_exits());
        assert_eq!(ModelVariant::McdMultiExit.label(), "MCD+ME");
    }

    #[test]
    fn phase1_runs_and_orders_variants() {
        let config = tiny_config();
        let artifact = run_tiny(config, OptPriority::Calibration, UserConstraints::none()).unwrap();
        let result = &artifact.result;
        assert_eq!(result.candidates.len(), 4);
        assert!(result.baseline_flops > 0);
        // every variant produced usable metrics
        for candidate in &result.candidates {
            let eval = &candidate.metrics.evaluation;
            assert!((0.0..=1.0).contains(&eval.accuracy));
            assert!((0.0..=1.0).contains(&eval.ece));
            assert!(candidate.metrics.flops_ratio > 0.0);
        }
        // multi-exit candidates evaluated per-exit and threshold configurations
        let me = result.best_of_variant(ModelVariant::McdMultiExit).unwrap();
        assert!(me.threshold_metrics.len() >= 2);
        // the selected best is a feasible candidate
        assert!(result.best_index < result.candidates.len());
        // every candidate carries its trained weights in the artifact
        assert_eq!(
            artifact.candidate_checkpoints.len(),
            result.candidates.len()
        );
    }

    #[test]
    fn artifact_instantiates_trained_candidates() {
        let mut config = tiny_config();
        config.variants = vec![ModelVariant::SingleExit, ModelVariant::McdMultiExit];
        let artifact = run_tiny(config, OptPriority::Calibration, UserConstraints::none()).unwrap();
        let mut network = artifact.instantiate_best().unwrap();
        let loaded = network.checkpoint();
        assert_eq!(
            loaded,
            artifact.candidate_checkpoints[artifact.result.best_index]
        );
        // per-variant instantiation works too
        let se = artifact
            .result
            .best_index_of_variant(ModelVariant::SingleExit)
            .unwrap();
        assert!(artifact.instantiate(se).is_ok());
        // out-of-range index reports an artifact mismatch
        let err = artifact.instantiate(99).unwrap_err();
        assert!(matches!(err, FrameworkError::ArtifactMismatch(_)));
    }

    #[test]
    fn stage_validation() {
        assert!(tiny_config().validate().is_ok());
        let mut bad = tiny_config();
        bad.variants.clear();
        assert!(bad.validate().is_err());
        // all-MCD exploration with no rates can never produce a candidate
        let mut bad = tiny_config();
        bad.variants = vec![ModelVariant::Mcd, ModelVariant::McdMultiExit];
        bad.dropout_rates.clear();
        assert!(bad.validate().is_err());
        // a mixed variant list with no rates stays valid (old behaviour)
        let mut mixed = tiny_config();
        mixed.dropout_rates.clear();
        assert!(mixed.validate().is_ok());
    }

    #[test]
    fn impossible_constraints_are_reported() {
        let config = tiny_config();
        let constraints = UserConstraints::none().with_min_accuracy(1.01);
        let err = run_tiny(config, OptPriority::Accuracy, constraints).unwrap_err();
        assert!(matches!(err, FrameworkError::NoFeasibleDesign(_)));
    }

    #[test]
    fn accuracy_and_ece_optimal_selection() {
        let config = tiny_config();
        let artifact = run_tiny(config, OptPriority::Accuracy, UserConstraints::none()).unwrap();
        for candidate in &artifact.result.candidates {
            let acc_opt = candidate.accuracy_optimal();
            let ece_opt = candidate.ece_optimal();
            assert!(acc_opt.evaluation.accuracy >= candidate.metrics.evaluation.accuracy - 1e-12);
            assert!(ece_opt.evaluation.ece <= candidate.metrics.evaluation.ece + 1e-12);
        }
    }
}
