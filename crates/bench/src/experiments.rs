//! Experiment implementations backing every table and figure of the paper.

use crate::table::TextTable;
use bnn_bayes::flops_analysis::SamplingCostModel;
use bnn_core::framework::FrameworkConfig;
use bnn_core::phase1::{self, ModelVariant, Phase1Config};
use bnn_core::pipeline::NoopObserver;
use bnn_data::{DatasetSpec, SyntheticConfig};
use bnn_hw::accelerator::{AcceleratorConfig, AcceleratorModel};
use bnn_hw::baselines::{fpga_baselines, paper_our_work_quoted, software_baselines_quoted};
use bnn_hw::perf::PlatformModel;
use bnn_hw::{FpgaDevice, MappingStrategy};
use bnn_models::zoo::Architecture;
use bnn_models::{ModelConfig, NetworkSpec};
use bnn_quant::FixedPointFormat;
use bnn_tensor::rng::Xoshiro256StarStar;
use bnn_tensor::Tensor;

/// The error type shared by all experiments (any framework-level failure).
pub type ExperimentError = Box<dyn std::error::Error>;

/// The three Fig. 5 models: Bayes-LeNet (MNIST), Bayes-ResNet18 (CIFAR-10) and
/// Bayes-VGG11 (SVHN), with the custom (reduced) channel configurations the
/// paper mentions.
fn fig5_models() -> Vec<(&'static str, NetworkSpec)> {
    vec![
        (
            "Bayes-LeNet (MNIST)",
            Architecture::LeNet5.spec(&ModelConfig::mnist().with_width_divisor(2)),
        ),
        (
            "Bayes-ResNet18 (CIFAR-10)",
            Architecture::ResNet18.spec(&ModelConfig::cifar10().with_width_divisor(8)),
        ),
        (
            "Bayes-VGG11 (SVHN)",
            Architecture::Vgg11.spec(&ModelConfig::svhn().with_width_divisor(8)),
        ),
    ]
}

fn fig5_accel_config() -> AcceleratorConfig {
    AcceleratorConfig::new(FpgaDevice::xcku115())
        .with_bits(8)
        .with_reuse_factor(32)
        .with_mapping(MappingStrategy::Temporal)
        .with_mc_samples(3)
}

/// Fig. 5 (left): BRAM/DSP/FF/LUT versus the number of MCD layers for the
/// three single-exit Bayesian models, using temporal mapping.
///
/// # Errors
///
/// Propagates spec/estimation errors.
pub fn fig5_resources(max_mcd_layers: usize) -> Result<TextTable, ExperimentError> {
    let mut table = TextTable::new(vec!["model", "mcd_layers", "bram", "dsp", "ff", "lut"]);
    for (name, spec) in fig5_models() {
        for n in 1..=max_mcd_layers {
            // Models with fewer insertion points than requested stop early
            // (e.g. LeNet-5 has five weight layers).
            let Ok(bayes_spec) = spec.clone().with_mcd_layers(n, 0.25) else {
                break;
            };
            let report = AcceleratorModel::new(bayes_spec, fig5_accel_config())?.estimate()?;
            table.add_row(vec![
                name.to_string(),
                n.to_string(),
                report.total_resources.bram_36k.to_string(),
                report.total_resources.dsp.to_string(),
                report.total_resources.ff.to_string(),
                report.total_resources.lut.to_string(),
            ]);
        }
    }
    Ok(table)
}

/// Fig. 5 (right): latency versus the number of MC samples, with spatial
/// mapping versus the unoptimized single-engine baseline.
///
/// # Errors
///
/// Propagates spec/estimation errors.
pub fn fig5_latency(max_samples: usize) -> Result<TextTable, ExperimentError> {
    let mut table = TextTable::new(vec![
        "model",
        "mc_samples",
        "unoptimized_ms",
        "spatial_ms",
        "latency_reduction",
    ]);
    for (name, spec) in fig5_models() {
        let bayes_spec = spec.with_mcd_layers(1, 0.25)?;
        for samples in 1..=max_samples {
            let model = AcceleratorModel::new(
                bayes_spec.clone(),
                fig5_accel_config()
                    .with_mapping(MappingStrategy::Spatial)
                    .with_mc_samples(samples),
            )?;
            let unopt = model.estimate_unoptimized()?;
            let spatial = model.estimate()?;
            table.add_row(vec![
                name.to_string(),
                samples.to_string(),
                format!("{:.4}", unopt.latency_ms),
                format!("{:.4}", spatial.latency_ms),
                format!("{:.2}x", unopt.latency_ms / spatial.latency_ms.max(1e-12)),
            ]);
        }
    }
    Ok(table)
}

/// Scale of the Table I reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table1Scale {
    /// Minimal configuration used by the Criterion bench (seconds per run).
    Micro,
    /// Tiny configuration for CI / smoke runs (few classes, few epochs).
    Smoke,
    /// The default laptop-scale configuration used for the README's paper-table
    /// runbook.
    Quick,
}

fn table1_phase1_config(architecture: Architecture, scale: Table1Scale) -> Phase1Config {
    let (classes, resolution, width_div, train_n, test_n, epochs) = match scale {
        Table1Scale::Micro => (4, 8, 16, 48, 32, 1),
        Table1Scale::Smoke => (6, 10, 16, 120, 90, 3),
        Table1Scale::Quick => (20, 16, 16, 400, 240, 8),
    };
    let mut config = Phase1Config::quick(architecture);
    config.model = ModelConfig::cifar100()
        .with_resolution(resolution, resolution)
        .with_width_divisor(width_div)
        .with_classes(classes);
    config.dataset = SyntheticConfig::new(
        DatasetSpec::cifar100_like()
            .with_resolution(resolution, resolution)
            .with_classes(classes),
    )
    .with_samples(train_n, test_n)
    .with_noise(0.5)
    .with_label_noise(0.08);
    config.train.epochs = epochs;
    config.train.batch_size = 32;
    config.dropout_rates = vec![0.25];
    config.confidence_thresholds = vec![0.5, 0.8, 0.95];
    config.mc_samples = 8;
    config
}

/// Table I: accuracy / ECE / relative FLOPs of SE, MCD, ME and MCD+ME for
/// ResNet-18 and VGG-19 on the CIFAR-100-like task, with accuracy-optimal and
/// ECE-optimal configurations per variant.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn table1(scale: Table1Scale) -> Result<TextTable, ExperimentError> {
    let mut table = TextTable::new(vec![
        "model",
        "variant",
        "acc_opt_accuracy",
        "acc_opt_flops",
        "ece_opt_ece",
        "ece_opt_flops",
    ]);
    let architectures = match scale {
        Table1Scale::Micro => vec![Architecture::LeNet5],
        Table1Scale::Smoke => vec![Architecture::ResNet18],
        Table1Scale::Quick => vec![Architecture::ResNet18, Architecture::Vgg19],
    };
    for architecture in architectures {
        let mut config = FrameworkConfig::quick_demo(architecture);
        config.phase1 = table1_phase1_config(architecture, scale);
        let artifact = phase1::run(&config, &NoopObserver)?;
        let result = &artifact.result;
        for variant in ModelVariant::all() {
            if let Some(candidate) = result.best_of_variant(variant) {
                let acc_opt = candidate.accuracy_optimal();
                let ece_opt = candidate.ece_optimal();
                table.add_row(vec![
                    architecture.to_string(),
                    variant.label().to_string(),
                    format!("{:.4}", acc_opt.evaluation.accuracy),
                    format!("{:.3}", acc_opt.flops_ratio),
                    format!("{:.4}", ece_opt.evaluation.ece),
                    format!("{:.3}", ece_opt.flops_ratio),
                ]);
            }
        }
    }
    Ok(table)
}

/// The reproduction's own Table II design: Bayes-LeNet-5 (full-width LeNet on
/// MNIST shapes, one MCD layer), 3 MC samples, spatial mapping, 8-bit, on
/// XCKU115 at 181 MHz.
///
/// # Errors
///
/// Propagates spec/estimation errors.
pub fn table2_our_design() -> Result<bnn_hw::accelerator::AcceleratorReport, ExperimentError> {
    let spec = Architecture::LeNet5
        .spec(&ModelConfig::mnist())
        .with_mcd_layers(1, 0.25)?;
    let report = AcceleratorModel::new(
        spec,
        AcceleratorConfig::new(FpgaDevice::xcku115())
            .with_bits(8)
            .with_reuse_factor(32)
            .with_mapping(MappingStrategy::Spatial)
            .with_mc_samples(3),
    )?
    .estimate()?;
    Ok(report)
}

/// Table II: comparison of our estimated FPGA design against the CPU/GPU
/// analytic models, the quoted CPU/GPU measurements and the prior FPGA works.
///
/// # Errors
///
/// Propagates spec/estimation errors.
pub fn table2() -> Result<TextTable, ExperimentError> {
    let mut table = TextTable::new(vec![
        "work",
        "platform",
        "freq_mhz",
        "tech_nm",
        "power_w",
        "latency_ms",
        "energy_j_per_image",
    ]);

    // Workload: Bayes-LeNet-5 with 3 MC samples (paper's comparison point).
    let lenet = Architecture::LeNet5.spec(&ModelConfig::mnist());
    let workload_flops = 3 * lenet.total_flops()?;

    // Analytic CPU/GPU models.
    for platform in [PlatformModel::cpu_i9_9900k(), PlatformModel::gpu_rtx_2080()] {
        table.add_row(vec![
            format!(
                "{} (modelled)",
                if platform.name.contains("Intel") {
                    "CPU"
                } else {
                    "GPU"
                }
            ),
            platform.name.clone(),
            format!("{:.0}", platform.frequency_mhz),
            platform.technology_nm.to_string(),
            format!("{:.0}", platform.power_w),
            format!("{:.2}", platform.latency_ms(workload_flops)),
            format!("{:.4}", platform.energy_per_inference_j(workload_flops)),
        ]);
    }
    // Quoted software + FPGA baselines.
    for row in software_baselines_quoted()
        .into_iter()
        .chain(fpga_baselines())
        .chain(std::iter::once(paper_our_work_quoted()))
    {
        table.add_row(vec![
            format!("{} (quoted)", row.work),
            row.platform.clone(),
            format!("{:.0}", row.frequency_mhz),
            row.technology_nm.to_string(),
            format!("{:.2}", row.power_w),
            format!("{:.2}", row.latency_ms),
            format!("{:.4}", row.energy_per_image_j()),
        ]);
    }
    // Our estimated design.
    let ours = table2_our_design()?;
    table.add_row(vec![
        "Our Work (this repo, estimated)".to_string(),
        "Xilinx XCKU115".to_string(),
        "181".to_string(),
        "20".to_string(),
        format!("{:.2}", ours.power.total_w()),
        format!("{:.2}", ours.latency_ms),
        format!("{:.4}", ours.energy_per_image_j),
    ]);
    Ok(table)
}

/// Table III: power breakdown of the final accelerator.
///
/// # Errors
///
/// Propagates spec/estimation errors.
pub fn table3() -> Result<TextTable, ExperimentError> {
    let report = table2_our_design()?;
    let p = &report.power;
    let mut table = TextTable::new(vec![
        "component",
        "clocking",
        "logic&signal",
        "bram",
        "io",
        "dsp",
        "static",
        "total",
    ]);
    table.add_row(vec![
        "used (W)".to_string(),
        format!("{:.3}", p.clocking_w),
        format!("{:.3}", p.logic_signal_w),
        format!("{:.3}", p.bram_w),
        format!("{:.3}", p.io_w),
        format!("{:.3}", p.dsp_w),
        format!("{:.3}", p.static_w),
        format!("{:.3}", p.total_w()),
    ]);
    let pct = p.percentages();
    table.add_row(vec![
        "percentage".to_string(),
        format!("{:.0}%", pct[0]),
        format!("{:.0}%", pct[1]),
        format!("{:.0}%", pct[2]),
        format!("{:.0}%", pct[3]),
        format!("{:.0}%", pct[4]),
        format!("{:.0}%", pct[5]),
        "100%".to_string(),
    ]);
    Ok(table)
}

/// Eq. 1–3: FLOP reduction of multi-exit MC sampling versus single-exit MC
/// sampling for the multi-exit ResNet-18.
///
/// # Errors
///
/// Propagates spec errors.
pub fn flop_reduction() -> Result<TextTable, ExperimentError> {
    let spec = Architecture::ResNet18
        .spec(&ModelConfig::cifar100().with_width_divisor(4))
        .with_exits_after_every_block()?;
    let model = SamplingCostModel::from_spec(&spec)?;
    let mut table = TextTable::new(vec![
        "n_samples",
        "n_exits",
        "alpha",
        "single_exit_flops",
        "multi_exit_flops",
        "reduction_rate",
    ]);
    for point in model.sweep(&[1, 2, 4, 8, 16, 32]) {
        table.add_row(vec![
            point.n_samples.to_string(),
            point.n_exits.to_string(),
            format!("{:.4}", point.alpha),
            point.single_exit_flops.to_string(),
            point.multi_exit_flops.to_string(),
            format!("{:.2}x", point.reduction_rate),
        ]);
    }
    Ok(table)
}

/// Ablations of the reproduction's main design choices: mapping strategy,
/// MCD placement depth and datapath bitwidth.
///
/// # Errors
///
/// Propagates spec/estimation errors.
pub fn ablations() -> Result<Vec<(String, TextTable)>, ExperimentError> {
    let mut out = Vec::new();

    // (a) Mapping strategy sweep on Bayes-LeNet with 8 samples.
    let spec = Architecture::LeNet5
        .spec(&ModelConfig::mnist().with_width_divisor(2))
        .with_mcd_layers(2, 0.25)?;
    let mut mapping_table = TextTable::new(vec![
        "mapping",
        "engines",
        "latency_ms",
        "lut",
        "dsp",
        "power_w",
        "energy_j",
    ]);
    for mapping in MappingStrategy::candidates(8) {
        let report = AcceleratorModel::new(
            spec.clone(),
            fig5_accel_config().with_mapping(mapping).with_mc_samples(8),
        )?
        .estimate()?;
        mapping_table.add_row(vec![
            mapping.to_string(),
            report.mc_engines.to_string(),
            format!("{:.4}", report.latency_ms),
            report.total_resources.lut.to_string(),
            report.total_resources.dsp.to_string(),
            format!("{:.2}", report.power.total_w()),
            format!("{:.5}", report.energy_per_image_j),
        ]);
    }
    out.push(("mapping strategy (8 MC samples)".to_string(), mapping_table));

    // (b) MCD placement depth: exit-proximal vs deeper insertion.
    let base = Architecture::ResNet18.spec(&ModelConfig::cifar10().with_width_divisor(8));
    let mut depth_table =
        TextTable::new(vec!["mcd_layers", "bayes_lut", "bayes_share", "latency_ms"]);
    for depth in [1usize, 2, 4, 6] {
        let spec = base.clone().with_mcd_layers(depth, 0.25)?;
        let report = AcceleratorModel::new(
            spec,
            fig5_accel_config()
                .with_mapping(MappingStrategy::Temporal)
                .with_mc_samples(4),
        )?
        .estimate()?;
        let share =
            report.mc_engine_resources.lut as f64 / report.total_resources.lut.max(1) as f64;
        depth_table.add_row(vec![
            depth.to_string(),
            report.mc_engine_resources.lut.to_string(),
            format!("{:.1}%", 100.0 * share),
            format!("{:.4}", report.latency_ms),
        ]);
    }
    out.push(("MCD placement depth (ResNet-18)".to_string(), depth_table));

    // (c) Bitwidth frontier: quantization error vs hardware cost.
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let weights = Tensor::randn(&[4096], &mut rng).scale(0.5);
    let mut bits_table = TextTable::new(vec!["format", "weight_mse", "lut", "dsp", "power_w"]);
    for format in FixedPointFormat::search_space() {
        let sse: f64 = weights
            .as_slice()
            .iter()
            .map(|&w| f64::from(format.quantize(w) - w).powi(2))
            .sum();
        let weight_mse = (sse / weights.len() as f64) as f32;
        let report = AcceleratorModel::new(
            spec.clone(),
            fig5_accel_config()
                .with_bits(format.total_bits())
                .with_mc_samples(3),
        )?
        .estimate()?;
        bits_table.add_row(vec![
            format.to_string(),
            format!("{weight_mse:.2e}"),
            report.total_resources.lut.to_string(),
            report.total_resources.dsp.to_string(),
            format!("{:.2}", report.power.total_w()),
        ]);
    }
    out.push(("bitwidth co-exploration frontier".to_string(), bits_table));

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_resources_monotone_in_logic() {
        let table = fig5_resources(3).unwrap();
        assert_eq!(table.len(), 9); // 3 models x 3 MCD counts
                                    // LeNet-5 only has five insertion points, so a deeper sweep keeps the
                                    // other models but stops LeNet at its maximum.
        let deep = fig5_resources(7).unwrap();
        assert!(deep.len() > 9);
    }

    #[test]
    fn fig5_latency_rows() {
        let table = fig5_latency(4).unwrap();
        assert_eq!(table.len(), 12);
        assert!(table.render().contains("x"));
    }

    #[test]
    fn table2_contains_all_platforms() {
        let table = table2().unwrap();
        let text = table.render();
        assert!(text.contains("Intel Core i9-9900K"));
        assert!(text.contains("VIBNN"));
        assert!(text.contains("Our Work (this repo, estimated)"));
        assert_eq!(table.len(), 2 + 2 + 4 + 1 + 1);
    }

    #[test]
    fn table3_percentages_render() {
        let table = table3().unwrap();
        let text = table.render();
        assert!(text.contains("logic&signal"));
        assert!(text.contains("%"));
    }

    #[test]
    fn flop_reduction_rows() {
        let table = flop_reduction().unwrap();
        assert_eq!(table.len(), 6);
    }

    #[test]
    fn ablation_tables_have_rows() {
        let tables = ablations().unwrap();
        assert_eq!(tables.len(), 3);
        for (_, t) in tables {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn table1_smoke_produces_all_variants() {
        let table = table1(Table1Scale::Smoke).unwrap();
        assert_eq!(table.len(), 4);
        let text = table.render();
        assert!(text.contains("MCD+ME"));
        assert!(text.contains("SE"));
    }
}
