//! Whole-accelerator estimation: resources, latency, power and energy of a
//! multi-exit MCD BayesNN mapped onto an FPGA.

use crate::device::FpgaDevice;
use crate::error::HwError;
use crate::layer_model::{estimate_layer, LayerModelConfig};
use crate::mapping::{MappedBayesianComponent, MappingStrategy};
use crate::power::{PowerBreakdown, PowerModel};
use crate::resource::{ResourceUsage, ResourceUtilization};
use bnn_models::{LayerPlace, NetworkSpec, SampleSchedule};

/// Configuration of an accelerator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Target FPGA device.
    pub device: FpgaDevice,
    /// Operating clock frequency in MHz (the paper's final design runs at 181 MHz).
    pub clock_mhz: f64,
    /// Datapath bit width and reuse factor.
    pub layer_model: LayerModelConfig,
    /// Mapping of MC passes onto hardware engines.
    pub mapping: MappingStrategy,
    /// Total number of MC samples drawn per input.
    pub mc_samples: usize,
    /// Power model coefficients.
    pub power_model: PowerModel,
}

impl AcceleratorConfig {
    /// Creates a configuration with the paper's defaults: 181 MHz, 16-bit
    /// datapath, reuse factor 32, temporal mapping, 3 MC samples.
    pub fn new(device: FpgaDevice) -> Self {
        AcceleratorConfig {
            device,
            clock_mhz: 181.0,
            layer_model: LayerModelConfig::default(),
            mapping: MappingStrategy::Temporal,
            mc_samples: 3,
            power_model: PowerModel::default(),
        }
    }

    /// Sets the clock frequency (MHz).
    pub fn with_clock_mhz(mut self, clock_mhz: f64) -> Self {
        self.clock_mhz = clock_mhz;
        self
    }

    /// Sets the datapath bit width.
    pub fn with_bits(mut self, bits: u32) -> Self {
        self.layer_model.bits = bits;
        self
    }

    /// Sets the reuse factor.
    pub fn with_reuse_factor(mut self, reuse_factor: usize) -> Self {
        self.layer_model.reuse_factor = reuse_factor.max(1);
        self
    }

    /// Sets the MC-pass mapping strategy.
    pub fn with_mapping(mut self, mapping: MappingStrategy) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the number of MC samples.
    pub fn with_mc_samples(mut self, mc_samples: usize) -> Self {
        self.mc_samples = mc_samples.max(1);
        self
    }
}

/// Full estimation report of one accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorReport {
    /// Resources of the non-Bayesian (cached) part of the network.
    pub non_bayesian_resources: ResourceUsage,
    /// Resources of one MC engine (the Bayesian component).
    pub mc_engine_resources: ResourceUsage,
    /// Total mapped resources.
    pub total_resources: ResourceUsage,
    /// Utilisation against the device budget.
    pub utilization: ResourceUtilization,
    /// Whether the design fits the device.
    pub fits: bool,
    /// Number of physical MC engines instantiated.
    pub mc_engines: usize,
    /// Number of Bayesian forward passes per input.
    pub passes: usize,
    /// Total latency in clock cycles.
    pub latency_cycles: u64,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in images per second.
    pub throughput_ips: f64,
    /// Power breakdown.
    pub power: PowerBreakdown,
    /// Energy per classified image in joules.
    pub energy_per_image_j: f64,
}

/// Analytic model of a complete accelerator for one network spec.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorModel {
    spec: NetworkSpec,
    config: AcceleratorConfig,
}

impl AcceleratorModel {
    /// Creates a model for a network spec and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidConfig`] if the clock frequency is not a
    /// positive finite number or the spec fails validation.
    pub fn new(spec: NetworkSpec, config: AcceleratorConfig) -> Result<Self, HwError> {
        if !(config.clock_mhz.is_finite() && config.clock_mhz > 0.0) {
            return Err(HwError::InvalidConfig(format!(
                "clock frequency must be positive and finite, got {}",
                config.clock_mhz
            )));
        }
        spec.validate()?;
        Ok(AcceleratorModel { spec, config })
    }

    /// The network spec being mapped.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Estimates the *unoptimized* baseline used by Fig. 5 (right): a single
    /// engine holding the whole network is re-run once per MC sample, without
    /// caching the non-Bayesian backbone. Latency therefore grows linearly with
    /// the number of MC samples while resources stay at one engine.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::Model`] if shape propagation through the spec fails.
    pub fn estimate_unoptimized(&self) -> Result<AcceleratorReport, HwError> {
        let cfg = &self.config;
        let layer_cfg = &cfg.layer_model;
        let mut resources = ResourceUsage::zero();
        let mut single_pass_cycles = 0u64;
        self.spec.walk(|_, layer, input| {
            let est = estimate_layer(layer, input, layer_cfg);
            resources += est.resources;
            single_pass_cycles += est.cycles;
        })?;
        let samples = cfg.mc_samples.max(1);
        let cycles = single_pass_cycles * samples as u64;
        let latency_ms = cycles as f64 / (cfg.clock_mhz * 1e3);
        let power = cfg
            .power_model
            .estimate(&cfg.device, &resources, cfg.clock_mhz, 1);
        Ok(AcceleratorReport {
            non_bayesian_resources: resources,
            mc_engine_resources: ResourceUsage::zero(),
            total_resources: resources,
            utilization: resources.utilization(&cfg.device.resources),
            fits: resources.fits_within(&cfg.device.resources),
            mc_engines: 1,
            passes: samples,
            latency_cycles: cycles,
            latency_ms,
            throughput_ips: if latency_ms > 0.0 {
                1e3 / latency_ms
            } else {
                0.0
            },
            energy_per_image_j: power.total_w() * latency_ms / 1e3,
            power,
        })
    }

    /// Runs the estimation.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::Model`] if shape propagation through the spec fails.
    pub fn estimate(&self) -> Result<AcceleratorReport, HwError> {
        let cfg = &self.config;
        let layer_cfg = &cfg.layer_model;

        let mut non_bayes = ResourceUsage::zero();
        let mut non_bayes_cycles = 0u64;
        let mut bayes = ResourceUsage::zero();
        let mut bayes_cycles = 0u64;
        let mut backbone_bayes_start_block: Option<usize> = None;
        let mut exit_bayesian = vec![false; self.spec.num_exits()];
        let mut clone_elements = 0u64;

        // A layer belongs to the Bayesian component from the first MCD layer
        // on its path: backbone layers from the first MCD block onwards, exit
        // layers when their attachment block is Bayesian or from the exit's
        // own first MCD layer. The tensor cached and cloned per MC pass is
        // the (largest) input of such a first MCD layer.
        self.spec.walk(|place, layer, input| {
            let est = estimate_layer(layer, input, layer_cfg);
            let bayesian = match place {
                LayerPlace::Block(b) => {
                    if backbone_bayes_start_block.is_none() && est.is_mc_dropout {
                        backbone_bayes_start_block = Some(b);
                        clone_elements = input.len() as u64;
                    }
                    backbone_bayes_start_block.is_some()
                }
                LayerPlace::Exit { exit, after_block } => {
                    let inherited = backbone_bayes_start_block.is_some_and(|b| b <= after_block);
                    if !inherited && !exit_bayesian[exit] && est.is_mc_dropout {
                        exit_bayesian[exit] = true;
                        clone_elements = clone_elements.max(input.len() as u64);
                    }
                    inherited || exit_bayesian[exit]
                }
            };
            if bayesian {
                bayes += est.resources;
                bayes_cycles += est.cycles;
            } else {
                non_bayes += est.resources;
                non_bayes_cycles += est.cycles;
            }
        })?;

        let has_bayesian = bayes_cycles > 0 || bayes != ResourceUsage::zero();
        let passes = if has_bayesian {
            SampleSchedule::new(cfg.mc_samples, self.spec.num_exits()).passes()
        } else {
            1
        };

        let (total_resources, total_cycles, engines) = if has_bayesian {
            let mapped = MappedBayesianComponent {
                engine_cycles: bayes_cycles,
                engine_resources: bayes,
                clone_cycles: clone_elements / 8,
            };
            let engines = cfg.mapping.engines(passes);
            let resources = non_bayes + mapped.resources(cfg.mapping, passes);
            let cycles = non_bayes_cycles + mapped.latency_cycles(cfg.mapping, passes);
            (resources, cycles, engines)
        } else {
            (non_bayes, non_bayes_cycles, 0)
        };

        let latency_ms = total_cycles as f64 / (cfg.clock_mhz * 1e3);
        let power =
            cfg.power_model
                .estimate(&cfg.device, &total_resources, cfg.clock_mhz, engines.max(1));
        let energy = power.total_w() * latency_ms / 1e3;
        let utilization = total_resources.utilization(&cfg.device.resources);

        Ok(AcceleratorReport {
            non_bayesian_resources: non_bayes,
            mc_engine_resources: bayes,
            total_resources,
            fits: total_resources.fits_within(&cfg.device.resources),
            utilization,
            mc_engines: engines,
            passes,
            latency_cycles: total_cycles,
            latency_ms,
            throughput_ips: if latency_ms > 0.0 {
                1e3 / latency_ms
            } else {
                0.0
            },
            power,
            energy_per_image_j: energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, LayerSpec, ModelConfig};

    fn lenet_spec(mcd_layers: usize) -> NetworkSpec {
        zoo::lenet5(&ModelConfig::mnist().with_width_divisor(2))
            .with_mcd_layers(mcd_layers, 0.25)
            .unwrap()
    }

    fn base_config() -> AcceleratorConfig {
        AcceleratorConfig::new(FpgaDevice::xcku115())
            .with_bits(8)
            .with_reuse_factor(16)
    }

    #[test]
    fn zero_stride_spec_is_a_typed_error() {
        let mut spec = lenet_spec(0);
        let pool = spec.blocks[0]
            .iter_mut()
            .find(|l| matches!(l, LayerSpec::MaxPool2d { .. }))
            .unwrap();
        *pool = LayerSpec::MaxPool2d {
            kernel: 2,
            stride: 0,
        };
        assert!(matches!(
            AcceleratorModel::new(spec, base_config()),
            Err(HwError::Model(bnn_models::ModelError::InvalidSpec(_)))
        ));
    }

    #[test]
    fn rejects_bad_configs() {
        for clock in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = base_config().with_clock_mhz(clock);
            assert!(
                matches!(
                    AcceleratorModel::new(lenet_spec(1), config),
                    Err(HwError::InvalidConfig(_))
                ),
                "clock {clock}"
            );
        }
    }

    #[test]
    fn fig5_left_logic_grows_with_mcd_layers_bram_flat() {
        let config = base_config();
        let mut previous: Option<AcceleratorReport> = None;
        for n in 1..=5usize {
            let report = AcceleratorModel::new(lenet_spec(n), config.clone())
                .unwrap()
                .estimate()
                .unwrap();
            if let Some(prev) = &previous {
                assert!(report.total_resources.lut >= prev.total_resources.lut);
                assert!(report.total_resources.ff >= prev.total_resources.ff);
                assert_eq!(
                    report.total_resources.bram_36k,
                    prev.total_resources.bram_36k
                );
                // DSP increase is minor (the paper reports <= 8 %)
                let dsp_growth =
                    report.total_resources.dsp as f64 / prev.total_resources.dsp.max(1) as f64;
                assert!(dsp_growth < 1.10, "dsp grew by {dsp_growth}");
            }
            previous = Some(report);
        }
    }

    #[test]
    fn fig5_right_spatial_mapping_flattens_latency() {
        let spec = lenet_spec(1);
        let mut unoptimized_latencies = Vec::new();
        let mut spatial_latencies = Vec::new();
        for samples in [1usize, 2, 4, 8] {
            let model = AcceleratorModel::new(
                spec.clone(),
                base_config()
                    .with_mapping(MappingStrategy::Spatial)
                    .with_mc_samples(samples),
            )
            .unwrap();
            unoptimized_latencies.push(model.estimate_unoptimized().unwrap().latency_ms);
            spatial_latencies.push(model.estimate().unwrap().latency_ms);
        }
        // the unoptimized single-engine baseline grows linearly with samples,
        // spatial mapping stays flat (Fig. 5 right)
        assert!(unoptimized_latencies[3] > unoptimized_latencies[0] * 6.0);
        let spread = spatial_latencies[3] / spatial_latencies[0];
        assert!(spread < 1.05, "spatial latency spread {spread}");
        // and spatial is never meaningfully slower than the unoptimized
        // baseline (at 1 sample the only difference is the clone overhead)
        for (s, u) in spatial_latencies.iter().zip(&unoptimized_latencies) {
            assert!(*s <= u * 1.05, "spatial {s} vs unoptimized {u}");
        }
        // temporal (cached backbone, shared engine) sits in between
        let temporal = AcceleratorModel::new(
            spec,
            base_config()
                .with_mapping(MappingStrategy::Temporal)
                .with_mc_samples(8),
        )
        .unwrap()
        .estimate()
        .unwrap();
        assert!(temporal.latency_ms >= spatial_latencies[3]);
        assert!(temporal.latency_ms <= unoptimized_latencies[3]);
    }

    #[test]
    fn spatial_mapping_costs_more_resources() {
        let spec = lenet_spec(1);
        let temporal = AcceleratorModel::new(
            spec.clone(),
            base_config()
                .with_mapping(MappingStrategy::Temporal)
                .with_mc_samples(8),
        )
        .unwrap()
        .estimate()
        .unwrap();
        let spatial = AcceleratorModel::new(
            spec,
            base_config()
                .with_mapping(MappingStrategy::Spatial)
                .with_mc_samples(8),
        )
        .unwrap()
        .estimate()
        .unwrap();
        assert!(spatial.total_resources.lut > temporal.total_resources.lut);
        assert!(spatial.mc_engines > temporal.mc_engines);
    }

    #[test]
    fn bayes_lenet_reference_design_matches_paper_regime() {
        // Bayes-LeNet-5, 3 MC samples, spatial mapping, 8-bit, XCKU115 @ 181 MHz:
        // expect sub-10 ms latency, a few watts, and clearly better energy than
        // the CPU/GPU models.
        let spec = lenet_spec(1);
        let report = AcceleratorModel::new(
            spec,
            base_config()
                .with_mapping(MappingStrategy::Spatial)
                .with_mc_samples(3),
        )
        .unwrap()
        .estimate()
        .unwrap();
        assert!(
            report.fits,
            "design must fit XCKU115: {}",
            report.total_resources
        );
        assert!(report.latency_ms < 10.0, "latency {}", report.latency_ms);
        assert!(
            (1.5..10.0).contains(&report.power.total_w()),
            "power {}",
            report.power.total_w()
        );
        let cpu = crate::perf::PlatformModel::cpu_i9_9900k();
        let cpu_energy = cpu.energy_per_inference_j(2_500_000);
        assert!(
            report.energy_per_image_j < cpu_energy / 10.0,
            "fpga {} vs cpu {}",
            report.energy_per_image_j,
            cpu_energy
        );
    }

    #[test]
    fn multi_exit_network_maps_with_exit_local_mcd() {
        let spec = zoo::resnet18(
            &ModelConfig::cifar10()
                .with_resolution(16, 16)
                .with_width_divisor(8),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
        let report = AcceleratorModel::new(spec, base_config().with_mc_samples(8))
            .unwrap()
            .estimate()
            .unwrap();
        // 4 exits, 8 samples -> 2 passes
        assert_eq!(report.passes, 2);
        assert!(report.mc_engine_resources.lut > 0);
        assert!(report.non_bayesian_resources.lut > report.mc_engine_resources.lut);
    }

    #[test]
    fn non_bayesian_network_has_no_mc_engines() {
        let spec = zoo::lenet5(&ModelConfig::mnist().with_width_divisor(2));
        let report = AcceleratorModel::new(spec, base_config())
            .unwrap()
            .estimate()
            .unwrap();
        assert_eq!(report.mc_engines, 0);
        assert_eq!(report.mc_engine_resources, ResourceUsage::zero());
        assert_eq!(report.passes, 1);
    }

    #[test]
    fn higher_reuse_factor_reduces_resources_increases_latency() {
        let spec = lenet_spec(1);
        let fast = AcceleratorModel::new(spec.clone(), base_config().with_reuse_factor(4))
            .unwrap()
            .estimate()
            .unwrap();
        let small = AcceleratorModel::new(spec, base_config().with_reuse_factor(64))
            .unwrap()
            .estimate()
            .unwrap();
        assert!(fast.latency_cycles < small.latency_cycles);
        assert!(fast.total_resources.dsp > small.total_resources.dsp);
    }

    #[test]
    fn throughput_is_inverse_latency() {
        let spec = lenet_spec(1);
        let report = AcceleratorModel::new(spec, base_config())
            .unwrap()
            .estimate()
            .unwrap();
        assert!((report.throughput_ips * report.latency_ms / 1e3 - 1.0).abs() < 1e-9);
    }
}
