//! Per-layer hardware estimation (resources and cycles).
//!
//! The model follows the structure of hls4ml's "resource" strategy: each layer
//! instantiates `ceil(total multiplies / reuse_factor)` parallel multipliers,
//! pipelined with an initiation interval equal to the reuse factor, and keeps
//! its weights in on-chip BRAM. The Monte-Carlo Dropout layer follows the
//! paper's Algorithm 1: a pipelined elementwise loop with an on-chip uniform
//! RNG, a comparator and a multiplier — and, notably, **no BRAM**, which is why
//! Fig. 5 shows flat BRAM across MCD-layer counts.

use crate::error::HwError;
use crate::resource::ResourceUsage;
use crate::rng::Lfsr32;
use bnn_models::spec::walk_chain;
use bnn_models::{LayerSpec, NetworkSpec};
use bnn_tensor::Shape;

/// Hardware estimate of a single layer instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LayerHardware {
    /// Short layer kind label.
    pub kind: String,
    /// Resources consumed by the layer.
    pub resources: ResourceUsage,
    /// Cycles to process one input (initiation-interval dominated).
    pub cycles: u64,
    /// Whether this layer belongs to the Bayesian component (MCD layer).
    pub is_mc_dropout: bool,
}

/// Hardware estimation parameters shared by every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerModelConfig {
    /// Datapath bit width (weights and activations).
    pub bits: u32,
    /// Reuse factor: how many multiplies share one physical multiplier.
    pub reuse_factor: usize,
}

impl Default for LayerModelConfig {
    fn default() -> Self {
        LayerModelConfig {
            bits: 16,
            reuse_factor: 32,
        }
    }
}

impl LayerModelConfig {
    /// Creates a configuration.
    pub fn new(bits: u32, reuse_factor: usize) -> Self {
        LayerModelConfig {
            bits,
            reuse_factor: reuse_factor.max(1),
        }
    }
}

const BRAM_BITS: u64 = 36 * 1024;
const PIPELINE_DEPTH: u64 = 12;

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b.max(1))
}

/// DSP / LUT cost of `multipliers` parallel multiply-accumulate units at a
/// given bit width. Narrow multipliers pack two per DSP slice; 4-bit and below
/// are implemented in LUTs.
fn mac_array(multipliers: u64, bits: u32) -> ResourceUsage {
    let (dsp, extra_lut) = if bits <= 4 {
        (0, multipliers * (6 * bits as u64 + 8))
    } else if bits <= 8 {
        (div_ceil(multipliers, 2), multipliers * 4)
    } else {
        (multipliers, multipliers * 2)
    };
    // Accumulators and control.
    let ff = multipliers * (2 * bits as u64) + 64;
    let lut = extra_lut + multipliers * bits as u64 + 128;
    ResourceUsage::new(0, dsp, ff, lut)
}

/// BRAM blocks needed to hold `params` weights of `bits` width (dual-ported,
/// one block minimum when any weights exist).
fn weight_bram(params: u64, bits: u32) -> u64 {
    if params == 0 {
        0
    } else {
        div_ceil(params * bits as u64, BRAM_BITS).max(1)
    }
}

/// Output height/width of a convolution at `input`, from the spec's own
/// shape rule, with the `(1, 1)` fallback the resource model uses for
/// shapes that do not propagate.
fn conv_out_hw(layer: &LayerSpec, input: &Shape) -> (u64, u64) {
    layer
        .output_shape(input)
        .ok()
        .and_then(|out| out.as_nchw().ok())
        .map_or((1, 1), |(_, _, h, w)| (h as u64, w as u64))
}

/// Per-sample multiply-accumulates of one layer at `input` (batch 1) — the
/// figure the multiplier sizing below divides by the reuse factor, and the
/// same figure the compiled integer plan's per-step cost accounting uses
/// for conv/dense. Only conv and dense are MAC-counted (batch-norm folds
/// into a per-channel affine, pools and activations are add/compare only);
/// residual blocks recurse with shape propagation.
pub fn layer_macs(layer: &LayerSpec, input: &Shape) -> u64 {
    match layer {
        LayerSpec::Conv2d {
            in_channels,
            out_channels,
            kernel,
            ..
        } => {
            let (oh, ow) = conv_out_hw(layer, input);
            (kernel * kernel * in_channels * out_channels) as u64 * oh * ow
        }
        LayerSpec::Dense {
            in_features,
            out_features,
        } => (in_features * out_features) as u64,
        LayerSpec::Residual { main, shortcut } => {
            let mut total = 0u64;
            for path in [main, shortcut] {
                // A path that stops propagating is priced up to that layer.
                let _ = walk_chain(path, input, |l, shape| total += layer_macs(l, shape));
            }
            total
        }
        _ => 0,
    }
}

/// Total per-sample MACs of a whole spec: backbone blocks plus every exit
/// branch, summed over [`NetworkSpec::walk`]. This is the static figure an
/// emitted HLS design's schedule must agree with — the cross-check that
/// keeps phase-2/3 scores and generated code from drifting apart.
///
/// # Errors
///
/// Returns [`HwError::Model`] when an exit is attached after a missing block
/// or a layer's output shape cannot be derived.
pub fn network_macs(spec: &NetworkSpec) -> Result<u64, HwError> {
    let mut total = 0u64;
    spec.walk(|_, layer, input| total += layer_macs(layer, input))?;
    Ok(total)
}

/// Estimates the hardware of one layer given its input shape (batch size 1).
pub fn estimate_layer(
    layer: &LayerSpec,
    input: &Shape,
    config: &LayerModelConfig,
) -> LayerHardware {
    let bits = config.bits;
    let reuse = config.reuse_factor.max(1) as u64;
    let elements = input.len() as u64;
    match layer {
        LayerSpec::Conv2d {
            in_channels,
            out_channels,
            kernel,
            ..
        } => {
            let (oh, ow) = conv_out_hw(layer, input);
            let macs_per_pixel = (kernel * kernel * in_channels * out_channels) as u64;
            let multipliers = div_ceil(macs_per_pixel, reuse);
            let mut res = mac_array(multipliers, bits);
            let params = (kernel * kernel * in_channels * out_channels + out_channels) as u64;
            // Weights plus (kernel-1) line buffers for the streaming window.
            let line_buffer_bits = ((kernel - 1) * in_channels) as u64
                * input.dims().last().copied().unwrap_or(1) as u64
                * bits as u64;
            res.bram_36k = weight_bram(params, bits) + div_ceil(line_buffer_bits, BRAM_BITS);
            LayerHardware {
                kind: "conv2d".into(),
                resources: res,
                cycles: oh * ow * reuse + PIPELINE_DEPTH,
                is_mc_dropout: false,
            }
        }
        LayerSpec::Dense {
            in_features,
            out_features,
        } => {
            let macs = (in_features * out_features) as u64;
            let multipliers = div_ceil(macs, reuse);
            let mut res = mac_array(multipliers, bits);
            res.bram_36k = weight_bram((in_features * out_features + out_features) as u64, bits);
            LayerHardware {
                kind: "dense".into(),
                resources: res,
                cycles: reuse + PIPELINE_DEPTH,
                is_mc_dropout: false,
            }
        }
        LayerSpec::BatchNorm2d { channels } => {
            // Folded scale+shift per channel.
            let multipliers = div_ceil(*channels as u64, reuse);
            let mut res = mac_array(multipliers, bits);
            res.bram_36k = weight_bram(2 * *channels as u64, bits);
            LayerHardware {
                kind: "batchnorm2d".into(),
                resources: res,
                cycles: elements / (*channels as u64).max(1) + PIPELINE_DEPTH,
                is_mc_dropout: false,
            }
        }
        LayerSpec::Relu => LayerHardware {
            kind: "relu".into(),
            resources: ResourceUsage::new(0, 0, 2 * bits as u64, 3 * bits as u64 + 16),
            cycles: elements / 8 + 2,
            is_mc_dropout: false,
        },
        LayerSpec::MaxPool2d { kernel, .. } => {
            let window = (kernel * kernel) as u64;
            LayerHardware {
                kind: "pool2d".into(),
                resources: ResourceUsage::new(
                    0,
                    0,
                    window * bits as u64 + 32,
                    window * (bits as u64 + 4) + 64,
                ),
                cycles: elements / 4 + PIPELINE_DEPTH,
                is_mc_dropout: false,
            }
        }
        LayerSpec::GlobalAvgPool2d => {
            let channels = input.dims().get(1).copied().unwrap_or(1) as u64;
            LayerHardware {
                kind: "global_avg_pool2d".into(),
                resources: ResourceUsage::new(0, 0, channels * bits as u64, channels * 6 + 128),
                cycles: elements + PIPELINE_DEPTH,
                is_mc_dropout: false,
            }
        }
        LayerSpec::Flatten => LayerHardware {
            kind: "flatten".into(),
            resources: ResourceUsage::new(0, 0, 16, 32),
            cycles: 1,
            is_mc_dropout: false,
        },
        LayerSpec::McDropout { .. } => {
            // Algorithm 1: pipelined loop over dropout_size with II=1, an LFSR
            // uniform RNG, one comparator, one multiplier by the keep rate and
            // the output multiplexer. No BRAM.
            let rng = Lfsr32::hardware_cost();
            let mult = mac_array(1, bits);
            let comparator = ResourceUsage::new(0, 0, bits as u64, 2 * bits as u64);
            let mux = ResourceUsage::new(0, 0, bits as u64, bits as u64 + 8);
            LayerHardware {
                kind: "mc_dropout".into(),
                resources: rng + mult + comparator + mux,
                cycles: elements + PIPELINE_DEPTH,
                is_mc_dropout: true,
            }
        }
        LayerSpec::Residual { main, shortcut } => {
            let mut resources = ResourceUsage::zero();
            let mut path = |layers: &[LayerSpec]| {
                let mut cycles = 0u64;
                let out = walk_chain(layers, input, |l, shape| {
                    let est = estimate_layer(l, shape, config);
                    resources += est.resources;
                    cycles += est.cycles;
                });
                (out, cycles)
            };
            let (main_out, main_cycles) = path(main);
            let (_, short_cycles) = path(shortcut);
            // Element-wise adder + ReLU at the merge point.
            let out_len = main_out.map_or(0, |shape| shape.len() as u64);
            resources += ResourceUsage::new(0, 0, 4 * bits as u64, 6 * bits as u64 + 32);
            LayerHardware {
                kind: "residual".into(),
                resources,
                cycles: main_cycles.max(short_cycles) + out_len / 8 + PIPELINE_DEPTH,
                is_mc_dropout: main.iter().any(LayerSpec::is_mc_dropout)
                    || shortcut.iter().any(LayerSpec::is_mc_dropout),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(in_c: usize, out_c: usize) -> LayerSpec {
        LayerSpec::Conv2d {
            in_channels: in_c,
            out_channels: out_c,
            kernel: 3,
            stride: 1,
            padding: 1,
        }
    }

    #[test]
    fn conv_macs_follow_the_textbook_formula() {
        // 3x3 conv, pad 1, stride 1 over 16x16: oh = ow = 16.
        let shape = Shape::new(vec![1, 16, 16, 16]);
        assert_eq!(
            layer_macs(&conv(16, 32), &shape),
            (3 * 3 * 16 * 32 * 16 * 16) as u64
        );
        let dense = LayerSpec::Dense {
            in_features: 120,
            out_features: 84,
        };
        assert_eq!(layer_macs(&dense, &shape), 120 * 84);
        assert_eq!(layer_macs(&LayerSpec::Relu, &shape), 0);
        assert_eq!(layer_macs(&LayerSpec::McDropout { rate: 0.25 }, &shape), 0);
    }

    #[test]
    fn residual_macs_sum_main_and_shortcut() {
        let shape = Shape::new(vec![1, 16, 8, 8]);
        let main = vec![conv(16, 16), LayerSpec::Relu, conv(16, 16)];
        let shortcut = vec![conv(16, 16)];
        let block = LayerSpec::Residual {
            main: main.clone(),
            shortcut: shortcut.clone(),
        };
        let expect: u64 = main
            .iter()
            .chain(shortcut.iter())
            .map(|l| layer_macs(l, &shape))
            .sum();
        assert!(expect > 0);
        assert_eq!(layer_macs(&block, &shape), expect);
    }

    fn small_lenet_multi_exit() -> NetworkSpec {
        bnn_models::zoo::lenet5(
            &bnn_models::ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
    }

    #[test]
    fn network_macs_cover_backbone_and_exits() {
        let spec = small_lenet_multi_exit();
        let total = network_macs(&spec).unwrap();
        // Backbone alone must be strictly below the total: every exit head
        // ends in a dense classifier that contributes MACs.
        let mut backbone = 0u64;
        spec.walk(|place, layer, input| {
            if let bnn_models::LayerPlace::Block(_) = place {
                backbone += layer_macs(layer, input);
            }
        })
        .unwrap();
        assert!(backbone > 0);
        assert!(total > backbone);
    }

    #[test]
    fn network_macs_reject_an_exit_after_a_missing_block() {
        let mut spec = small_lenet_multi_exit();
        spec.exits[0].after_block = spec.blocks.len();
        assert!(matches!(
            network_macs(&spec),
            Err(HwError::Model(bnn_models::ModelError::InvalidSpec(_)))
        ));
    }

    #[test]
    fn conv_resources_scale_with_channels() {
        let cfg = LayerModelConfig::default();
        let shape = Shape::new(vec![1, 16, 16, 16]);
        let small = estimate_layer(&conv(16, 16), &shape, &cfg);
        let big = estimate_layer(&conv(16, 64), &shape, &cfg);
        assert!(big.resources.dsp > small.resources.dsp);
        assert!(big.resources.lut > small.resources.lut);
        assert!(big.resources.bram_36k >= small.resources.bram_36k);
    }

    #[test]
    fn reuse_factor_trades_cycles_for_resources() {
        let shape = Shape::new(vec![1, 16, 16, 16]);
        let fast = estimate_layer(&conv(16, 32), &shape, &LayerModelConfig::new(16, 4));
        let slow = estimate_layer(&conv(16, 32), &shape, &LayerModelConfig::new(16, 64));
        assert!(fast.cycles < slow.cycles);
        assert!(fast.resources.dsp > slow.resources.dsp);
    }

    #[test]
    fn narrow_bitwidths_use_fewer_dsp() {
        let shape = Shape::new(vec![1, 16, 16, 16]);
        let w16 = estimate_layer(&conv(16, 32), &shape, &LayerModelConfig::new(16, 16));
        let w8 = estimate_layer(&conv(16, 32), &shape, &LayerModelConfig::new(8, 16));
        let w4 = estimate_layer(&conv(16, 32), &shape, &LayerModelConfig::new(4, 16));
        assert!(w8.resources.dsp < w16.resources.dsp);
        assert_eq!(w4.resources.dsp, 0);
        assert!(w4.resources.lut > w8.resources.lut);
    }

    #[test]
    fn mcd_layer_uses_no_bram_or_heavy_dsp() {
        let cfg = LayerModelConfig::new(8, 16);
        let shape = Shape::new(vec![1, 64, 8, 8]);
        let est = estimate_layer(&LayerSpec::McDropout { rate: 0.25 }, &shape, &cfg);
        assert!(est.is_mc_dropout);
        assert_eq!(est.resources.bram_36k, 0);
        assert!(est.resources.dsp <= 1);
        assert!(est.resources.lut > 0 && est.resources.ff > 0);
        // cycles follow the dropout buffer size (Algorithm 1's pipelined loop)
        assert!(est.cycles >= shape.len() as u64);
    }

    #[test]
    fn dense_weight_bram_scales_with_parameters() {
        let cfg = LayerModelConfig::new(16, 64);
        let small = estimate_layer(
            &LayerSpec::Dense {
                in_features: 64,
                out_features: 10,
            },
            &Shape::new(vec![1, 64]),
            &cfg,
        );
        let big = estimate_layer(
            &LayerSpec::Dense {
                in_features: 1024,
                out_features: 512,
            },
            &Shape::new(vec![1, 1024]),
            &cfg,
        );
        assert!(big.resources.bram_36k > small.resources.bram_36k);
    }

    #[test]
    fn residual_aggregates_member_costs() {
        let cfg = LayerModelConfig::default();
        let shape = Shape::new(vec![1, 16, 8, 8]);
        let single = estimate_layer(&conv(16, 16), &shape, &cfg);
        let res = estimate_layer(
            &LayerSpec::Residual {
                main: vec![conv(16, 16), conv(16, 16)],
                shortcut: vec![],
            },
            &shape,
            &cfg,
        );
        assert!(res.resources.dsp >= 2 * single.resources.dsp);
        assert!(res.cycles > single.cycles);
        assert!(!res.is_mc_dropout);
    }

    #[test]
    fn residual_with_inner_mcd_is_flagged() {
        let cfg = LayerModelConfig::default();
        let shape = Shape::new(vec![1, 8, 4, 4]);
        let res = estimate_layer(
            &LayerSpec::Residual {
                main: vec![conv(8, 8), LayerSpec::McDropout { rate: 0.5 }],
                shortcut: vec![],
            },
            &shape,
            &cfg,
        );
        assert!(res.is_mc_dropout);
    }

    #[test]
    fn pool_and_activation_are_cheap() {
        let cfg = LayerModelConfig::default();
        let shape = Shape::new(vec![1, 32, 16, 16]);
        let conv_est = estimate_layer(&conv(32, 32), &shape, &cfg);
        for layer in [
            LayerSpec::Relu,
            LayerSpec::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            LayerSpec::GlobalAvgPool2d,
            LayerSpec::Flatten,
        ] {
            let est = estimate_layer(&layer, &shape, &cfg);
            assert!(est.resources.lut < conv_est.resources.lut / 4);
            assert_eq!(est.resources.dsp, 0);
        }
    }
}
