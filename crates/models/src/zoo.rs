//! Reference architectures used in the paper: LeNet-5, VGG-11, VGG-19 and
//! ResNet-18, expressed as [`NetworkSpec`]s whose backbone blocks are separated
//! at pooling boundaries (the paper's "semantic groupings").
//!
//! All builders honour [`ModelConfig::width_divisor`] so reduced-width variants
//! (matching the paper's custom channel configurations and this reproduction's
//! CPU-training budget) come from the same code path, and they adapt their
//! down-sampling schedule to small input resolutions so reduced-resolution
//! synthetic datasets remain usable.

use crate::config::ModelConfig;
use crate::spec::{LayerSpec, NetworkSpec};

/// Tracks the spatial size while a builder lays down layers, so pooling and
/// stride decisions adapt to small inputs.
#[derive(Debug, Clone, Copy)]
struct Spatial {
    h: usize,
    w: usize,
}

impl Spatial {
    fn can_halve(&self) -> bool {
        self.h >= 4 && self.w >= 4
    }

    fn halve(&mut self) {
        self.h /= 2;
        self.w /= 2;
    }
}

/// Builds LeNet-5 (conv 5×5 ×2 with pooling, then a 120-84-classes MLP head),
/// the model the paper pairs with MNIST.
pub fn lenet5(config: &ModelConfig) -> NetworkSpec {
    let c1 = config.scale(6);
    let c2 = config.scale(16);
    let f1 = config.scale(120);
    let f2 = config.scale(84);
    let mut spatial = Spatial {
        h: config.height,
        w: config.width,
    };

    // Block 0: conv(5x5, pad 2) + relu + pool
    let mut block0 = vec![
        LayerSpec::Conv2d {
            in_channels: config.in_channels,
            out_channels: c1,
            kernel: 5,
            stride: 1,
            padding: 2,
        },
        LayerSpec::Relu,
    ];
    if spatial.can_halve() {
        block0.push(LayerSpec::MaxPool2d {
            kernel: 2,
            stride: 2,
        });
        spatial.halve();
    }

    // Block 1: conv(5x5) + relu + pool; pad adapts to small inputs.
    let pad2 = if spatial.h >= 5 && spatial.w >= 5 {
        0
    } else {
        2
    };
    let mut block1 = vec![
        LayerSpec::Conv2d {
            in_channels: c1,
            out_channels: c2,
            kernel: 5,
            stride: 1,
            padding: pad2,
        },
        LayerSpec::Relu,
    ];
    spatial.h = spatial.h + 2 * pad2 - 5 + 1;
    spatial.w = spatial.w + 2 * pad2 - 5 + 1;
    if spatial.can_halve() {
        block1.push(LayerSpec::MaxPool2d {
            kernel: 2,
            stride: 2,
        });
        spatial.halve();
    }

    let flat = c2 * spatial.h * spatial.w;
    let head = vec![
        LayerSpec::Flatten,
        LayerSpec::Dense {
            in_features: flat,
            out_features: f1,
        },
        LayerSpec::Relu,
        LayerSpec::Dense {
            in_features: f1,
            out_features: f2,
        },
        LayerSpec::Relu,
        LayerSpec::Dense {
            in_features: f2,
            out_features: config.classes,
        },
    ];

    NetworkSpec::single_exit(
        "lenet5",
        config.in_channels,
        config.height,
        config.width,
        config.classes,
        vec![block0, block1],
        head,
    )
}

fn vgg_from_plan(name: &str, plan: &[&[usize]], config: &ModelConfig) -> NetworkSpec {
    let mut spatial = Spatial {
        h: config.height,
        w: config.width,
    };
    let mut in_channels = config.in_channels;
    let mut blocks = Vec::with_capacity(plan.len());
    let mut last_channels = in_channels;
    for stage in plan {
        let mut block = Vec::new();
        for &channels in *stage {
            let out = config.scale(channels);
            block.push(LayerSpec::Conv2d {
                in_channels,
                out_channels: out,
                kernel: 3,
                stride: 1,
                padding: 1,
            });
            block.push(LayerSpec::BatchNorm2d { channels: out });
            block.push(LayerSpec::Relu);
            in_channels = out;
            last_channels = out;
        }
        if spatial.can_halve() {
            block.push(LayerSpec::MaxPool2d {
                kernel: 2,
                stride: 2,
            });
            spatial.halve();
        }
        blocks.push(block);
    }
    let head = vec![
        LayerSpec::GlobalAvgPool2d,
        LayerSpec::Dense {
            in_features: last_channels,
            out_features: config.classes,
        },
    ];
    NetworkSpec::single_exit(
        name,
        config.in_channels,
        config.height,
        config.width,
        config.classes,
        blocks,
        head,
    )
}

/// Builds VGG-11 (configuration "A"), the model the paper pairs with SVHN.
pub fn vgg11(config: &ModelConfig) -> NetworkSpec {
    vgg_from_plan(
        "vgg11",
        &[&[64], &[128], &[256, 256], &[512, 512], &[512, 512]],
        config,
    )
}

/// Builds VGG-19 (configuration "E"), one of the two CIFAR-100 models in Table I.
pub fn vgg19(config: &ModelConfig) -> NetworkSpec {
    vgg_from_plan(
        "vgg19",
        &[
            &[64, 64],
            &[128, 128],
            &[256, 256, 256, 256],
            &[512, 512, 512, 512],
            &[512, 512, 512, 512],
        ],
        config,
    )
}

fn basic_block(in_channels: usize, out_channels: usize, stride: usize) -> LayerSpec {
    let shortcut = if stride != 1 || in_channels != out_channels {
        vec![
            LayerSpec::Conv2d {
                in_channels,
                out_channels,
                kernel: 1,
                stride,
                padding: 0,
            },
            LayerSpec::BatchNorm2d {
                channels: out_channels,
            },
        ]
    } else {
        Vec::new()
    };
    LayerSpec::Residual {
        main: vec![
            LayerSpec::Conv2d {
                in_channels,
                out_channels,
                kernel: 3,
                stride,
                padding: 1,
            },
            LayerSpec::BatchNorm2d {
                channels: out_channels,
            },
            LayerSpec::Relu,
            LayerSpec::Conv2d {
                in_channels: out_channels,
                out_channels,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            LayerSpec::BatchNorm2d {
                channels: out_channels,
            },
        ],
        shortcut,
    }
}

/// Builds ResNet-18 (CIFAR variant: 3×3 stem, four stages of two basic blocks),
/// the other CIFAR-100 model in Table I and the CIFAR-10 model of Fig. 5.
pub fn resnet18(config: &ModelConfig) -> NetworkSpec {
    let widths = [
        config.scale(64),
        config.scale(128),
        config.scale(256),
        config.scale(512),
    ];
    let mut spatial = Spatial {
        h: config.height,
        w: config.width,
    };
    let mut blocks = Vec::with_capacity(4);

    // Block 0: stem + stage 1 (no down-sampling).
    let mut block0 = vec![
        LayerSpec::Conv2d {
            in_channels: config.in_channels,
            out_channels: widths[0],
            kernel: 3,
            stride: 1,
            padding: 1,
        },
        LayerSpec::BatchNorm2d {
            channels: widths[0],
        },
        LayerSpec::Relu,
    ];
    block0.push(basic_block(widths[0], widths[0], 1));
    block0.push(basic_block(widths[0], widths[0], 1));
    blocks.push(block0);

    // Blocks 1..3: stages 2-4, each starting with a (possibly) strided block.
    let mut in_channels = widths[0];
    for &out_channels in &widths[1..] {
        let stride = if spatial.can_halve() { 2 } else { 1 };
        if stride == 2 {
            spatial.halve();
        }
        let block = vec![
            basic_block(in_channels, out_channels, stride),
            basic_block(out_channels, out_channels, 1),
        ];
        blocks.push(block);
        in_channels = out_channels;
    }

    let head = vec![
        LayerSpec::GlobalAvgPool2d,
        LayerSpec::Dense {
            in_features: widths[3],
            out_features: config.classes,
        },
    ];
    NetworkSpec::single_exit(
        "resnet18",
        config.in_channels,
        config.height,
        config.width,
        config.classes,
        blocks,
        head,
    )
}

/// Named architecture selector used by the framework's configuration surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// LeNet-5.
    LeNet5,
    /// VGG-11.
    Vgg11,
    /// VGG-19.
    Vgg19,
    /// ResNet-18.
    ResNet18,
}

impl Architecture {
    /// Builds the architecture's [`NetworkSpec`] for a configuration.
    pub fn spec(self, config: &ModelConfig) -> NetworkSpec {
        match self {
            Architecture::LeNet5 => lenet5(config),
            Architecture::Vgg11 => vgg11(config),
            Architecture::Vgg19 => vgg19(config),
            Architecture::ResNet18 => resnet18(config),
        }
    }

    /// All architectures evaluated in the paper.
    pub fn all() -> [Architecture; 4] {
        [
            Architecture::LeNet5,
            Architecture::Vgg11,
            Architecture::Vgg19,
            Architecture::ResNet18,
        ]
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Architecture::LeNet5 => "lenet5",
            Architecture::Vgg11 => "vgg11",
            Architecture::Vgg19 => "vgg19",
            Architecture::ResNet18 => "resnet18",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::layer::Mode;
    use bnn_nn::network::Network;
    use bnn_tensor::Tensor;

    #[test]
    fn lenet5_validates_at_mnist_resolution() {
        let spec = lenet5(&ModelConfig::mnist());
        spec.validate().unwrap();
        assert_eq!(spec.blocks.len(), 2);
        assert_eq!(spec.num_exits(), 1);
        // Classic LeNet-5 parameter count (within the right order of magnitude).
        let params = spec.param_count();
        assert!(params > 40_000 && params < 80_000, "params {params}");
    }

    #[test]
    fn lenet5_handles_small_resolutions() {
        let spec = lenet5(
            &ModelConfig::mnist()
                .with_resolution(12, 12)
                .with_width_divisor(2),
        );
        spec.validate().unwrap();
    }

    #[test]
    fn vgg_blocks_separated_by_pooling() {
        let spec = vgg11(&ModelConfig::svhn().with_width_divisor(8));
        spec.validate().unwrap();
        assert_eq!(spec.blocks.len(), 5);
        let spec = vgg19(&ModelConfig::cifar100().with_width_divisor(8));
        spec.validate().unwrap();
        assert_eq!(spec.blocks.len(), 5);
        // VGG-19 has 16 conv layers
        let conv_count: usize = spec
            .blocks
            .iter()
            .flatten()
            .filter(|l| matches!(l, LayerSpec::Conv2d { .. }))
            .count();
        assert_eq!(conv_count, 16);
    }

    #[test]
    fn resnet18_has_four_stages_and_eight_blocks() {
        let spec = resnet18(&ModelConfig::cifar10().with_width_divisor(8));
        spec.validate().unwrap();
        assert_eq!(spec.blocks.len(), 4);
        let residual_count: usize = spec
            .blocks
            .iter()
            .flatten()
            .filter(|l| matches!(l, LayerSpec::Residual { .. }))
            .count();
        assert_eq!(residual_count, 8);
    }

    #[test]
    fn full_width_resnet18_flops_are_in_the_expected_range() {
        // Reference ResNet-18 on 32x32 inputs is ~0.56 GMAC ~= 1.1 GFLOPs.
        let spec = resnet18(&ModelConfig::cifar10());
        let flops = spec.total_flops().unwrap();
        assert!(
            (500_000_000..2_500_000_000).contains(&flops),
            "flops {flops}"
        );
    }

    #[test]
    fn width_divisor_reduces_flops_and_params() {
        let full = vgg11(&ModelConfig::svhn());
        let slim = vgg11(&ModelConfig::svhn().with_width_divisor(4));
        assert!(slim.total_flops().unwrap() < full.total_flops().unwrap() / 4);
        assert!(slim.param_count() < full.param_count() / 4);
    }

    #[test]
    fn multi_exit_transformations_apply_to_all_architectures() {
        let config = ModelConfig::cifar10()
            .with_resolution(16, 16)
            .with_width_divisor(8);
        for arch in Architecture::all() {
            let spec = arch
                .spec(&config)
                .with_exits_after_every_block()
                .unwrap()
                .with_exit_mcd(0.25)
                .unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.num_exits(), spec.blocks.len());
            assert_eq!(spec.mcd_layer_count(), spec.num_exits());
        }
    }

    #[test]
    fn small_runtime_models_forward_correct_shapes() {
        let config = ModelConfig::cifar10()
            .with_resolution(16, 16)
            .with_width_divisor(16);
        for arch in [
            Architecture::LeNet5,
            Architecture::ResNet18,
            Architecture::Vgg11,
        ] {
            let spec = arch.spec(&config).with_exits_after_every_block().unwrap();
            let mut net = spec.build(1).unwrap();
            let x = Tensor::ones(&[2, 3, 16, 16]);
            let exits = net.forward_exits(&x, Mode::Eval).unwrap();
            assert_eq!(exits.len(), spec.num_exits(), "{arch}");
            for logits in exits {
                assert_eq!(logits.dims(), &[2, 10]);
            }
        }
    }

    #[test]
    fn spec_shapes_match_the_forward_pass() {
        // The spec is the only static description of shapes: its block
        // shapes must be what the built network's backbone produces, and
        // every exit must emit [n, classes] logits, plain and multi-exit MCD.
        let config = ModelConfig::cifar10()
            .with_resolution(16, 16)
            .with_width_divisor(16);
        for arch in Architecture::all() {
            let plain = arch.spec(&config);
            let multi_exit = plain
                .clone()
                .with_exits_after_every_block()
                .unwrap()
                .with_exit_mcd(0.25)
                .unwrap();
            for spec in [plain, multi_exit] {
                let shapes = spec.block_output_shapes().unwrap();
                let mut net = spec.build(1).unwrap();
                for n in [1, 3] {
                    let x = Tensor::ones(&[n, 3, 16, 16]);
                    let activations = net.forward_backbone(&x, Mode::Eval).unwrap();
                    assert_eq!(activations.len(), shapes.len(), "{}", spec.name);
                    for (act, shape) in activations.iter().zip(&shapes) {
                        assert_eq!(act.dims()[0], n);
                        assert_eq!(&act.dims()[1..], &shape.dims()[1..], "{}", spec.name);
                    }
                    let logits = net
                        .forward_exits_from_activations(&activations, Mode::McSample)
                        .unwrap();
                    assert_eq!(logits.len(), spec.num_exits(), "{}", spec.name);
                    for exit in logits {
                        assert_eq!(exit.dims(), &[n, spec.classes], "{}", spec.name);
                    }
                }
            }
        }
    }

    #[test]
    fn architecture_display_names() {
        assert_eq!(Architecture::LeNet5.to_string(), "lenet5");
        assert_eq!(Architecture::ResNet18.to_string(), "resnet18");
        assert_eq!(Architecture::all().len(), 4);
    }

    #[test]
    fn exit_flops_are_small_relative_to_backbone() {
        // alpha = exit FLOPs / backbone FLOPs should be well below 1 for the
        // default GAP+dense exits (this is what makes Eq. 3's reduction large).
        let spec = resnet18(&ModelConfig::cifar100().with_width_divisor(4))
            .with_exits_after_every_block()
            .unwrap();
        let report = spec.flop_report().unwrap();
        assert!(report.alpha() < 0.1, "alpha {}", report.alpha());
    }
}
