//! Architecture specifications.
//!
//! A [`NetworkSpec`] is a symbolic description of a (possibly multi-exit) CNN:
//! an ordered list of backbone blocks (separated at pooling boundaries, the
//! paper's "semantic groupings") plus one exit branch per attachment point.
//! Specs support shape propagation, FLOP/parameter accounting, the multi-exit
//! and MCD structural transformations, and instantiation into a trainable
//! [`MultiExitNetwork`].

use crate::error::ModelError;
use crate::multi_exit::MultiExitNetwork;
use crate::residual::ResidualBlock;
use bnn_nn::flops::FlopReport;
use bnn_nn::layers::activation::Relu;
use bnn_nn::layers::batchnorm::BatchNorm2d;
use bnn_nn::layers::conv2d::Conv2d;
use bnn_nn::layers::dense::Dense;
use bnn_nn::layers::dropout::McDropout;
use bnn_nn::layers::flatten::Flatten;
use bnn_nn::layers::pool::{GlobalAvgPool2d, MaxPool2d};
use bnn_nn::Layer;
use bnn_nn::Sequential;
use bnn_tensor::Shape;

/// Symbolic description of a single layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution.
    Conv2d {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Fully connected layer.
    Dense {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Batch normalisation over channels.
    BatchNorm2d {
        /// Number of channels.
        channels: usize,
    },
    /// ReLU activation.
    Relu,
    /// Max pooling.
    MaxPool2d {
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling (`[n,c,h,w] -> [n,c]`).
    GlobalAvgPool2d,
    /// Flatten to `[n, features]`.
    Flatten,
    /// Monte-Carlo Dropout (stochastic at inference).
    McDropout {
        /// Drop probability.
        rate: f64,
    },
    /// Residual basic block: `relu(main(x) + shortcut(x))`. An empty shortcut
    /// means an identity skip connection.
    Residual {
        /// Main path layers.
        main: Vec<LayerSpec>,
        /// Shortcut path layers (empty for identity).
        shortcut: Vec<LayerSpec>,
    },
}

/// Walks a chain of layers from `input`, handing each layer to `visit` with
/// its input shape, and returns the chain's output shape. Blocks, exit
/// branches and the two paths of a residual block are all such chains.
///
/// # Errors
///
/// Returns [`ModelError::InvalidSpec`] at the first layer that rejects its
/// input shape (that layer has already been visited).
pub fn walk_chain(
    layers: &[LayerSpec],
    input: &Shape,
    mut visit: impl FnMut(&LayerSpec, &Shape),
) -> Result<Shape, ModelError> {
    layers.iter().try_fold(input.clone(), |shape, layer| {
        visit(layer, &shape);
        layer.output_shape(&shape)
    })
}

impl LayerSpec {
    /// Output shape of the layer for a given input shape — the one shape rule
    /// every static cost (FLOPs, MACs, the hardware estimate) is priced on.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if the input shape is incompatible,
    /// or if a convolution or pool has a zero kernel or stride.
    pub fn output_shape(&self, input: &Shape) -> Result<Shape, ModelError> {
        let bad = |expected: &str| {
            ModelError::InvalidSpec(format!(
                "layer {self:?} got input {input} but expects {expected}"
            ))
        };
        let positive_window = |kernel: usize, stride: usize| {
            if kernel == 0 || stride == 0 {
                Err(ModelError::InvalidSpec(format!(
                    "layer {self:?} needs a positive kernel and stride"
                )))
            } else {
                Ok(())
            }
        };
        match *self {
            LayerSpec::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                positive_window(kernel, stride)?;
                let (n, c, h, w) = input.as_nchw().map_err(|_| bad("rank-4 NCHW"))?;
                if c != in_channels {
                    return Err(bad(&format!("{in_channels} input channels")));
                }
                if h + 2 * padding < kernel || w + 2 * padding < kernel {
                    return Err(bad("spatial size >= kernel"));
                }
                let oh = (h + 2 * padding - kernel) / stride + 1;
                let ow = (w + 2 * padding - kernel) / stride + 1;
                Ok(Shape::new(vec![n, out_channels, oh, ow]))
            }
            LayerSpec::Dense {
                in_features,
                out_features,
            } => {
                let (n, f) = input
                    .as_matrix()
                    .map_err(|_| bad("rank-2 [batch, features]"))?;
                if f != in_features {
                    return Err(bad(&format!("{in_features} input features")));
                }
                Ok(Shape::new(vec![n, out_features]))
            }
            LayerSpec::BatchNorm2d { channels } => {
                let (_, c, _, _) = input.as_nchw().map_err(|_| bad("rank-4 NCHW"))?;
                if c != channels {
                    return Err(bad(&format!("{channels} channels")));
                }
                Ok(input.clone())
            }
            LayerSpec::Relu | LayerSpec::McDropout { .. } => Ok(input.clone()),
            LayerSpec::MaxPool2d { kernel, stride } => {
                positive_window(kernel, stride)?;
                let (n, c, h, w) = input.as_nchw().map_err(|_| bad("rank-4 NCHW"))?;
                if h < kernel || w < kernel {
                    return Err(bad("spatial size >= kernel"));
                }
                let oh = (h - kernel) / stride + 1;
                let ow = (w - kernel) / stride + 1;
                Ok(Shape::new(vec![n, c, oh, ow]))
            }
            LayerSpec::GlobalAvgPool2d => {
                let (n, c, _, _) = input.as_nchw().map_err(|_| bad("rank-4 NCHW"))?;
                Ok(Shape::new(vec![n, c]))
            }
            LayerSpec::Flatten => {
                if input.rank() < 2 {
                    return Err(bad("rank >= 2"));
                }
                let n = input.dim(0);
                let rest: usize = input.dims()[1..].iter().product();
                Ok(Shape::new(vec![n, rest]))
            }
            LayerSpec::Residual {
                ref main,
                ref shortcut,
            } => {
                let main_out = walk_chain(main, input, |_, _| {})?;
                let short_out = walk_chain(shortcut, input, |_, _| {})?;
                if main_out != short_out {
                    return Err(ModelError::InvalidSpec(format!(
                        "residual paths disagree: main {main_out} vs shortcut {short_out}"
                    )));
                }
                Ok(main_out)
            }
        }
    }

    /// Forward FLOPs of the layer for a given input shape, counting one MAC
    /// as two FLOPs (the paper's convention); 0 if the shape does not
    /// propagate.
    pub fn flops(&self, input: &Shape) -> u64 {
        let Ok(output) = self.output_shape(input) else {
            return 0;
        };
        let (in_len, out_len) = (input.len() as u64, output.len() as u64);
        match *self {
            // Two FLOPs per MAC plus one bias add per output element.
            LayerSpec::Conv2d {
                in_channels,
                kernel,
                ..
            } => out_len * (2 * (kernel * kernel * in_channels) as u64 + 1),
            LayerSpec::Dense { in_features, .. } => out_len * (2 * in_features as u64 + 1),
            // Normalise (subtract, multiply) + affine (multiply, add) per element.
            LayerSpec::BatchNorm2d { .. } => 4 * in_len,
            LayerSpec::Relu | LayerSpec::GlobalAvgPool2d => in_len,
            LayerSpec::MaxPool2d { kernel, .. } => out_len * (kernel * kernel) as u64,
            LayerSpec::Flatten => 0,
            // The paper's Algorithm 1: one RNG draw, one compare and one
            // multiply per element.
            LayerSpec::McDropout { .. } => 3 * in_len,
            LayerSpec::Residual {
                ref main,
                ref shortcut,
            } => {
                // add + relu after the merge
                let mut total = 2 * out_len;
                for path in [main, shortcut] {
                    // Both paths propagate: the block's output shape did.
                    let _ = walk_chain(path, input, |layer, shape| total += layer.flops(shape));
                }
                total
            }
        }
    }

    /// Number of trainable parameters of the layer.
    pub fn param_count(&self) -> usize {
        match *self {
            LayerSpec::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => in_channels * out_channels * kernel * kernel + out_channels,
            LayerSpec::Dense {
                in_features,
                out_features,
            } => in_features * out_features + out_features,
            LayerSpec::BatchNorm2d { channels } => 2 * channels,
            LayerSpec::Residual {
                ref main,
                ref shortcut,
            } => {
                main.iter().map(LayerSpec::param_count).sum::<usize>()
                    + shortcut.iter().map(LayerSpec::param_count).sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Returns `true` for Monte-Carlo Dropout layers (including those nested
    /// inside residual blocks).
    pub fn is_mc_dropout(&self) -> bool {
        match self {
            LayerSpec::McDropout { .. } => true,
            LayerSpec::Residual { main, shortcut } => {
                main.iter().any(LayerSpec::is_mc_dropout)
                    || shortcut.iter().any(LayerSpec::is_mc_dropout)
            }
            _ => false,
        }
    }

    /// Returns `true` for layers that carry weights (convolution and dense),
    /// which is where MCD insertion points are anchored.
    pub fn is_weight_layer(&self) -> bool {
        matches!(self, LayerSpec::Conv2d { .. } | LayerSpec::Dense { .. })
    }

    /// Returns `true` for layers after which an MCD layer can be inserted by
    /// [`NetworkSpec::with_mcd_layers`]: weight layers and whole residual
    /// blocks (MCD is applied to a residual block's output feature map, which
    /// keeps the skip connection deterministic within the block).
    pub fn is_mcd_insertion_point(&self) -> bool {
        self.is_weight_layer() || matches!(self, LayerSpec::Residual { .. })
    }

    /// Instantiates the runtime layer. `seed` is advanced so every weight layer
    /// receives a distinct deterministic seed.
    ///
    /// # Errors
    ///
    /// Propagates layer construction errors.
    pub fn build(&self, seed: &mut u64) -> Result<Box<dyn Layer>, ModelError> {
        let next_seed = |seed: &mut u64| {
            *seed = seed.wrapping_add(1);
            *seed
        };
        Ok(match *self {
            LayerSpec::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            } => Box::new(Conv2d::new(
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                next_seed(seed),
            )?),
            LayerSpec::Dense {
                in_features,
                out_features,
            } => Box::new(Dense::new(in_features, out_features, next_seed(seed))?),
            LayerSpec::BatchNorm2d { channels } => Box::new(BatchNorm2d::new(channels)?),
            LayerSpec::Relu => Box::new(Relu::new()),
            LayerSpec::MaxPool2d { kernel, stride } => Box::new(MaxPool2d::new(kernel, stride)?),
            LayerSpec::GlobalAvgPool2d => Box::new(GlobalAvgPool2d::new()),
            LayerSpec::Flatten => Box::new(Flatten::new()),
            LayerSpec::McDropout { rate } => Box::new(McDropout::new(rate, next_seed(seed))?),
            LayerSpec::Residual {
                ref main,
                ref shortcut,
            } => {
                let mut main_seq = Sequential::new("residual_main");
                for l in main {
                    main_seq.push_boxed(l.build(seed)?);
                }
                let mut short_seq = Sequential::new("residual_shortcut");
                for l in shortcut {
                    short_seq.push_boxed(l.build(seed)?);
                }
                Box::new(ResidualBlock::new(main_seq, short_seq))
            }
        })
    }
}

/// An exit branch attached to the backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitSpec {
    /// Index of the backbone block after which this exit is attached.
    pub after_block: usize,
    /// Layers of the exit branch, ending in a `[batch, classes]` output.
    pub layers: Vec<LayerSpec>,
}

/// Where a layer sits in a [`NetworkSpec`], as [`NetworkSpec::walk`] hands
/// it over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerPlace {
    /// Backbone block `b`.
    Block(usize),
    /// Exit branch `exit`, attached after backbone block `after_block`.
    Exit {
        /// Index of the exit.
        exit: usize,
        /// Backbone block whose output the exit reads.
        after_block: usize,
    },
}

/// Batch-1 output shapes of every backbone block and exit branch, as
/// [`NetworkSpec::walk`] returns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecShapes {
    /// Output shape of each backbone block.
    pub blocks: Vec<Shape>,
    /// Output shape of each exit branch.
    pub exits: Vec<Shape>,
}

/// Symbolic description of a (possibly multi-exit) network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Model name.
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Backbone blocks, separated at pooling boundaries.
    pub blocks: Vec<Vec<LayerSpec>>,
    /// Exit branches, sorted by `after_block`; the last entry must be attached
    /// after the final block (it is the network's original classifier head).
    pub exits: Vec<ExitSpec>,
}

impl NetworkSpec {
    /// Creates a single-exit spec from backbone blocks and a classifier head.
    pub fn single_exit(
        name: impl Into<String>,
        in_channels: usize,
        height: usize,
        width: usize,
        classes: usize,
        blocks: Vec<Vec<LayerSpec>>,
        head: Vec<LayerSpec>,
    ) -> Self {
        let after_block = blocks.len().saturating_sub(1);
        NetworkSpec {
            name: name.into(),
            in_channels,
            height,
            width,
            classes,
            blocks,
            exits: vec![ExitSpec {
                after_block,
                layers: head,
            }],
        }
    }

    /// Input shape for a batch of `n` samples.
    pub fn input_shape(&self, n: usize) -> Shape {
        Shape::new(vec![n, self.in_channels, self.height, self.width])
    }

    /// Number of exits (including the final classifier head).
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// Number of Monte-Carlo Dropout layers anywhere in the network.
    pub fn mcd_layer_count(&self) -> usize {
        let in_blocks: usize = self
            .blocks
            .iter()
            .flatten()
            .filter(|l| l.is_mc_dropout())
            .count();
        let in_exits: usize = self
            .exits
            .iter()
            .flat_map(|e| &e.layers)
            .filter(|l| l.is_mc_dropout())
            .count();
        in_blocks + in_exits
    }

    /// The one static pass over the network at batch size 1, which every
    /// static shape and cost (FLOPs here, MACs and the hardware estimate in
    /// `bnn-hw`) folds over. Hands each layer to `visit` with its place and
    /// input shape — the backbone blocks in order, then each exit from the
    /// output of the block it is attached after — and returns the output
    /// shape of every block and exit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if an exit is attached after a
    /// block that does not exist or a shape does not propagate.
    pub fn walk(
        &self,
        mut visit: impl FnMut(LayerPlace, &LayerSpec, &Shape),
    ) -> Result<SpecShapes, ModelError> {
        let mut shape = self.input_shape(1);
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (b, block) in self.blocks.iter().enumerate() {
            shape = walk_chain(block, &shape, |layer, input| {
                visit(LayerPlace::Block(b), layer, input)
            })?;
            blocks.push(shape.clone());
        }
        let mut exits = Vec::with_capacity(self.exits.len());
        for (exit, branch) in self.exits.iter().enumerate() {
            let after_block = branch.after_block;
            let attach = blocks.get(after_block).ok_or_else(|| {
                ModelError::InvalidSpec(format!(
                    "exit {exit} attached after block {after_block} but there are only {} blocks",
                    self.blocks.len()
                ))
            })?;
            let place = LayerPlace::Exit { exit, after_block };
            exits.push(walk_chain(&branch.layers, attach, |layer, input| {
                visit(place, layer, input)
            })?);
        }
        Ok(SpecShapes { blocks, exits })
    }

    /// Shape at the output of each backbone block for batch size 1.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if shapes do not propagate.
    pub fn block_output_shapes(&self) -> Result<Vec<Shape>, ModelError> {
        Ok(self.walk(|_, _, _| {})?.blocks)
    }

    /// Validates that every block and exit propagates shapes and produces
    /// `[1, classes]` logits at each exit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.blocks.is_empty() {
            return Err(ModelError::InvalidSpec(
                "network has no backbone blocks".into(),
            ));
        }
        let Some(final_exit) = self.exits.last() else {
            return Err(ModelError::InvalidSpec("network has no exits".into()));
        };
        if self
            .exits
            .windows(2)
            .any(|pair| pair[1].after_block < pair[0].after_block)
        {
            return Err(ModelError::InvalidSpec(
                "exits must be sorted by attachment block".into(),
            ));
        }
        let shapes = self.walk(|_, _, _| {})?;
        for (i, out) in shapes.exits.iter().enumerate() {
            if out.dims() != [1, self.classes] {
                return Err(ModelError::InvalidSpec(format!(
                    "exit {i} produces shape {out}, expected (1, {})",
                    self.classes
                )));
            }
        }
        if final_exit.after_block != self.blocks.len() - 1 {
            return Err(ModelError::InvalidSpec(
                "the last exit must be attached after the final block".into(),
            ));
        }
        Ok(())
    }

    /// FLOP breakdown into backbone ("main body") and per-exit branches for
    /// batch size 1, matching the paper's Eq. 1–3 notation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if an exit is attached after a
    /// missing block or shapes do not propagate.
    pub fn flop_report(&self) -> Result<FlopReport, ModelError> {
        let mut main = 0u64;
        let mut exits = vec![0u64; self.exits.len()];
        self.walk(|place, layer, input| {
            let flops = layer.flops(input);
            match place {
                LayerPlace::Block(_) => main += flops,
                LayerPlace::Exit { exit, .. } => exits[exit] += flops,
            }
        })?;
        Ok(FlopReport::new(main, exits))
    }

    /// Total FLOPs of one forward pass through the backbone and every exit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if shapes do not propagate.
    pub fn total_flops(&self) -> Result<u64, ModelError> {
        Ok(self.flop_report()?.total())
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        let blocks: usize = self
            .blocks
            .iter()
            .flatten()
            .map(LayerSpec::param_count)
            .sum();
        let exits: usize = self
            .exits
            .iter()
            .flat_map(|e| &e.layers)
            .map(LayerSpec::param_count)
            .sum();
        blocks + exits
    }

    /// Returns a copy with an early exit attached after every backbone block
    /// (the paper's multi-exit construction: one exit per pooling-separated
    /// block, each a global-average-pool + dense classifier).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if shapes do not propagate.
    pub fn with_exits_after_every_block(mut self) -> Result<Self, ModelError> {
        let block_shapes = self.block_output_shapes()?;
        let final_exit = self
            .exits
            .pop()
            .ok_or_else(|| ModelError::InvalidSpec("network has no exits".into()))?;
        let mut exits = Vec::with_capacity(self.blocks.len());
        for (i, shape) in block_shapes.iter().enumerate() {
            if i == self.blocks.len() - 1 {
                break;
            }
            let layers = default_exit_branch(shape, self.classes)?;
            exits.push(ExitSpec {
                after_block: i,
                layers,
            });
        }
        exits.push(final_exit);
        self.exits = exits;
        self.name = format!("{}-me", self.name);
        Ok(self)
    }

    /// Returns a copy with a Monte-Carlo Dropout layer inserted at the start of
    /// every exit branch (the paper's MCD+ME construction: MCD placed as close
    /// to each exit as possible so backbone activations can be cached and
    /// reused across MC samples).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if the rate is outside `[0, 1)`.
    pub fn with_exit_mcd(mut self, rate: f64) -> Result<Self, ModelError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(ModelError::InvalidSpec(format!(
                "dropout rate must be in [0, 1), got {rate}"
            )));
        }
        for exit in &mut self.exits {
            exit.layers.insert(0, LayerSpec::McDropout { rate });
        }
        self.name = format!("{}-mcd", self.name);
        Ok(self)
    }

    /// Returns a copy with `count` Monte-Carlo Dropout layers inserted after
    /// the last `count` weight layers (convolution or dense), walking backwards
    /// from the final exit towards the input — the paper's "insert MCD layers
    /// starting from exits towards the input" policy, also used for the Fig. 5
    /// resource sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if the rate is invalid or `count`
    /// exceeds the number of weight layers.
    pub fn with_mcd_layers(mut self, count: usize, rate: f64) -> Result<Self, ModelError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(ModelError::InvalidSpec(format!(
                "dropout rate must be in [0, 1), got {rate}"
            )));
        }
        // Collect insertion points as (segment, index) pairs, in network order.
        // Segments: blocks first, then the final exit branch.
        let final_exit_index = self.exits.len() - 1;
        let mut positions: Vec<(usize, usize)> = Vec::new();
        for (b, block) in self.blocks.iter().enumerate() {
            for (i, layer) in block.iter().enumerate() {
                if layer.is_mcd_insertion_point() {
                    positions.push((b, i));
                }
            }
        }
        let exit_segment = self.blocks.len();
        for (i, layer) in self.exits[final_exit_index].layers.iter().enumerate() {
            if layer.is_mcd_insertion_point() {
                positions.push((exit_segment, i));
            }
        }
        if count > positions.len() {
            return Err(ModelError::InvalidSpec(format!(
                "requested {count} MCD layers but the network only has {} weight layers",
                positions.len()
            )));
        }
        // Insert after the last `count` weight layers, processing from the back
        // so earlier indices stay valid.
        let selected: Vec<(usize, usize)> = positions.iter().rev().take(count).copied().collect();
        for (segment, index) in selected {
            if segment == exit_segment {
                self.exits[final_exit_index]
                    .layers
                    .insert(index + 1, LayerSpec::McDropout { rate });
            } else {
                self.blocks[segment].insert(index + 1, LayerSpec::McDropout { rate });
            }
        }
        if count > 0 {
            self.name = format!("{}-mcd{count}", self.name);
        }
        Ok(self)
    }

    /// Instantiates the runtime multi-exit network with deterministic weights
    /// derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec is invalid or layer construction fails.
    pub fn build(&self, seed: u64) -> Result<MultiExitNetwork, ModelError> {
        self.validate()?;
        MultiExitNetwork::from_spec(self, seed)
    }
}

/// The default exit branch used by the multi-exit transformation: global
/// average pooling followed by a dense classifier.
///
/// # Errors
///
/// Returns [`ModelError::InvalidSpec`] if the attachment shape is not NCHW or
/// `[batch, features]`.
pub fn default_exit_branch(attach: &Shape, classes: usize) -> Result<Vec<LayerSpec>, ModelError> {
    match attach.rank() {
        4 => {
            let channels = attach.dim(1);
            Ok(vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: channels,
                    out_features: classes,
                },
            ])
        }
        2 => Ok(vec![LayerSpec::Dense {
            in_features: attach.dim(1),
            out_features: classes,
        }]),
        _ => Err(ModelError::InvalidSpec(format!(
            "cannot attach an exit to a rank-{} tensor",
            attach.rank()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::layer::Mode;
    use bnn_tensor::Tensor;

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec::single_exit(
            "tiny",
            1,
            8,
            8,
            4,
            vec![
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 1,
                        out_channels: 4,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 4,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
            ],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 8,
                    out_features: 4,
                },
            ],
        )
    }

    #[test]
    fn shape_propagation_conv_pool_dense() {
        let spec = tiny_spec();
        let shapes = spec.block_output_shapes().unwrap();
        assert_eq!(shapes[0].dims(), &[1, 4, 4, 4]);
        assert_eq!(shapes[1].dims(), &[1, 8, 2, 2]);
        spec.validate().unwrap();
    }

    #[test]
    fn residual_spec_shapes() {
        let res = LayerSpec::Residual {
            main: vec![
                LayerSpec::Conv2d {
                    in_channels: 4,
                    out_channels: 8,
                    kernel: 3,
                    stride: 2,
                    padding: 1,
                },
                LayerSpec::BatchNorm2d { channels: 8 },
                LayerSpec::Relu,
                LayerSpec::Conv2d {
                    in_channels: 8,
                    out_channels: 8,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                LayerSpec::BatchNorm2d { channels: 8 },
            ],
            shortcut: vec![
                LayerSpec::Conv2d {
                    in_channels: 4,
                    out_channels: 8,
                    kernel: 1,
                    stride: 2,
                    padding: 0,
                },
                LayerSpec::BatchNorm2d { channels: 8 },
            ],
        };
        let out = res.output_shape(&Shape::new(vec![1, 4, 8, 8])).unwrap();
        assert_eq!(out.dims(), &[1, 8, 4, 4]);
        assert!(res.flops(&Shape::new(vec![1, 4, 8, 8])) > 0);
        assert!(res.param_count() > 0);
    }

    #[test]
    fn residual_mismatched_paths_rejected() {
        let res = LayerSpec::Residual {
            main: vec![LayerSpec::Conv2d {
                in_channels: 4,
                out_channels: 8,
                kernel: 3,
                stride: 2,
                padding: 1,
            }],
            shortcut: vec![],
        };
        assert!(res.output_shape(&Shape::new(vec![1, 4, 8, 8])).is_err());
    }

    #[test]
    fn spec_flops_match_runtime_layer_flops() {
        // The spec prices the runtime layer's own work: two FLOPs per use of
        // each weight (once per output position) plus one bias add per
        // output element, the output size taken from a real forward pass.
        let cases = [
            (
                LayerSpec::Conv2d {
                    in_channels: 16,
                    out_channels: 32,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                vec![1, 16, 8, 8],
            ),
            (
                LayerSpec::Dense {
                    in_features: 100,
                    out_features: 10,
                },
                vec![1, 100],
            ),
        ];
        for (spec, dims) in cases {
            let mut layer = spec.build(&mut 0).unwrap();
            let out = layer.forward(&Tensor::zeros(&dims), Mode::Eval).unwrap();
            let params = layer.params();
            let (weights, biases) = (params[0].len() as u64, params[1].len() as u64);
            let positions = out.len() as u64 / biases;
            assert_eq!(
                spec.flops(&Shape::new(dims)),
                2 * weights * positions + out.len() as u64
            );
        }
    }

    #[test]
    fn conv_flops_known_case() {
        // 3x3 conv, 16->32 channels, 8x8 output, batch 1:
        // MACs = 9*16*32*64, FLOPs = 2*MACs + bias adds (32*64)
        let conv = LayerSpec::Conv2d {
            in_channels: 16,
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let macs = 9u64 * 16 * 32 * 64;
        assert_eq!(
            conv.flops(&Shape::new(vec![1, 16, 8, 8])),
            2 * macs + 32 * 64
        );
    }

    #[test]
    fn dense_flops_formula() {
        let dense = LayerSpec::Dense {
            in_features: 100,
            out_features: 10,
        };
        assert_eq!(dense.flops(&Shape::new(vec![1, 100])), 2 * 100 * 10 + 10);
        assert_eq!(
            dense.flops(&Shape::new(vec![8, 100])),
            8 * (2 * 100 * 10 + 10)
        );
    }

    #[test]
    fn flatten_has_zero_flops() {
        assert_eq!(LayerSpec::Flatten.flops(&Shape::new(vec![2, 3, 4, 4])), 0);
    }

    #[test]
    fn zero_kernel_or_stride_is_a_typed_error() {
        let conv = |kernel, stride| LayerSpec::Conv2d {
            in_channels: 1,
            out_channels: 4,
            kernel,
            stride,
            padding: 1,
        };
        // (position in block 0, replacement): the conv sits at 0, the pool at 2.
        let cases = [
            (0, conv(3, 0)),
            (0, conv(0, 1)),
            (
                2,
                LayerSpec::MaxPool2d {
                    kernel: 2,
                    stride: 0,
                },
            ),
            (
                2,
                LayerSpec::MaxPool2d {
                    kernel: 0,
                    stride: 2,
                },
            ),
        ];
        for (index, bad) in cases {
            let mut spec = tiny_spec();
            spec.blocks[0][index] = bad;
            assert!(matches!(spec.validate(), Err(ModelError::InvalidSpec(_))));
            assert!(matches!(spec.build(0), Err(ModelError::InvalidSpec(_))));
            assert!(matches!(
                spec.flop_report(),
                Err(ModelError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn exit_after_a_missing_block_is_a_typed_error() {
        let mut spec = crate::zoo::lenet5(&crate::ModelConfig::mnist())
            .with_exits_after_every_block()
            .unwrap();
        spec.exits[0].after_block = spec.blocks.len();
        assert!(matches!(
            spec.flop_report(),
            Err(ModelError::InvalidSpec(_))
        ));
        assert!(matches!(
            spec.total_flops(),
            Err(ModelError::InvalidSpec(_))
        ));
        assert!(matches!(
            spec.walk(|_, _, _| {}),
            Err(ModelError::InvalidSpec(_))
        ));
    }

    #[test]
    fn walk_hands_over_every_layer_in_place_order() {
        let spec = tiny_spec().with_exits_after_every_block().unwrap();
        let mut places = Vec::new();
        let shapes = spec
            .walk(|place, _, input| places.push((place, input.clone())))
            .unwrap();
        let layers = spec.blocks.iter().map(Vec::len).sum::<usize>()
            + spec.exits.iter().map(|e| e.layers.len()).sum::<usize>();
        assert_eq!(places.len(), layers);
        assert_eq!(places[0], (LayerPlace::Block(0), spec.input_shape(1)));
        // The first exit reads block 0's output.
        let first_exit = places
            .iter()
            .find(|(p, _)| matches!(p, LayerPlace::Exit { .. }))
            .unwrap();
        assert_eq!(
            *first_exit,
            (
                LayerPlace::Exit {
                    exit: 0,
                    after_block: 0
                },
                shapes.blocks[0].clone()
            )
        );
        assert_eq!(shapes.blocks, spec.block_output_shapes().unwrap());
        assert!(shapes.exits.iter().all(|s| s.dims() == [1, spec.classes]));
    }

    #[test]
    fn param_counts() {
        let conv = LayerSpec::Conv2d {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(conv.param_count(), 3 * 8 * 9 + 8);
        let bn = LayerSpec::BatchNorm2d { channels: 16 };
        assert_eq!(bn.param_count(), 32);
        assert_eq!(LayerSpec::Relu.param_count(), 0);
    }

    #[test]
    fn flop_report_splits_backbone_and_exits() {
        let spec = tiny_spec();
        let report = spec.flop_report().unwrap();
        assert_eq!(report.num_exits(), 1);
        assert!(report.main_body > 0);
        assert!(report.exits[0] > 0);
        assert_eq!(report.total(), spec.total_flops().unwrap());
    }

    #[test]
    fn multi_exit_transformation_adds_exits() {
        let spec = tiny_spec().with_exits_after_every_block().unwrap();
        assert_eq!(spec.num_exits(), 2);
        spec.validate().unwrap();
        // early exit attached after block 0, final exit after block 1
        assert_eq!(spec.exits[0].after_block, 0);
        assert_eq!(spec.exits[1].after_block, 1);
        assert!(spec.name.ends_with("-me"));
    }

    #[test]
    fn exit_mcd_inserts_one_per_exit() {
        let spec = tiny_spec()
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap();
        assert_eq!(spec.mcd_layer_count(), 2);
        for exit in &spec.exits {
            assert!(matches!(exit.layers[0], LayerSpec::McDropout { .. }));
        }
        spec.validate().unwrap();
        assert!(tiny_spec().with_exit_mcd(1.5).is_err());
    }

    #[test]
    fn mcd_layers_inserted_from_exit_backwards() {
        let spec = tiny_spec().with_mcd_layers(2, 0.5).unwrap();
        assert_eq!(spec.mcd_layer_count(), 2);
        spec.validate().unwrap();
        // The dense in the head and the conv in the last block are the last two
        // weight layers, so MCD must appear in the head and in block 1.
        let head_has_mcd = spec.exits[0].layers.iter().any(|l| l.is_mc_dropout());
        let block1_has_mcd = spec.blocks[1].iter().any(|l| l.is_mc_dropout());
        let block0_has_mcd = spec.blocks[0].iter().any(|l| l.is_mc_dropout());
        assert!(head_has_mcd);
        assert!(block1_has_mcd);
        assert!(!block0_has_mcd);
        // Requesting more MCD layers than weight layers fails.
        assert!(tiny_spec().with_mcd_layers(10, 0.5).is_err());
    }

    #[test]
    fn validation_catches_bad_exits() {
        let mut spec = tiny_spec();
        spec.exits[0].after_block = 5;
        assert!(spec.validate().is_err());
        let mut spec = tiny_spec();
        spec.exits[0].layers = vec![LayerSpec::GlobalAvgPool2d];
        assert!(spec.validate().is_err());
        let mut spec = tiny_spec();
        spec.blocks.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn default_exit_branch_shapes() {
        let branch = default_exit_branch(&Shape::new(vec![1, 32, 8, 8]), 10).unwrap();
        assert_eq!(branch.len(), 2);
        let out = walk_chain(&branch, &Shape::new(vec![1, 32, 8, 8]), |_, _| {}).unwrap();
        assert_eq!(out.dims(), &[1, 10]);
        let branch = default_exit_branch(&Shape::new(vec![1, 64]), 10).unwrap();
        let out = walk_chain(&branch, &Shape::new(vec![1, 64]), |_, _| {}).unwrap();
        assert_eq!(out.dims(), &[1, 10]);
        assert!(default_exit_branch(&Shape::new(vec![64]), 10).is_err());
    }

    #[test]
    fn layer_build_produces_runtime_layers() {
        let mut seed = 0u64;
        let specs = vec![
            LayerSpec::Conv2d {
                in_channels: 1,
                out_channels: 2,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            LayerSpec::BatchNorm2d { channels: 2 },
            LayerSpec::Relu,
            LayerSpec::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            LayerSpec::GlobalAvgPool2d,
            LayerSpec::Flatten,
            LayerSpec::McDropout { rate: 0.5 },
            LayerSpec::Dense {
                in_features: 4,
                out_features: 2,
            },
        ];
        for spec in &specs {
            let layer = spec.build(&mut seed).unwrap();
            assert!(!layer.name().is_empty());
        }
    }
}
