//! Runtime residual basic block (`relu(main(x) + shortcut(x))`).

use bnn_nn::layer::{Layer, Mode, Param};
use bnn_nn::{NnError, Sequential};
use bnn_tensor::Tensor;

/// A residual block with a main path, an optional projection shortcut and a
/// ReLU applied after the merge — the ResNet "basic block".
///
/// An empty shortcut [`Sequential`] means an identity skip connection.
#[derive(Debug)]
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Sequential,
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a residual block from its two paths.
    pub fn new(main: Sequential, shortcut: Sequential) -> Self {
        ResidualBlock {
            main,
            shortcut,
            relu_mask: None,
        }
    }

    /// Whether the skip connection is an identity (no projection layers).
    pub fn is_identity_shortcut(&self) -> bool {
        self.shortcut.is_empty()
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &str {
        "residual_block"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let main_out = self.main.forward(input, mode)?;
        let short_out = if self.shortcut.is_empty() {
            input.clone()
        } else {
            self.shortcut.forward(input, mode)?
        };
        let sum = main_out.add(&short_out)?;
        let mask: Vec<bool> = sum.as_slice().iter().map(|&v| v > 0.0).collect();
        let out = sum.map(|v| if v > 0.0 { v } else { 0.0 });
        self.relu_mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .relu_mask
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "residual_block".into(),
            })?;
        let mut grad_sum = grad_output.clone();
        // A select, not a branch: see `Relu::backward`.
        for (g, &keep) in grad_sum.as_mut_slice().iter_mut().zip(mask) {
            *g = if keep { *g } else { 0.0 };
        }
        let grad_main = self.main.backward(&grad_sum)?;
        let grad_short = if self.shortcut.is_empty() {
            grad_sum
        } else {
            self.shortcut.backward(&grad_sum)?
        };
        grad_main.add(&grad_short).map_err(NnError::from)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.main.params_mut();
        params.extend(self.shortcut.params_mut());
        params
    }

    fn params(&self) -> Vec<&Param> {
        let mut params = Layer::params(&self.main);
        params.extend(Layer::params(&self.shortcut));
        params
    }

    fn reseed_mc_streams(&mut self, streams: &mut bnn_tensor::rng::SplitMix64) {
        Layer::reseed_mc_streams(&mut self.main, streams);
        Layer::reseed_mc_streams(&mut self.shortcut, streams);
    }

    fn lowering(&self) -> bnn_nn::LayerLowering {
        let unwrap_seq = |lowered| match lowered {
            bnn_nn::LayerLowering::Sequence(ops) => ops,
            other => vec![other],
        };
        bnn_nn::LayerLowering::Residual {
            main: unwrap_seq(Layer::lowering(&self.main)),
            shortcut: unwrap_seq(Layer::lowering(&self.shortcut)),
        }
    }

    fn state(&self) -> Vec<Vec<f32>> {
        let mut state = Layer::state(&self.main);
        state.extend(Layer::state(&self.shortcut));
        state
    }

    fn state_len(&self) -> usize {
        Layer::state_len(&self.main) + Layer::state_len(&self.shortcut)
    }

    fn set_state(&mut self, state: &[Vec<f32>]) -> Result<(), NnError> {
        let main_n = Layer::state_len(&self.main);
        if state.len() < main_n {
            return Err(NnError::InvalidConfig(format!(
                "residual block needs {main_n} main-path state tensor(s), got {}",
                state.len()
            )));
        }
        let (main_state, shortcut_state) = state.split_at(main_n);
        self.main.set_state(main_state)?;
        self.shortcut.set_state(shortcut_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{walk_chain, LayerSpec};
    use bnn_nn::layers::batchnorm::BatchNorm2d;
    use bnn_nn::layers::conv2d::Conv2d;
    use bnn_nn::prelude::Relu;
    use bnn_tensor::rng::Xoshiro256StarStar;
    use bnn_tensor::Shape;

    fn identity_block(channels: usize) -> ResidualBlock {
        let mut main = Sequential::new("main");
        main.push(Conv2d::new(channels, channels, 3, 1, 1, 1).unwrap());
        main.push(BatchNorm2d::new(channels).unwrap());
        main.push(Relu::new());
        main.push(Conv2d::new(channels, channels, 3, 1, 1, 2).unwrap());
        main.push(BatchNorm2d::new(channels).unwrap());
        ResidualBlock::new(main, Sequential::new("shortcut"))
    }

    fn downsample_block(in_c: usize, out_c: usize) -> ResidualBlock {
        let mut main = Sequential::new("main");
        main.push(Conv2d::new(in_c, out_c, 3, 2, 1, 3).unwrap());
        main.push(BatchNorm2d::new(out_c).unwrap());
        main.push(Relu::new());
        main.push(Conv2d::new(out_c, out_c, 3, 1, 1, 4).unwrap());
        main.push(BatchNorm2d::new(out_c).unwrap());
        let mut shortcut = Sequential::new("shortcut");
        shortcut.push(Conv2d::new(in_c, out_c, 1, 2, 0, 5).unwrap());
        shortcut.push(BatchNorm2d::new(out_c).unwrap());
        ResidualBlock::new(main, shortcut)
    }

    #[test]
    fn identity_block_preserves_shape() {
        let mut block = identity_block(4);
        assert!(block.is_identity_shortcut());
        let x = Tensor::ones(&[2, 4, 8, 8]);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn downsample_block_halves_resolution() {
        let mut block = downsample_block(4, 8);
        assert!(!block.is_identity_shortcut());
        let x = Tensor::ones(&[1, 4, 8, 8]);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn output_is_nonnegative_after_relu() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut block = identity_block(4);
        let x = Tensor::randn(&[2, 4, 6, 6], &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert!(y.min() >= 0.0);
    }

    #[test]
    fn gradient_flows_through_both_paths() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut block = identity_block(2);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let _ = block.forward(&x, Mode::Train).unwrap();
        block.zero_grad();
        let grad_in = block.backward(&Tensor::ones(&[1, 2, 4, 4])).unwrap();
        assert_eq!(grad_in.dims(), x.dims());
        // gradients accumulated on conv weights
        let has_grad = block.params().iter().any(|p| p.grad.norm() > 0.0);
        assert!(has_grad);
        // identity skip: input gradient includes the pass-through term, so it is non-zero
        assert!(grad_in.norm() > 0.0);
    }

    #[test]
    fn gradient_check_identity_block() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut block = identity_block(2);
        let x = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        let weights = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        let _ = block.forward(&x, Mode::Train).unwrap();
        block.zero_grad();
        let grad_in = block.backward(&weights).unwrap();

        // Finite differences need fresh batch statistics each evaluation, so we
        // re-run the same block (its BN layers recompute batch stats in Train).
        let eps = 1e-2f32;
        for idx in [0usize, 4, 9, x.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp: f32 = block
                .forward(&xp, Mode::Train)
                .unwrap()
                .as_slice()
                .iter()
                .zip(weights.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let fm: f32 = block
                .forward(&xm, Mode::Train)
                .unwrap()
                .as_slice()
                .iter()
                .zip(weights.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.as_slice()[idx];
            // ReLU kinks and BN statistics coupling make this a loose check.
            assert!(
                (num - ana).abs() < 0.2 * ana.abs().max(1.0),
                "idx {idx}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn flops_include_merge_and_relu() {
        // A residual block is priced by its spec: both paths, plus one add
        // and one relu per element of the block's actual output.
        let conv = LayerSpec::Conv2d {
            in_channels: 4,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let bn = LayerSpec::BatchNorm2d { channels: 4 };
        let main = vec![conv.clone(), bn.clone(), LayerSpec::Relu, conv, bn];
        let shape = Shape::new(vec![1, 4, 8, 8]);
        let mut main_flops = 0;
        walk_chain(&main, &shape, |l, s| main_flops += l.flops(s)).unwrap();
        let block = LayerSpec::Residual {
            main,
            shortcut: vec![],
        };
        let out = block
            .build(&mut 0)
            .unwrap()
            .forward(&Tensor::ones(&[1, 4, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(block.flops(&shape), main_flops + 2 * out.len() as u64);
    }

    #[test]
    fn backward_mask_matches_branchy_mask_bitwise() {
        // Identity paths on both sides: the block is relu(2x), and its
        // input gradient is m + m for the masked gradient m.
        let vals = [
            -2.0,
            1.5,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffc0_0042),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE / 2.0,
        ];
        let n = vals.len();
        let x: Vec<f32> = (0..n * n).map(|i| vals[i / n]).collect();
        let g: Vec<f32> = (0..n * n).map(|i| vals[i % n]).collect();
        let mut block = ResidualBlock::new(Sequential::new("main"), Sequential::new("shortcut"));
        let dims = [1, 1, n, n];
        block
            .forward(&Tensor::from_vec(x.clone(), &dims).unwrap(), Mode::Train)
            .unwrap();
        let got = block
            .backward(&Tensor::from_vec(g.clone(), &dims).unwrap())
            .unwrap();
        let expected: Vec<f32> = g
            .iter()
            .zip(&x)
            .map(|(&gi, &xi)| {
                let mut m = gi;
                let keep = xi + xi > 0.0;
                if !keep {
                    m = 0.0;
                }
                m + m
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.as_slice()), bits(&expected));
    }

    #[test]
    fn backward_requires_forward() {
        let mut block = identity_block(2);
        assert!(block.backward(&Tensor::ones(&[1, 2, 4, 4])).is_err());
    }
}
