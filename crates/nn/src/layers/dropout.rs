//! The Monte-Carlo Dropout layer.
//!
//! The MC-Dropout layer ([`McDropout`]) is the algorithmic heart of the paper:
//! it stays stochastic at inference time (in [`Mode::McSample`]) so that
//! repeated forward passes draw Monte-Carlo samples from the approximate
//! posterior. Following the paper (and Gal & Ghahramani), masks are
//! *filter-wise* for NCHW feature maps — an entire channel is kept or dropped —
//! and element-wise for flat feature vectors.
//!
//! The layer uses inverted dropout scaling (`kept / keep_rate`) so that the
//! expected activation magnitude is independent of the dropout rate. The HLS
//! implementation generated by `bnn-hls` reproduces the paper's Algorithm 1,
//! which scales by `keep_rate` instead; the difference is a static per-layer
//! scale factor that the code generator folds into the following layer.

use crate::layer::{Layer, Mode, Param};
use crate::NnError;
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;

fn validate_rate(rate: f64) -> Result<(), NnError> {
    if !(0.0..1.0).contains(&rate) {
        return Err(NnError::InvalidConfig(format!(
            "dropout rate must be in [0, 1), got {rate}"
        )));
    }
    Ok(())
}

/// Monte-Carlo Dropout layer with filter-wise masks.
///
/// * In [`Mode::Train`] and [`Mode::McSample`] a fresh Bernoulli mask is drawn
///   on every forward pass.
/// * In [`Mode::Eval`] the layer is the identity, which corresponds to the
///   deterministic "weight-averaged" prediction of a dropout network.
///
/// # Example
///
/// ```
/// use bnn_nn::prelude::*;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), bnn_nn::NnError> {
/// let mut mcd = McDropout::new(0.5, 1)?;
/// let x = Tensor::ones(&[1, 8, 4, 4]);
/// let deterministic = mcd.forward(&x, Mode::Eval)?;
/// assert_eq!(deterministic.as_slice(), x.as_slice());
/// let sampled = mcd.forward(&x, Mode::McSample)?;
/// assert_eq!(sampled.dims(), x.dims());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct McDropout {
    rate: f64,
    rng: Xoshiro256StarStar,
    /// Per-element multiplicative mask cached for backward.
    mask: Option<Vec<f32>>,
}

impl McDropout {
    /// Creates an MC-Dropout layer with the given drop probability.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `rate` is outside `[0, 1)`.
    pub fn new(rate: f64, seed: u64) -> Result<Self, NnError> {
        validate_rate(rate)?;
        Ok(McDropout {
            rate,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            mask: None,
        })
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Reseeds the internal RNG (useful to make MC chains reproducible).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Xoshiro256StarStar::seed_from_u64(seed);
    }

    /// Builds the per-element multiplicative mask for the given input shape.
    ///
    /// Filter-wise for NCHW inputs (one Bernoulli draw per `(batch, channel)`),
    /// element-wise otherwise.
    fn sample_mask(&mut self, dims: &[usize]) -> Vec<f32> {
        let keep = 1.0 - self.rate;
        let scale = (1.0 / keep) as f32;
        let total: usize = dims.iter().product();
        if dims.len() == 4 {
            let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
            let mut mask = vec![0.0f32; total];
            for b in 0..n {
                for ch in 0..c {
                    let m = if self.rng.bernoulli(keep) { scale } else { 0.0 };
                    let start = (b * c + ch) * h * w;
                    for v in &mut mask[start..start + h * w] {
                        *v = m;
                    }
                }
            }
            mask
        } else {
            (0..total)
                .map(|_| if self.rng.bernoulli(keep) { scale } else { 0.0 })
                .collect()
        }
    }
}

impl Layer for McDropout {
    fn name(&self) -> &str {
        "mc_dropout"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if !mode.samples_mc_dropout() || self.rate == 0.0 {
            self.mask = Some(vec![1.0; input.len()]);
            return Ok(input.clone());
        }
        let mask = self.sample_mask(input.dims());
        let mut out = input.clone();
        for (o, &m) in out.as_mut_slice().iter_mut().zip(&mask) {
            *o *= m;
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "mc_dropout".into(),
            })?;
        let mut grad = grad_output.clone();
        for (g, &m) in grad.as_mut_slice().iter_mut().zip(mask) {
            *g *= m;
        }
        Ok(grad)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn is_mc_dropout(&self) -> bool {
        true
    }

    fn reseed_mc_streams(&mut self, streams: &mut SplitMix64) {
        self.reseed(streams.next_u64());
    }

    fn lowering(&self) -> crate::lowering::LayerLowering {
        // MC dropout stays stochastic at inference time; backends reproduce
        // the mask-and-scale datapath from the rate alone.
        crate::lowering::LayerLowering::McDropout { rate: self.rate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_rates() {
        assert!(McDropout::new(1.0, 0).is_err());
        assert!(McDropout::new(-0.1, 0).is_err());
        assert!(McDropout::new(1.5, 0).is_err());
        assert!(McDropout::new(0.5, 0).is_ok());
    }

    #[test]
    fn mc_dropout_identity_in_eval_active_in_mc() {
        let mut d = McDropout::new(0.5, 3).unwrap();
        let x = Tensor::ones(&[2, 16, 4, 4]);
        let eval = d.forward(&x, Mode::Eval).unwrap();
        assert_eq!(eval.as_slice(), x.as_slice());
        let mc = d.forward(&x, Mode::McSample).unwrap();
        assert!(mc.as_slice().contains(&0.0), "expected dropped channels");
    }

    #[test]
    fn mc_dropout_mask_is_filter_wise() {
        let mut d = McDropout::new(0.5, 4).unwrap();
        let x = Tensor::ones(&[1, 32, 3, 3]);
        let y = d.forward(&x, Mode::McSample).unwrap();
        // every channel must be uniformly zero or uniformly 2.0 (1/keep)
        for ch in 0..32 {
            let plane: Vec<f32> = (0..9).map(|i| y.as_slice()[ch * 9 + i]).collect();
            let first = plane[0];
            assert!(plane.iter().all(|&v| (v - first).abs() < 1e-6));
            assert!(first == 0.0 || (first - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mc_dropout_elementwise_for_flat_inputs() {
        let mut d = McDropout::new(0.25, 9).unwrap();
        let x = Tensor::ones(&[8, 128]);
        let y = d.forward(&x, Mode::McSample).unwrap();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / y.len() as f64;
        assert!((frac - 0.25).abs() < 0.08, "dropped fraction {frac}");
    }

    #[test]
    fn different_samples_draw_different_masks() {
        let mut d = McDropout::new(0.5, 5).unwrap();
        let x = Tensor::ones(&[1, 64, 2, 2]);
        let a = d.forward(&x, Mode::McSample).unwrap();
        let b = d.forward(&x, Mode::McSample).unwrap();
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn reseed_reproduces_masks() {
        let mut d = McDropout::new(0.5, 6).unwrap();
        let x = Tensor::ones(&[1, 64, 2, 2]);
        let a = d.forward(&x, Mode::McSample).unwrap();
        d.reseed(6);
        let b = d.forward(&x, Mode::McSample).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = McDropout::new(0.5, 7).unwrap();
        let x = Tensor::ones(&[1, 16, 2, 2]);
        let y = d.forward(&x, Mode::McSample).unwrap();
        let g = d.backward(&Tensor::ones(&[1, 16, 2, 2])).unwrap();
        // gradient must be zero exactly where the output was zero
        for (yo, go) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }

    #[test]
    fn expected_value_preserved() {
        // Inverted dropout keeps E[output] == input.
        let mut d = McDropout::new(0.375, 8).unwrap();
        let x = Tensor::ones(&[1, 2000, 1, 1]);
        let mut acc = 0.0f64;
        let trials = 200;
        for _ in 0..trials {
            acc += d.forward(&x, Mode::McSample).unwrap().mean() as f64;
        }
        let mean = acc / trials as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn is_mc_dropout_flag() {
        let d = McDropout::new(0.5, 0).unwrap();
        assert!(d.is_mc_dropout());
        assert!(!crate::layers::activation::Relu::new().is_mc_dropout());
    }

    #[test]
    fn zero_rate_is_identity_even_in_train() {
        let mut d = McDropout::new(0.0, 0).unwrap();
        let x = Tensor::ones(&[2, 4, 2, 2]);
        let y = d.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn backward_requires_forward() {
        let mut d = McDropout::new(0.5, 0).unwrap();
        assert!(d.backward(&Tensor::ones(&[1, 4])).is_err());
    }
}
