//! Post-training quantization of tensors and whole networks.

use crate::error::QuantError;
use crate::fixed::{FixedPointFormat, QuantizationError};
use bnn_nn::network::Network;
use bnn_tensor::Tensor;

/// Returns a fake-quantized copy of a tensor (every value rounded to the
/// format's grid and saturated to its range).
pub fn quantize_tensor(tensor: &Tensor, format: FixedPointFormat) -> Tensor {
    tensor.map(|v| format.quantize(v))
}

/// Measures the error of quantizing a tensor with a format.
pub fn tensor_quantization_error(tensor: &Tensor, format: FixedPointFormat) -> QuantizationError {
    QuantizationError::measure(tensor.as_slice(), format)
}

/// Quantizes every trainable parameter of a network in place and returns the
/// worst-case per-parameter error statistics.
///
/// This is post-training *fake* quantization: weights are snapped to the
/// fixed-point grid, after which the (float) inference path evaluates the
/// quantized model. Phase 3 of the transformation framework uses this as the
/// float A/B reference next to the true integer path, a compiled
/// [`crate::QuantPlan`].
///
/// # Errors
///
/// Returns [`QuantError::NonFinite`] — without modifying any parameter — if
/// a parameter contains NaN or infinite values: those have no fixed-point
/// representation, and snapping them to the grid would silently launder a
/// diverged training run into a seemingly valid quantized model.
pub fn quantize_network(
    network: &mut dyn Network,
    format: FixedPointFormat,
) -> Result<QuantizationError, QuantError> {
    let mut worst = QuantizationError::default();
    let mut params = network.params_mut();
    for (i, param) in params.iter().enumerate() {
        if let Some(bad) = param.value.as_slice().iter().find(|v| !v.is_finite()) {
            return Err(QuantError::NonFinite(format!(
                "parameter tensor {i} contains non-finite value {bad}"
            )));
        }
    }
    for param in &mut params {
        let err = QuantizationError::measure(param.value.as_slice(), format);
        format.quantize_slice(param.value.as_mut_slice());
        if err.max_abs > worst.max_abs {
            worst.max_abs = err.max_abs;
        }
        worst.mse = worst.mse.max(err.mse);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, ModelConfig};
    use bnn_nn::layer::Mode;
    use bnn_tensor::rng::Xoshiro256StarStar;

    #[test]
    fn quantize_tensor_snaps_to_grid() {
        let fmt = FixedPointFormat::new(8, 3).unwrap();
        let t = Tensor::from_vec(vec![0.33, -1.26, 7.9], &[3]).unwrap();
        let q = quantize_tensor(&t, fmt);
        for &v in q.as_slice() {
            let steps = v / fmt.epsilon();
            assert!((steps - steps.round()).abs() < 1e-4);
        }
        // saturation
        assert!(q.as_slice()[2] <= fmt.max_value());
    }

    #[test]
    fn tensor_error_decreases_with_width() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let t = Tensor::randn(&[64, 64], &mut rng);
        let e4 = tensor_quantization_error(&t, FixedPointFormat::new(4, 2).unwrap());
        let e16 = tensor_quantization_error(&t, FixedPointFormat::new(16, 6).unwrap());
        assert!(e16.mse < e4.mse);
    }

    #[test]
    fn quantize_network_changes_weights_but_preserves_shapes() {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(12, 12)
                .with_width_divisor(4),
        );
        let mut net = spec.build(3).unwrap();
        let x = Tensor::ones(&[1, 1, 12, 12]);
        let before = net.forward_final(&x, Mode::Eval).unwrap();
        let err = quantize_network(&mut net, FixedPointFormat::new(6, 2).unwrap()).unwrap();
        assert!(err.max_abs > 0.0);
        let after = net.forward_final(&x, Mode::Eval).unwrap();
        assert_eq!(before.dims(), after.dims());
        // 6-bit quantization perturbs the output but does not destroy it
        assert_ne!(before.as_slice(), after.as_slice());
        assert!(after.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sixteen_bit_quantization_barely_changes_outputs() {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(12, 12)
                .with_width_divisor(4),
        );
        let mut net = spec.build(4).unwrap();
        let x = Tensor::ones(&[1, 1, 12, 12]);
        let before = net.forward_final(&x, Mode::Eval).unwrap();
        let _ = quantize_network(&mut net, FixedPointFormat::new(16, 6).unwrap()).unwrap();
        let after = net.forward_final(&x, Mode::Eval).unwrap();
        let max_diff = before
            .as_slice()
            .iter()
            .zip(after.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 0.05, "max diff {max_diff}");
    }

    #[test]
    fn non_finite_parameters_are_rejected_without_mutation() {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(12, 12)
                .with_width_divisor(4),
        );
        let mut net = spec.build(5).unwrap();
        net.params_mut()[0].value.as_mut_slice()[3] = f32::NAN;
        let before: Vec<f32> = net.params_mut()[1].value.as_slice().to_vec();
        let err = quantize_network(&mut net, FixedPointFormat::new(8, 3).unwrap()).unwrap_err();
        assert!(matches!(err, crate::QuantError::NonFinite(_)));
        // the healthy tensors were left untouched — no partial quantization
        assert_eq!(net.params_mut()[1].value.as_slice(), &before[..]);
    }
}
