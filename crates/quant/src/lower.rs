//! Per-format quantization of the constants a compiled plan folds into its
//! steps — weight codes, accumulator-scale biases, batch-norm affine
//! multipliers, the inverted-dropout scale — plus the rounding division of
//! the average-pooling steps.

use crate::calib::ValueRange;
use crate::error::QuantError;
use crate::params::QuantParams;
use crate::schedule::MUL_FRAC;
use bnn_tensor::Tensor;

/// Rounded division with ties away from zero (`d > 0`): the average-pooling
/// divisor of the integer path.
pub(crate) fn div_round(n: i64, d: i64) -> i64 {
    if n >= 0 {
        (2 * n + d) / (2 * d)
    } else {
        -((-2 * n + d) / (2 * d))
    }
}

/// Quantized weight/bias data derived for one format from a lowered weight
/// layer and its recorded ranges.
pub(crate) struct QuantizedWeights {
    /// Weight codes widened to `i16` (the layout the integer kernels
    /// consume), in the weight tensor's own element order.
    pub(crate) codes: Vec<i16>,
    pub(crate) w_frac: u32,
    pub(crate) bias: Vec<i64>,
    /// Accumulator-to-output requantization shift.
    pub(crate) shift: i32,
}

/// Quantizes a weight tensor and bias for one format: weight codes on the
/// recorded weight range's grid, bias at the accumulator scale, and the
/// output requantization shift.
pub(crate) fn quantize_weights(
    weight: &Tensor,
    bias: &Tensor,
    w_range: ValueRange,
    total_bits: u32,
    in_params: QuantParams,
    out: QuantParams,
) -> Result<QuantizedWeights, QuantError> {
    let w_params = w_range.params(total_bits)?;
    // Codes saturate into the format's range, which fits `i16` for every
    // format `QuantParams` accepts.
    let codes = weight
        .as_slice()
        .iter()
        .map(|&v| w_params.quantize_value(v) as i16)
        .collect();
    let acc_frac = w_params.fractional_bits() + in_params.fractional_bits();
    let acc_scale = 2f64.powi(acc_frac as i32);
    let bias = bias
        .as_slice()
        .iter()
        .map(|&b| (b as f64 * acc_scale).round() as i64)
        .collect();
    Ok(QuantizedWeights {
        codes,
        w_frac: w_params.fractional_bits(),
        bias,
        shift: acc_frac as i32 - out.fractional_bits() as i32,
    })
}

/// Quantizes affine `scale * x + shift` multipliers against the in/out
/// formats: per-channel `(m, b)` codes with [`MUL_FRAC`] fractional bits.
pub(crate) fn quantize_affine(
    scale: &[f32],
    shift: &[f32],
    in_params: QuantParams,
    out: QuantParams,
) -> (Vec<i64>, Vec<i64>) {
    let eps_in = in_params.scale() as f64;
    let eps_out = out.scale() as f64;
    let mul = 2f64.powi(MUL_FRAC as i32);
    let m = scale
        .iter()
        .map(|&s| (s as f64 * eps_in / eps_out * mul).round() as i64)
        .collect();
    let b = shift
        .iter()
        .map(|&s| (s as f64 / eps_out * mul).round() as i64)
        .collect();
    (m, b)
}

/// The quantized inverted-dropout scale, `round((1/keep) * 2^MUL_FRAC)`.
pub(crate) fn dropout_scale_q(rate: f64) -> i64 {
    (1.0 / (1.0 - rate) * 2f64.powi(MUL_FRAC as i32)).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPointFormat;

    fn params(total: u32, int: u32) -> QuantParams {
        QuantParams::new(FixedPointFormat::new(total, int).unwrap()).unwrap()
    }

    #[test]
    fn quantize_weights_puts_bias_on_the_accumulator_grid() {
        let weight = Tensor::from_vec(vec![0.5, -0.25, 1.0, -1.0], &[2, 2]).unwrap();
        let bias = Tensor::from_vec(vec![0.25, -0.125], &[2]).unwrap();
        let range = ValueRange::observe(weight.as_slice()).unwrap();
        let (input, out) = (params(8, 3), params(8, 2));
        let q = quantize_weights(&weight, &bias, range, 8, input, out).unwrap();
        // +1.0 needs two integer bits at 8 bits, leaving six fractional.
        assert_eq!(q.w_frac, 6);
        assert_eq!(q.codes, vec![32, -16, 64, -64]);
        // The accumulator carries 6 + 5 fractional bits.
        assert_eq!(q.bias, vec![512, -256]);
        assert_eq!(q.shift, 11 - 6);
        // At 16 bits the same weights take codes beyond the 8-bit range.
        let wide =
            quantize_weights(&weight, &bias, range, 16, params(16, 6), params(16, 6)).unwrap();
        assert_eq!(wide.w_frac, 14);
        assert_eq!(wide.codes, vec![8192, -4096, 16384, -16384]);
    }

    #[test]
    fn quantize_affine_folds_the_format_ratio_into_the_multiplier() {
        let one = 1i64 << MUL_FRAC;
        let (m, b) = quantize_affine(&[1.0, 0.5], &[0.0, 0.25], params(8, 3), params(8, 3));
        assert_eq!(m, vec![one, one / 2]);
        assert_eq!(b, vec![0, 8 * one]);
        // One fewer integer bit on the output doubles every code.
        let (m, b) = quantize_affine(&[1.0, 0.5], &[0.0, 0.25], params(8, 3), params(8, 2));
        assert_eq!(m, vec![2 * one, one]);
        assert_eq!(b, vec![0, 16 * one]);
    }

    #[test]
    fn dropout_scale_is_the_rounded_inverse_keep_probability() {
        let one = 1i64 << MUL_FRAC;
        assert_eq!(dropout_scale_q(0.0), one);
        assert_eq!(dropout_scale_q(0.5), 2 * one);
        assert_eq!(dropout_scale_q(0.75), 4 * one);
        assert_eq!(
            dropout_scale_q(0.25),
            (4.0 / 3.0 * one as f64).round() as i64
        );
    }

    #[test]
    fn avg_pool_division_rounds_half_away_from_zero() {
        assert_eq!(div_round(5, 2), 3);
        assert_eq!(div_round(-5, 2), -3);
        assert_eq!(div_round(7, 4), 2);
        assert_eq!(div_round(-7, 4), -2);
        assert_eq!(div_round(6, 4), 2); // 1.5 away from zero
        assert_eq!(div_round(-6, 4), -2);
        assert_eq!(div_round(0, 9), 0);
    }
}
