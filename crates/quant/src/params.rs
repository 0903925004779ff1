//! Per-tensor quantization parameters: the bridge between an `ap_fixed`
//! format and its integer-code representation.
//!
//! A [`FixedPointFormat`] `ap_fixed<W, I>` is *exactly* a symmetric integer
//! quantization scheme: every representable value is `code * 2^-(W-I)` for an
//! integer `code` in `[-2^(W-1), 2^(W-1) - 1]`. [`QuantParams`] makes that
//! correspondence explicit — scale (a power of two), zero-point (always 0 by
//! construction) and the saturating code range — and adds range calibration:
//! choosing the integer-bit split of a `W`-bit format so that an observed
//! tensor fits with minimal quantization step.
//!
//! Because every scale is a power of two, rescaling between two formats is an
//! exact rounding bit-shift (see [`bnn_tensor::int::round_shift`]); no
//! approximate fixed-point multipliers are needed anywhere in the datapath.

use crate::error::QuantError;
use crate::fixed::FixedPointFormat;

/// Integer storage width of a quantized tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntWidth {
    /// 8-bit storage (`i8` codes) for formats of at most 8 total bits.
    W8,
    /// 16-bit storage (`i16` codes) for formats of 9 to 16 total bits.
    W16,
}

/// Quantization parameters of one tensor: a [`FixedPointFormat`] viewed as a
/// symmetric integer scheme.
///
/// # Example
///
/// ```
/// use bnn_quant::{FixedPointFormat, QuantParams};
///
/// # fn main() -> Result<(), bnn_quant::QuantError> {
/// let p = QuantParams::new(FixedPointFormat::new(8, 3)?)?;
/// assert_eq!(p.scale(), 1.0 / 32.0); // 5 fractional bits
/// assert_eq!(p.zero_point(), 0);
/// assert_eq!((p.qmin(), p.qmax()), (-128, 127));
/// assert_eq!(p.code_rails(), (-128i16, 127i16));
/// assert_eq!(p.quantize_value(0.3751), 12); // 12/32 = 0.375
/// assert_eq!(p.quantize_value(100.0), 127); // saturates
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantParams {
    format: FixedPointFormat,
}

impl QuantParams {
    /// Wraps a format of at most 16 total bits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unsupported`] for formats wider than 16 bits —
    /// the integer path stores codes as `i8`/`i16`.
    pub fn new(format: FixedPointFormat) -> Result<Self, QuantError> {
        if format.total_bits() > 16 {
            return Err(QuantError::Unsupported(format!(
                "integer storage supports at most 16 total bits, got {format}"
            )));
        }
        Ok(QuantParams { format })
    }

    /// Calibrates a `total_bits`-wide format over observed values: the
    /// smallest integer-bit allocation whose range covers them (saturating
    /// at `total_bits` integer bits if nothing fits). The positive and
    /// negative extremes are checked separately — the grid is asymmetric by
    /// one step (`min = -2^(I-1)` is representable, `+2^(I-1)` is not), so
    /// a tensor whose extreme is a negative power of two still gets the
    /// tight allocation.
    /// An empty slice calibrates to zero integer bits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFinite`] if any value is NaN or infinite, or
    /// [`QuantError::Unsupported`]/[`QuantError::InvalidFormat`] for an
    /// unsupported width.
    pub fn calibrate(total_bits: u32, values: &[f32]) -> Result<Self, QuantError> {
        let mut max = 0.0f32;
        let mut min = 0.0f32;
        for &v in values {
            if !v.is_finite() {
                return Err(QuantError::NonFinite(format!(
                    "cannot calibrate over non-finite value {v}"
                )));
            }
            max = max.max(v);
            min = min.min(v);
        }
        QuantParams::from_range(total_bits, min, max)
    }

    /// [`QuantParams::calibrate`] from a pre-computed value range `[min, max]`
    /// (with `min <= 0 <= max`, as produced by observing values against a
    /// zero-initialised range). This is what lets calibration run **once**
    /// per model — the observed ranges are recorded and a `QuantParams` is
    /// derived from the same record for every candidate total width.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFinite`] for a non-finite bound, or
    /// [`QuantError::Unsupported`]/[`QuantError::InvalidFormat`] for an
    /// unsupported width.
    pub fn from_range(total_bits: u32, min: f32, max: f32) -> Result<Self, QuantError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(QuantError::NonFinite(format!(
                "cannot calibrate over non-finite range [{min}, {max}]"
            )));
        }
        for integer_bits in 0..=total_bits {
            let format = FixedPointFormat::new(total_bits, integer_bits)?;
            if format.max_value() >= max && format.min_value() <= min {
                return QuantParams::new(format);
            }
        }
        QuantParams::new(FixedPointFormat::new(total_bits, total_bits)?)
    }

    /// The underlying fixed-point format.
    pub fn format(&self) -> FixedPointFormat {
        self.format
    }

    /// The quantization step, `2^-fractional_bits` — always a power of two.
    pub fn scale(&self) -> f32 {
        self.format.epsilon()
    }

    /// The zero-point. Always 0: `ap_fixed` grids are symmetric around zero,
    /// so padding, ReLU and accumulation need no offset corrections.
    pub fn zero_point(&self) -> i64 {
        0
    }

    /// Number of fractional bits (the binary log of `1 / scale`).
    pub fn fractional_bits(&self) -> u32 {
        self.format.fractional_bits()
    }

    /// Smallest representable code, `-2^(W-1)`.
    pub fn qmin(&self) -> i64 {
        -(1i64 << (self.format.total_bits() - 1))
    }

    /// Largest representable code, `2^(W-1) - 1`.
    pub fn qmax(&self) -> i64 {
        (1i64 << (self.format.total_bits() - 1)) - 1
    }

    /// `(qmin, qmax)` as `i16` codes, the type the integer plans store and
    /// requantize into. Every format fits: [`QuantParams::new`] rejects
    /// formats wider than 16 bits.
    pub fn code_rails(&self) -> (i16, i16) {
        (self.qmin() as i16, self.qmax() as i16)
    }

    /// The storage width codes of this format occupy.
    pub fn width(&self) -> IntWidth {
        if self.format.total_bits() <= 8 {
            IntWidth::W8
        } else {
            IntWidth::W16
        }
    }

    /// Quantizes one value to its integer code: round to nearest (ties away
    /// from zero), then saturate into `[qmin, qmax]`.
    pub fn quantize_value(&self, value: f32) -> i64 {
        let code = (value / self.scale()).round() as i64;
        code.clamp(self.qmin(), self.qmax())
    }

    /// Reconstructs the real value of an integer code.
    pub fn dequantize_value(&self, code: i64) -> f32 {
        code as f32 * self.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_mirror_format_grid() {
        let p = QuantParams::new(FixedPointFormat::new(6, 2).unwrap()).unwrap();
        assert_eq!(p.fractional_bits(), 4);
        assert_eq!((p.qmin(), p.qmax()), (-32, 31));
        assert_eq!(p.width(), IntWidth::W8);
        for i in -200..=200 {
            let v = i as f32 * 0.017;
            assert_eq!(
                p.dequantize_value(p.quantize_value(v)),
                p.format().quantize(v)
            );
        }
    }

    #[test]
    fn sixteen_bit_formats_use_wide_storage() {
        let p = QuantParams::new(FixedPointFormat::new(16, 6).unwrap()).unwrap();
        assert_eq!(p.width(), IntWidth::W16);
        assert_eq!((p.qmin(), p.qmax()), (-32768, 32767));
        assert!(QuantParams::new(FixedPointFormat::new(24, 8).unwrap()).is_err());
    }

    #[test]
    fn calibration_picks_smallest_covering_range() {
        // abs max 3.2 needs 3 integer bits at width 8 (max 3.97)
        let p = QuantParams::calibrate(8, &[0.5, -3.2, 1.0]).unwrap();
        assert_eq!(p.format().integer_bits(), 3);
        // sub-half values fit with zero integer bits
        let p = QuantParams::calibrate(8, &[0.1, -0.2]).unwrap();
        assert_eq!(p.format().integer_bits(), 0);
        // an empty slice needs no integer bits at all
        let p = QuantParams::calibrate(8, &[]).unwrap();
        assert_eq!(p.format().integer_bits(), 0);
        // enormous values saturate the allocation rather than failing
        let p = QuantParams::calibrate(8, &[1e9]).unwrap();
        assert_eq!(p.format().integer_bits(), 8);
        // the negative range reaches one step further than the positive:
        // -4.0 is exactly representable at I=3 while +4.0 needs I=4
        let p = QuantParams::calibrate(8, &[-4.0, 3.0]).unwrap();
        assert_eq!(p.format().integer_bits(), 3);
        let p = QuantParams::calibrate(8, &[4.0, 3.0]).unwrap();
        assert_eq!(p.format().integer_bits(), 4);
        assert!(QuantParams::calibrate(8, &[f32::NAN]).is_err());
        assert!(QuantParams::calibrate(8, &[f32::INFINITY]).is_err());
    }

    #[test]
    fn on_grid_values_round_trip_through_codes() {
        let p = QuantParams::new(FixedPointFormat::new(8, 3).unwrap()).unwrap();
        let rails = [p.dequantize_value(p.qmin()), p.dequantize_value(p.qmax())];
        assert_eq!(rails, [-4.0, 4.0 - 1.0 / 32.0]);
        for v in [0.375, -1.25, 2.0, 0.0, rails[0], rails[1]] {
            assert_eq!(p.dequantize_value(p.quantize_value(v)), v);
            assert_eq!(p.format().quantize(v), v);
        }
        assert_eq!(p.quantize_value(0.375), 12);
    }

    #[test]
    fn quantize_saturates_at_code_range() {
        let p = QuantParams::new(FixedPointFormat::new(4, 2).unwrap()).unwrap();
        assert_eq!(p.quantize_value(1000.0), p.qmax());
        assert_eq!(p.quantize_value(-1000.0), p.qmin());
        assert_eq!(p.quantize_value(0.0), 0);
    }
}
