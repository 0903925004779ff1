//! Signed fixed-point formats (`ap_fixed<W, I>` style).

use crate::QuantError;

/// A signed fixed-point format with `total_bits` total bits, of which
/// `integer_bits` (including the sign bit) sit left of the binary point.
///
/// This mirrors Vivado-HLS `ap_fixed<W, I>` with round-to-nearest and
/// saturation, the configuration used by hls4ml-style designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedPointFormat {
    total_bits: u32,
    integer_bits: u32,
}

impl FixedPointFormat {
    /// Creates a format with `total_bits` total and `integer_bits` integer bits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidFormat`] if `total_bits` is zero, greater
    /// than 32, or smaller than `integer_bits`.
    pub fn new(total_bits: u32, integer_bits: u32) -> Result<Self, QuantError> {
        if total_bits == 0 || total_bits > 32 {
            return Err(QuantError::InvalidFormat(format!(
                "total bits must be in 1..=32, got {total_bits}"
            )));
        }
        if integer_bits > total_bits {
            return Err(QuantError::InvalidFormat(format!(
                "integer bits {integer_bits} exceed total bits {total_bits}"
            )));
        }
        Ok(FixedPointFormat {
            total_bits,
            integer_bits,
        })
    }

    /// The paper's Phase 3 search space: `ap_fixed<4,2>`, `<6,2>`, `<8,3>`, `<16,6>`.
    pub fn search_space() -> Vec<FixedPointFormat> {
        vec![
            FixedPointFormat {
                total_bits: 4,
                integer_bits: 2,
            },
            FixedPointFormat {
                total_bits: 6,
                integer_bits: 2,
            },
            FixedPointFormat {
                total_bits: 8,
                integer_bits: 3,
            },
            FixedPointFormat {
                total_bits: 16,
                integer_bits: 6,
            },
        ]
    }

    /// The default hls4ml-style format, `ap_fixed<16,6>`.
    pub fn default_hls() -> Self {
        FixedPointFormat {
            total_bits: 16,
            integer_bits: 6,
        }
    }

    /// Total bit width.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Integer bits (including sign).
    pub fn integer_bits(&self) -> u32 {
        self.integer_bits
    }

    /// Fractional bits.
    pub fn fractional_bits(&self) -> u32 {
        self.total_bits - self.integer_bits
    }

    /// Smallest representable step.
    pub fn epsilon(&self) -> f32 {
        2f32.powi(-(self.fractional_bits() as i32))
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        2f32.powi(self.integer_bits as i32 - 1) - self.epsilon()
    }

    /// Smallest (most negative) representable value.
    pub fn min_value(&self) -> f32 {
        -(2f32.powi(self.integer_bits as i32 - 1))
    }

    /// Quantizes a value: round to nearest representable step, saturate at the
    /// format's range.
    pub fn quantize(&self, value: f32) -> f32 {
        let scale = 2f32.powi(self.fractional_bits() as i32);
        let q = (value * scale).round() / scale;
        q.clamp(self.min_value(), self.max_value())
    }
}

impl std::fmt::Display for FixedPointFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ap_fixed<{},{}>", self.total_bits, self.integer_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_validation() {
        assert!(FixedPointFormat::new(0, 0).is_err());
        assert!(FixedPointFormat::new(8, 9).is_err());
        assert!(FixedPointFormat::new(33, 4).is_err());
        assert!(FixedPointFormat::new(8, 3).is_ok());
    }

    #[test]
    fn range_and_epsilon() {
        let q = FixedPointFormat::new(8, 3).unwrap(); // 5 fractional bits
        assert_eq!(q.fractional_bits(), 5);
        assert!((q.epsilon() - 1.0 / 32.0).abs() < 1e-9);
        assert!((q.max_value() - (4.0 - 1.0 / 32.0)).abs() < 1e-9);
        assert!((q.min_value() + 4.0).abs() < 1e-9);
    }

    #[test]
    fn quantize_rounds_and_saturates() {
        let q = FixedPointFormat::new(8, 3).unwrap();
        assert_eq!(q.quantize(0.3751), 0.375);
        assert_eq!(q.quantize(1000.0), q.max_value());
        assert_eq!(q.quantize(-1000.0), q.min_value());
        assert_eq!(q.quantize(0.0), 0.0);
    }

    #[test]
    fn search_space_matches_paper() {
        let space = FixedPointFormat::search_space();
        let widths: Vec<u32> = space.iter().map(|f| f.total_bits()).collect();
        assert_eq!(widths, vec![4, 6, 8, 16]);
    }

    #[test]
    fn display_format() {
        assert_eq!(
            FixedPointFormat::new(8, 3).unwrap().to_string(),
            "ap_fixed<8,3>"
        );
        assert_eq!(
            FixedPointFormat::default_hls().to_string(),
            "ap_fixed<16,6>"
        );
    }

    // Deterministic sweeps standing in for the original proptest properties
    // (proptest is unavailable in the offline build environment).
    #[test]
    fn quantize_error_bounded_by_half_epsilon_in_range() {
        let q = FixedPointFormat::new(8, 3).unwrap();
        for i in 0..=10_000 {
            let v = -3.9f32 + 7.8 * (i as f32 / 10_000.0);
            let err = (q.quantize(v) - v).abs();
            assert!(err <= q.epsilon() / 2.0 + 1e-6, "v={v} err={err}");
        }
    }

    #[test]
    fn quantize_is_idempotent() {
        let q = FixedPointFormat::new(6, 2).unwrap();
        for i in 0..=10_000 {
            let v = -100.0f32 + 200.0 * (i as f32 / 10_000.0);
            let once = q.quantize(v);
            assert_eq!(once, q.quantize(once), "v={v}");
        }
    }
}
