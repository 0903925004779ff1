//! [`QuantData`]: dense integer-code storage for the fixed-point path.

use crate::params::IntWidth;

/// Integer codes stored at the narrowest width that holds their format
/// ([`crate::QuantParams::width`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantData {
    /// 8-bit codes (formats up to 8 total bits).
    I8(Vec<i8>),
    /// 16-bit codes (formats of 9 to 16 total bits).
    I16(Vec<i16>),
}

impl QuantData {
    /// Number of codes.
    pub fn len(&self) -> usize {
        match self {
            QuantData::I8(v) => v.len(),
            QuantData::I16(v) => v.len(),
        }
    }

    /// Returns `true` if there are no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds storage of the given width from wide codes, saturating into
    /// the storage range (callers saturate into the *format* range first;
    /// this is a final safety clamp at the storage boundary).
    ///
    /// ```
    /// use bnn_quant::{FixedPointFormat, IntWidth, QuantData, QuantParams};
    ///
    /// let p = QuantParams::new(FixedPointFormat::new(8, 3).unwrap()).unwrap();
    /// let codes = [0.375f32, -1e6].iter().map(|&v| p.quantize_value(v));
    /// let data = QuantData::from_codes(p.width(), codes);
    /// assert_eq!(data, QuantData::I8(vec![12, -128]));
    /// // Out-of-storage codes clamp instead of wrapping.
    /// let wide = QuantData::from_codes(IntWidth::W8, [300i64, -300].into_iter());
    /// assert_eq!(wide, QuantData::I8(vec![127, -128]));
    /// ```
    pub fn from_codes(width: IntWidth, codes: impl Iterator<Item = i64>) -> QuantData {
        match width {
            IntWidth::W8 => QuantData::I8(codes.map(|c| c.clamp(-128, 127) as i8).collect()),
            IntWidth::W16 => QuantData::I16(codes.map(|c| c.clamp(-32768, 32767) as i16).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_width_follows_format() {
        let codes = [32i64, -1000, 1000];
        let q8 = QuantData::from_codes(IntWidth::W8, codes.into_iter());
        assert_eq!(q8, QuantData::I8(vec![32, -128, 127]));
        let q16 = QuantData::from_codes(IntWidth::W16, codes.into_iter());
        assert_eq!(q16, QuantData::I16(vec![32, -1000, 1000]));
        assert_eq!(q16.len(), 3);
        assert!(!q16.is_empty());
    }
}
