//! Error type for HLS code generation.

use bnn_quant::QuantError;
use std::error::Error;
use std::fmt;

/// Error returned by the HLS project generator.
#[derive(Debug, Clone, PartialEq)]
pub enum HlsError {
    /// The fixed-point configuration is invalid.
    Quant(QuantError),
    /// The generator configuration is invalid.
    InvalidConfig(String),
    /// The requested format has no HLS emission rule: it is wider than the
    /// 16-bit integer path. Raised instead of silently falling back to the
    /// global-width emitter.
    Unsupported(String),
    /// The golden-reference simulator rejected its input (shape mismatch,
    /// empty batch, NaN/infinite values, or a design without exits).
    Sim(String),
    /// Writing the project to disk failed.
    Io(String),
}

impl fmt::Display for HlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlsError::Quant(e) => write!(f, "quantization error: {e}"),
            HlsError::InvalidConfig(msg) => write!(f, "invalid HLS configuration: {msg}"),
            HlsError::Unsupported(msg) => write!(f, "no HLS emission rule: {msg}"),
            HlsError::Sim(msg) => write!(f, "HLS golden simulation error: {msg}"),
            HlsError::Io(msg) => write!(f, "failed to write HLS project: {msg}"),
        }
    }
}

impl Error for HlsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HlsError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QuantError> for HlsError {
    fn from(e: QuantError) -> Self {
        HlsError::Quant(e)
    }
}

impl From<std::io::Error> for HlsError {
    fn from(e: std::io::Error) -> Self {
        HlsError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(HlsError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        assert!(HlsError::Io("y".into()).to_string().contains("y"));
        let e = HlsError::Unsupported("exotic_layer".into());
        assert!(e.to_string().contains("no HLS emission rule"));
        assert!(e.to_string().contains("exotic_layer"));
        assert!(HlsError::Sim("empty batch".into())
            .to_string()
            .contains("empty batch"));
        let e = HlsError::from(QuantError::InvalidFormat("q".into()));
        assert!(e.source().is_some());
    }
}
