//! Error type for quantization.

use std::error::Error;
use std::fmt;

/// Error returned by quantization configuration, calibration, lowering and
/// search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// The fixed-point format is invalid (zero width, integer bits > width, ...).
    InvalidFormat(String),
    /// A search was configured with no candidates or an invalid tolerance.
    InvalidSearch(String),
    /// The requested lowering is not supported by the integer path (a layer
    /// without an inference lowering, or a format wider than 16 bits).
    Unsupported(String),
    /// Calibration or quantization encountered a NaN or infinite value,
    /// which has no fixed-point representation.
    NonFinite(String),
    /// An internal shape or tensor-operation failure while executing the
    /// quantized graph.
    Internal(String),
    /// A caller-supplied input batch was malformed: empty, or its shape does
    /// not match the input shape the plan was compiled for. This is the
    /// serving-path error — malformed requests must surface as a typed,
    /// recoverable error rather than a panic or a silently mis-shaped
    /// output.
    InvalidInput(String),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidFormat(msg) => write!(f, "invalid fixed-point format: {msg}"),
            QuantError::InvalidSearch(msg) => write!(f, "invalid bitwidth search: {msg}"),
            QuantError::Unsupported(msg) => write!(f, "unsupported integer lowering: {msg}"),
            QuantError::NonFinite(msg) => write!(f, "non-finite value: {msg}"),
            QuantError::Internal(msg) => write!(f, "internal quantization error: {msg}"),
            QuantError::InvalidInput(msg) => write!(f, "invalid inference input: {msg}"),
        }
    }
}

impl Error for QuantError {}

impl From<bnn_models::ModelError> for QuantError {
    fn from(e: bnn_models::ModelError) -> Self {
        match e {
            bnn_models::ModelError::InvalidInput(msg) => QuantError::InvalidInput(msg),
            other => QuantError::Internal(other.to_string()),
        }
    }
}

impl From<bnn_tensor::TensorError> for QuantError {
    fn from(e: bnn_tensor::TensorError) -> Self {
        QuantError::Internal(e.to_string())
    }
}

impl From<bnn_nn::NnError> for QuantError {
    fn from(e: bnn_nn::NnError) -> Self {
        match e {
            bnn_nn::NnError::UnsupportedLowering { layer } => {
                QuantError::Unsupported(format!("layer `{layer}` has no inference lowering"))
            }
            other => QuantError::Internal(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(QuantError::InvalidFormat("w".into())
            .to_string()
            .contains("w"));
        assert!(QuantError::InvalidSearch("s".into())
            .to_string()
            .contains("s"));
        assert!(QuantError::Unsupported("softmax".into())
            .to_string()
            .contains("softmax"));
        assert!(QuantError::NonFinite("NaN".into())
            .to_string()
            .contains("NaN"));
        assert!(QuantError::Internal("shape".into())
            .to_string()
            .contains("shape"));
        assert!(QuantError::InvalidInput("empty batch".into())
            .to_string()
            .contains("empty batch"));
    }

    #[test]
    fn nn_lowering_errors_map_to_unsupported() {
        let e = QuantError::from(bnn_nn::NnError::UnsupportedLowering {
            layer: "softmax".into(),
        });
        assert!(matches!(e, QuantError::Unsupported(_)));
        let e = QuantError::from(bnn_nn::NnError::InvalidConfig("x".into()));
        assert!(matches!(e, QuantError::Internal(_)));
    }
}
