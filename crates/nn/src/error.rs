//! Error type for the neural-network engine.

use bnn_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error returned by layers, losses and training utilities.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor operation failed (shape mismatch, bad index, ...).
    Tensor(TensorError),
    /// A layer was configured with invalid hyper-parameters.
    InvalidConfig(String),
    /// `backward` was called before `forward` (no cached activations).
    MissingForwardCache {
        /// Name of the offending layer.
        layer: String,
    },
    /// The input shape is incompatible with the layer.
    BadInputShape {
        /// Name of the offending layer.
        layer: String,
        /// The shape received.
        got: Vec<usize>,
        /// Human-readable description of the expected shape.
        expected: String,
    },
    /// Labels and predictions disagree in batch size, or a label is out of range.
    BadLabels(String),
    /// A network's forward pass returned no exit logits.
    NoExits {
        /// Name of the offending network.
        network: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::InvalidConfig(msg) => write!(f, "invalid layer configuration: {msg}"),
            NnError::MissingForwardCache { layer } => {
                write!(f, "backward called before forward on layer `{layer}`")
            }
            NnError::BadInputShape {
                layer,
                got,
                expected,
            } => {
                write!(
                    f,
                    "layer `{layer}` got input shape {got:?}, expected {expected}"
                )
            }
            NnError::BadLabels(msg) => write!(f, "bad labels: {msg}"),
            NnError::NoExits { network } => {
                write!(f, "network `{network}` returned no exit logits")
            }
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = NnError::from(TensorError::InvalidArgument("x".into()));
        assert!(e.to_string().contains("tensor error"));
        assert!(e.source().is_some());
        let e = NnError::InvalidConfig("kernel 0".into());
        assert!(e.to_string().contains("kernel 0"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
