//! Error type for model construction and analysis.

use bnn_nn::NnError;
use bnn_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error returned by model specification, analysis and instantiation.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An underlying layer failed.
    Nn(NnError),
    /// A tensor operation failed.
    Tensor(TensorError),
    /// The architecture specification is inconsistent (bad exit index, shape
    /// that does not propagate, ...).
    InvalidSpec(String),
    /// A caller-supplied input was malformed: an inference batch that is
    /// empty, non-finite or shaped unlike what the plan was compiled for, or
    /// a checkpoint holding a NaN or infinite value.
    InvalidInput(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Nn(e) => write!(f, "layer error: {e}"),
            ModelError::Tensor(e) => write!(f, "tensor error: {e}"),
            ModelError::InvalidSpec(msg) => write!(f, "invalid architecture spec: {msg}"),
            ModelError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Nn(e) => Some(e),
            ModelError::Tensor(e) => Some(e),
            ModelError::InvalidSpec(_) | ModelError::InvalidInput(_) => None,
        }
    }
}

impl From<NnError> for ModelError {
    fn from(e: NnError) -> Self {
        ModelError::Nn(e)
    }
}

impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ModelError::InvalidSpec("x".into())
            .to_string()
            .contains("x"));
        let e = ModelError::from(NnError::InvalidConfig("y".into()));
        assert!(e.to_string().contains("y"));
        assert!(e.source().is_some());
        let e = ModelError::from(TensorError::InvalidArgument("z".into()));
        assert!(e.source().is_some());
        let e = ModelError::InvalidInput("empty batch".into());
        assert!(e.to_string().contains("empty batch"));
        assert!(e.source().is_none());
    }
}
