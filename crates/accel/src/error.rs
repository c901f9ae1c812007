//! Error type for the accelerator simulator.

use std::fmt;

use dnnip_nn::NnError;
use dnnip_tensor::TensorError;

/// Convenience alias for `Result<T, AccelError>`.
pub type Result<T> = std::result::Result<T, AccelError>;

/// Errors produced by quantization, weight-memory access and IP inference.
#[derive(Debug, Clone, PartialEq)]
pub enum AccelError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying network operation failed.
    Nn(NnError),
    /// A parameter, byte or bit address is outside the weight memory.
    AddressOutOfRange {
        /// Offending address.
        address: usize,
        /// Size of the addressed space.
        size: usize,
        /// What kind of address was used ("parameter", "byte", "bit").
        unit: &'static str,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::Tensor(e) => write!(f, "tensor error: {e}"),
            AccelError::Nn(e) => write!(f, "network error: {e}"),
            AccelError::AddressOutOfRange {
                address,
                size,
                unit,
            } => {
                write!(f, "{unit} address {address} out of range (size {size})")
            }
        }
    }
}

impl std::error::Error for AccelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccelError::Tensor(e) => Some(e),
            AccelError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for AccelError {
    fn from(e: TensorError) -> Self {
        AccelError::Tensor(e)
    }
}

impl From<NnError> for AccelError {
    fn from(e: NnError) -> Self {
        AccelError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AccelError::AddressOutOfRange {
            address: 100,
            size: 10,
            unit: "bit",
        };
        assert!(e.to_string().contains("bit"));
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn error_is_send_sync_and_chains() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccelError>();
        use std::error::Error;
        let e: AccelError = TensorError::EmptyTensor { op: "max" }.into();
        assert!(e.source().is_some());
    }
}
