//! Error type for the fault-injection crate.

use std::fmt;

use dnnip_accel::AccelError;
use dnnip_nn::NnError;
use dnnip_tensor::TensorError;

/// Convenience alias for `Result<T, FaultError>`.
pub type Result<T> = std::result::Result<T, FaultError>;

/// Errors produced while generating or applying perturbations.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying network operation failed.
    Nn(NnError),
    /// An underlying accelerator operation failed.
    Accel(AccelError),
    /// An attack needs probe inputs but none were supplied.
    NoProbes {
        /// Name of the attack.
        attack: &'static str,
    },
    /// An attack was configured with invalid parameters.
    InvalidConfig {
        /// Description of what is wrong.
        reason: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Tensor(e) => write!(f, "tensor error: {e}"),
            FaultError::Nn(e) => write!(f, "network error: {e}"),
            FaultError::Accel(e) => write!(f, "accelerator error: {e}"),
            FaultError::NoProbes { attack } => {
                write!(f, "attack `{attack}` requires at least one probe input")
            }
            FaultError::InvalidConfig { reason } => write!(f, "invalid attack config: {reason}"),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Tensor(e) => Some(e),
            FaultError::Nn(e) => Some(e),
            FaultError::Accel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for FaultError {
    fn from(e: TensorError) -> Self {
        FaultError::Tensor(e)
    }
}

impl From<NnError> for FaultError {
    fn from(e: NnError) -> Self {
        FaultError::Nn(e)
    }
}

impl From<AccelError> for FaultError {
    fn from(e: AccelError) -> Self {
        FaultError::Accel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = FaultError::NoProbes { attack: "sba" };
        assert!(e.to_string().contains("sba"));
        assert!(e.source().is_none());
        let e: FaultError = NnError::EmptyNetwork.into();
        assert!(e.source().is_some());
        let e: FaultError = AccelError::Nn(NnError::EmptyNetwork).into();
        assert!(e.to_string().contains(&NnError::EmptyNetwork.to_string()));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultError>();
    }
}
