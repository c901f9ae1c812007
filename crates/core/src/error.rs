//! Error type for the core test-generation crate.

use std::fmt;
use std::time::Instant;

use dnnip_faults::FaultError;
use dnnip_nn::NnError;
use dnnip_tensor::TensorError;

/// Convenience alias for `Result<T, CoreError>`.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors produced by coverage analysis, test generation and the validation
/// protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying network operation failed.
    Nn(NnError),
    /// An underlying fault/detection operation failed.
    Fault(FaultError),
    /// Generation or coverage was configured inconsistently.
    InvalidConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A candidate pool (training set) required by a generator is empty.
    EmptyCandidatePool,
    /// A functional-test suite is malformed (e.g. inputs/outputs length mismatch).
    InvalidSuite {
        /// What is wrong with the suite.
        reason: String,
    },
    /// The request's deadline passed before its work finished.
    DeadlineExceeded,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Fault(e) => write!(f, "fault error: {e}"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::EmptyCandidatePool => write!(f, "candidate pool is empty"),
            CoreError::InvalidSuite { reason } => write!(f, "invalid test suite: {reason}"),
            CoreError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// [`CoreError::DeadlineExceeded`] once `deadline` has passed; `Ok` while it
/// has not, or when there is none.
pub(crate) fn check_deadline(deadline: Option<Instant>) -> Result<()> {
    match deadline {
        Some(deadline) if Instant::now() >= deadline => Err(CoreError::DeadlineExceeded),
        _ => Ok(()),
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<FaultError> for CoreError {
    fn from(e: FaultError) -> Self {
        CoreError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        use std::error::Error;
        let e: CoreError = NnError::EmptyNetwork.into();
        assert!(e.to_string().contains("network"));
        assert!(e.source().is_some());
        assert!(CoreError::EmptyCandidatePool.source().is_none());
        let e: CoreError = TensorError::EmptyTensor { op: "max" }.into();
        assert!(e.to_string().contains("max"));
        let e: CoreError = FaultError::NoProbes { attack: "gda" }.into();
        assert!(e.to_string().contains("gda"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
