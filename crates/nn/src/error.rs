//! Error type for the neural-network substrate.

use std::fmt;

use dnnip_tensor::TensorError;

/// Convenience alias for `Result<T, NnError>`.
pub type Result<T> = std::result::Result<T, NnError>;

/// Errors produced while building, running or (de)serializing networks.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed (shape mismatch, bad geometry, …).
    Tensor(TensorError),
    /// A layer received an input whose shape it cannot process.
    BadInputShape {
        /// Layer that rejected the input.
        layer: String,
        /// Shape it received.
        got: Vec<usize>,
        /// Description of what it expected.
        expected: String,
    },
    /// The network has no layers.
    EmptyNetwork,
    /// A flat parameter or gradient vector has the wrong length.
    ParamLengthMismatch {
        /// Expected length (the network's parameter count).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A global parameter index is out of range.
    ParamIndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Number of parameters in the network.
        num_params: usize,
    },
    /// A label is outside the valid class range.
    InvalidLabel {
        /// Offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
    /// The serialized byte stream is malformed or has an unsupported version.
    Deserialize(String),
    /// Training was requested with an empty dataset or inconsistent inputs/labels.
    InvalidTrainingData(String),
    /// A graph node references a node that is not defined before it.
    ///
    /// Graph nodes are stored in topological order, so an edge pointing at the
    /// node itself or a later node would form a cycle (or forward reference),
    /// which the executor cannot schedule.
    GraphCycle {
        /// Index of the node holding the offending edge.
        node: usize,
        /// The referenced node index (>= `node`).
        input: usize,
    },
    /// A graph node references a node index that does not exist at all.
    GraphDanglingEdge {
        /// Index of the node holding the offending edge.
        node: usize,
        /// The referenced node index.
        input: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// A graph node's inputs have shapes its op cannot combine.
    GraphShapeMismatch {
        /// Index of the offending node.
        node: usize,
        /// Name of the op at that node.
        op: String,
        /// What went wrong and how to fix it.
        reason: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
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
            NnError::EmptyNetwork => write!(f, "network has no layers"),
            NnError::ParamLengthMismatch { expected, got } => {
                write!(f, "parameter vector length {got} does not match network parameter count {expected}")
            }
            NnError::ParamIndexOutOfRange { index, num_params } => {
                write!(
                    f,
                    "parameter index {index} out of range for {num_params} parameters"
                )
            }
            NnError::InvalidLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::Deserialize(msg) => write!(f, "deserialization failed: {msg}"),
            NnError::InvalidTrainingData(msg) => write!(f, "invalid training data: {msg}"),
            NnError::GraphCycle { node, input } => {
                write!(
                    f,
                    "graph node {node} references node {input}, which is not defined before it: \
                     nodes must be listed in topological order (an edge to the node itself or a \
                     later node would form a cycle); reorder the nodes so every edge points at an \
                     earlier node"
                )
            }
            NnError::GraphDanglingEdge {
                node,
                input,
                num_nodes,
            } => {
                write!(
                    f,
                    "graph node {node} references node {input}, but the graph only has \
                     {num_nodes} nodes (valid indices are 0..{num_nodes}); remove the dangling \
                     edge or add the missing node"
                )
            }
            NnError::GraphShapeMismatch { node, op, reason } => {
                write!(f, "graph node {node} ({op}): {reason}")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
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
    fn display_is_informative() {
        let e = NnError::ParamLengthMismatch {
            expected: 10,
            got: 7,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('7'));
        let t: NnError = TensorError::EmptyTensor { op: "max" }.into();
        assert!(t.to_string().contains("max"));
    }

    #[test]
    fn graph_errors_are_actionable() {
        let cycle = NnError::GraphCycle { node: 3, input: 5 };
        assert!(cycle.to_string().contains("topological order"));
        assert!(cycle.to_string().contains('3') && cycle.to_string().contains('5'));
        let dangling = NnError::GraphDanglingEdge {
            node: 2,
            input: 9,
            num_nodes: 4,
        };
        assert!(dangling.to_string().contains("dangling"));
        assert!(dangling.to_string().contains("0..4"));
        let shape = NnError::GraphShapeMismatch {
            node: 1,
            op: "Add".to_string(),
            reason: "inputs disagree".to_string(),
        };
        assert!(shape.to_string().contains("Add"));
    }

    #[test]
    fn source_chains_to_tensor_error() {
        use std::error::Error;
        let t: NnError = TensorError::EmptyTensor { op: "max" }.into();
        assert!(t.source().is_some());
        assert!(NnError::EmptyNetwork.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
