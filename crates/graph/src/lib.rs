//! Older names of the model graph.
//!
//! Every model — a chain or a graph with residual Add and branch Concat
//! nodes — is a [`dnnip_nn::Network`]: its node list, builder
//! ([`dnnip_nn::graph::GraphBuilder`]), executor, serializer and fingerprint
//! all live in `dnnip-nn`, and the residual and branching models in
//! [`dnnip_nn::zoo`]. This crate keeps two names that callers written
//! against the separate graph type still use: `Graph`, which is `Network`,
//! and `zoo`, which re-exports the two graph models.
//!
//! ```
//! use dnnip_nn::{zoo, Network};
//! use dnnip_tensor::Tensor;
//!
//! # fn main() -> Result<(), dnnip_nn::NnError> {
//! let net: Network = zoo::residual_classifier(42)?;
//! assert!(!net.is_linear()); // an Add node joins the skip connection
//! let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i as f32 * 0.05).sin());
//! assert_eq!(net.forward(&x)?.shape(), &[2, 10]);
//!
//! // The older names are the same type and the same models.
//! let graph: dnnip_graph::Graph = dnnip_graph::zoo::residual_classifier(42)?;
//! assert_eq!(graph.nodes(), net.nodes());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub use dnnip_nn::Network as Graph;

#[doc(hidden)]
pub mod zoo {
    pub use dnnip_nn::zoo::{branching_classifier, residual_classifier};
}
