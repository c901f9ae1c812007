//! Neural-network substrate for the `dnnip` workspace.
//!
//! `dnnip-nn` implements everything the DATE 2019 paper's experiments need from a
//! deep-learning framework, from scratch and CPU-only:
//!
//! * [`layers`] — convolution, max-pooling, flatten, fully-connected and
//!   element-wise activation layers with hand-written forward **and** backward
//!   passes.
//! * [`Network`] — the one model type: layers wired by a node list (a chain,
//!   or a graph with residual Add and branch Concat nodes built by
//!   [`graph::GraphBuilder`]), exposing the two gradient surfaces the paper
//!   relies on: gradients with respect to **parameters** (`∇θF(x)`, used by
//!   the validation-coverage metric) and with respect to the **input**
//!   (`∇x J(x, y, θ)`, used by gradient-based test generation).
//! * [`batch`] — the batched engine every criterion and the test generator
//!   run on, tested against [`Network`]'s per-sample passes.
//! * [`loss`] — cross-entropy (with built-in softmax) and mean-squared-error.
//! * [`train`] — a small SGD-with-momentum training loop over the flat
//!   parameter vector, with accuracy evaluation, enough to train the Table-I
//!   models on the synthetic datasets.
//! * [`zoo`] — the paper's MNIST (Tanh) and CIFAR-10 (ReLU) architectures plus
//!   scaled-down variants used by tests and fast experiment profiles.
//! * [`serialize`] — the versioned, checksummed node-list format for saving,
//!   exporting and importing networks (used by the vendor/user protocol's
//!   suite format and by `dnnip-import`).
//! * [`fingerprint`] — the one hash kernel: the formats' checksum and 128-bit
//!   network fingerprints over the structure and the parameters in place,
//!   used by the evaluator layer to content-address cached activation sets.
//!
//! The crate's central design decision is the **flat parameter vector**: every
//! scalar parameter of a network has a stable global index (see
//! [`params::ParamLayout`]). Coverage bitsets, fault-injection attacks and
//! the training step all address parameters through that single coordinate
//! system, which is what makes the paper's "activate parameter θi"
//! bookkeeping straightforward.
//!
//! # Example
//!
//! ```
//! use dnnip_nn::{layers::Activation, zoo, Network};
//! use dnnip_tensor::Tensor;
//!
//! # fn main() -> Result<(), dnnip_nn::NnError> {
//! // A tiny MLP: 4 inputs, one hidden layer of 8, 3 classes.
//! let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 42)?;
//! let x = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4], &[1, 4])?;
//! let out = net.forward(&x)?;
//! assert_eq!(out.shape(), &[1, 3]);
//! assert_eq!(net.num_parameters(), 4 * 8 + 8 + 8 * 3 + 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
mod optim;

pub mod batch;
pub mod fingerprint;
pub mod graph;
pub mod layers;
pub mod loss;
pub mod params;
pub mod serialize;
pub mod train;
pub mod zoo;

pub use error::{NnError, Result};
pub use network::{BackwardResult, ForwardPass, Network};
