//! Dense `f32` tensor substrate for the `dnnip` workspace.
//!
//! This crate provides the numerical foundation every other `dnnip` crate builds on:
//!
//! * [`Tensor`] — an owned, row-major, dense `f32` array of arbitrary rank with
//!   shape-checked element-wise arithmetic, reductions and reshaping.
//! * [`ops`] — linear-algebra kernels (matrix multiplication, transposition,
//!   row access, stacking) used by the fully-connected layers.
//! * [`kernels`] — the cache-blocked, register-tiled matmul micro-kernels
//!   behind [`ops::matmul`] and the batched engine's `a · bᵀ` products,
//!   bit-identical to the naive reference loops.
//! * [`hash`] — the workspace's one hash kernel: keyed multiply-rotate lane
//!   chains behind every tensor's memoized 128-bit content key
//!   ([`Tensor::content_keys`]), the model, suite and disk-record checksums
//!   and the network fingerprints of `dnnip-nn`.
//! * [`arena`] — the [`ScratchArena`] of reusable scratch buffers the batched
//!   gradient engine threads through its hot loops.
//! * [`conv`] — convolution and pooling primitives (direct and im2col-based
//!   forward passes, full backward passes) used by the convolutional layers.
//! * [`init`] — reproducible weight initializers (uniform, normal, Xavier/Glorot,
//!   He) driven by an explicit RNG so every experiment is seedable.
//! * [`par`] — the [`par::ExecPolicy`] execution knob and a std-only
//!   scoped-thread worker pool shared by every parallel loop in the workspace,
//!   with serial and threaded execution guaranteed bit-identical.
//!
//! The crate deliberately avoids views and broadcasting magic, and it denies
//! `unsafe_code` everywhere but the AVX-512 register tile of [`kernels`]: all
//! operations copy into freshly-allocated output tensors and validate shapes,
//! returning [`TensorError`] on mismatch. The networks used by the DATE 2019
//! reproduction are small enough that clarity and testability win over raw
//! throughput; perfbench measures the kernels that matter so regressions stay
//! visible: `tensor.gemm_gflops` times the blocked gemm, and the `nn.*`
//! metrics time each model's forward, parameter-gradient and input-gradient
//! passes, where the im2col convolutions run.
//!
//! # Example
//!
//! ```
//! use dnnip_tensor::Tensor;
//!
//! # fn main() -> Result<(), dnnip_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::full(&[2, 2], 0.5);
//! let sum = a.add(&b)?;
//! assert_eq!(sum.data(), &[1.5, 2.5, 3.5, 4.5]);
//! let prod = dnnip_tensor::ops::matmul(&a, &b)?;
//! assert_eq!(prod.shape(), &[2, 2]);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod tensor;

pub mod arena;
pub mod conv;
pub mod hash;
pub mod init;
pub mod kernels;
pub mod ops;
pub mod par;
pub mod shape;

pub use arena::ScratchArena;
pub use error::{Result, TensorError};
pub use tensor::Tensor;
