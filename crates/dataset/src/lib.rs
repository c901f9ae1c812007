//! Synthetic image datasets standing in for MNIST, CIFAR-10, ImageNet and
//! Gaussian-noise image families.
//!
//! The DATE 2019 paper evaluates its functional-test generation on MNIST and
//! CIFAR-10 and compares the validation coverage of training images against
//! ImageNet photographs and pure noise (its Fig. 2). None of those datasets are
//! available offline, so this crate generates procedural stand-ins with the
//! properties the experiments actually rely on:
//!
//! * [`digits`] — an MNIST-like family: ten stroke-based digit glyphs rendered on
//!   a grayscale grid with random affine jitter, stroke-width variation and pixel
//!   noise. Classes are visually distinct and easily learnable, so a trained
//!   model uses most of its parameters on them.
//! * [`objects`] — a CIFAR-10-like family: ten parametric colour shapes/textures
//!   (circle, square, stripes, checkerboard, …) over textured backgrounds.
//! * [`ood`] — an "ImageNet-like" out-of-distribution family: multi-scale value
//!   noise with random geometric content. Structured, but drawn from a different
//!   distribution than either training family.
//! * [`noise`] — Gaussian noise images, the paper's weakest baseline.
//! * [`render`] — ASCII-art and PGM dumps used to reproduce Fig. 4
//!   (real vs synthetic training samples).
//!
//! All generators are deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use dnnip_dataset::{digits::DigitConfig, digits};
//!
//! let data = digits::synthetic_mnist(&DigitConfig::with_size(16), 50, 7);
//! assert_eq!(data.len(), 50);
//! assert_eq!(data.inputs[0].shape(), &[1, 16, 16]);
//! assert!(data.labels.iter().all(|&l| l < 10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod labeled;

pub mod digits;
pub mod noise;
pub mod objects;
pub mod ood;
pub mod render;

pub use labeled::LabeledDataset;
