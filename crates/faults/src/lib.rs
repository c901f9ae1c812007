//! Parameter perturbation models and the output match policy of suite replays.
//!
//! The DATE 2019 paper measures how well its functional tests detect three kinds
//! of parameter tampering (Tables II & III):
//!
//! * **SBA** — the *single bias attack* of Liu et al. (ICCAD'17): one bias is
//!   changed by a large amount, enough to flip classifications.
//! * **GDA** — the *gradient descent attack*: many parameters receive small,
//!   stealthy perturbations found by gradient descent on an adversarial
//!   objective.
//! * **Random** — Gaussian noise added to a random subset of parameters
//!   (modelling memory corruption / ageing rather than a deliberate attacker).
//!
//! This crate implements all three as [`attacks::Attack`] strategies producing
//! [`Perturbation`]s in the flat-parameter coordinate system of `dnnip-nn`, plus
//! a bit-level fault generator for the accelerator's weight memory and the
//! [`detection::MatchPolicy`] that compares observed with golden outputs. The
//! detection-rate harness is `dnnip_core::detection`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod perturbation;

pub mod attacks;
pub mod detection;

pub use error::{FaultError, Result};
pub use perturbation::{ParamEdit, Perturbation};
