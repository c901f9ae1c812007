//! `dnnip` — functional test generation and black-box validation for DNN IP
//! cores.
//!
//! This is the umbrella crate of the workspace reproducing *"On Functional Test
//! Generation for Deep Neural Network IPs"* (Luo, Li, Wei, Xu — DATE 2019). It
//! re-exports every sub-crate under a stable module name so applications (and the
//! examples and integration tests in this repository) can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `dnnip-tensor` | dense `f32` tensors, conv/pool kernels |
//! | [`nn`] | `dnnip-nn` | the one model type (chains and Add/Concat graphs), layers, backprop, batched engine, model format, SGD training, model zoo |
//! | [`dataset`] | `dnnip-dataset` | synthetic MNIST/CIFAR/OOD/noise image families |
//! | [`accel`] | `dnnip-accel` | black-box accelerator IP simulator + weight memory |
//! | [`faults`] | `dnnip-faults` | SBA / GDA / random attacks, bit faults, output match policy |
//! | [`core`] | `dnnip-core` | validation coverage, Algorithms 1/2, combined generator, protocol, detection harness |
//!
//! # Quickstart
//!
//! ```
//! use dnnip::core::coverage::CoverageConfig;
//! use dnnip::core::generator::GenerationMethod;
//! use dnnip::core::workspace::{TestGenRequest, Workspace};
//! use dnnip::nn::{layers::Activation, zoo};
//! use dnnip::tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A (toy) vendor model and a handful of training inputs.
//! let model = zoo::tiny_mlp(8, 16, 4, Activation::Relu, 7)?;
//! let training: Vec<Tensor> = (0..32)
//!     .map(|i| Tensor::from_fn(&[8], |j| ((i * 8 + j) as f32 * 0.17).sin().abs()))
//!     .collect();
//!
//! // Register the model in a Workspace (the session front-door: one shared
//! // cache budget, optional cross-process persistence) and run the paper's
//! // combined method through one declarative request.
//! let ws = Workspace::new();
//! let key = ws.register("toy", model, CoverageConfig::default());
//! let report = ws.run(
//!     &TestGenRequest::new(key, GenerationMethod::Combined, 10).with_candidates(training),
//! )?;
//! assert!(report.final_coverage() > 0.5);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the full vendor → user flow including the simulated
//! accelerator IP and attack detection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dnnip_accel as accel;
pub use dnnip_core as core;
pub use dnnip_dataset as dataset;
pub use dnnip_faults as faults;
pub use dnnip_nn as nn;
pub use dnnip_tensor as tensor;

/// Convenience prelude importing the types most applications touch.
pub mod prelude {
    pub use dnnip_accel::ip::{AcceleratorIp, DnnIp, FloatIp};
    pub use dnnip_accel::quant::BitWidth;
    pub use dnnip_core::coverage::CoverageConfig;
    pub use dnnip_core::criterion::{
        CoverageCriterion, NeuronActivation, ParamGradient, TopKNeuron,
    };
    pub use dnnip_core::detection::{detection_rate, DetectionConfig, DetectionReport};
    pub use dnnip_core::eval::{CacheStats, CoveredSetCache, Evaluator};
    pub use dnnip_core::generator::GenerationMethod;
    pub use dnnip_core::persist::DiskStats;
    pub use dnnip_core::protocol::FunctionalTestSuite;
    pub use dnnip_core::workspace::{
        CriterionSpec, DiskCacheConfig, TestGenReport, TestGenRequest, Workspace, WorkspaceConfig,
    };
    pub use dnnip_faults::attacks::{
        Attack, GradientDescentAttack, RandomPerturbation, SingleBiasAttack,
    };
    pub use dnnip_faults::detection::MatchPolicy;
    pub use dnnip_nn::layers::Activation;
    pub use dnnip_nn::{zoo, Network};
    pub use dnnip_tensor::Tensor;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let net = zoo::tiny_mlp(4, 4, 2, Activation::Relu, 0).unwrap();
        let ip = FloatIp::new(net);
        assert_eq!(ip.num_classes(), 2);
    }
}
