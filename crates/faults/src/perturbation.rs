//! Parameter perturbations in the flat-parameter coordinate system.

use dnnip_accel::ip::AcceleratorIp;
use dnnip_nn::Network;

use crate::Result;

/// One modified parameter: its global index and the value it is set to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamEdit {
    /// Global parameter index (see [`dnnip_nn::params::ParamLayout`]).
    pub index: usize,
    /// The value the parameter is overwritten with.
    pub new_value: f32,
}

/// A set of parameter edits produced by an attack (or by a random fault model).
///
/// A perturbation is *descriptive*: it does not own a network. It can be applied
/// to a float [`Network`] (producing a tampered clone) or to the weight memory of
/// an [`AcceleratorIp`] (tampering in place), which mirrors the two deployment
/// scenarios in the paper's threat model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Perturbation {
    /// The individual parameter edits (at most one per index).
    pub edits: Vec<ParamEdit>,
    /// Short attack name for reporting (e.g. `"sba"`, `"gda"`, `"random"`).
    pub source: &'static str,
}

impl Perturbation {
    /// Create a perturbation from edits.
    pub fn new(edits: Vec<ParamEdit>, source: &'static str) -> Self {
        Self { edits, source }
    }

    /// Number of parameters touched.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether the perturbation touches no parameters.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// The global indices touched by this perturbation.
    pub fn indices(&self) -> Vec<usize> {
        self.edits.iter().map(|e| e.index).collect()
    }

    /// Largest absolute change this perturbation makes relative to `network`.
    ///
    /// # Errors
    ///
    /// Returns an error if any edit index is out of range for the network.
    pub fn max_abs_change(&self, network: &Network) -> Result<f32> {
        let mut max = 0.0f32;
        for edit in &self.edits {
            let old = network.parameter(edit.index)?;
            max = max.max((edit.new_value - old).abs());
        }
        Ok(max)
    }

    /// Apply to a float network, returning a tampered clone.
    ///
    /// # Errors
    ///
    /// Returns an error if any edit index is out of range.
    pub fn apply_to_network(&self, network: &Network) -> Result<Network> {
        let mut tampered = network.clone();
        for edit in &self.edits {
            tampered.set_parameter(edit.index, edit.new_value)?;
        }
        Ok(tampered)
    }

    /// Apply to an accelerator IP's weight memory in place.
    ///
    /// The written values are re-quantized by the memory's fixed-point format, so
    /// the effective perturbation is what an attacker writing to DRAM could
    /// actually achieve.
    ///
    /// # Errors
    ///
    /// Returns an error if any edit index is out of range for the memory image.
    pub fn apply_to_accelerator(&self, ip: &mut AcceleratorIp) -> Result<()> {
        for edit in &self.edits {
            ip.memory_mut()
                .write_parameter(edit.index, edit.new_value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_accel::quant::BitWidth;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;
    use dnnip_tensor::Tensor;

    fn net() -> Network {
        zoo::tiny_mlp(4, 8, 3, Activation::Relu, 5).unwrap()
    }

    /// A perturbation setting each `(index, value)` pair.
    fn edits(pairs: &[(usize, f32)]) -> Perturbation {
        let edits = pairs
            .iter()
            .map(|&(index, new_value)| ParamEdit { index, new_value });
        Perturbation::new(edits.collect(), "test")
    }

    #[test]
    fn basic_accessors() {
        let p = edits(&[(1, 2.0), (7, -1.0)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.indices(), vec![1, 7]);
        assert!(Perturbation::default().is_empty());
    }

    #[test]
    fn apply_to_network_changes_only_listed_indices() {
        let network = net();
        let p = edits(&[(3, 9.0)]);
        let tampered = p.apply_to_network(&network).unwrap();
        assert_eq!(tampered.parameter(3).unwrap(), 9.0);
        // All other parameters are untouched.
        let orig = network.parameters_flat();
        let new = tampered.parameters_flat();
        let diffs = orig.iter().zip(&new).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        assert!((p.max_abs_change(&network).unwrap() - (9.0 - orig[3]).abs()).abs() < 1e-6);
    }

    #[test]
    fn apply_out_of_range_fails() {
        let network = net();
        let p = edits(&[(network.num_parameters(), 1.0)]);
        assert!(p.apply_to_network(&network).is_err());
        assert!(p.max_abs_change(&network).is_err());
    }

    #[test]
    fn apply_to_accelerator_respects_quantization() {
        let network = net();
        let mut ip = AcceleratorIp::from_network(&network, BitWidth::Int16);
        let golden = AcceleratorIp::from_network(&network, BitWidth::Int16);
        // The last bias always reaches the output.
        let p = edits(&[(0, 0.3), (network.num_parameters() - 1, 10.0)]);
        p.apply_to_accelerator(&mut ip).unwrap();
        assert!(ip.memory().count_differences(golden.memory()) >= 1);
        let read_back = ip.memory().read_parameter(0).unwrap();
        assert!((read_back - 0.3).abs() < 0.01);
        let x = Tensor::from_fn(&[4], |i| i as f32 * 0.2 + 0.1);
        let a = dnnip_accel::ip::DnnIp::infer(&golden, &x).unwrap();
        let b = dnnip_accel::ip::DnnIp::infer(&ip, &x).unwrap();
        assert!(!a.approx_eq(&b, 1e-3), "outputs {a} and {b} should differ");
    }
}
