//! The black-box DNN IP interface and its two implementations.
//!
//! [`DnnIp`] is the only surface the paper's IP user ever sees: feed an input,
//! read the output logits. No parameter access, no intermediate activations.
//!
//! * [`FloatIp`] runs the float network directly — the vendor's golden reference.
//! * [`AcceleratorIp`] holds the network *architecture* plus a quantized
//!   [`WeightMemory`]; every inference reconstitutes the parameters from that
//!   memory, so whatever an attacker does to the memory is what the user observes.

use dnnip_nn::Network;
use dnnip_tensor::Tensor;

use crate::memory::WeightMemory;
use crate::quant::BitWidth;
use crate::Result;

/// A deployed DNN IP usable only as a black box.
///
/// Implementations must be deterministic: the same input always produces the
/// same output for an unmodified IP, which is what makes golden-output
/// comparison a sound validation mechanism.
pub trait DnnIp {
    /// Run inference on a single sample (shape = [`DnnIp::input_shape`]) and
    /// return the output logits (length = [`DnnIp::num_classes`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the IP's input.
    fn infer(&self, input: &Tensor) -> Result<Tensor>;

    /// Shape of a single input sample.
    fn input_shape(&self) -> &[usize];

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Predicted class (argmax of [`DnnIp::infer`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the IP's input.
    fn predict(&self, input: &Tensor) -> Result<usize> {
        Ok(self.infer(input)?.argmax()?)
    }
}

/// Golden reference IP: runs the float network directly.
#[derive(Debug, Clone)]
pub struct FloatIp {
    network: Network,
}

impl FloatIp {
    /// Wrap a float network as a black-box IP.
    pub fn new(network: Network) -> Self {
        Self { network }
    }

    /// Borrow the wrapped network (vendor-side only; the IP user never gets this).
    pub fn network(&self) -> &Network {
        &self.network
    }
}

impl DnnIp for FloatIp {
    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(self.network.forward_sample(input)?)
    }

    fn input_shape(&self) -> &[usize] {
        self.network.input_shape()
    }

    fn num_classes(&self) -> usize {
        self.network.num_classes()
    }
}

/// Simulated hardware accelerator IP: architecture + quantized off-chip weight
/// memory.
///
/// The architecture (layer structure) is fixed at construction; the parameters
/// used for every inference are read from the [`WeightMemory`], so memory
/// tampering directly changes the IP's behaviour — exactly the attack surface the
/// paper's functional validation is designed to expose.
#[derive(Debug, Clone)]
pub struct AcceleratorIp {
    architecture: Network,
    memory: WeightMemory,
}

impl AcceleratorIp {
    /// Build an accelerator IP from a trained network, quantizing its parameters
    /// into a fresh weight memory of the given width.
    pub fn from_network(network: &Network, width: BitWidth) -> Self {
        let memory = WeightMemory::from_network(network, width);
        Self {
            architecture: network.clone(),
            memory,
        }
    }

    /// Immutable view of the weight memory.
    pub fn memory(&self) -> &WeightMemory {
        &self.memory
    }

    /// Mutable access to the weight memory — this is the attacker's surface.
    pub fn memory_mut(&mut self) -> &mut WeightMemory {
        &mut self.memory
    }

    /// Materialize the network the accelerator is effectively running right now
    /// (architecture + dequantized current memory contents).
    ///
    /// # Errors
    ///
    /// Returns an error if the memory image length no longer matches the
    /// architecture (cannot happen through the public API).
    pub fn effective_network(&self) -> Result<Network> {
        let mut net = self.architecture.clone();
        net.set_parameters_flat(&self.memory.to_flat_parameters())?;
        Ok(net)
    }
}

impl DnnIp for AcceleratorIp {
    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let net = self.effective_network()?;
        Ok(net.forward_sample(input)?)
    }

    fn input_shape(&self) -> &[usize] {
        self.architecture.input_shape()
    }

    fn num_classes(&self) -> usize {
        self.architecture.num_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn sample(shape: &[usize], seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| ((i + seed) as f32 * 0.37).sin() * 0.5 + 0.5)
    }

    #[test]
    fn float_ip_matches_network() {
        let net = zoo::tiny_cnn(4, 3, Activation::Relu, 9).unwrap();
        let ip = FloatIp::new(net.clone());
        let x = sample(&[1, 8, 8], 0);
        assert!(ip
            .infer(&x)
            .unwrap()
            .approx_eq(&net.forward_sample(&x).unwrap(), 1e-6));
        assert_eq!(ip.input_shape(), &[1, 8, 8]);
        assert_eq!(ip.num_classes(), 3);
        assert_eq!(ip.predict(&x).unwrap(), net.predict_sample(&x).unwrap());
        assert!(ip.infer(&Tensor::zeros(&[8, 8])).is_err());
    }

    #[test]
    fn accelerator_ip_closely_tracks_float_ip_at_16_bits() {
        let net = zoo::tiny_mlp(8, 16, 4, Activation::Tanh, 4).unwrap();
        let float_ip = FloatIp::new(net.clone());
        let accel = AcceleratorIp::from_network(&net, BitWidth::Int16);
        for seed in 0..10 {
            let x = sample(&[8], seed);
            let a = float_ip.infer(&x).unwrap();
            let b = accel.infer(&x).unwrap();
            assert!(
                a.approx_eq(&b, 1e-2),
                "quantized output diverges: {a} vs {b}"
            );
            assert_eq!(float_ip.predict(&x).unwrap(), accel.predict(&x).unwrap());
        }
    }

    #[test]
    fn memory_tampering_changes_ip_behaviour() {
        let net = zoo::tiny_mlp(6, 12, 3, Activation::Relu, 7).unwrap();
        let mut accel = AcceleratorIp::from_network(&net, BitWidth::Int16);
        let golden = AcceleratorIp::from_network(&net, BitWidth::Int16);
        let x = sample(&[6], 1);
        let before = accel.infer(&x).unwrap();
        // Corrupt the last bias (always influences the output).
        let last = accel.memory().num_parameters() - 1;
        accel.memory_mut().write_parameter(last, 10.0).unwrap();
        let after = accel.infer(&x).unwrap();
        assert!(!before.approx_eq(&after, 1e-3));
        assert!(golden.infer(&x).unwrap().approx_eq(&before, 1e-6));
    }

    #[test]
    fn effective_network_reflects_memory_contents() {
        // Quantization is lossy at 8 bits on a real network.
        let cnn = zoo::tiny_cnn(4, 3, Activation::Relu, 11).unwrap();
        let int8 = AcceleratorIp::from_network(&cnn, BitWidth::Int8);
        assert_ne!(
            int8.effective_network().unwrap().parameters_flat(),
            cnn.parameters_flat()
        );
        let net = zoo::tiny_mlp(5, 8, 2, Activation::Sigmoid, 2).unwrap();
        let mut accel = AcceleratorIp::from_network(&net, BitWidth::Int16);
        // Write a value inside the segment's representable range: it round-trips.
        accel.memory_mut().write_parameter(0, 0.2).unwrap();
        let eff = accel.effective_network().unwrap();
        assert!((eff.parameter(0).unwrap() - 0.2).abs() < 0.01);
        // Out-of-range writes are clamped to the segment's maximum representable
        // magnitude (the accelerator's number format constrains the attacker).
        accel.memory_mut().write_parameter(0, 1e6).unwrap();
        let eff = accel.effective_network().unwrap();
        let written = eff.parameter(0).unwrap();
        assert!(written > 0.2 && written < 10.0, "clamped value {written}");
    }

    #[test]
    fn dnn_ip_is_object_safe() {
        let net = zoo::tiny_mlp(4, 4, 2, Activation::Relu, 0).unwrap();
        let ips: Vec<Box<dyn DnnIp>> = vec![
            Box::new(FloatIp::new(net.clone())),
            Box::new(AcceleratorIp::from_network(&net, BitWidth::Int8)),
        ];
        let x = sample(&[4], 3);
        for ip in &ips {
            assert_eq!(ip.infer(&x).unwrap().len(), 2);
        }
    }
}
