//! The off-chip weight memory image.
//!
//! [`WeightMemory`] is the byte-exact picture of what a DNN accelerator keeps in
//! its external DRAM: every network parameter quantized to a fixed-point level
//! and stored little-endian, segment by segment in the network's flat-parameter
//! order. The structure is deliberately addressable at three granularities —
//! parameter, byte and bit — because the attacks the paper defends against
//! operate at all three (parameter substitution, byte corruption, laser/rowhammer
//! style single-bit flips).

use dnnip_nn::Network;

use crate::quant::{BitWidth, QuantScale};
use crate::{AccelError, Result};

/// Quantized image of a network's parameters, one scale per parameter segment.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMemory {
    bytes: Vec<u8>,
    width: BitWidth,
    /// One quantization scale per [`dnnip_nn::params::ParamSegment`], in order.
    scales: Vec<QuantScale>,
    /// Byte offset of each segment in `bytes`, plus a trailing total.
    segment_offsets: Vec<usize>,
    /// Number of parameters per segment, in order.
    segment_lens: Vec<usize>,
}

impl WeightMemory {
    /// Quantize all parameters of `network` into a fresh weight-memory image.
    pub fn from_network(network: &Network, width: BitWidth) -> Self {
        let params = network.parameters_flat();
        let layout = network.param_layout();
        let mut bytes = Vec::with_capacity(params.len() * width.bytes());
        let mut scales = Vec::with_capacity(layout.segments().len());
        let mut segment_offsets = Vec::with_capacity(layout.segments().len() + 1);
        let mut segment_lens = Vec::with_capacity(layout.segments().len());
        for seg in layout.segments() {
            let values = &params[seg.offset..seg.offset + seg.len];
            let scale = QuantScale::fit(values, width);
            segment_offsets.push(bytes.len());
            segment_lens.push(seg.len);
            for &v in values {
                bytes.extend(scale.encode(scale.quantize(v)));
            }
            scales.push(scale);
        }
        segment_offsets.push(bytes.len());
        Self {
            bytes,
            width,
            scales,
            segment_offsets,
            segment_lens,
        }
    }

    /// Total number of parameters stored.
    pub fn num_parameters(&self) -> usize {
        self.segment_lens.iter().sum()
    }

    /// Total size of the memory image in bytes.
    pub fn num_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Total size of the memory image in bits.
    pub fn num_bits(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Quantization width.
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Raw bytes of the memory image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Locate a global parameter index: returns `(segment, index within segment)`.
    fn locate(&self, param_index: usize) -> Result<(usize, usize)> {
        let mut remaining = param_index;
        for (seg, &len) in self.segment_lens.iter().enumerate() {
            if remaining < len {
                return Ok((seg, remaining));
            }
            remaining -= len;
        }
        Err(AccelError::AddressOutOfRange {
            address: param_index,
            size: self.num_parameters(),
            unit: "parameter",
        })
    }

    fn param_byte_range(&self, param_index: usize) -> Result<(usize, usize, QuantScale)> {
        let (seg, inner) = self.locate(param_index)?;
        let start = self.segment_offsets[seg] + inner * self.width.bytes();
        Ok((start, start + self.width.bytes(), self.scales[seg]))
    }

    /// Read one parameter back as a real value (dequantized).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::AddressOutOfRange`] for out-of-range indices.
    pub fn read_parameter(&self, param_index: usize) -> Result<f32> {
        let (start, end, scale) = self.param_byte_range(param_index)?;
        Ok(scale.dequantize(scale.decode(&self.bytes[start..end])?))
    }

    /// Overwrite one parameter with a new real value (it is re-quantized with the
    /// segment's existing scale, exactly like an attacker writing to DRAM would
    /// have to respect the accelerator's number format).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::AddressOutOfRange`] for out-of-range indices.
    pub fn write_parameter(&mut self, param_index: usize, value: f32) -> Result<()> {
        let (start, _end, scale) = self.param_byte_range(param_index)?;
        let encoded = scale.encode(scale.quantize(value));
        self.bytes[start..start + encoded.len()].copy_from_slice(&encoded);
        Ok(())
    }

    /// Flip a single bit of the memory image (bit 0 is the LSB of byte 0).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::AddressOutOfRange`] for out-of-range bit addresses.
    pub fn flip_bit(&mut self, bit_index: usize) -> Result<()> {
        let byte = bit_index / 8;
        if byte >= self.bytes.len() {
            return Err(AccelError::AddressOutOfRange {
                address: bit_index,
                size: self.num_bits(),
                unit: "bit",
            });
        }
        self.bytes[byte] ^= 1 << (bit_index % 8);
        Ok(())
    }

    /// Dequantize the whole memory image back into a flat parameter vector.
    pub fn to_flat_parameters(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for (seg, &len) in self.segment_lens.iter().enumerate() {
            let scale = self.scales[seg];
            let start = self.segment_offsets[seg];
            for i in 0..len {
                let b = &self.bytes[start + i * self.width.bytes()..];
                let level = scale
                    .decode(b)
                    .expect("segment bytes are always long enough");
                out.push(scale.dequantize(level));
            }
        }
        out
    }

    /// Number of bytes that differ from `other` (same layout assumed): how much
    /// of the memory an attack touched. An Int16 parameter with both bytes
    /// changed counts twice.
    pub fn count_differences(&self, other: &WeightMemory) -> usize {
        self.bytes
            .iter()
            .zip(&other.bytes)
            .filter(|(a, b)| a != b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn small_net() -> Network {
        zoo::tiny_mlp(6, 10, 4, Activation::Relu, 3).unwrap()
    }

    #[test]
    fn image_size_matches_parameter_count_and_width() {
        let net = small_net();
        let mem8 = WeightMemory::from_network(&net, BitWidth::Int8);
        let mem16 = WeightMemory::from_network(&net, BitWidth::Int16);
        assert_eq!(mem8.num_parameters(), net.num_parameters());
        assert_eq!(mem8.num_bytes(), net.num_parameters());
        assert_eq!(mem16.num_bytes(), net.num_parameters() * 2);
        assert_eq!(mem16.num_bits(), net.num_parameters() * 16);
        assert_eq!(mem8.width(), BitWidth::Int8);
    }

    #[test]
    fn round_trip_reconstructs_parameters_within_quantization_error() {
        let net = small_net();
        let mem = WeightMemory::from_network(&net, BitWidth::Int16);
        let original = net.parameters_flat();
        let restored = mem.to_flat_parameters();
        assert_eq!(restored.len(), original.len());
        let max_err = original
            .iter()
            .zip(&restored)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // 16-bit quantization of Xavier-initialized weights is essentially lossless.
        assert!(max_err < 1e-3, "max quantization error {max_err}");
    }

    #[test]
    fn read_write_parameter() {
        let net = small_net();
        let mut mem = WeightMemory::from_network(&net, BitWidth::Int16);
        let before = mem.read_parameter(5).unwrap();
        mem.write_parameter(5, before + 0.05).unwrap();
        let after = mem.read_parameter(5).unwrap();
        assert!((after - before - 0.05).abs() < 0.01);
        assert!(mem.read_parameter(mem.num_parameters()).is_err());
        assert!(mem.write_parameter(usize::MAX, 0.0).is_err());
    }

    #[test]
    fn bit_flip_changes_exactly_one_parameter() {
        let net = small_net();
        let mut mem = WeightMemory::from_network(&net, BitWidth::Int16);
        let golden = WeightMemory::from_network(&net, BitWidth::Int16);
        // Flip the MSB of parameter 3's second byte.
        let bit = (3 * 2 + 1) * 8 + 7;
        mem.flip_bit(bit).unwrap();
        assert_eq!(mem.count_differences(&golden), 1);
        let before = golden.read_parameter(3).unwrap();
        let after = mem.read_parameter(3).unwrap();
        assert!(
            (before - after).abs() > 1e-3,
            "MSB flip must move the value"
        );
        // Flipping the same bit again restores the original image.
        mem.flip_bit(bit).unwrap();
        assert_eq!(mem.count_differences(&golden), 0);
        assert!(mem.flip_bit(mem.num_bits()).is_err());
    }

    #[test]
    fn zero_bias_segments_survive_round_trip() {
        // Freshly initialized networks have all-zero biases: their segment scale
        // must not produce NaNs and must reconstruct zeros exactly.
        let net = small_net();
        let mem = WeightMemory::from_network(&net, BitWidth::Int8);
        let restored = mem.to_flat_parameters();
        let layout = net.param_layout();
        for seg in layout.segments() {
            if seg.kind == dnnip_nn::params::ParamKind::Bias {
                for &value in &restored[seg.offset..seg.offset + seg.len] {
                    assert_eq!(value, 0.0);
                }
            }
        }
    }
}
