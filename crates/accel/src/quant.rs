//! Symmetric fixed-point quantization.
//!
//! Real DNN accelerators keep weights in low-precision fixed-point formats in
//! off-chip memory. This module implements the usual symmetric per-tensor scheme:
//! a tensor with maximum absolute value `m` is stored as signed integers of
//! `bits` width with scale `s = m / (2^(bits-1) - 1)`, so value `v` becomes
//! `round(v / s)` and is reconstructed as `q * s`.

use crate::{AccelError, Result};

/// Quantization bit-width supported by the simulated accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitWidth {
    /// 8-bit signed fixed point (1 byte per parameter).
    Int8,
    /// 16-bit signed fixed point (2 bytes per parameter).
    Int16,
}

impl BitWidth {
    /// Number of bits.
    pub fn bits(self) -> u8 {
        match self {
            BitWidth::Int8 => 8,
            BitWidth::Int16 => 16,
        }
    }

    /// Number of bytes each quantized parameter occupies.
    pub fn bytes(self) -> usize {
        match self {
            BitWidth::Int8 => 1,
            BitWidth::Int16 => 2,
        }
    }

    /// Largest representable positive integer level.
    fn max_level(self) -> i32 {
        match self {
            BitWidth::Int8 => i8::MAX as i32,
            BitWidth::Int16 => i16::MAX as i32,
        }
    }
}

/// Per-tensor symmetric quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantScale {
    /// Multiplicative step size (`real = level * scale`).
    pub scale: f32,
    /// Bit-width of the stored levels.
    pub width: BitWidth,
}

impl QuantScale {
    /// Fit a symmetric scale to a slice of values.
    ///
    /// A zero (or empty) tensor gets scale 1.0 so that dequantization is exact.
    pub fn fit(values: &[f32], width: BitWidth) -> Self {
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs > 0.0 {
            max_abs / width.max_level() as f32
        } else {
            1.0
        };
        Self { scale, width }
    }

    /// Quantize one value to an integer level (clamped to the representable range).
    pub fn quantize(&self, value: f32) -> i32 {
        let level = (value / self.scale).round() as i32;
        level.clamp(-self.width.max_level(), self.width.max_level())
    }

    /// Reconstruct a real value from an integer level.
    pub fn dequantize(&self, level: i32) -> f32 {
        level as f32 * self.scale
    }

    /// Encode a level into little-endian bytes of the configured width.
    pub fn encode(&self, level: i32) -> Vec<u8> {
        match self.width {
            BitWidth::Int8 => vec![(level as i8) as u8],
            BitWidth::Int16 => (level as i16).to_le_bytes().to_vec(),
        }
    }

    /// Decode little-endian bytes of the configured width into a level.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::AddressOutOfRange`] if `bytes` is shorter than the
    /// configured width.
    pub fn decode(&self, bytes: &[u8]) -> Result<i32> {
        match self.width {
            BitWidth::Int8 => {
                bytes
                    .first()
                    .map(|&b| b as i8 as i32)
                    .ok_or(AccelError::AddressOutOfRange {
                        address: 0,
                        size: bytes.len(),
                        unit: "byte",
                    })
            }
            BitWidth::Int16 => {
                if bytes.len() < 2 {
                    return Err(AccelError::AddressOutOfRange {
                        address: 1,
                        size: bytes.len(),
                        unit: "byte",
                    });
                }
                Ok(i16::from_le_bytes([bytes[0], bytes[1]]) as i32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_width_constructors() {
        assert_eq!(BitWidth::Int8.bytes(), 1);
        assert_eq!(BitWidth::Int16.bytes(), 2);
        assert_eq!(BitWidth::Int8.max_level(), 127);
        assert_eq!(BitWidth::Int16.max_level(), 32767);
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let values: Vec<f32> = (-100..=100).map(|i| i as f32 * 0.013).collect();
        for width in [BitWidth::Int8, BitWidth::Int16] {
            let scale = QuantScale::fit(&values, width);
            for &v in &values {
                let back = scale.dequantize(scale.quantize(v));
                assert!(
                    (back - v).abs() <= scale.scale * 0.5 + 1e-6,
                    "value {v} reconstructed as {back} with step {}",
                    scale.scale
                );
            }
        }
    }

    #[test]
    fn int16_is_more_precise_than_int8() {
        let values: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.7).sin()).collect();
        let err = |width| {
            let scale = QuantScale::fit(&values, width);
            values
                .iter()
                .map(|&v| (scale.dequantize(scale.quantize(v)) - v).abs())
                .sum::<f32>()
        };
        assert!(err(BitWidth::Int16) < err(BitWidth::Int8) / 10.0);
    }

    #[test]
    fn zero_tensor_round_trips_exactly() {
        let zeros = vec![0.0f32; 16];
        let scale = QuantScale::fit(&zeros, BitWidth::Int8);
        for &v in &zeros {
            assert_eq!(scale.dequantize(scale.quantize(v)), 0.0);
        }
    }

    #[test]
    fn extreme_values_are_clamped() {
        let scale = QuantScale {
            scale: 0.01,
            width: BitWidth::Int8,
        };
        assert_eq!(scale.quantize(1e9), 127);
        assert_eq!(scale.quantize(-1e9), -127);
    }

    #[test]
    fn encode_decode_round_trip() {
        for width in [BitWidth::Int8, BitWidth::Int16] {
            let scale = QuantScale { scale: 0.5, width };
            for level in [-100, -1, 0, 1, 100] {
                let level = level.clamp(-width.max_level(), width.max_level());
                let bytes = scale.encode(level);
                assert_eq!(bytes.len(), width.bytes());
                assert_eq!(scale.decode(&bytes).unwrap(), level);
            }
        }
        let s = QuantScale {
            scale: 1.0,
            width: BitWidth::Int16,
        };
        assert!(s.decode(&[1]).is_err());
        let s8 = QuantScale {
            scale: 1.0,
            width: BitWidth::Int8,
        };
        assert!(s8.decode(&[]).is_err());
    }
}
