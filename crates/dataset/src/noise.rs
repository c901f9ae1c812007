//! Gaussian-noise image family (the paper's weakest coverage baseline).

use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the noise-image generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Mean pixel intensity.
    pub mean: f32,
    /// Standard deviation of the pixel intensity.
    pub std: f32,
    /// Whether to clamp pixels into `[0, 1]` (image-like range).
    pub clamp: bool,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            mean: 0.5,
            std: 0.25,
            clamp: true,
        }
    }
}

/// Draw a single Gaussian sample via the Box–Muller transform.
fn normal_sample(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Generate one noise image of the given shape.
fn noise_image(shape: &[usize], config: &NoiseConfig, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::from_fn(shape, |_| config.mean + config.std * normal_sample(rng));
    if config.clamp {
        t = t.clamp(0.0, 1.0);
    }
    t
}

/// Generate `count` noise images of the given shape, deterministically from `seed`.
pub fn noise_images(shape: &[usize], count: usize, config: &NoiseConfig, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| noise_image(shape, config, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_have_requested_shape_and_are_clamped() {
        let imgs = noise_images(&[1, 8, 8], 5, &NoiseConfig::default(), 3);
        assert_eq!(imgs.len(), 5);
        for img in &imgs {
            assert_eq!(img.shape(), &[1, 8, 8]);
            assert!(img.min().unwrap() >= 0.0);
            assert!(img.max().unwrap() <= 1.0);
        }
    }

    #[test]
    fn unclamped_noise_has_expected_moments() {
        let config = NoiseConfig {
            mean: 0.0,
            std: 1.0,
            clamp: false,
        };
        let imgs = noise_images(&[1, 64, 64], 3, &config, 1);
        let all: Vec<f32> = imgs.iter().flat_map(|t| t.data().to_vec()).collect();
        let n = all.len() as f32;
        let mean: f32 = all.iter().sum::<f32>() / n;
        let var: f32 = all.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = noise_images(&[3, 4, 4], 2, &NoiseConfig::default(), 9);
        let b = noise_images(&[3, 4, 4], 2, &NoiseConfig::default(), 9);
        assert_eq!(a, b);
        let c = noise_images(&[3, 4, 4], 2, &NoiseConfig::default(), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_images_lack_spatial_structure() {
        // Autocorrelation with the horizontally shifted image should be near zero,
        // unlike structured images.
        let config = NoiseConfig {
            mean: 0.0,
            std: 1.0,
            clamp: false,
        };
        let img = &noise_images(&[1, 32, 32], 1, &config, 5)[0];
        let mut corr = 0.0f32;
        let mut count = 0usize;
        for y in 0..32 {
            for x in 0..31 {
                corr += img.get(&[0, y, x]).unwrap() * img.get(&[0, y, x + 1]).unwrap();
                count += 1;
            }
        }
        assert!((corr / count as f32).abs() < 0.1);
    }
}
