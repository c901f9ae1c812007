//! "ImageNet-like" out-of-distribution images.
//!
//! The paper's Fig. 2 compares the validation coverage of three image families:
//! the model's own training set, ImageNet photographs, and Gaussian noise. The
//! interesting property of the ImageNet family is that the images are *natural
//! and structured* (edges, regions, smooth gradients — features a convolutional
//! network responds to) while being drawn from a *different distribution* than
//! the training set.
//!
//! This generator reproduces that property with multi-octave value noise
//! (smooth random fields) composited with a few random geometric patches,
//! rendered in as many channels as the target model expects.

use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the out-of-distribution image generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OodConfig {
    /// Number of value-noise octaves to sum.
    pub octaves: usize,
    /// Number of random geometric patches composited on top.
    pub patches: usize,
}

impl Default for OodConfig {
    fn default() -> Self {
        Self {
            octaves: 3,
            patches: 2,
        }
    }
}

/// Bilinearly interpolated random grid ("value noise") of the given resolution.
fn value_noise(size: usize, cells: usize, rng: &mut StdRng) -> Vec<f32> {
    let grid: Vec<f32> = (0..(cells + 1) * (cells + 1))
        .map(|_| rng.gen_range(0.0f32..1.0))
        .collect();
    let mut out = vec![0.0f32; size * size];
    for y in 0..size {
        for x in 0..size {
            let fx = x as f32 / size as f32 * cells as f32;
            let fy = y as f32 / size as f32 * cells as f32;
            let x0 = fx.floor() as usize;
            let y0 = fy.floor() as usize;
            let tx = fx - x0 as f32;
            let ty = fy - y0 as f32;
            let g = |yy: usize, xx: usize| grid[yy * (cells + 1) + xx];
            let top = g(y0, x0) * (1.0 - tx) + g(y0, x0 + 1) * tx;
            let bottom = g(y0 + 1, x0) * (1.0 - tx) + g(y0 + 1, x0 + 1) * tx;
            out[y * size + x] = top * (1.0 - ty) + bottom * ty;
        }
    }
    out
}

/// Generate one out-of-distribution image of shape `[channels, size, size]`.
fn ood_image(channels: usize, size: usize, config: &OodConfig, rng: &mut StdRng) -> Tensor {
    let mut data = vec![0.0f32; channels * size * size];
    for ch in 0..channels {
        // Multi-octave smooth field.
        let mut field = vec![0.0f32; size * size];
        let mut amplitude = 1.0f32;
        let mut total = 0.0f32;
        for octave in 0..config.octaves {
            let cells = (2usize << octave).min(size.max(2) - 1).max(1);
            let layer = value_noise(size, cells, rng);
            for (f, l) in field.iter_mut().zip(&layer) {
                *f += amplitude * l;
            }
            total += amplitude;
            amplitude *= 0.5;
        }
        for f in &mut field {
            *f /= total;
        }
        // Composite geometric patches (ellipses with random intensity).
        for _ in 0..config.patches {
            let cx = rng.gen_range(0.2f32..0.8);
            let cy = rng.gen_range(0.2f32..0.8);
            let rx = rng.gen_range(0.08f32..0.3);
            let ry = rng.gen_range(0.08f32..0.3);
            let value = rng.gen_range(0.0f32..1.0);
            for y in 0..size {
                for x in 0..size {
                    let nx = (x as f32 + 0.5) / size as f32;
                    let ny = (y as f32 + 0.5) / size as f32;
                    let d = ((nx - cx) / rx).powi(2) + ((ny - cy) / ry).powi(2);
                    if d < 1.0 {
                        field[y * size + x] = 0.5 * field[y * size + x] + 0.5 * value;
                    }
                }
            }
        }
        data[ch * size * size..(ch + 1) * size * size].copy_from_slice(&field);
    }
    Tensor::from_vec(data, &[channels, size, size]).expect("data matches shape")
}

/// Generate `count` out-of-distribution images, deterministically from `seed`.
pub fn ood_images(
    channels: usize,
    size: usize,
    count: usize,
    config: &OodConfig,
    seed: u64,
) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| ood_image(channels, size, config, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_have_requested_shape_and_range() {
        let imgs = ood_images(3, 16, 4, &OodConfig::default(), 2);
        assert_eq!(imgs.len(), 4);
        for img in &imgs {
            assert_eq!(img.shape(), &[3, 16, 16]);
            assert!(img.min().unwrap() >= 0.0);
            assert!(img.max().unwrap() <= 1.0);
            assert!(!img.has_non_finite());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ood_images(1, 12, 2, &OodConfig::default(), 5);
        let b = ood_images(1, 12, 2, &OodConfig::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn ood_images_are_smoother_than_white_noise() {
        // Natural-image proxy: neighbouring pixels are correlated. Compare the
        // mean absolute horizontal difference against white noise of the same
        // amplitude range.
        let img = &ood_images(1, 32, 1, &OodConfig::default(), 7)[0];
        let mut rng = StdRng::seed_from_u64(7);
        let white = Tensor::from_fn(&[1, 32, 32], |_| rng.gen_range(0.0f32..1.0));
        let diff = |t: &Tensor| {
            let mut acc = 0.0f32;
            for y in 0..32 {
                for x in 0..31 {
                    acc += (t.get(&[0, y, x]).unwrap() - t.get(&[0, y, x + 1]).unwrap()).abs();
                }
            }
            acc
        };
        assert!(
            diff(img) < diff(&white) * 0.5,
            "ood image should be much smoother than white noise"
        );
    }

    #[test]
    fn images_are_not_constant() {
        let img = &ood_images(1, 16, 1, &OodConfig::default(), 9)[0];
        let mean = img.mean();
        let var = img.map(|x| (x - mean) * (x - mean)).mean();
        assert!(
            var > 1e-3,
            "variance {var} too small — image is nearly constant"
        );
    }
}
