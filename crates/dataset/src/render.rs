//! Rendering helpers: ASCII art and PGM dumps.
//!
//! Used by the Fig. 4 reproduction ("training samples vs synthetic samples") to
//! show the generated inputs without any image library: grayscale images become
//! terminal ASCII art and portable-graymap files that any viewer can open.

use dnnip_tensor::Tensor;

/// Characters from darkest to brightest used by [`ascii_art`].
const RAMP: &[u8] = b" .:-=+*#%@";

/// Convert a `[C, H, W]` image to grayscale by averaging channels.
fn to_gray(image: &Tensor) -> Option<(usize, usize, Vec<f32>)> {
    if image.ndim() != 3 {
        return None;
    }
    let (c, h, w) = (image.shape()[0], image.shape()[1], image.shape()[2]);
    let mut gray = vec![0.0f32; h * w];
    let data = image.data();
    for ch in 0..c {
        for i in 0..h * w {
            gray[i] += data[ch * h * w + i];
        }
    }
    for g in &mut gray {
        *g /= c as f32;
    }
    Some((h, w, gray))
}

/// Render a `[C, H, W]` image as ASCII art (one text row per pixel row).
///
/// Pixel intensities are min-max normalized before mapping onto the character
/// ramp, so both `[0,1]` images and arbitrary-range synthetic inputs render
/// usefully. Returns an empty string for non-rank-3 tensors.
pub fn ascii_art(image: &Tensor) -> String {
    let Some((h, w, gray)) = to_gray(image) else {
        return String::new();
    };
    let lo = gray.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = gray.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = (hi - lo).max(1e-9);
    let mut out = String::with_capacity((w + 1) * h);
    for y in 0..h {
        for x in 0..w {
            let v = (gray[y * w + x] - lo) / span;
            let idx = ((v * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Serialize a single-channel `[1, H, W]` (or multi-channel, averaged) image as a
/// binary PGM (P5) byte vector.
///
/// Returns `None` for non-rank-3 tensors.
pub fn to_pgm(image: &Tensor) -> Option<Vec<u8>> {
    let (h, w, gray) = to_gray(image)?;
    let mut out = format!("P5\n{w} {h}\n255\n").into_bytes();
    out.extend(gray.iter().map(|&v| (v.clamp(0.0, 1.0) * 255.0) as u8));
    Some(out)
}

/// Render several images side by side as ASCII art (used for Fig. 4 style
/// comparisons). Images must share a height; returns an empty string otherwise.
pub fn ascii_gallery(images: &[&Tensor], separator: &str) -> String {
    let rendered: Vec<Vec<String>> = images
        .iter()
        .map(|img| ascii_art(img).lines().map(str::to_string).collect())
        .collect();
    let Some(height) = rendered.first().map(Vec::len) else {
        return String::new();
    };
    if rendered.iter().any(|r| r.len() != height) {
        return String::new();
    }
    let mut out = String::new();
    for row in 0..height {
        let line: Vec<&str> = rendered.iter().map(|r| r[row].as_str()).collect();
        out.push_str(&line.join(separator));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_art_has_one_line_per_row() {
        let img = Tensor::from_fn(&[1, 4, 6], |i| i as f32);
        let art = ascii_art(&img);
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().all(|l| l.len() == 6));
        // Brightest pixel is the last one.
        assert!(art.trim_end().ends_with('@'));
        assert_eq!(ascii_art(&Tensor::zeros(&[4, 6])), "");
    }

    #[test]
    fn constant_image_does_not_divide_by_zero() {
        let img = Tensor::full(&[1, 3, 3], 0.5);
        let art = ascii_art(&img);
        assert_eq!(art.lines().count(), 3);
        assert!(!art.contains(char::REPLACEMENT_CHARACTER));
    }

    #[test]
    fn pgm_and_ppm_headers_and_sizes() {
        let gray = Tensor::from_fn(&[1, 5, 7], |i| (i as f32) / 34.0);
        let pgm = to_pgm(&gray).unwrap();
        assert!(pgm.starts_with(b"P5\n7 5\n255\n"));
        assert_eq!(pgm.len(), b"P5\n7 5\n255\n".len() + 35);

        assert!(to_pgm(&Tensor::zeros(&[5, 7])).is_none());
    }

    #[test]
    fn gallery_joins_rows() {
        let a = Tensor::from_fn(&[1, 3, 3], |i| i as f32);
        let b = Tensor::from_fn(&[1, 3, 3], |i| (8 - i) as f32);
        let g = ascii_gallery(&[&a, &b], " | ");
        assert_eq!(g.lines().count(), 3);
        assert!(g.lines().all(|l| l.contains(" | ")));
        // Mismatched heights give an empty string.
        let c = Tensor::zeros(&[1, 2, 3]);
        assert_eq!(ascii_gallery(&[&a, &c], " "), "");
        assert_eq!(ascii_gallery(&[], " "), "");
    }
}
