//! Test data shared by the tensor crate's differential suites.

/// `len` deterministic values from `seed`: mostly finite (of both signs),
/// with roughly one in six drawn from NaN, +Inf, -Inf, +0.0 and -0.0.
pub fn salted(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            match z % 30 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                _ => ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0,
            }
        })
        .collect()
}
