//! Reusable scratch buffers for the convolution / gradient hot loops.
//!
//! The batched gradient engine in `dnnip-nn` pads each convolution's input
//! plane, packs GEMM panels and passes gradient buffers between nodes for
//! every sample of every chunk. A [`ScratchArena`] lets one worker reuse the
//! same allocations across an entire chunk — the buffers grow to the
//! high-water mark of the layer shapes once and then stay put.
//!
//! The arena is plain data: every field is an ordinary `Vec` that callers
//! resize and fill themselves (the convolution plan in [`crate::conv`]
//! overwrites every plane and panel element it reads, so stale contents can
//! never leak into results — the convolution differentials run with dirty
//! reused scratch and with fresh scratch and require the same bits).

/// Reusable scratch buffers threaded through the batched gradient engine, one
/// per worker (or per engine entry point), so per-sample hot-loop allocations
/// amortize across a whole chunk.
#[derive(Debug, Default, Clone)]
pub struct ScratchArena {
    /// Zero-padded `[C, H+2p, W+2p]` input planes of the padded
    /// convolutions, which the GEMM tiles read in place. A batched forward
    /// writes each sample's plane here and uses it at once. A sample's own
    /// forward ahead of its parameter gradients keeps the planes of every
    /// padded convolution here side by side, and every output projection's
    /// weight gradient reads them. (An unpadded convolution's plane is its
    /// input, which the forward pass keeps anyway.)
    pub planes: Vec<f32>,
    /// The packed GEMM panels of the convolution products: `NR`-wide
    /// slices of the right-hand operand, or, for an input gradient, every
    /// position panel of `∂L/∂out` at once.
    pub panel: Vec<f32>,
    /// Spare gradient buffers. A backward pass takes each node's `∂L/∂out`
    /// buffer from here and hands every buffer back when it ends, so a chain
    /// cycles through two and a graph through as many as its widest cut.
    pub grads: Vec<Vec<f32>>,
}

impl ScratchArena {
    /// A fresh arena with no capacity; buffers grow on first use and are then
    /// reused verbatim.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize `buf` to exactly `len` elements and hand it back as a slice.
    ///
    /// Contents are unspecified (a mix of stale values and zeros): callers
    /// must fully overwrite the slice, which every kernel taking an arena
    /// buffer does.
    pub fn sized(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
        buf.resize(len, 0.0);
        &mut buf[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_yields_exact_length_and_reuses_capacity() {
        let mut arena = ScratchArena::new();
        let first = ScratchArena::sized(&mut arena.planes, 8);
        assert_eq!(first.len(), 8);
        first.fill(7.0);
        let cap = arena.planes.capacity();
        // Shrinking then regrowing stays within the original allocation.
        assert_eq!(ScratchArena::sized(&mut arena.planes, 3).len(), 3);
        assert_eq!(ScratchArena::sized(&mut arena.planes, 8).len(), 8);
        assert_eq!(arena.planes.capacity(), cap);
    }
}
