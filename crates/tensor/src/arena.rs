//! Reusable scratch buffers for the convolution / gradient hot loops.
//!
//! The batched gradient engine in `dnnip-nn` runs the same im2col lowering,
//! matrix products and col2im scatter for every sample of every chunk. Before
//! this module each of those steps allocated (and zeroed) a fresh buffer per
//! call; a [`ScratchArena`] lets one worker reuse the same allocations across
//! an entire chunk — the buffers grow to the high-water mark of the layer
//! shapes once and then stay put.
//!
//! The arena is plain data: every field is an ordinary `Vec<f32>` that callers
//! resize and fill themselves (the kernels in [`crate::kernels`] and the
//! `*_into` convolution primitives in [`crate::conv`] overwrite their outputs
//! completely, so stale contents can never leak into results — the
//! arena-reuse-equals-fresh-allocation proptests pin exactly that).

/// Reusable scratch buffers threaded through the batched gradient engine, one
/// per worker (or per engine entry point), so per-sample hot-loop allocations
/// amortize across a whole chunk.
#[derive(Debug, Default, Clone)]
pub struct ScratchArena {
    /// im2col column scratch, never kept past the sample it was lowered for.
    /// A convolution's forward lowers each sample into one `[C*KH*KW, OH*OW]`
    /// block here and multiplies it while it is cache-hot. A sample's own
    /// forward ahead of its parameter gradients keeps the blocks of every
    /// convolution layer here side by side, lowered once, and every output
    /// projection's backward reads them.
    pub cols: Vec<f32>,
    /// The zero-padded `[C, H+2p, W+2p]` copy of the sample a convolution is
    /// lowering, which im2col reads its whole-width runs from.
    pub padded: Vec<f32>,
    /// Gradient column-matrix scratch: a convolution's `∂L/∂Wᵀ` before its
    /// transpose into the flat gradient, then `Wᵀ · ∂L/∂out` before col2im.
    pub grad_cols: Vec<f32>,
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
        let first = ScratchArena::sized(&mut arena.cols, 8);
        assert_eq!(first.len(), 8);
        first.fill(7.0);
        let cap = arena.cols.capacity();
        // Shrinking then regrowing stays within the original allocation.
        assert_eq!(ScratchArena::sized(&mut arena.cols, 3).len(), 3);
        assert_eq!(ScratchArena::sized(&mut arena.cols, 8).len(), 8);
        assert_eq!(arena.cols.capacity(), cap);
    }
}
