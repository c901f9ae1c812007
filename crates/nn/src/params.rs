//! The flat parameter coordinate system.
//!
//! Every scalar parameter of a [`crate::Network`] is assigned a stable global
//! index: parameters are laid out layer by layer (in network order), weight
//! tensor first, then bias, each in row-major order. [`ParamLayout`] describes
//! that layout and lets callers translate between global indices and
//! `(layer, tensor, local offset)` coordinates. The layout is not tied to the
//! sequential container: the graph IR in `dnnip-graph` builds the same layout
//! over its parameterized nodes in topological order (using node indices as
//! the `layer_index`), so a lowered graph and its source network share
//! identical global parameter indices.
//!
//! The layout is the shared language of the whole workspace:
//!
//! * coverage bitsets in `dnnip-core` are indexed by global parameter index;
//! * fault-injection attacks in `dnnip-faults` pick victims by global index;
//! * the training loop in [`crate::train`] updates the flat vector directly;
//! * the accelerator's weight memory in `dnnip-accel` is the quantized image of
//!   the flat vector.

/// Which of a layer's parameter tensors a segment refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// The layer's weight tensor.
    Weight,
    /// The layer's bias tensor.
    Bias,
}

impl std::fmt::Display for ParamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamKind::Weight => f.write_str("weight"),
            ParamKind::Bias => f.write_str("bias"),
        }
    }
}

/// A contiguous run of global parameter indices belonging to one tensor of one
/// layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSegment {
    /// Index of the layer inside the network.
    pub layer_index: usize,
    /// Which tensor of that layer this segment covers.
    pub kind: ParamKind,
    /// First global parameter index of the segment.
    pub offset: usize,
    /// Number of scalar parameters in the segment.
    pub len: usize,
    /// Shape of the underlying tensor.
    pub shape: Vec<usize>,
}

impl ParamSegment {
    /// Whether the global index falls inside this segment.
    pub fn contains(&self, global_index: usize) -> bool {
        global_index >= self.offset && global_index < self.offset + self.len
    }
}

/// Location of a single scalar parameter, resolved from a global index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamLocation {
    /// Index of the layer inside the network.
    pub layer_index: usize,
    /// Which tensor of that layer the parameter lives in.
    pub kind: ParamKind,
    /// Row-major offset inside that tensor.
    pub local_offset: usize,
}

/// The complete flat-parameter layout of a network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParamLayout {
    segments: Vec<ParamSegment>,
    total: usize,
}

impl ParamLayout {
    /// Build a layout from `(layer_index, kind, len, shape)` tuples in network
    /// order.
    pub fn from_segments(parts: impl IntoIterator<Item = (usize, ParamKind, Vec<usize>)>) -> Self {
        let mut segments = Vec::new();
        let mut offset = 0usize;
        for (layer_index, kind, shape) in parts {
            let len = shape.iter().product();
            segments.push(ParamSegment {
                layer_index,
                kind,
                offset,
                len,
                shape,
            });
            offset += len;
        }
        Self {
            segments,
            total: offset,
        }
    }

    /// Total number of scalar parameters.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The segments in global-index order.
    pub fn segments(&self) -> &[ParamSegment] {
        &self.segments
    }

    /// Resolve a global index to its layer / tensor / local offset, or `None` if
    /// the index is out of range.
    pub fn locate(&self, global_index: usize) -> Option<ParamLocation> {
        // Segments are sorted by offset; binary search for the containing one.
        let idx = self
            .segments
            .partition_point(|s| s.offset + s.len <= global_index);
        let seg = self.segments.get(idx)?;
        if !seg.contains(global_index) {
            return None;
        }
        Some(ParamLocation {
            layer_index: seg.layer_index,
            kind: seg.kind,
            local_offset: global_index - seg.offset,
        })
    }

    /// Global index range `[start, end)` of a layer's parameters (both tensors),
    /// or `None` if the layer has no parameters.
    pub fn layer_range(&self, layer_index: usize) -> Option<std::ops::Range<usize>> {
        let mut start = None;
        let mut end = 0usize;
        for seg in &self.segments {
            if seg.layer_index == layer_index {
                start.get_or_insert(seg.offset);
                end = seg.offset + seg.len;
            }
        }
        start.map(|s| s..end)
    }

    /// Global indices of every bias parameter (used by the single-bias attack).
    pub fn bias_indices(&self) -> Vec<usize> {
        self.segments
            .iter()
            .filter(|s| s.kind == ParamKind::Bias)
            .flat_map(|s| s.offset..s.offset + s.len)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ParamLayout {
        ParamLayout::from_segments(vec![
            (0, ParamKind::Weight, vec![2, 3]),
            (0, ParamKind::Bias, vec![3]),
            (2, ParamKind::Weight, vec![3, 4]),
            (2, ParamKind::Bias, vec![4]),
        ])
    }

    #[test]
    fn total_and_segments() {
        let l = layout();
        assert_eq!(l.total(), 6 + 3 + 12 + 4);
        assert_eq!(l.segments().len(), 4);
        assert_eq!(l.segments()[2].offset, 9);
    }

    #[test]
    fn locate_resolves_each_region() {
        let l = layout();
        assert_eq!(
            l.locate(0),
            Some(ParamLocation {
                layer_index: 0,
                kind: ParamKind::Weight,
                local_offset: 0
            })
        );
        assert_eq!(
            l.locate(7),
            Some(ParamLocation {
                layer_index: 0,
                kind: ParamKind::Bias,
                local_offset: 1
            })
        );
        assert_eq!(
            l.locate(9),
            Some(ParamLocation {
                layer_index: 2,
                kind: ParamKind::Weight,
                local_offset: 0
            })
        );
        assert_eq!(
            l.locate(24),
            Some(ParamLocation {
                layer_index: 2,
                kind: ParamKind::Bias,
                local_offset: 3
            })
        );
        assert_eq!(l.locate(25), None);
    }

    #[test]
    fn layer_range_spans_both_tensors() {
        let l = layout();
        assert_eq!(l.layer_range(0), Some(0..9));
        assert_eq!(l.layer_range(2), Some(9..25));
        assert_eq!(l.layer_range(1), None);
    }

    #[test]
    fn bias_and_weight_index_partitions() {
        let l = layout();
        let biases = l.bias_indices();
        assert_eq!(biases, [6, 7, 8, 21, 22, 23, 24]);
        // Every other index is a weight.
        for i in 0..l.total() {
            let kind = l.locate(i).unwrap().kind;
            assert_eq!(kind == ParamKind::Bias, biases.contains(&i), "index {i}");
        }
    }

    #[test]
    fn empty_layout_is_well_behaved() {
        let l = ParamLayout::default();
        assert_eq!(l.total(), 0);
        assert!(l.locate(0).is_none());
        assert!(l.bias_indices().is_empty());
    }
}
