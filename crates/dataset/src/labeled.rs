//! A labelled image dataset and the split/selection helpers used by experiments.

use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labelled dataset: images (each a `[C, H, W]` tensor) plus integer labels.
#[derive(Debug, Clone, Default)]
pub struct LabeledDataset {
    /// The images, one tensor per sample.
    pub inputs: Vec<Tensor>,
    /// The class label of each image (`labels.len() == inputs.len()`).
    pub labels: Vec<usize>,
    /// Number of distinct classes.
    pub num_classes: usize,
}

impl LabeledDataset {
    /// Create a dataset from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `labels` have different lengths — generator code in
    /// this crate always produces them in lock-step, so a mismatch is a bug.
    pub fn new(inputs: Vec<Tensor>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            inputs.len(),
            labels.len(),
            "inputs and labels must have equal length"
        );
        Self {
            inputs,
            labels,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Number of samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &label in &self.labels {
            if label < counts.len() {
                counts[label] += 1;
            }
        }
        counts
    }

    /// A new dataset containing the samples at `indices`, in that order.
    pub fn subset(&self, indices: &[usize]) -> Self {
        Self {
            inputs: indices.iter().map(|&i| self.inputs[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Split into `(train, test)` with `train_fraction` of the (shuffled) samples
    /// in the training part.
    pub fn split(&self, train_fraction: f32, seed: u64) -> (Self, Self) {
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let cut = ((self.len() as f32) * train_fraction.clamp(0.0, 1.0)).round() as usize;
        (self.subset(&indices[..cut]), self.subset(&indices[cut..]))
    }

    /// The indices of all samples with the given label.
    pub fn indices_of_class(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == class).then_some(i))
            .collect()
    }

    /// Append another dataset (must have the same class count).
    pub fn extend(&mut self, other: LabeledDataset) {
        assert_eq!(
            self.num_classes, other.num_classes,
            "cannot merge datasets with different class counts"
        );
        self.inputs.extend(other.inputs);
        self.labels.extend(other.labels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> LabeledDataset {
        let inputs = (0..n).map(|i| Tensor::full(&[1, 2, 2], i as f32)).collect();
        let labels = (0..n).map(|i| i % 3).collect();
        LabeledDataset::new(inputs, labels, 3)
    }

    #[test]
    fn basic_accessors() {
        let d = toy(9);
        assert_eq!(d.len(), 9);
        assert!(!d.is_empty());
        assert_eq!(d.class_counts(), vec![3, 3, 3]);
        assert!(LabeledDataset::default().is_empty());
    }

    #[test]
    fn subset_preserves_order_and_labels() {
        let d = toy(6);
        let s = d.subset(&[4, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.inputs[0].data()[0], 4.0);
        assert_eq!(s.labels, vec![1, 1]);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy(20);
        let (train, test) = d.split(0.75, 3);
        assert_eq!(train.len(), 15);
        assert_eq!(test.len(), 5);
        // Same seed reproduces the same split.
        let (train2, _) = d.split(0.75, 3);
        assert_eq!(train.labels, train2.labels);
        // Different seed gives a different shuffle (extremely likely).
        let (train3, _) = d.split(0.75, 4);
        assert_ne!(
            train
                .inputs
                .iter()
                .map(|t| t.data()[0] as usize)
                .collect::<Vec<_>>(),
            train3
                .inputs
                .iter()
                .map(|t| t.data()[0] as usize)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn indices_of_class_finds_members() {
        let d = toy(9);
        assert_eq!(d.indices_of_class(1), vec![1, 4, 7]);
        assert!(d.indices_of_class(5).is_empty());
    }

    #[test]
    fn extend_merges() {
        let mut a = toy(3);
        let b = toy(6);
        a.extend(b);
        assert_eq!(a.len(), 9);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = LabeledDataset::new(vec![Tensor::zeros(&[1])], vec![0, 1], 2);
    }
}
