//! The [`Tensor`] type: an owned, dense, row-major `f32` array of arbitrary rank.

use std::sync::OnceLock;

use crate::hash::{lane_hashes, mix64, CHAIN_HI, CHAIN_LO};
use crate::shape;
use crate::{Result, TensorError};

/// An owned, dense, row-major `f32` tensor of arbitrary rank.
///
/// `Tensor` is the single numeric container used throughout the workspace: images,
/// activations, weights, gradients and quantization scales are all `Tensor`s. The
/// representation is a flat `Vec<f32>` plus a shape vector; there are no views or
/// strides, which keeps ownership simple and every operation easy to audit.
///
/// A tensor also carries its 128-bit content key once it has been asked for
/// one ([`Tensor::content_keys`]): the key is derived once per content,
/// clones carry it, every `&mut self` method drops it, and equality ignores
/// it.
///
/// # Example
///
/// ```
/// use dnnip_tensor::Tensor;
///
/// # fn main() -> Result<(), dnnip_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2, 3])?;
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.get(&[1, 2])?, 5.0);
/// assert_eq!(t.sum(), 15.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
    /// The content key of `shape` and `data`, once derived.
    key: OnceLock<(u64, u64)>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Create a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if shape::num_elements(shape) != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: data.len(),
            });
        }
        Ok(Self::raw(shape.to_vec(), data))
    }

    /// Create a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::raw(shape.to_vec(), vec![0.0; shape::num_elements(shape)])
    }

    /// Create a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Create a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self::raw(shape.to_vec(), vec![value; shape::num_elements(shape)])
    }

    /// Create a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::raw(Vec::new(), vec![value])
    }

    /// Create a tensor by evaluating `f` at every flat (row-major) index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = shape::num_elements(shape);
        Self::raw(shape.to_vec(), (0..n).map(&mut f).collect())
    }

    /// A tensor of `shape` over `data`, not yet keyed.
    fn raw(shape: Vec<usize>, data: Vec<f32>) -> Self {
        Self {
            shape,
            data,
            key: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of dimensions). Scalars have rank 0.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor contains no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major data slice.
    ///
    /// Every write to the data goes through here, so this is the one place
    /// that drops the content key.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.key.take();
        &mut self.data
    }

    /// Consume the tensor and return its flat row-major data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Read the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for indices of the wrong rank or
    /// out of range.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        let off = shape::offset(&self.shape, index)?;
        Ok(self.data[off])
    }

    /// Write the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for indices of the wrong rank or
    /// out of range.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = shape::offset(&self.shape, index)?;
        self.data_mut()[off] = value;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Return a copy of the tensor with a new shape describing the same number of
    /// elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts differ.
    pub fn reshape(&self, new_shape: &[usize]) -> Result<Self> {
        if shape::num_elements(new_shape) != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: new_shape.to_vec(),
                data_len: self.data.len(),
            });
        }
        Ok(Self::raw(new_shape.to_vec(), self.data.clone()))
    }

    /// Flatten to a rank-1 tensor.
    pub fn flatten(&self) -> Self {
        Self::raw(vec![self.data.len()], self.data.clone())
    }

    // ------------------------------------------------------------------
    // Element-wise operations (shape-checked)
    // ------------------------------------------------------------------

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_map(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_map(other, "sub", |a, b| a - b)
    }

    /// In-place element-wise addition (`self += other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<()> {
        shape::check_same(&self.shape, &other.shape, "add_assign")?;
        for (a, b) in self.data_mut().iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled addition (`self += alpha * other`), the `axpy` primitive
    /// of gradient-based test generation's input update.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<()> {
        shape::check_same(&self.shape, &other.shape, "axpy")?;
        for (a, b) in self.data_mut().iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Apply `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self::raw(
            self.shape.clone(),
            self.data.iter().map(|&x| f(x)).collect(),
        )
    }

    /// Combine two same-shaped tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(
        &self,
        other: &Self,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self> {
        shape::check_same(&self.shape, &other.shape, op)?;
        Ok(Self::raw(
            self.shape.clone(),
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        ))
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, alpha: f32) -> Self {
        self.map(|x| x * alpha)
    }

    /// Clamp every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// Fill the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data_mut().fill(value);
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] if the tensor has no elements.
    pub fn max(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |m| m.max(x)))
            })
            .ok_or(TensorError::EmptyTensor { op: "max" })
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] if the tensor has no elements.
    pub fn min(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |m| m.min(x)))
            })
            .ok_or(TensorError::EmptyTensor { op: "min" })
    }

    /// Index of the maximum element (first occurrence on ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] if the tensor has no elements.
    pub fn argmax(&self) -> Result<usize> {
        if self.data.is_empty() {
            return Err(TensorError::EmptyTensor { op: "argmax" });
        }
        let mut best = 0usize;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn dot(&self, other: &Self) -> Result<f32> {
        if self.data.len() != other.data.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "dot",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm of the tensor viewed as a flat vector.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Largest absolute element value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    // ------------------------------------------------------------------
    // Content keys
    // ------------------------------------------------------------------

    /// The 128-bit content key of each tensor: its shape, its length and the
    /// exact bit pattern of every element, in two independently keyed 64-bit
    /// halves. `dnnip-core` addresses every memory and disk cache entry by
    /// it, so "same key" means "same cache entry".
    ///
    /// Each half is one [`lane_hashes`] chain over the data read as 64-bit
    /// words (two `f32`s each, the first in the low half; a lone last
    /// element is a low word), folded on with the rank and every dimension
    /// through the splitmix64 finalizer ([`mix64`]).
    ///
    /// A key is derived once per content: the tensor keeps it, clones carry
    /// it, and every `&mut self` method drops it. Only the tensors without a
    /// key are hashed here, in one [`lane_hashes`] call, so they run eight
    /// at a time; a batch of keyed tensors hashes nothing. The value does
    /// not depend on the batch around a tensor. A key lives only as long as
    /// its tensor, so a caller that clones one pool into several requests
    /// keys the pool first; otherwise each request hashes its own clone.
    ///
    /// **No collision on one element.** Two same-shape tensors that differ in
    /// one element differ in one word of one lane (or one tail word), keep
    /// differing through every later step, and end in different values of
    /// **both** halves. Tensors of different shape or length differ in what
    /// the finalizer folds.
    ///
    /// Why lanes, and why eight tensors: with one dependent chain per half,
    /// every word waits for the previous multiply. Four lanes per half give a
    /// scalar build eight independent multiplies per block. Under
    /// `target-cpu=native` on AVX-512 hosts, though, LLVM packs each half's
    /// four lanes into one `vpmullq`, whose latency is several times a scalar
    /// `imul`'s, so one tensor still ran as two dependent vector chains.
    /// Eight tensors side by side give the vector multiplier sixteen
    /// independent chains per block.
    ///
    /// `dnnip-core`'s disk tier stores entries under these keys: any change
    /// to this derivation must bump its persistent format version.
    pub fn content_keys(tensors: &[Tensor]) -> Vec<(u64, u64)> {
        let unkeyed: Vec<&Tensor> = tensors.iter().filter(|t| t.key.get().is_none()).collect();
        if !unkeyed.is_empty() {
            let data: Vec<&[f32]> = unkeyed.iter().map(|t| t.data()).collect();
            for (t, halves) in unkeyed.iter().zip(lane_hashes(&data, [CHAIN_LO, CHAIN_HI])) {
                let [lo, hi] = halves.map(|mut h| {
                    h = mix64(h ^ t.shape.len() as u64);
                    for &d in &t.shape {
                        h = mix64(h ^ d as u64);
                    }
                    h
                });
                // Another thread keying the same tensor stores the same value.
                let _ = t.key.set((lo, hi));
            }
        }
        tensors
            .iter()
            .map(|t| *t.key.get().expect("every tensor keyed above"))
            .collect()
    }

    // ------------------------------------------------------------------
    // Comparisons
    // ------------------------------------------------------------------

    /// Whether every element of `self` is within `tol` of the corresponding
    /// element of `other` (and the shapes match).
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// Equal shapes and elements; whether either side holds its content key does
/// not matter.
impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

/// The shape and the data; the memoized content key is left out.
impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("data", &self.data)
            .finish()
    }
}

impl Default for Tensor {
    /// The default tensor is a rank-0 scalar holding `0.0`.
    fn default() -> Self {
        Self::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, ... {} elements ..., {:.4}])",
                self.data[0],
                self.data[1],
                self.data.len(),
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]).is_err());
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.ndim(), 2);
    }

    #[test]
    fn constructors_fill_values() {
        assert!(Tensor::zeros(&[3, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).data().iter().all(|&x| x == 7.5));
        assert_eq!(Tensor::scalar(3.0).ndim(), 0);
        assert_eq!(Tensor::scalar(3.0).len(), 1);
    }

    #[test]
    fn from_fn_uses_flat_index() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 42.0).unwrap();
        assert_eq!(t.get(&[1, 2, 3]).unwrap(), 42.0);
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0, 0]).is_err());
        assert!(t.set(&[0, 3, 0], 1.0).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]).unwrap();
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
        assert_eq!(t.flatten().shape(), &[12]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 3.0, 2.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -1.0, 1.0, 3.0]);
        let c = Tensor::zeros(&[4]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.axpy(-0.5, &b).unwrap();
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.fill(0.0);
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn scalar_ops_and_maps() {
        let a = Tensor::from_vec(vec![-1.0, 2.0, -3.0], &[3]).unwrap();
        assert_eq!(a.scale(2.0).data(), &[-2.0, 4.0, -6.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.clamp(-2.0, 1.0).data(), &[-1.0, 1.0, -2.0]);
        assert_eq!(a.map(|x| x * x).data(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max().unwrap(), 3.0);
        assert_eq!(a.min().unwrap(), -4.0);
        assert_eq!(a.argmax().unwrap(), 2);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.l2_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn reductions_on_empty_tensor_error() {
        let e = Tensor::zeros(&[0]);
        assert!(e.max().is_err());
        assert!(e.min().is_err());
        assert!(e.argmax().is_err());
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max_abs(), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        // dot works across shapes as long as the element counts agree
        let c = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3, 1]).unwrap();
        assert_eq!(a.dot(&c).unwrap(), 32.0);
        let d = Tensor::zeros(&[2]);
        assert!(a.dot(&d).is_err());
    }

    #[test]
    fn approx_eq_and_finiteness() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0001, 1.9999], &[2]).unwrap();
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-6));
        assert!(!a.approx_eq(&Tensor::zeros(&[3]), 1.0));
        assert!(!a.has_non_finite());
        let c = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(c.has_non_finite());
    }

    #[test]
    fn display_is_never_empty() {
        let small = Tensor::zeros(&[2]);
        assert!(!format!("{small}").is_empty());
        let large = Tensor::zeros(&[100]);
        let s = format!("{large}");
        assert!(s.contains("100 elements"));
    }

    #[test]
    fn default_is_zero_scalar() {
        let d = Tensor::default();
        assert_eq!(d.ndim(), 0);
        assert_eq!(d.data(), &[0.0]);
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
