//! The dense row-major `f32` tensor type.

use std::fmt;

use crate::shape::Shape;

/// Errors produced by tensor construction and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided buffer length does not match the requested shape.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Shape,
        /// Shape of the right-hand operand.
        rhs: Shape,
    },
    /// The operation requires a different rank than the operand has.
    RankMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Shape,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer of {actual} elements cannot fill shape of {expected}"
                )
            }
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs} and {rhs}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => {
                write!(f, "{op}: expected rank {expected}, got {actual}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// `Tensor` is deliberately simple: contiguous storage, eager operations, no
/// views or broadcasting beyond what the MoE stack needs. This keeps the
/// backward passes in [`crate::nn`] easy to audit against the math.
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            data: self.data.clone(),
            shape: self.shape.clone(),
        }
    }

    /// Overwrites `self` with `source`, reusing `self`'s allocation when it
    /// is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        self.shape.clone_from(&source.shape);
    }
}

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a zero-filled tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a one-filled tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![1.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor holding `0.0, 1.0, ..., (n-1) as f32`.
    pub fn arange(n: usize) -> Self {
        Tensor {
            data: (0..n).map(|i| i as f32).collect(),
            shape: Shape::new(&[n]),
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::new(&[]),
        }
    }

    /// Returns the tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the flat row-major data buffer mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    pub fn get(&self, idx: &[usize]) -> Result<f32, TensorError> {
        self.shape
            .offset(idx)
            .map(|o| self.data[o])
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: self.shape.clone(),
            })
    }

    /// Writes the element at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], value: f32) -> Result<(), TensorError> {
        match self.shape.offset(idx) {
            Some(o) => {
                self.data[o] = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: self.shape.clone(),
            }),
        }
    }

    /// Returns a copy with the same data but a new shape.
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Returns row `r` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Returns row `r` of a rank-2 tensor as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Returns `true` if every element is finite (no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Returns the maximum absolute difference to `other`, or `None` when
    /// shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={}, data[..{}]={:?}{})",
            self.shape,
            preview.len(),
            preview,
            if self.data.len() > 8 { ", ..." } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_overwrites_in_place_when_the_allocation_is_large_enough() {
        let mut kept = Tensor::full(&[4, 3], 7.0);
        let ptr = kept.data().as_ptr();
        let smaller = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        kept.clone_from(&smaller);
        assert_eq!(kept, smaller);
        assert_eq!(kept.data().as_ptr(), ptr, "the allocation survived");
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
        let err = Tensor::from_vec(vec![1.0, 2.0], &[3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn eye_is_identity() {
        let e = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_eq!(e.get(&[i, j]).unwrap(), expected);
            }
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert!(t.set(&[2, 0], 1.0).is_err());
        assert!(t.get(&[0, 3]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6);
        let r = t.reshape(&[2, 3]).unwrap();
        assert_eq!(r.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert_eq!(a.max_abs_diff(&b), None);
        let c = Tensor::full(&[2, 2], 0.5);
        assert_eq!(a.max_abs_diff(&c), Some(0.5));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[3]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.all_finite());
    }
}
