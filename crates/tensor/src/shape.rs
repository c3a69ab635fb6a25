//! Shape arithmetic for dense row-major tensors.

use std::fmt;

/// The dimensions of a [`crate::Tensor`], outermost first.
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` that provides the index
/// arithmetic (strides, flat offsets) used throughout the crate. The empty
/// shape `[]` denotes a scalar with one element.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Returns the dimensions as a slice, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Returns the number of dimensions (the tensor rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns the size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Returns row-major strides, outermost first.
    ///
    /// The innermost stride is always 1; a scalar shape yields an empty
    /// stride vector.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// Returns `None` if `idx` has the wrong rank or any coordinate is out
    /// of bounds.
    pub fn offset(&self, idx: &[usize]) -> Option<usize> {
        if idx.len() != self.0.len() {
            return None;
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (d, (&i, &s)) in idx.iter().zip(strides.iter()).enumerate() {
            if i >= self.0[d] {
                return None;
            }
            off += i * s;
        }
        Some(off)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]), Some(0));
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[1, 2, 3]), Some(12 + 8 + 3));
        assert_eq!(s.offset(&[0, 0, 0]), Some(0));
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[2, 0]), None);
        assert_eq!(s.offset(&[0]), None);
        assert_eq!(s.offset(&[0, 3]), None);
    }
}
