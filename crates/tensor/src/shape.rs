//! Shape and stride arithmetic for row-major tensors.

use std::fmt;

/// A tensor shape: the extent of each dimension, outermost first.
///
/// `Shape` is a thin wrapper over `Vec<usize>` that centralizes the
/// row-major stride/index arithmetic shared by every kernel in the crate.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank).
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for rank-0).
    #[inline]
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Converts a multi-dimensional index into a linear offset.
    ///
    /// Panics when the index rank or any coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        let mut off = 0usize;
        let mut stride = 1usize;
        for i in (0..self.0.len()).rev() {
            assert!(
                index[i] < self.0[i],
                "index {} out of bounds for dim {} of extent {}",
                index[i],
                i,
                self.0[i]
            );
            off += index[i] * stride;
            stride *= self.0[i];
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_is_row_major() {
        let s = Shape::new(&[3, 5, 7]);
        assert_eq!((s.numel(), s.rank()), (105, 3));
        let mut lin = 0;
        for i in 0..3 {
            for j in 0..5 {
                for k in 0..7 {
                    assert_eq!(s.offset(&[i, j, k]), lin);
                    lin += 1;
                }
            }
        }
    }

    #[test]
    fn scalar_shape_behaves() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_range() {
        let s = Shape::new(&[2, 2]);
        s.offset(&[2, 0]);
    }
}
