//! Dense matrices over GF(2⁸) with the operations the erasure code needs:
//! Vandermonde construction, multiplication, and Gaussian-elimination
//! inversion.

use std::fmt;

use crate::error::FecError;
use crate::gf256;

/// A row-major dense matrix over GF(2⁸).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// A 0 × 0 placeholder whose storage an in-place operation fills.
    pub(crate) const fn empty() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Creates the `rows × cols` Vandermonde matrix whose entry `(r, c)` is
    /// `r^c` in GF(2⁸) (with the usual convention `0⁰ = 1`).  Any `cols`
    /// rows of this matrix are linearly independent as long as `rows ≤ 255`.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Self::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c as u32));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> u8 {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: u8) {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row.
    pub fn row(&self, row: usize) -> &[u8] {
        assert!(row < self.rows, "matrix row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    fn row_mut(&mut self, row: usize) -> &mut [u8] {
        assert!(row < self.rows, "matrix row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable views of two distinct rows at once (for row elimination).
    fn rows_pair_mut(&mut self, a: usize, b: usize) -> (&mut [u8], &mut [u8]) {
        assert!(a != b, "rows_pair_mut needs distinct rows");
        assert!(a < self.rows && b < self.rows, "matrix row out of bounds");
        let cols = self.cols;
        if a < b {
            let (head, tail) = self.data.split_at_mut(b * cols);
            (&mut head[a * cols..(a + 1) * cols], &mut tail[..cols])
        } else {
            let (head, tail) = self.data.split_at_mut(a * cols);
            (&mut tail[..cols], &mut head[b * cols..(b + 1) * cols])
        }
    }

    /// Builds a new matrix from a subset of this matrix's rows, in the given
    /// order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut m = Matrix::zero(rows.len(), self.cols);
        self.select_rows_into(rows, &mut m);
        m
    }

    /// [`select_rows`](Self::select_rows) into `out`, reusing its storage.
    pub(crate) fn select_rows_into(&self, rows: &[usize], out: &mut Matrix) {
        out.rows = rows.len();
        out.cols = self.cols;
        out.data.clear();
        for &src in rows {
            out.data.extend_from_slice(self.row(src));
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// The inner loop runs over whole rows of `rhs` through the bulk
    /// [`gf256::addmul_slice`] rather than element-by-element `get`/`set`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree.
    pub fn multiply(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner matrix dimensions must agree");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
            for inner in 0..self.cols {
                let coeff = self.data[r * self.cols + inner];
                if coeff == 0 {
                    continue;
                }
                gf256::addmul_slice(out_row, rhs.row(inner), coeff);
            }
        }
        out
    }

    /// Returns the inverse of this square matrix, or
    /// [`FecError::SingularMatrix`] if it is not invertible.
    ///
    /// # Errors
    ///
    /// Returns [`FecError::SingularMatrix`] when no inverse exists.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverted(&self) -> Result<Matrix, FecError> {
        let mut inverse = Matrix::empty();
        self.clone().invert_into(&mut inverse)?;
        Ok(inverse)
    }

    /// Writes the inverse of this square matrix into `inverse`, reusing its
    /// storage; Gauss-Jordan elimination runs on `self`, which is left
    /// reduced (the identity on success).
    ///
    /// # Errors
    ///
    /// Returns [`FecError::SingularMatrix`] when no inverse exists.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub(crate) fn invert_into(&mut self, inverse: &mut Matrix) -> Result<(), FecError> {
        assert_eq!(self.rows, self.cols, "only square matrices can be inverted");
        let n = self.rows;
        let work = self;
        inverse.rows = n;
        inverse.cols = n;
        inverse.data.clear();
        inverse.data.resize(n * n, 0);
        for i in 0..n {
            inverse.data[i * n + i] = 1;
        }

        for col in 0..n {
            // Find a pivot row with a non-zero entry in this column.
            let pivot = (col..n)
                .find(|&r| work.get(r, col) != 0)
                .ok_or(FecError::SingularMatrix)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inverse.swap_rows(pivot, col);
            }
            // Scale the pivot row so the pivot element becomes 1.
            let pivot_value = work.get(col, col);
            let pivot_inv = gf256::inv(pivot_value);
            work.scale_row(col, pivot_inv);
            inverse.scale_row(col, pivot_inv);
            // Eliminate this column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor != 0 {
                    work.addmul_row(r, col, factor);
                    inverse.addmul_row(r, col, factor);
                }
            }
        }
        Ok(())
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (row_a, row_b) = self.rows_pair_mut(a, b);
        row_a.swap_with_slice(row_b);
    }

    fn scale_row(&mut self, row: usize, factor: u8) {
        gf256::mul_slice(self.row_mut(row), factor);
    }

    /// `row_dst ^= factor * row_src`, borrowing both rows in place (no
    /// temporary row copy).
    fn addmul_row(&mut self, dst: usize, src: usize, factor: u8) {
        let (dst_row, src_row) = self.rows_pair_mut(dst, src);
        gf256::addmul_slice(dst_row, src_row, factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything_is_unchanged() {
        let v = Matrix::vandermonde(5, 3);
        let id = Matrix::identity(5);
        assert_eq!(id.multiply(&v), v);
    }

    #[test]
    fn vandermonde_first_rows() {
        let v = Matrix::vandermonde(4, 3);
        // Row 0: alpha = 0 -> [1, 0, 0]
        assert_eq!(v.row(0), &[1, 0, 0]);
        // Row 1: alpha = 1 -> [1, 1, 1]
        assert_eq!(v.row(1), &[1, 1, 1]);
        // Row 2: alpha = 2 -> [1, 2, 4]
        assert_eq!(v.row(2), &[1, 2, 4]);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        // Any k rows of a Vandermonde matrix form an invertible square
        // matrix; try a few selections.
        let v = Matrix::vandermonde(8, 4);
        for rows in [[0usize, 1, 2, 3], [4, 5, 6, 7], [0, 3, 5, 7], [1, 2, 4, 6]] {
            let square = v.select_rows(&rows);
            let inverse = square.inverted().unwrap();
            assert_eq!(square.multiply(&inverse), Matrix::identity(4));
            assert_eq!(inverse.multiply(&square), Matrix::identity(4));
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = Matrix::zero(2, 2);
        m.set(0, 0, 1);
        m.set(0, 1, 2);
        m.set(1, 0, 1);
        m.set(1, 1, 2); // identical rows
        assert_eq!(m.inverted().unwrap_err(), FecError::SingularMatrix);
    }

    #[test]
    fn select_rows_preserves_order() {
        let v = Matrix::vandermonde(5, 2);
        let sel = v.select_rows(&[3, 1]);
        assert_eq!(sel.row(0), v.row(3));
        assert_eq!(sel.row(1), v.row(1));
    }

    #[test]
    fn multiply_dimensions() {
        let a = Matrix::vandermonde(4, 3);
        let b = Matrix::vandermonde(3, 2);
        let c = a.multiply(&b);
        assert_eq!(c.rows(), 4);
        assert_eq!(c.cols(), 2);
    }

    #[test]
    #[should_panic(expected = "dimensions must agree")]
    fn multiply_with_bad_dimensions_panics() {
        let a = Matrix::vandermonde(2, 3);
        let b = Matrix::vandermonde(2, 3);
        let _ = a.multiply(&b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::identity(2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn debug_output_lists_rows() {
        let m = Matrix::identity(2);
        let text = format!("{m:?}");
        assert!(text.contains("2x2"));
    }
}
