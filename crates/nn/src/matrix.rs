//! A minimal dense row-major `f32` matrix, sized for the small MLPs this
//! workspace trains (tens of inputs, hundreds of hidden units).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the row-major backing slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the row-major backing slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Builds a new matrix from the rows of `self` selected by `indices`
    /// (repeats allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::select_rows`] into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub(crate) fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        for &idx in indices {
            out.data.extend_from_slice(self.row(idx));
        }
    }

    /// Builds a new matrix from the columns of `self` selected by `indices`
    /// (repeats allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (j, &idx) in indices.iter().enumerate() {
                assert!(idx < self.cols, "column {idx} out of bounds");
                dst[j] = src[idx];
            }
        }
        out
    }

    /// Reshapes to `rows × cols` of zeros, reusing the allocation.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `other`, reusing the allocation.
    pub(crate) fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    // The three products below fix the order of every output element's
    // sum: one chain of f32 adds over the summed index, ascending, starting
    // from `0.0`. Trained weights are a function of that order, so a kernel
    // may change how the chains are laid out in memory (to let independent
    // chains run side by side in vector lanes) but never reorder, split or
    // fuse the adds within one.

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_rows_into(0..self.rows, other, &mut out);
        out
    }

    /// `out = self[rows] · other`: the product of a window of consecutive
    /// rows, read in place. Zero terms of `self` are left out of the sums.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch or a window past the last row.
    pub(crate) fn matmul_rows_into(&self, rows: Range<usize>, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let window = &self.data[rows.start * self.cols..rows.end * self.cols];
        accumulate_rows(window, rows.len(), other, out, true);
    }

    /// Matrix product `selfᵀ · other`: [`Matrix::matmul`] of the transpose,
    /// so zero terms of `self` are left out of the sums.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b dimension mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.transpose().matmul(other)
    }

    /// Matrix product `self · otherᵀ`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_a_bt_into(&other.transpose(), &mut out);
        out
    }

    /// `out = self · Bᵀ`, given `other_t` = `Bᵀ` (a training step keeps its
    /// weights' transpose in a reused buffer). Every term is summed, zeros
    /// included: `out[i][j]` is `Σ_c self[i][c] · B[j][c]` in the order of a
    /// dot product, computed as a row axpy over `Bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub(crate) fn matmul_a_bt_into(&self, other_t: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other_t.rows,
            "matmul_a_bt dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other_t.cols, other_t.rows
        );
        accumulate_rows(&self.data, self.rows, other_t, out, false);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into `out`, reusing its allocation.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.data.clear();
        for c in 0..self.cols {
            out.data
                .extend((0..self.rows).map(|r| self.data[r * self.cols + c]));
        }
    }

    /// Adds `row` to every row of `self` in place (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(row) {
                *v += b;
            }
        }
    }

    /// Sums each column into a vector of length `cols`.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = Vec::new();
        self.column_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::column_sums`] into `sums`, reusing its allocation.
    pub(crate) fn column_sums_into(&self, sums: &mut Vec<f32>) {
        sums.clear();
        sums.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise product in place.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Scales every element in place.
    pub fn scale_inplace(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>9.4}", self.get(r, c))?;
            }
            if self.cols > 12 {
                write!(f, " …")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// `out[i][:] = Σ_k a[i][k] · b[k][:]` for the `rows` rows packed in `a`
/// (row-major, `b.rows()` wide). Each output element is one chain of adds
/// over `k` ascending from `0.0`; with `skip_zeros`, zero `a[i][k]` terms
/// are left out of the chain (not a no-op: `0 · inf` is NaN).
///
/// A row's terms are first gathered, 64 at a time and without a branch per
/// zero, then applied four per pass over the output row: one pass extends
/// every chain by four links in order — the same adds as four passes, with
/// a quarter of the output loads and stores.
fn accumulate_rows(a: &[f32], rows: usize, b: &Matrix, out: &mut Matrix, skip_zeros: bool) {
    const GATHER: usize = 64;
    let (k_dim, n) = (b.rows, b.cols);
    out.reset(rows, n);
    let b_row = |k: usize| &b.data[k * n..(k + 1) * n];
    let (mut coef, mut at) = ([0.0f32; GATHER], [0usize; GATHER]);
    for i in 0..rows {
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (g, terms) in a[i * k_dim..(i + 1) * k_dim].chunks(GATHER).enumerate() {
            let mut held = 0;
            for (k, &av) in terms.iter().enumerate() {
                coef[held] = av;
                at[held] = g * GATHER + k;
                held += usize::from(!skip_zeros || av != 0.0);
            }
            let quads = held - held % 4;
            let (c4, k4) = (coef[..quads].chunks_exact(4), at[..quads].chunks_exact(4));
            for (c, k) in c4.zip(k4) {
                axpy4(out_row, c, k, b);
            }
            for (&c, &k) in coef[quads..held].iter().zip(&at[quads..held]) {
                for (o, &bv) in out_row.iter_mut().zip(b_row(k)) {
                    *o += c * bv;
                }
            }
        }
    }
}

/// `out[j] += c[0]·b[k[0]][j]`, then `+= c[1]·b[k[1]][j]`, … in that
/// order, for four terms.
// Indexed rather than a five-way zip: the same adds, measured 5–15 %
// faster on the training shapes.
fn axpy4(out: &mut [f32], c: &[f32], k: &[usize], b: &Matrix) {
    let (c, n) = ([c[0], c[1], c[2], c[3]], out.len());
    let row = |t: usize| &b.data[k[t] * n..(k[t] + 1) * n];
    let (b0, b1, b2, b3) = (row(0), row(1), row(2), row(3));
    for j in 0..n {
        let mut o = out[j];
        o += c[0] * b0[j];
        o += c[1] * b1[j];
        o += c[2] * b2[j];
        o += c[3] * b3[j];
        out[j] = o;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // The reference kernels: the products as they were first written, one
    // scalar chain per output element. The kernels above must match them
    // bit for bit.

    /// `Σ_k a[i][k]·b[k][j]`, `k` ascending from `0.0`, zero `a` terms
    /// skipped.
    pub(crate) fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                let av = a.get(i, k);
                if av != 0.0 {
                    acc += av * b.get(k, j);
                }
            }
            acc
        })
    }

    /// `Σ_k a[k][i]·b[k][j]`, `k` ascending from `0.0`, zero `a` terms
    /// skipped.
    pub(crate) fn naive_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for k in 0..a.rows() {
                let av = a.get(k, i);
                if av != 0.0 {
                    acc += av * b.get(k, j);
                }
            }
            acc
        })
    }

    /// `Σ_c a[i][c]·b[j][c]`, `c` ascending from `0.0`, every term.
    pub(crate) fn naive_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            let mut acc = 0.0f32;
            for c in 0..a.cols() {
                acc += a.get(i, c) * b.get(j, c);
            }
            acc
        })
    }

    pub(crate) fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        (
            m.rows(),
            m.cols(),
            m.data().iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// A matrix that stresses the summation order: zeros of both signs,
    /// subnormals, values near the overflow edge (so chains reach ±inf and
    /// NaN), the odd infinity (so a zero term that is summed instead of
    /// skipped turns into NaN), and rows that are ReLU-sparse or entirely
    /// zero.
    fn hostile(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let kind = rng.gen_range(0..4u8);
            for v in m.row_mut(r) {
                let x = match rng.gen_range(0..64u8) {
                    0..=5 => 0.0,
                    6..=11 => -0.0,
                    12..=17 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                    18..=20 => 1e30,
                    21..=23 => -1e30,
                    24..=26 => 1e-30,
                    27 => f32::INFINITY,
                    _ => rng.gen::<f32>() * 4.0 - 2.0,
                };
                let x = if rng.gen::<bool>() { x } else { -x };
                *v = match kind {
                    0 => 0.0,
                    1 => x.max(0.0),
                    _ => x,
                };
            }
        }
        m
    }

    proptest! {
        #[test]
        fn products_match_the_reference_loops_bit_for_bit(
            shape in (1..=70usize, 1..=70usize, 1..=70usize),
            seed in any::<u64>(),
        ) {
            let (m, k, n) = shape;
            let mut rng = StdRng::seed_from_u64(seed);
            let a = hostile(&mut rng, m, k);
            let b = hostile(&mut rng, k, n);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&naive_matmul(&a, &b)));
            let a_t = hostile(&mut rng, k, m);
            prop_assert_eq!(bits(&a_t.matmul_at_b(&b)), bits(&naive_at_b(&a_t, &b)));
            let b_t = hostile(&mut rng, n, k);
            prop_assert_eq!(bits(&a.matmul_a_bt(&b_t)), bits(&naive_a_bt(&a, &b_t)));
            // A window of rows read in place is the product of those rows.
            let lo = rng.gen_range(0..m);
            let hi = rng.gen_range(lo..=m);
            let mut window = Matrix::default();
            a.matmul_rows_into(lo..hi, &b, &mut window);
            let rows: Vec<usize> = (lo..hi).collect();
            prop_assert_eq!(bits(&window), bits(&naive_matmul(&a.select_rows(&rows), &b)));
        }
    }

    fn a() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    fn b() -> Matrix {
        Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let c = a().matmul(&b());
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_at_b_equals_explicit_transpose() {
        let x = a();
        let y = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.matmul_at_b(&y), x.transpose().matmul(&y));
    }

    #[test]
    fn matmul_a_bt_equals_explicit_transpose() {
        let x = a();
        let y = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        assert_eq!(x.matmul_a_bt(&y), x.matmul(&y.transpose()));
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = a();
        m.add_row_broadcast(&[10.0, 20.0, 30.0]);
        assert_eq!(m.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        assert_eq!(m.column_sums(), vec![25.0, 47.0, 69.0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = a();
        let r = m.select_rows(&[1, 1, 0]);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(r.row(2), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.data(), &[3.0, 1.0, 6.0, 4.0]);
    }

    #[test]
    fn map_hadamard_scale_norm() {
        let mut m = Matrix::from_vec(1, 3, vec![3.0, 0.0, 4.0]);
        assert_eq!(m.norm(), 5.0);
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.data(), &[6.0, 0.0, 8.0]);
        m.hadamard_inplace(&doubled);
        assert_eq!(m.data(), &[18.0, 0.0, 32.0]);
        m.scale_inplace(0.5);
        assert_eq!(m.data(), &[9.0, 0.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let _ = a().matmul(&a());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(format!("{}", a()).contains("Matrix 2x3"));
    }
}
