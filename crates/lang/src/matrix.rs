//! Dense matrices and compressed-sparse-row (CSR) matrices.
//!
//! MatrixMul, MixedGEMM, PageRank, and SparseMV operate on these. The CSR
//! type matters to the paper specifically: converting a matrix to CSR is
//! the one operation whose output volume ActivePy consistently
//! *over-estimates* (up to 2.41×), because sparsity is hard to see in small
//! samples (§V). Keeping nnz data-dependent here is what lets the
//! reproduction exhibit the same behaviour.

use crate::error::{LangError, Result};
use crate::par::ParEngine;
use std::fmt;
use std::sync::Arc;

/// A dense row-major matrix with logical (paper-scale) dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Arc<Vec<f64>>,
    rows: usize,
    cols: usize,
    logical_rows: u64,
    logical_cols: u64,
}

isp_obs::fingerprint_fields!(Matrix {
    data,
    rows,
    cols,
    logical_rows,
    logical_cols
});

impl Matrix {
    /// Builds a matrix whose logical size equals its materialized size.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn new(data: Vec<f64>, rows: usize, cols: usize) -> Result<Self> {
        Self::with_logical(data, rows, cols, rows as u64, cols as u64)
    }

    /// Builds a matrix whose materialized `rows × cols` block stands for a
    /// `logical_rows × logical_cols` paper-scale matrix.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or logical dims smaller than the
    /// materialized ones.
    pub fn with_logical(
        data: Vec<f64>,
        rows: usize,
        cols: usize,
        logical_rows: u64,
        logical_cols: u64,
    ) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LangError::runtime(format!(
                "matrix data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        if logical_rows < rows as u64 || logical_cols < cols as u64 {
            return Err(LangError::runtime(
                "logical dimensions must be at least the materialized dimensions",
            ));
        }
        Ok(Matrix {
            data: Arc::new(data),
            rows,
            cols,
            logical_rows,
            logical_cols,
        })
    }

    /// Materialized row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Materialized column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Paper-scale row count.
    #[must_use]
    pub fn logical_rows(&self) -> u64 {
        self.logical_rows
    }

    /// Paper-scale column count.
    #[must_use]
    pub fn logical_cols(&self) -> u64 {
        self.logical_cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// The backing row-major data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Paper-scale data volume (8 bytes per logical element).
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.logical_rows * self.logical_cols * 8
    }

    /// Dense matrix multiply `self × rhs`, computed on the materialized
    /// blocks; logical dimensions compose accordingly.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LangError::runtime(format!(
                "matmul shape mismatch: {}x{} times {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = vec![0.0; self.rows * rhs.cols];
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[i * rhs.cols + j] += a * rhs.data[k * rhs.cols + j];
                }
            }
        }
        Matrix::with_logical(
            out,
            self.rows,
            rhs.cols,
            self.logical_rows,
            rhs.logical_cols,
        )
    }

    /// [`Self::matmul`] executed through the data-parallel engine: output
    /// rows are chunked (each is written by exactly one worker), so the
    /// result is bit-identical to the serial product at any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn matmul_with(&self, rhs: &Matrix, par: &ParEngine) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LangError::runtime(format!(
                "matmul shape mismatch: {}x{} times {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        // Per output row: one madd per (k, j) pair.
        let per_row = self.cols.max(1);
        let Some(blocks) = par.map_chunks(self.rows, per_row, |_, rows| {
            let mut block = vec![0.0; rows.len() * rhs.cols];
            for (bi, i) in rows.enumerate() {
                for k in 0..self.cols {
                    let a = self.data[i * self.cols + k];
                    if a == 0.0 {
                        continue;
                    }
                    for j in 0..rhs.cols {
                        block[bi * rhs.cols + j] += a * rhs.data[k * rhs.cols + j];
                    }
                }
            }
            block
        }) else {
            return self.matmul(rhs);
        };
        let mut out = Vec::with_capacity(self.rows * rhs.cols);
        for block in blocks {
            out.extend_from_slice(&block);
        }
        Matrix::with_logical(
            out,
            self.rows,
            rhs.cols,
            self.logical_rows,
            rhs.logical_cols,
        )
    }

    /// Fraction of materialized entries that are non-zero.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nnz = self.data.iter().filter(|x| **x != 0.0).count();
        nnz as f64 / self.data.len() as f64
    }

    /// Converts to CSR. The logical nnz is scaled from the *measured*
    /// density of the materialized block.
    #[must_use]
    pub fn to_csr(&self) -> Csr {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.data[r * self.cols + c];
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        let logical_elems = self.logical_rows * self.logical_cols;
        let logical_nnz =
            ((logical_elems as f64 * self.density()).round() as u64).max(values.len() as u64);
        Csr {
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
            rows: self.rows,
            cols: self.cols,
            logical_rows: self.logical_rows,
            logical_cols: self.logical_cols,
            logical_nnz,
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix[{}x{} (logical {}x{})]",
            self.rows, self.cols, self.logical_rows, self.logical_cols
        )
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    row_ptr: Arc<Vec<u32>>,
    col_idx: Arc<Vec<u32>>,
    values: Arc<Vec<f64>>,
    rows: usize,
    cols: usize,
    logical_rows: u64,
    logical_cols: u64,
    logical_nnz: u64,
}

isp_obs::fingerprint_fields!(Csr {
    row_ptr,
    col_idx,
    values,
    rows,
    cols,
    logical_rows,
    logical_cols,
    logical_nnz
});

impl Csr {
    /// Rebuilds a CSR matrix from its raw arrays (the inverse of reading
    /// them back via [`Csr::row_ptr`] / [`Csr::col_idx`] / [`Csr::values`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the arrays are not a well-formed CSR
    /// structure (`row_ptr` wrong length, non-monotonic, or disagreeing
    /// with `values.len()`; column indices out of range) or the logical
    /// dimensions are smaller than the materialized ones.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
        rows: usize,
        cols: usize,
        logical_rows: u64,
        logical_cols: u64,
        logical_nnz: u64,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 || row_ptr.first() != Some(&0) {
            return Err(LangError::runtime(format!(
                "csr row_ptr length {} does not match {rows} rows",
                row_ptr.len()
            )));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1])
            || row_ptr.last().copied().unwrap_or(0) as usize != values.len()
        {
            return Err(LangError::runtime("csr row_ptr is not a valid prefix sum"));
        }
        if col_idx.len() != values.len() || col_idx.iter().any(|&c| c as usize >= cols.max(1)) {
            return Err(LangError::runtime("csr col_idx out of range"));
        }
        if logical_rows < rows as u64
            || logical_cols < cols as u64
            || logical_nnz < values.len() as u64
        {
            return Err(LangError::runtime(
                "csr logical dimensions must be at least the materialized ones",
            ));
        }
        Ok(Csr {
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
            rows,
            cols,
            logical_rows,
            logical_cols,
            logical_nnz,
        })
    }

    /// The row-pointer prefix-sum array (`rows + 1` entries).
    #[must_use]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column index of each stored non-zero.
    #[must_use]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value of each stored non-zero.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Paper-scale column count.
    #[must_use]
    pub fn logical_cols(&self) -> u64 {
        self.logical_cols
    }

    /// Materialized row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Materialized column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Materialized non-zero count.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Paper-scale row count.
    #[must_use]
    pub fn logical_rows(&self) -> u64 {
        self.logical_rows
    }

    /// Paper-scale non-zero count.
    #[must_use]
    pub fn logical_nnz(&self) -> u64 {
        self.logical_nnz
    }

    /// Paper-scale data volume: 12 bytes per stored non-zero (8 value + 4
    /// column index) plus 4 bytes per row pointer.
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.logical_nnz * 12 + (self.logical_rows + 1) * 4
    }

    /// Sparse matrix–vector product on the materialized block.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.len() != cols`.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LangError::runtime(format!(
                "spmv shape mismatch: {} cols vs vector of {}",
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.rows];
        for (r, y_r) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *y_r = acc;
        }
        Ok(y)
    }

    /// [`Self::spmv`] executed through the data-parallel engine: rows are
    /// chunked and each output element is row-local, so the result is
    /// bit-identical to the serial product at any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.len() != cols`.
    pub fn spmv_with(&self, x: &[f64], par: &ParEngine) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LangError::runtime(format!(
                "spmv shape mismatch: {} cols vs vector of {}",
                self.cols,
                x.len()
            )));
        }
        let per_row = (self.nnz() / self.rows.max(1)).max(1);
        let Some(parts) = par.map_chunks(self.rows, per_row, |_, rows| {
            rows.map(|r| {
                let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += self.values[k] * x[self.col_idx[k] as usize];
                }
                acc
            })
            .collect::<Vec<f64>>()
        }) else {
            return self.spmv(x);
        };
        Ok(parts.concat())
    }

    /// One damped PageRank iteration over this adjacency structure
    /// (column-normalized on the fly), returning the next rank vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `ranks.len() != rows` or the matrix is not
    /// square.
    pub fn pagerank_step(&self, ranks: &[f64], damping: f64) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(LangError::runtime(
                "pagerank needs a square adjacency matrix",
            ));
        }
        if ranks.len() != self.rows {
            return Err(LangError::runtime(format!(
                "rank vector length {} does not match {} nodes",
                ranks.len(),
                self.rows
            )));
        }
        // Out-degree per node (treating row r's entries as edges r -> c).
        let mut out_deg = vec![0u32; self.rows];
        for (r, deg) in out_deg.iter_mut().enumerate() {
            *deg = self.row_ptr[r + 1] - self.row_ptr[r];
        }
        let n = self.rows as f64;
        let mut next = vec![(1.0 - damping) / n; self.rows];
        for r in 0..self.rows {
            if out_deg[r] == 0 {
                // Dangling node: spread evenly.
                let share = damping * ranks[r] / n;
                for v in next.iter_mut() {
                    *v += share;
                }
                continue;
            }
            let share = damping * ranks[r] / f64::from(out_deg[r]);
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for k in lo..hi {
                next[self.col_idx[k] as usize] += share;
            }
        }
        Ok(next)
    }

    /// [`Self::pagerank_step`] executed through the data-parallel engine.
    ///
    /// Source rows are chunked; each chunk scatters its contributions into
    /// a private dense partial vector, and partials are combined **in chunk
    /// order** onto the `(1 - damping) / n` base. Chunk boundaries depend
    /// only on the graph shape, so the reassociated sums are identical at
    /// any thread count (though they may differ from the serial scatter
    /// order in the last ulp, deterministically so).
    ///
    /// # Errors
    ///
    /// Same surface as [`Self::pagerank_step`].
    pub fn pagerank_step_with(
        &self,
        ranks: &[f64],
        damping: f64,
        par: &ParEngine,
    ) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(LangError::runtime(
                "pagerank needs a square adjacency matrix",
            ));
        }
        if ranks.len() != self.rows {
            return Err(LangError::runtime(format!(
                "rank vector length {} does not match {} nodes",
                ranks.len(),
                self.rows
            )));
        }
        let n = self.rows as f64;
        let per_row = (self.nnz() / self.rows.max(1)).max(1) + 1;
        let Some(parts) = par.map_chunks(self.rows, per_row, |_, rows| {
            let mut partial = vec![0.0; self.rows];
            for r in rows {
                let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                if lo == hi {
                    // Dangling node: spread evenly.
                    let share = damping * ranks[r] / n;
                    for v in partial.iter_mut() {
                        *v += share;
                    }
                    continue;
                }
                let share = damping * ranks[r] / (hi - lo) as f64;
                for k in lo..hi {
                    partial[self.col_idx[k] as usize] += share;
                }
            }
            partial
        }) else {
            return self.pagerank_step(ranks, damping);
        };
        let mut next = vec![(1.0 - damping) / n; self.rows];
        for partial in parts {
            for (o, v) in next.iter_mut().zip(&partial) {
                *o += v;
            }
        }
        Ok(next)
    }
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "csr[{}x{}, nnz {} (logical nnz {})]",
            self.rows,
            self.cols,
            self.nnz(),
            self.logical_nnz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense() -> Matrix {
        // 2x3 with two zeros.
        Matrix::new(vec![1.0, 0.0, 2.0, 0.0, 3.0, 4.0], 2, 3).expect("matrix")
    }

    #[test]
    fn construction_validates_shape() {
        assert!(Matrix::new(vec![1.0; 5], 2, 3).is_err());
        assert!(Matrix::with_logical(vec![1.0; 6], 2, 3, 1, 3).is_err());
    }

    #[test]
    fn matmul_small_case() {
        let a = Matrix::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2).expect("a");
        let b = Matrix::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2).expect("b");
        let c = a.matmul(&b).expect("c");
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_composes_logical_dims() {
        let a = Matrix::with_logical(vec![1.0; 4], 2, 2, 2000, 2000).expect("a");
        let b = Matrix::with_logical(vec![1.0; 4], 2, 2, 2000, 2000).expect("b");
        let c = a.matmul(&b).expect("c");
        assert_eq!(c.logical_rows(), 2000);
        assert_eq!(c.logical_cols(), 2000);
    }

    #[test]
    fn matmul_shape_mismatch_rejected() {
        let a = Matrix::new(vec![1.0; 6], 2, 3).expect("a");
        let b = Matrix::new(vec![1.0; 4], 2, 2).expect("b");
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn density_measures_nonzeros() {
        assert!((dense().density() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn csr_round_trip_spmv_matches_dense() {
        let m = dense();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 4);
        let y = csr.spmv(&[1.0, 1.0, 1.0]).expect("spmv");
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn csr_logical_nnz_scales_with_density() {
        let m =
            Matrix::with_logical(vec![1.0, 0.0, 2.0, 0.0, 3.0, 4.0], 2, 3, 2000, 3000).expect("m");
        let csr = m.to_csr();
        let expected = (2000u64 * 3000) as f64 * (4.0 / 6.0);
        assert!((csr.logical_nnz() as f64 - expected).abs() < 1.0);
        // CSR volume is smaller than dense volume for sparse data.
        assert!(csr.virtual_bytes() < m.virtual_bytes() * 2);
    }

    #[test]
    fn spmv_shape_mismatch_rejected() {
        assert!(dense().to_csr().spmv(&[1.0]).is_err());
    }

    #[test]
    fn pagerank_conserves_mass() {
        // Ring graph 0->1->2->0.
        let m = Matrix::new(vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0], 3, 3).expect("m");
        let csr = m.to_csr();
        let r0 = vec![1.0 / 3.0; 3];
        let r1 = csr.pagerank_step(&r0, 0.85).expect("step");
        let total: f64 = r1.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // Symmetric ring: stationary distribution stays uniform.
        for v in &r1 {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_handles_dangling_nodes() {
        // Node 1 has no out-edges.
        let m = Matrix::new(vec![0.0, 1.0, 0.0, 0.0], 2, 2).expect("m");
        let csr = m.to_csr();
        let r1 = csr.pagerank_step(&[0.5, 0.5], 0.85).expect("step");
        let total: f64 = r1.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pagerank_rejects_non_square() {
        let csr = dense().to_csr();
        assert!(csr.pagerank_step(&[0.5, 0.5], 0.85).is_err());
    }

    fn engine(threads: usize) -> ParEngine {
        ParEngine::new(crate::par::ParallelPolicy::new(threads, 256).expect("policy"))
    }

    fn big() -> Matrix {
        let data: Vec<f64> = (0..64 * 64)
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    ((i * 31) % 17) as f64 - 8.0
                }
            })
            .collect();
        Matrix::new(data, 64, 64).expect("matrix")
    }

    #[test]
    fn parallel_matmul_is_bitwise_equal_to_serial() {
        let m = big();
        let serial = m.matmul(&m).expect("serial");
        for threads in [1, 2, 8] {
            let par = m.matmul_with(&m, &engine(threads)).expect("par");
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_spmv_is_bitwise_equal_to_serial() {
        let csr = big().to_csr();
        let x: Vec<f64> = (0..64).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let serial = csr.spmv(&x).expect("serial");
        for threads in [1, 2, 8] {
            let par = csr.spmv_with(&x, &engine(threads)).expect("par");
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_pagerank_is_identical_across_thread_counts() {
        let csr = big().to_csr();
        let ranks = vec![1.0 / 64.0; 64];
        let reference = csr
            .pagerank_step_with(&ranks, 0.85, &engine(1))
            .expect("t1");
        // Bit-identical across thread counts (and mass-conserving).
        for threads in [2, 8] {
            let par = csr
                .pagerank_step_with(&ranks, 0.85, &engine(threads))
                .expect("par");
            assert_eq!(par, reference, "threads={threads}");
        }
        let total: f64 = reference.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    #[test]
    fn below_threshold_parallel_paths_delegate_to_serial() {
        // Small shapes stay on the untouched serial paths (errors included).
        let m = dense();
        let e = ParEngine::serial();
        assert!(m.matmul_with(&m, &e).is_err(), "2x3 × 2x3 still rejected");
        let y = m.to_csr().spmv_with(&[1.0, 1.0, 1.0], &e).expect("spmv");
        assert_eq!(y, m.to_csr().spmv(&[1.0, 1.0, 1.0]).expect("serial"));
        assert_eq!(e.stats().par_calls, 0);
    }
}
