//! Runtime values.
//!
//! Every bulk value (array, table, matrix, …) carries both its materialized
//! data — kept small enough to compute on a laptop — and a *logical* size
//! representing the paper-scale dataset it stands for. Builtins compute
//! real results on the materialized data and report costs analytically from
//! the logical sizes, so quantities that depend on the data (selectivity,
//! sparsity, tree depth) remain genuinely data-driven while volumes match
//! Table I of the paper.

use crate::error::{LangError, Result};
use crate::forest::Forest;
use crate::matrix::{Csr, Matrix};
use crate::table::Table;
use csd_sim::wire::Encoding;
use isp_obs::{Fingerprint, Fnv1a};
use std::fmt;
use std::sync::Arc;

/// Elements per independently-encoded chunk of an [`EncodedVal`].
///
/// Matches the parallel engine's chunk grid, so decode parallelizes over
/// the same deterministic chunk boundaries every other kernel uses, and a
/// journaled run replays each chunk's bytes exactly.
pub const ENCODED_CHUNK_ELEMS: usize = 4096;

/// A bulk numeric value still in its on-storage wire format.
///
/// The materialized sample is held as independently-encoded
/// [`ENCODED_CHUNK_ELEMS`]-element chunks (so decode can run under the
/// chunk grid), while `logical_len` and `encoded_logical_bytes` describe
/// the paper-scale dataset: the logical byte volume is the materialized
/// compression ratio extrapolated to the logical length, so Eq. 1 prices
/// moving the *encoded* stream, not the decoded array it stands for.
#[derive(Debug, Clone)]
pub struct EncodedVal {
    encoding: Encoding,
    chunks: Arc<Vec<Vec<u8>>>,
    actual_len: usize,
    logical_len: u64,
    encoded_logical_bytes: u64,
}

impl PartialEq for EncodedVal {
    fn eq(&self, other: &Self) -> bool {
        self.encoding == other.encoding
            && self.logical_len == other.logical_len
            && self.actual_len == other.actual_len
            && (Arc::ptr_eq(&self.chunks, &other.chunks) || self.chunks == other.chunks)
    }
}

isp_obs::fingerprint_fields!(EncodedVal {
    encoding,
    chunks,
    actual_len,
    logical_len,
    encoded_logical_bytes
});

impl EncodedVal {
    /// Encodes a materialized sample standing for `logical_len`
    /// paper-scale elements.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn from_f64s(encoding: Encoding, data: &[f64], logical_len: u64) -> Self {
        assert!(
            logical_len >= data.len() as u64,
            "logical length must cover the materialized data"
        );
        let chunks: Vec<Vec<u8>> = data
            .chunks(ENCODED_CHUNK_ELEMS)
            .map(|c| encoding.encode(c))
            .collect();
        let actual_bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        // Extrapolate the sample's real compression ratio to paper scale.
        let encoded_logical_bytes = if data.is_empty() {
            0
        } else {
            let ratio = logical_len as f64 / data.len() as f64;
            (actual_bytes as f64 * ratio).round() as u64
        };
        EncodedVal {
            encoding,
            chunks: Arc::new(chunks),
            actual_len: data.len(),
            logical_len,
            encoded_logical_bytes,
        }
    }

    /// Reassembles an encoded value from serialized parts (warm-start
    /// persistence). The chunks must have been produced by
    /// `encoding.encode` over [`ENCODED_CHUNK_ELEMS`]-element slices;
    /// byte-level round trips are exact because encoding is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than `actual_len`.
    #[must_use]
    pub fn from_parts(
        encoding: Encoding,
        chunks: Vec<Vec<u8>>,
        actual_len: usize,
        logical_len: u64,
        encoded_logical_bytes: u64,
    ) -> Self {
        assert!(
            logical_len >= actual_len as u64,
            "logical length must cover the materialized data"
        );
        EncodedVal {
            encoding,
            chunks: Arc::new(chunks),
            actual_len,
            logical_len,
            encoded_logical_bytes,
        }
    }

    /// The wire-format descriptor.
    #[must_use]
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// The encoded chunks (each covers [`ENCODED_CHUNK_ELEMS`] decoded
    /// elements, except a shorter tail).
    #[must_use]
    pub fn chunks(&self) -> &[Vec<u8>] {
        &self.chunks
    }

    /// Materialized (decoded) element count.
    #[must_use]
    pub fn actual_len(&self) -> usize {
        self.actual_len
    }

    /// Logical (paper-scale) decoded element count.
    #[must_use]
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// Paper-scale size of the *encoded* stream in bytes.
    #[must_use]
    pub fn encoded_logical_bytes(&self) -> u64 {
        self.encoded_logical_bytes
    }

    /// Materialized size of the encoded stream in bytes.
    #[must_use]
    pub fn encoded_actual_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Decodes every chunk serially.
    ///
    /// # Errors
    ///
    /// Returns a corruption description from the wire layer.
    pub fn decode_all(&self) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.actual_len);
        for chunk in self.chunks.iter() {
            out.extend(self.encoding.decode(chunk).map_err(LangError::type_error)?);
        }
        Ok(out)
    }
}

/// A 1-D array of `f64` with a logical length.
#[derive(Debug, Clone)]
pub struct ArrayVal {
    data: Arc<Vec<f64>>,
    logical_len: u64,
}

impl PartialEq for ArrayVal {
    fn eq(&self, other: &Self) -> bool {
        self.logical_len == other.logical_len
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

isp_obs::fingerprint_fields!(ArrayVal { data, logical_len });

impl ArrayVal {
    /// Builds an array whose logical length equals its materialized length.
    #[must_use]
    pub fn new(data: Vec<f64>) -> Self {
        let logical_len = data.len() as u64;
        ArrayVal {
            data: Arc::new(data),
            logical_len,
        }
    }

    /// Builds an array standing for `logical_len` paper-scale elements.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn with_logical(data: Vec<f64>, logical_len: u64) -> Self {
        assert!(
            logical_len >= data.len() as u64,
            "logical length must cover the materialized data"
        );
        ArrayVal {
            data: Arc::new(data),
            logical_len,
        }
    }

    /// The materialized data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Materialized length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the materialized data is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Logical (paper-scale) length.
    #[must_use]
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// Ratio `logical / materialized`.
    #[must_use]
    pub fn scale_ratio(&self) -> f64 {
        if self.data.is_empty() {
            1.0
        } else {
            self.logical_len as f64 / self.data.len() as f64
        }
    }
}

/// A 1-D boolean mask with a logical length.
#[derive(Debug, Clone)]
pub struct BoolArrayVal {
    data: Arc<Vec<bool>>,
    logical_len: u64,
}

impl PartialEq for BoolArrayVal {
    fn eq(&self, other: &Self) -> bool {
        self.logical_len == other.logical_len
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

isp_obs::fingerprint_fields!(BoolArrayVal { data, logical_len });

impl BoolArrayVal {
    /// Builds a mask whose logical length equals its materialized length.
    #[must_use]
    pub fn new(data: Vec<bool>) -> Self {
        let logical_len = data.len() as u64;
        BoolArrayVal {
            data: Arc::new(data),
            logical_len,
        }
    }

    /// Builds a mask standing for `logical_len` paper-scale elements.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn with_logical(data: Vec<bool>, logical_len: u64) -> Self {
        assert!(
            logical_len >= data.len() as u64,
            "logical length must cover the materialized data"
        );
        BoolArrayVal {
            data: Arc::new(data),
            logical_len,
        }
    }

    /// The materialized mask.
    #[must_use]
    pub fn data(&self) -> &[bool] {
        &self.data
    }

    /// Materialized length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the materialized mask is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Logical length.
    #[must_use]
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// Fraction of `true` entries in the materialized mask.
    #[must_use]
    pub fn selectivity(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().filter(|b| **b).count() as f64 / self.data.len() as f64
        }
    }
}

/// Any ALang runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Scalar number.
    Num(f64),
    /// Scalar boolean.
    Bool(bool),
    /// String (used for column names and dataset names).
    Str(String),
    /// Numeric array.
    Array(ArrayVal),
    /// Boolean mask.
    BoolArray(BoolArrayVal),
    /// Columnar table.
    Table(Table),
    /// Dense matrix.
    Matrix(Matrix),
    /// Sparse CSR matrix.
    Csr(Csr),
    /// Decision-tree forest model.
    Forest(Forest),
    /// Bulk numeric data still in its on-storage wire format.
    Encoded(EncodedVal),
}

/// The answer-integrity hash: every variant is type-tagged, every float
/// canonical (one NaN, signed zeros distinct), every sequence
/// length-prefixed — so two values fingerprint alike exactly when they
/// render alike under `Debug`, without formatting either. The one
/// exception is an encoded stream's fill sentinel, hashed by raw bits
/// (see [`Encoding`]'s impl), so NaN sentinels with different payloads
/// differ.
impl Fingerprint for Value {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        let (tag, payload): (u8, &dyn Fingerprint) = match self {
            Value::Num(x) => (0, x),
            Value::Bool(b) => (1, b),
            Value::Str(s) => (2, s),
            Value::Array(a) => (3, a),
            Value::BoolArray(m) => (4, m),
            Value::Table(t) => (5, t),
            Value::Matrix(m) => (6, m),
            Value::Csr(c) => (7, c),
            Value::Forest(f) => (8, f),
            Value::Encoded(e) => (9, e),
        };
        h.write_u8(tag);
        payload.fingerprint_into(h);
    }
}

impl Value {
    /// Short type name for diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "num",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::Array(_) => "array",
            Value::BoolArray(_) => "boolarray",
            Value::Table(_) => "table",
            Value::Matrix(_) => "matrix",
            Value::Csr(_) => "csr",
            Value::Forest(_) => "forest",
            Value::Encoded(_) => "encoded",
        }
    }

    /// Whether this is a bulk value whose movement costs bandwidth.
    #[must_use]
    pub fn is_bulk(&self) -> bool {
        !matches!(self, Value::Num(_) | Value::Bool(_) | Value::Str(_))
    }

    /// Paper-scale data volume in bytes.
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        match self {
            Value::Num(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
            Value::Array(a) => a.logical_len() * 8,
            Value::BoolArray(m) => m.logical_len(),
            Value::Table(t) => t.virtual_bytes(),
            Value::Matrix(m) => m.virtual_bytes(),
            Value::Csr(c) => c.virtual_bytes(),
            Value::Forest(f) => f.virtual_bytes(),
            // Moving an encoded value moves the compressed stream — this
            // asymmetry against the decoded Array is exactly what makes
            // decode placement a profitable axis for Eq. 1.
            Value::Encoded(e) => e.encoded_logical_bytes(),
        }
    }

    /// Logical element count (rows for tables, elements for matrices and
    /// arrays, nodes scored for forests, 1 for scalars).
    #[must_use]
    pub fn logical_elems(&self) -> u64 {
        match self {
            Value::Num(_) | Value::Bool(_) | Value::Str(_) => 1,
            Value::Array(a) => a.logical_len(),
            Value::BoolArray(m) => m.logical_len(),
            Value::Table(t) => t.logical_rows(),
            Value::Matrix(m) => m.logical_rows() * m.logical_cols(),
            Value::Csr(c) => c.logical_nnz(),
            Value::Forest(f) => f.node_count() as u64,
            Value::Encoded(e) => e.logical_len(),
        }
    }

    /// Extracts a scalar number.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-numbers.
    pub fn as_num(&self) -> Result<f64> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(type_err("num", other)),
        }
    }

    /// Extracts a scalar boolean.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-booleans.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }

    /// Extracts a string.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-strings.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(type_err("str", other)),
        }
    }

    /// Extracts a numeric array.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_array(&self) -> Result<&ArrayVal> {
        match self {
            Value::Array(a) => Ok(a),
            other => Err(type_err("array", other)),
        }
    }

    /// Extracts a boolean mask.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_bool_array(&self) -> Result<&BoolArrayVal> {
        match self {
            Value::BoolArray(m) => Ok(m),
            other => Err(type_err("boolarray", other)),
        }
    }

    /// Extracts a table.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_table(&self) -> Result<&Table> {
        match self {
            Value::Table(t) => Ok(t),
            other => Err(type_err("table", other)),
        }
    }

    /// Extracts a dense matrix.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_matrix(&self) -> Result<&Matrix> {
        match self {
            Value::Matrix(m) => Ok(m),
            other => Err(type_err("matrix", other)),
        }
    }

    /// Extracts a CSR matrix.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_csr(&self) -> Result<&Csr> {
        match self {
            Value::Csr(c) => Ok(c),
            other => Err(type_err("csr", other)),
        }
    }

    /// Extracts a forest model.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_forest(&self) -> Result<&Forest> {
        match self {
            Value::Forest(f) => Ok(f),
            other => Err(type_err("forest", other)),
        }
    }

    /// Extracts a wire-format encoded value.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_encoded(&self) -> Result<&EncodedVal> {
        match self {
            Value::Encoded(e) => Ok(e),
            other => Err(type_err("encoded", other)),
        }
    }
}

fn type_err(wanted: &str, got: &Value) -> LangError {
    LangError::type_error(format!("expected {wanted}, got {}", got.type_name()))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Array(a) => {
                write!(f, "array[{} (logical {})]", a.len(), a.logical_len())
            }
            Value::BoolArray(m) => {
                write!(f, "mask[{} (logical {})]", m.len(), m.logical_len())
            }
            Value::Table(t) => write!(f, "{t}"),
            Value::Matrix(m) => write!(f, "{m}"),
            Value::Csr(c) => write!(f, "{c}"),
            Value::Forest(fr) => write!(f, "{fr}"),
            Value::Encoded(e) => write!(
                f,
                "encoded[{}B for {} elems (logical {})]",
                e.encoded_actual_bytes(),
                e.actual_len(),
                e.logical_len()
            ),
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Array(ArrayVal::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_volumes() {
        assert_eq!(Value::Num(1.0).virtual_bytes(), 8);
        assert_eq!(Value::Bool(true).virtual_bytes(), 1);
        assert_eq!(Value::Str("abc".into()).virtual_bytes(), 3);
        assert!(!Value::Num(1.0).is_bulk());
    }

    #[test]
    fn array_logical_scaling() {
        let a = ArrayVal::with_logical(vec![1.0, 2.0], 2000);
        assert_eq!(a.logical_len(), 2000);
        assert!((a.scale_ratio() - 1000.0).abs() < 1e-12);
        let v = Value::Array(a);
        assert_eq!(v.virtual_bytes(), 16_000);
        assert!(v.is_bulk());
    }

    #[test]
    fn array_eq_shares_and_compares() {
        // Clones share the buffer: equal via the pointer fast path.
        let a = ArrayVal::with_logical(vec![1.0, 2.0], 2000);
        assert_eq!(a, a.clone());
        // Same contents in distinct buffers still compare equal.
        assert_eq!(a, ArrayVal::with_logical(vec![1.0, 2.0], 2000));
        // Same buffer contents but different logical length differ.
        assert_ne!(a, ArrayVal::with_logical(vec![1.0, 2.0], 3000));
        assert_ne!(a, ArrayVal::with_logical(vec![1.0, 3.0], 2000));
        let m = BoolArrayVal::with_logical(vec![true, false], 2000);
        assert_eq!(m, m.clone());
        assert_eq!(m, BoolArrayVal::with_logical(vec![true, false], 2000));
        assert_ne!(m, BoolArrayVal::with_logical(vec![true, true], 2000));
        assert_ne!(m, BoolArrayVal::with_logical(vec![true, false], 3000));
    }

    #[test]
    #[should_panic(expected = "logical length")]
    fn logical_shorter_than_actual_panics() {
        let _ = ArrayVal::with_logical(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn mask_selectivity() {
        let m = BoolArrayVal::new(vec![true, false, true, true]);
        assert!((m.selectivity() - 0.75).abs() < 1e-12);
        assert_eq!(Value::BoolArray(m).virtual_bytes(), 4);
    }

    #[test]
    fn accessors_enforce_types() {
        let v = Value::from(3.5);
        assert_eq!(v.as_num().expect("num"), 3.5);
        assert!(v.as_array().is_err());
        assert!(v.as_table().is_err());
        let msg = format!("{}", Value::from(true).as_num().unwrap_err());
        assert!(msg.contains("expected num"));
        assert!(msg.contains("bool"));
    }

    #[test]
    fn encoded_values_extrapolate_compressed_bytes() {
        let data: Vec<f64> = (0..6000).map(|i| f64::from(i % 97)).collect();
        let e = EncodedVal::from_f64s(Encoding::gzip_shuffled(), &data, 6_000_000);
        // 6000 elems at 4096/chunk -> 2 chunks.
        assert_eq!(e.chunks().len(), 2);
        assert_eq!(e.actual_len(), 6000);
        let v = Value::Encoded(e.clone());
        assert!(v.is_bulk());
        assert_eq!(v.logical_elems(), 6_000_000);
        // Compressible data: encoded logical bytes are far below the
        // 8 B/elem a decoded Array would report, and the extrapolation
        // preserves the materialized ratio.
        assert!(v.virtual_bytes() < 6_000_000 * 8 / 4);
        let ratio = e.encoded_logical_bytes() as f64 / e.encoded_actual_bytes() as f64;
        assert!((ratio - 1000.0).abs() < 1.0);
        // Decode returns the original data.
        assert_eq!(e.decode_all().expect("decodes"), data);
        assert_eq!(v.as_encoded().expect("encoded").actual_len(), 6000);
        assert!(Value::Num(1.0).as_encoded().is_err());
        // Equality: clone (shared chunks) and a re-encode both compare
        // equal; a different encoding does not.
        assert_eq!(e, e.clone());
        assert_eq!(
            e,
            EncodedVal::from_f64s(Encoding::gzip_shuffled(), &data, 6_000_000)
        );
        assert_ne!(e, EncodedVal::from_f64s(Encoding::raw(), &data, 6_000_000));
    }

    #[test]
    fn display_nonempty_for_all_variants() {
        let vals = [
            Value::Num(1.0),
            Value::Bool(false),
            Value::Str("s".into()),
            Value::from(vec![1.0, 2.0]),
            Value::BoolArray(BoolArrayVal::new(vec![true])),
        ];
        for v in &vals {
            assert!(!format!("{v}").is_empty());
            assert!(!v.type_name().is_empty());
        }
    }
}
