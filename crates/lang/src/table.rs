//! Columnar tables.
//!
//! The TPC-H workloads operate on columnar relations (`lineitem`, `part`).
//! A [`Table`] owns named [`Column`]s of equal length; string-typed columns
//! are dictionary-encoded (4-byte codes plus a small dictionary), which is
//! both how real columnar engines store them and what keeps the simulated
//! data volumes honest.
//!
//! Like every bulk value in ALang, a table distinguishes its *actual* row
//! count (the rows materialized in memory, kept laptop-small) from its
//! *logical* row count (the paper-scale size used for all cost accounting).

use crate::error::{LangError, Result};
use crate::par::ParEngine;
use isp_obs::{Fingerprint, Fnv1a};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One column of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit floats (8 bytes/row).
    F64(Arc<Vec<f64>>),
    /// 64-bit integers (8 bytes/row).
    I64(Arc<Vec<i64>>),
    /// Dictionary-encoded strings: 4-byte codes into `dict`.
    Dict {
        /// Per-row dictionary codes.
        codes: Arc<Vec<u32>>,
        /// The dictionary, indexed by code.
        dict: Arc<Vec<String>>,
    },
}

impl Fingerprint for Column {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        match self {
            Column::F64(v) => {
                h.write_u8(0);
                v.fingerprint_into(h);
            }
            Column::I64(v) => {
                h.write_u8(1);
                v.fingerprint_into(h);
            }
            Column::Dict { codes, dict } => {
                h.write_u8(2);
                codes.fingerprint_into(h);
                dict.fingerprint_into(h);
            }
        }
    }
}

impl Column {
    /// Number of materialized rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per row of this column's physical encoding.
    #[must_use]
    pub fn bytes_per_row(&self) -> u64 {
        match self {
            Column::F64(_) | Column::I64(_) => 8,
            Column::Dict { .. } => 4,
        }
    }

    /// A short type name for diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Column::F64(_) => "f64",
            Column::I64(_) => "i64",
            Column::Dict { .. } => "dict",
        }
    }

    /// Gathers the rows selected by `keep` into a new column.
    #[must_use]
    pub fn gather(&self, keep: &[bool]) -> Column {
        match self {
            Column::F64(v) => Column::F64(Arc::new(
                v.iter()
                    .zip(keep)
                    .filter(|(_, k)| **k)
                    .map(|(x, _)| *x)
                    .collect(),
            )),
            Column::I64(v) => Column::I64(Arc::new(
                v.iter()
                    .zip(keep)
                    .filter(|(_, k)| **k)
                    .map(|(x, _)| *x)
                    .collect(),
            )),
            Column::Dict { codes, dict } => Column::Dict {
                codes: Arc::new(
                    codes
                        .iter()
                        .zip(keep)
                        .filter(|(_, k)| **k)
                        .map(|(c, _)| *c)
                        .collect(),
                ),
                dict: Arc::clone(dict),
            },
        }
    }

    /// [`Self::gather`] executed through the data-parallel engine: row
    /// chunks are gathered independently and concatenated in chunk order,
    /// which reproduces the serial gather exactly.
    #[must_use]
    pub fn gather_with(&self, keep: &[bool], par: &ParEngine) -> Column {
        fn chunked<T: Copy + Send + Sync>(
            rows: &[T],
            keep: &[bool],
            par: &ParEngine,
        ) -> Option<Vec<T>> {
            par.map_chunks(rows.len(), 1, |_, r| {
                rows[r.clone()]
                    .iter()
                    .zip(&keep[r])
                    .filter(|(_, k)| **k)
                    .map(|(x, _)| *x)
                    .collect::<Vec<T>>()
            })
            .map(|parts| parts.concat())
        }
        match self {
            Column::F64(v) => match chunked(v, keep, par) {
                Some(out) => Column::F64(Arc::new(out)),
                None => self.gather(keep),
            },
            Column::I64(v) => match chunked(v, keep, par) {
                Some(out) => Column::I64(Arc::new(out)),
                None => self.gather(keep),
            },
            Column::Dict { codes, dict } => match chunked(codes, keep, par) {
                Some(out) => Column::Dict {
                    codes: Arc::new(out),
                    dict: Arc::clone(dict),
                },
                None => self.gather(keep),
            },
        }
    }
}

/// A columnar relation with a logical row count.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    columns: BTreeMap<String, Column>,
    rows: usize,
    logical_rows: u64,
}

isp_obs::fingerprint_fields!(Table {
    columns,
    rows,
    logical_rows
});

impl Table {
    /// Builds a table from `(name, column)` pairs whose logical size equals
    /// the materialized size.
    ///
    /// # Errors
    ///
    /// Returns an error if columns have differing lengths or the list is
    /// empty.
    pub fn new(columns: Vec<(String, Column)>) -> Result<Self> {
        let rows = columns
            .first()
            .map(|(_, c)| c.len())
            .ok_or_else(|| LangError::runtime("a table needs at least one column"))?;
        Self::with_logical_rows(columns, rows as u64)
    }

    /// Builds a table whose materialized rows represent `logical_rows`
    /// paper-scale rows.
    ///
    /// # Errors
    ///
    /// Returns an error if columns have differing lengths, the list is
    /// empty, or `logical_rows` is smaller than the materialized count.
    pub fn with_logical_rows(columns: Vec<(String, Column)>, logical_rows: u64) -> Result<Self> {
        let mut map = BTreeMap::new();
        let mut rows: Option<usize> = None;
        for (name, col) in columns {
            match rows {
                None => rows = Some(col.len()),
                Some(r) if r == col.len() => {}
                Some(r) => {
                    return Err(LangError::runtime(format!(
                        "column `{name}` has {} rows, expected {r}",
                        col.len()
                    )))
                }
            }
            map.insert(name, col);
        }
        let rows = rows.ok_or_else(|| LangError::runtime("a table needs at least one column"))?;
        if logical_rows < rows as u64 {
            return Err(LangError::runtime(format!(
                "logical rows {logical_rows} smaller than materialized rows {rows}"
            )));
        }
        Ok(Table {
            columns: map,
            rows,
            logical_rows,
        })
    }

    /// Materialized row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Paper-scale row count.
    #[must_use]
    pub fn logical_rows(&self) -> u64 {
        self.logical_rows
    }

    /// Ratio `logical / materialized` (1.0 for unscaled tables).
    #[must_use]
    pub fn scale_ratio(&self) -> f64 {
        if self.rows == 0 {
            1.0
        } else {
            self.logical_rows as f64 / self.rows as f64
        }
    }

    /// Column names in sorted order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }

    /// Number of columns.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Looks up a column.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing column.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns.get(name).ok_or_else(|| {
            LangError::runtime(format!(
                "no column `{name}` (have: {})",
                self.columns.keys().cloned().collect::<Vec<_>>().join(", ")
            ))
        })
    }

    /// Physical bytes per logical row across all columns.
    #[must_use]
    pub fn bytes_per_row(&self) -> u64 {
        self.columns.values().map(Column::bytes_per_row).sum()
    }

    /// Paper-scale data volume of the whole table.
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.logical_rows * self.bytes_per_row()
    }

    /// Filters rows by a boolean mask of materialized length; the result's
    /// logical row count shrinks by the *measured* selectivity, which is how
    /// data-dependent volume reduction stays faithful at paper scale.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask length differs from the row count.
    pub fn filter(&self, keep: &[bool]) -> Result<Table> {
        if keep.len() != self.rows {
            return Err(LangError::runtime(format!(
                "mask length {} does not match table rows {}",
                keep.len(),
                self.rows
            )));
        }
        let kept = keep.iter().filter(|k| **k).count();
        let selectivity = if self.rows == 0 {
            0.0
        } else {
            kept as f64 / self.rows as f64
        };
        let logical = (self.logical_rows as f64 * selectivity)
            .round()
            .max(kept as f64) as u64;
        let columns: Vec<(String, Column)> = self
            .columns
            .iter()
            .map(|(n, c)| (n.clone(), c.gather(keep)))
            .collect();
        Table::with_logical_rows(columns, logical)
    }

    /// [`Self::filter`] executed through the data-parallel engine: each
    /// column's gather is chunked by rows. Gathering is row-local, so the
    /// result is bit-identical to the serial filter at any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask length differs from the row count.
    pub fn filter_with(&self, keep: &[bool], par: &ParEngine) -> Result<Table> {
        if keep.len() != self.rows {
            return Err(LangError::runtime(format!(
                "mask length {} does not match table rows {}",
                keep.len(),
                self.rows
            )));
        }
        let kept = keep.iter().filter(|k| **k).count();
        let selectivity = if self.rows == 0 {
            0.0
        } else {
            kept as f64 / self.rows as f64
        };
        let logical = (self.logical_rows as f64 * selectivity)
            .round()
            .max(kept as f64) as u64;
        let columns: Vec<(String, Column)> = self
            .columns
            .iter()
            .map(|(n, c)| (n.clone(), c.gather_with(keep, par)))
            .collect();
        Table::with_logical_rows(columns, logical)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "table[{} cols x {} rows (logical {})]",
            self.columns.len(),
            self.rows,
            self.logical_rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::with_logical_rows(
            vec![
                (
                    "qty".into(),
                    Column::F64(Arc::new(vec![1.0, 30.0, 10.0, 50.0])),
                ),
                ("flag".into(), Column::I64(Arc::new(vec![0, 1, 0, 1]))),
                (
                    "kind".into(),
                    Column::Dict {
                        codes: Arc::new(vec![0, 1, 0, 1]),
                        dict: Arc::new(vec!["PROMO".into(), "OTHER".into()]),
                    },
                ),
            ],
            4000,
        )
        .expect("table")
    }

    #[test]
    fn construction_and_metadata() {
        let t = t();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.logical_rows(), 4000);
        assert!((t.scale_ratio() - 1000.0).abs() < 1e-9);
        assert_eq!(t.column_count(), 3);
        // 8 + 8 + 4 bytes per row.
        assert_eq!(t.bytes_per_row(), 20);
        assert_eq!(t.virtual_bytes(), 4000 * 20);
    }

    #[test]
    fn mismatched_columns_rejected() {
        let e = Table::new(vec![
            ("a".into(), Column::F64(Arc::new(vec![1.0]))),
            ("b".into(), Column::F64(Arc::new(vec![1.0, 2.0]))),
        ])
        .unwrap_err();
        assert!(format!("{e}").contains("rows"));
    }

    #[test]
    fn empty_table_rejected() {
        assert!(Table::new(vec![]).is_err());
    }

    #[test]
    fn filter_scales_logical_rows_by_selectivity() {
        let t = t();
        let filtered = t.filter(&[true, false, true, false]).expect("filter");
        assert_eq!(filtered.rows(), 2);
        // Selectivity 0.5 => logical 2000.
        assert_eq!(filtered.logical_rows(), 2000);
        match filtered.column("qty").expect("qty") {
            Column::F64(v) => assert_eq!(**v, vec![1.0, 10.0]),
            other => panic!("wrong column type {}", other.type_name()),
        }
    }

    #[test]
    fn filter_preserves_dictionary() {
        let t = t();
        let filtered = t.filter(&[false, true, false, true]).expect("filter");
        match filtered.column("kind").expect("kind") {
            Column::Dict { codes, dict } => {
                assert_eq!(**codes, vec![1, 1]);
                assert_eq!(dict[1], "OTHER");
            }
            other => panic!("wrong column type {}", other.type_name()),
        }
    }

    #[test]
    fn filter_rejects_bad_mask_length() {
        assert!(t().filter(&[true]).is_err());
    }

    #[test]
    fn missing_column_error_lists_alternatives() {
        let e = t().column("nope").unwrap_err();
        assert!(format!("{e}").contains("qty"));
    }

    #[test]
    fn parallel_filter_is_bitwise_equal_to_serial() {
        let n = 20_000usize;
        let table = Table::with_logical_rows(
            vec![
                (
                    "qty".into(),
                    Column::F64(Arc::new((0..n).map(|i| (i % 50) as f64).collect())),
                ),
                (
                    "flag".into(),
                    Column::I64(Arc::new((0..n).map(|i| (i % 3) as i64).collect())),
                ),
                (
                    "kind".into(),
                    Column::Dict {
                        codes: Arc::new((0..n).map(|i| (i % 2) as u32).collect()),
                        dict: Arc::new(vec!["PROMO".into(), "OTHER".into()]),
                    },
                ),
            ],
            1_000_000,
        )
        .expect("table");
        let keep: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
        let serial = table.filter(&keep).expect("serial");
        for threads in [1, 2, 8] {
            let par =
                ParEngine::new(crate::par::ParallelPolicy::new(threads, 1024).expect("policy"));
            let filtered = table.filter_with(&keep, &par).expect("par");
            assert_eq!(filtered, serial, "threads={threads}");
            assert!(par.stats().par_calls >= 1, "chunked path engaged");
        }
    }

    #[test]
    fn logical_smaller_than_actual_rejected() {
        let e =
            Table::with_logical_rows(vec![("a".into(), Column::F64(Arc::new(vec![1.0, 2.0])))], 1)
                .unwrap_err();
        assert!(format!("{e}").contains("logical"));
    }
}
