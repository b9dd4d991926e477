//! Sharded data: partitioning bulk values across a fleet of CSDs.
//!
//! A [`ShardMap`] describes how the rows of a workload's stored bulk
//! values are split across `N` devices: contiguous row ranges
//! ([`ShardStrategy::Range`]) or a hash partition of the key space
//! ([`ShardStrategy::Hash`], modeled as a deterministically jittered
//! range partition — row content is synthetic, so only the *sizes* of
//! the hash buckets matter to the cost model). The partition arithmetic
//! is exact: [`ShardMap::slice_u64`] splits any extensive quantity
//! (bytes, rows, operations) so the per-shard slices sum to the total
//! with no remainder, the same discipline the execution engine's
//! `chunk_slice` uses for chunk streaming.
//!
//! [`analyze`] classifies each program line by *rowwise
//! decomposability*: a line whose output is row-aligned with the sharded
//! inputs (elementwise arithmetic, `filter`/`select`, `matmul` against a
//! replicated right-hand side, …) can run per shard; the first line that
//! consumes sharded data any other way — a reduction like `sum` or
//! `group_sum`, a global restructuring like `to_csr` or `sort` — is the
//! **fence**. Lines before the fence scatter across the fleet; the fence
//! and everything after it run on the host over gathered shard results,
//! combined in ascending shard index (the same ordered-reduction rule
//! that keeps [`crate::par`] bit-identical).

use crate::ast::{Expr, Program};
use crate::builtins::Storage;
use crate::table::{Column, Table};
use crate::value::Value;
use isp_obs::{Fingerprint, Fnv1a};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Minimum logical row count for a stored value to be worth sharding;
/// smaller values (model weights, centroid seeds) are replicated to
/// every device.
pub const SHARD_MIN_ROWS: u64 = 65_536;

/// How rows are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous, near-equal row ranges.
    Range,
    /// Hash partition of the row key space with the given seed; bucket
    /// sizes are deterministic but uneven.
    Hash(u64),
}

/// A partition of `[0, rows)` into `N` shards, plus the set of storage
/// names the partition applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    rows: u64,
    bounds: Vec<u64>,
    strategy: ShardStrategy,
    sharded: BTreeSet<String>,
}

impl Fingerprint for ShardStrategy {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        match self {
            ShardStrategy::Range => h.write_u8(0),
            ShardStrategy::Hash(seed) => {
                h.write_u8(1);
                h.write_u64(*seed);
            }
        }
    }
}

// Covers the full placement description — shard count, bounds, strategy,
// and sharded names — so two maps that could ever place data differently
// never collide in a cache key.
isp_obs::fingerprint_fields!(ShardMap {
    rows,
    bounds,
    strategy,
    sharded
});

/// splitmix64: the deterministic stream behind hash-bucket jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ShardMap {
    /// An equal range partition of `rows` into `n` shards.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn range(rows: u64, n: usize) -> Self {
        assert!(n > 0, "a shard map needs at least one shard");
        let bounds = (0..=n as u64).map(|s| rows * s / n as u64).collect();
        ShardMap {
            rows,
            bounds,
            strategy: ShardStrategy::Range,
            sharded: BTreeSet::new(),
        }
    }

    /// A hash partition of `rows` into `n` shards: near-equal buckets
    /// with deterministic seed-dependent jitter of up to ±25 % of a
    /// bucket. Falls back to the exact range partition when `rows` is too
    /// small to jitter safely.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn hash(rows: u64, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a shard map needs at least one shard");
        let mut map = ShardMap::range(rows, n);
        map.strategy = ShardStrategy::Hash(seed);
        let jitter_cap = rows / (4 * n as u64);
        if jitter_cap > 0 {
            for (s, b) in map.bounds.iter_mut().enumerate().take(n).skip(1) {
                let r = splitmix64(seed ^ s as u64);
                let j = (r % (2 * jitter_cap + 1)) as i64 - jitter_cap as i64;
                *b = b.saturating_add_signed(j);
            }
        }
        map
    }

    /// Replaces the set of storage names the partition applies to.
    #[must_use]
    pub fn with_sharded_sources<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.sharded = names.into_iter().map(Into::into).collect();
        self
    }

    /// Builds a map over `storage`: every row-shardable bulk value
    /// (array, mask, table, or matrix) with at least [`SHARD_MIN_ROWS`]
    /// logical rows is sharded; everything else is replicated. `rows` is
    /// the largest sharded row count — the partition denominator.
    #[must_use]
    pub fn auto(storage: &Storage, n: usize, strategy: ShardStrategy) -> Self {
        let mut names = BTreeSet::new();
        let mut rows = 1u64;
        for name in storage.names() {
            let Ok(value) = storage.get(name) else {
                continue;
            };
            let value_rows = match value {
                Value::Array(a) => a.logical_len(),
                Value::BoolArray(m) => m.logical_len(),
                Value::Table(t) => t.logical_rows(),
                Value::Matrix(m) => m.logical_rows(),
                _ => 0,
            };
            if value_rows >= SHARD_MIN_ROWS {
                names.insert(name.to_owned());
                rows = rows.max(value_rows);
            }
        }
        let map = match strategy {
            ShardStrategy::Range => ShardMap::range(rows, n),
            ShardStrategy::Hash(seed) => ShardMap::hash(rows, n, seed),
        };
        map.with_sharded_sources(names)
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The partition denominator (total logical rows).
    #[must_use]
    pub fn rows_total(&self) -> u64 {
        self.rows
    }

    /// The partition strategy.
    #[must_use]
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Row bounds `[lo, hi)` of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn bounds_of(&self, s: usize) -> (u64, u64) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// Rows owned by shard `s`.
    #[must_use]
    pub fn rows_of(&self, s: usize) -> u64 {
        let (lo, hi) = self.bounds_of(s);
        hi - lo
    }

    /// Shard `s`'s share of the partition, in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self, s: usize) -> f64 {
        if self.rows == 0 {
            if s == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.rows_of(s) as f64 / self.rows as f64
        }
    }

    /// Shard `s`'s exact slice of an extensive quantity `total`: slices
    /// over all shards sum to `total` with no rounding remainder.
    #[must_use]
    pub fn slice_u64(&self, total: u64, s: usize) -> u64 {
        if self.rows == 0 {
            return if s == 0 { total } else { 0 };
        }
        let (lo, hi) = self.bounds_of(s);
        total * hi / self.rows - total * lo / self.rows
    }

    /// Whether stored value `name` is partitioned (vs replicated).
    #[must_use]
    pub fn is_sharded(&self, name: &str) -> bool {
        self.sharded.contains(name)
    }

    /// The partitioned storage names, in sorted order.
    pub fn sharded_sources(&self) -> impl Iterator<Item = &str> {
        self.sharded.iter().map(String::as_str)
    }

    /// Materializes shard `s`'s slice of `storage`: sharded values keep
    /// only their proportional row block (exact partition arithmetic on
    /// both materialized and logical rows); replicated values are shared
    /// as-is. Concatenating the slices of every shard in ascending order
    /// reproduces the original data bit-identically.
    #[must_use]
    pub fn slice_storage(&self, storage: &Storage, s: usize) -> Storage {
        let mut out = Storage::new();
        for name in storage.names() {
            let Ok(value) = storage.get(name) else {
                continue;
            };
            let sliced = if self.is_sharded(name) {
                self.slice_value(value, s)
            } else {
                value.clone()
            };
            out.insert(name, sliced);
        }
        out
    }

    /// Materialized-row bounds of shard `s` within `len` rows: the same
    /// partition applied to the materialized scale.
    fn mat_bounds(&self, len: usize, s: usize) -> (usize, usize) {
        if self.rows == 0 {
            return if s == 0 { (0, len) } else { (len, len) };
        }
        let (lo, hi) = self.bounds_of(s);
        let l = (len as u64 * lo / self.rows) as usize;
        let h = (len as u64 * hi / self.rows) as usize;
        (l, h)
    }

    fn slice_value(&self, value: &Value, s: usize) -> Value {
        match value {
            Value::Array(a) => {
                let (lo, hi) = self.mat_bounds(a.len(), s);
                let data = a.data()[lo..hi].to_vec();
                let logical = self.slice_u64(a.logical_len(), s).max(data.len() as u64);
                Value::Array(crate::value::ArrayVal::with_logical(data, logical))
            }
            Value::BoolArray(m) => {
                let (lo, hi) = self.mat_bounds(m.len(), s);
                let data = m.data()[lo..hi].to_vec();
                let logical = self.slice_u64(m.logical_len(), s).max(data.len() as u64);
                Value::BoolArray(crate::value::BoolArrayVal::with_logical(data, logical))
            }
            Value::Table(t) => {
                let (lo, hi) = self.mat_bounds(t.rows(), s);
                let columns: Vec<(String, Column)> = t
                    .column_names()
                    .map(|name| {
                        let col = t.column(name).expect("listed column exists");
                        let sliced = match col {
                            Column::F64(v) => Column::F64(Arc::new(v[lo..hi].to_vec())),
                            Column::I64(v) => Column::I64(Arc::new(v[lo..hi].to_vec())),
                            Column::Dict { codes, dict } => Column::Dict {
                                codes: Arc::new(codes[lo..hi].to_vec()),
                                dict: Arc::clone(dict),
                            },
                        };
                        (name.to_owned(), sliced)
                    })
                    .collect();
                let logical = self.slice_u64(t.logical_rows(), s).max((hi - lo) as u64);
                Value::Table(
                    Table::with_logical_rows(columns, logical)
                        .expect("sliced columns stay aligned"),
                )
            }
            Value::Matrix(m) => {
                let (lo, hi) = self.mat_bounds(m.rows(), s);
                let data = m.data()[lo * m.cols()..hi * m.cols()].to_vec();
                let logical = self.slice_u64(m.logical_rows(), s).max((hi - lo) as u64);
                Value::Matrix(
                    crate::matrix::Matrix::with_logical(
                        data,
                        hi - lo,
                        m.cols(),
                        logical,
                        m.logical_cols(),
                    )
                    .expect("sliced row block keeps its shape"),
                )
            }
            // Scalars, CSR graphs, and forest models are never sharded.
            other => other.clone(),
        }
    }
}

/// Rowwise decomposability of one value with respect to a [`ShardMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shardedness {
    /// Row-partitioned across the fleet, aligned with the map.
    Sharded,
    /// Replicated in full on every shard.
    Replicated,
}

/// The scatter/gather structure of a program under a [`ShardMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAnalysis {
    /// Index of the first line that must run on the host over gathered
    /// data (`program.len()` when the whole program is rowwise).
    pub fence: usize,
    /// Per line: whether its output is row-partitioned. `false` for
    /// every line at or after the fence.
    pub line_sharded: Vec<bool>,
    /// Sharded values defined before the fence and consumed at or after
    /// it — the live state the gather phase pulls from every shard, in
    /// ascending definition order (the combine accumulates them in
    /// ascending shard index).
    pub carriers: Vec<String>,
}

/// Elementwise builtins: output rows align with the (any) sharded input.
const ELEMENTWISE: [&str; 7] = ["exp", "log", "sqrt", "erf", "abs", "where", "decode"];

/// Builtins whose output is row-aligned with their *first* argument;
/// remaining arguments must be replicated (the sharded lhs of `matmul`,
/// the points of `kmeans_assign`).
const ROW_FIRST: [&str; 3] = ["matmul", "gemm_batch", "kmeans_assign"];

/// Row-aligned selections: first argument and mask are partitioned by
/// the same map.
const ROW_SELECT: [&str; 3] = ["col", "filter", "select"];

fn class_of(expr: &Expr, sharded_vars: &BTreeSet<String>, map: &ShardMap) -> Option<Shardedness> {
    use Shardedness::{Replicated, Sharded};
    match expr {
        Expr::Num(_) | Expr::Str(_) => Some(Replicated),
        Expr::Ident(name) => Some(if sharded_vars.contains(name) {
            Sharded
        } else {
            Replicated
        }),
        Expr::Unary { expr, .. } => class_of(expr, sharded_vars, map),
        Expr::Binary { lhs, rhs, .. } => {
            // All binary operators are elementwise; a sharded operand
            // keeps the result row-aligned (scalars broadcast).
            let l = class_of(lhs, sharded_vars, map)?;
            let r = class_of(rhs, sharded_vars, map)?;
            Some(if l == Sharded || r == Sharded {
                Sharded
            } else {
                Replicated
            })
        }
        Expr::Call { name, args } => {
            let classes: Option<Vec<Shardedness>> = args
                .iter()
                .map(|a| class_of(a, sharded_vars, map))
                .collect();
            let classes = classes?;
            let any_sharded = classes.contains(&Sharded);
            if name == "scan" || name == "scan_raw" {
                // Encoded datasets are never sharded (ShardMap::auto
                // replicates Value::Encoded), so scan_raw follows the
                // same source-name rule and lands on Replicated.
                return Some(match args.first() {
                    Some(Expr::Str(source)) if map.is_sharded(source) => Sharded,
                    _ => Replicated,
                });
            }
            if ELEMENTWISE.contains(&name.as_str()) {
                return Some(if any_sharded { Sharded } else { Replicated });
            }
            if ROW_SELECT.contains(&name.as_str()) {
                // Row selection follows the first argument; a sharded
                // mask over replicated data has no aligned partition.
                return match classes.first() {
                    Some(Sharded) => Some(Sharded),
                    _ if any_sharded => None,
                    _ => Some(Replicated),
                };
            }
            if ROW_FIRST.contains(&name.as_str()) {
                // Only the row operand may be sharded; a sharded rhs
                // (weights, centroids) would need an all-to-all.
                if classes.iter().skip(1).any(|c| *c == Sharded) {
                    return None;
                }
                return classes.first().copied().or(Some(Replicated));
            }
            if name == "forest_score" {
                // forest_score(model, rows): the model must be replicated.
                if classes.first() == Some(&Sharded) {
                    return None;
                }
                return Some(if classes.get(1) == Some(&Sharded) {
                    Sharded
                } else {
                    Replicated
                });
            }
            // Everything else — reductions (`sum`, `group_sum`, `dot`,
            // `frob`, `gram`, `kmeans_update`, …) and global
            // restructurings (`sort`, `gather`, `to_csr`, `spmv`,
            // `pagerank_step`) — fences when fed sharded data.
            if any_sharded {
                None
            } else {
                Some(Replicated)
            }
        }
    }
}

/// Classifies every line of `program` against `map` and locates the
/// scatter/gather fence.
#[must_use]
pub fn analyze(program: &Program, map: &ShardMap) -> ShardAnalysis {
    let mut sharded_vars: BTreeSet<String> = BTreeSet::new();
    let mut line_sharded = vec![false; program.len()];
    let mut fence = program.len();
    for (i, line) in program.lines().iter().enumerate() {
        match class_of(&line.expr, &sharded_vars, map) {
            Some(Shardedness::Sharded) => {
                line_sharded[i] = true;
                sharded_vars.insert(line.target.clone());
            }
            Some(Shardedness::Replicated) => {
                // Reassignment can turn a previously-sharded name
                // replicated; drop it so later uses read the new class.
                sharded_vars.remove(&line.target);
            }
            None => {
                fence = i;
                break;
            }
        }
    }
    let mut carriers: Vec<String> = Vec::new();
    if fence < program.len() {
        for line in &program.lines()[fence..] {
            for input in line.inputs() {
                let Some(def) = program.def_site(input) else {
                    continue;
                };
                if def < fence && line_sharded[def] && !carriers.contains(input) {
                    carriers.push(input.clone());
                }
            }
        }
        carriers.sort_by_key(|name| program.def_site(name));
    } else if let Some(last) = program.lines().last() {
        // A fully rowwise program still gathers its sharded result.
        if line_sharded[last.index] {
            carriers.push(last.target.clone());
        }
    }
    ShardAnalysis {
        fence,
        line_sharded,
        carriers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::value::{ArrayVal, BoolArrayVal};

    #[test]
    fn range_partition_is_exact_for_awkward_sizes() {
        for rows in [0u64, 1, 7, 1_000_003] {
            for n in [1usize, 2, 3, 4, 8] {
                let map = ShardMap::range(rows, n);
                assert_eq!(map.count(), n);
                let total: u64 = (0..n).map(|s| map.rows_of(s)).sum();
                assert_eq!(total, rows, "rows {rows} across {n}");
                for odd in [1u64, 12_345, u64::from(u32::MAX)] {
                    let sum: u64 = (0..n).map(|s| map.slice_u64(odd, s)).sum();
                    assert_eq!(sum, odd, "slice_u64({odd}) across {n}");
                }
            }
        }
    }

    #[test]
    fn hash_partition_is_jittered_but_still_exact() {
        let map = ShardMap::hash(1_000_000, 4, 42);
        let total: u64 = (0..4).map(|s| map.rows_of(s)).sum();
        assert_eq!(total, 1_000_000);
        let range = ShardMap::range(1_000_000, 4);
        assert_ne!(
            map.bounds, range.bounds,
            "hash buckets should differ from the equal split"
        );
        assert_eq!(
            map.bounds,
            ShardMap::hash(1_000_000, 4, 42).bounds,
            "same seed, same buckets"
        );
        for s in 0..4 {
            // Jitter is bounded: every bucket keeps at least half its
            // equal share.
            assert!(map.rows_of(s) >= 125_000, "bucket {s} collapsed");
        }
    }

    #[test]
    fn fingerprints_distinguish_count_strategy_and_sources() {
        let one = ShardMap::range(1_000_000, 1).with_sharded_sources(["v"]);
        let four = ShardMap::range(1_000_000, 4).with_sharded_sources(["v"]);
        let hash = ShardMap::hash(1_000_000, 4, 7).with_sharded_sources(["v"]);
        let other = ShardMap::range(1_000_000, 4).with_sharded_sources(["w"]);
        let prints = [
            one.fingerprint(),
            four.fingerprint(),
            hash.fingerprint(),
            other.fingerprint(),
        ];
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "maps {i} and {j} collide");
            }
        }
        assert_eq!(four.fingerprint(), four.clone().fingerprint());
    }

    fn storage() -> Storage {
        let mut st = Storage::new();
        st.insert(
            "v",
            Value::Array(ArrayVal::with_logical(
                (0..64).map(f64::from).collect(),
                1_000_000,
            )),
        );
        st.insert(
            "m",
            Value::BoolArray(BoolArrayVal::with_logical(
                (0..64).map(|i| i % 3 == 0).collect(),
                1_000_000,
            )),
        );
        st.insert("k", Value::Num(3.0));
        st
    }

    #[test]
    fn auto_shards_large_bulk_values_only() {
        let map = ShardMap::auto(&storage(), 4, ShardStrategy::Range);
        assert!(map.is_sharded("v"));
        assert!(map.is_sharded("m"));
        assert!(!map.is_sharded("k"));
        assert_eq!(map.rows_total(), 1_000_000);
    }

    #[test]
    fn storage_slices_round_trip_bit_identically() {
        let st = storage();
        for n in [1usize, 2, 3, 4, 8] {
            let map = ShardMap::auto(&st, n, ShardStrategy::Hash(9));
            let slices: Vec<Storage> = (0..n).map(|s| map.slice_storage(&st, s)).collect();
            let mut v_cat: Vec<f64> = Vec::new();
            let mut m_cat: Vec<bool> = Vec::new();
            let mut v_logical = 0u64;
            for slice in &slices {
                let v = slice.get("v").expect("v").as_array().expect("array");
                v_cat.extend_from_slice(v.data());
                v_logical += v.logical_len();
                let m = slice.get("m").expect("m").as_bool_array().expect("mask");
                m_cat.extend_from_slice(m.data());
                // Replicated values are shared untouched.
                assert_eq!(slice.get("k").expect("k"), st.get("k").expect("k"));
            }
            let orig = st.get("v").expect("v").as_array().expect("array");
            assert_eq!(v_cat, orig.data(), "n={n} array rows diverged");
            assert_eq!(v_logical, orig.logical_len(), "n={n} logical rows leak");
            let orig_m = st.get("m").expect("m").as_bool_array().expect("mask");
            assert_eq!(m_cat, orig_m.data(), "n={n} mask rows diverged");
        }
    }

    fn map_for(src_sharded: &[&str]) -> ShardMap {
        ShardMap::range(1_000_000, 4).with_sharded_sources(src_sharded.iter().copied())
    }

    #[test]
    fn elementwise_prefix_fences_at_the_reduction() {
        let p = parse("a = scan('v')\nb = sqrt(a * 2)\nm = b < 3\nc = select(b, m)\ns = sum(c)\n")
            .expect("parse");
        let analysis = analyze(&p, &map_for(&["v"]));
        assert_eq!(analysis.fence, 4, "sum is the first non-rowwise consumer");
        assert_eq!(analysis.line_sharded, vec![true, true, true, true, false]);
        assert_eq!(analysis.carriers, vec!["c".to_owned()]);
    }

    #[test]
    fn matmul_requires_a_replicated_rhs() {
        let p =
            parse("a = scan('v')\nw = scan('w')\ny = matmul(a, w)\nn = frob(y)\n").expect("parse");
        let sharded_lhs = analyze(&p, &map_for(&["v"]));
        assert_eq!(sharded_lhs.fence, 3, "row-block matmul is rowwise");
        assert!(sharded_lhs.line_sharded[2]);
        let sharded_rhs = analyze(&p, &map_for(&["w"]));
        assert_eq!(sharded_rhs.fence, 2, "a sharded rhs needs an all-to-all");
    }

    #[test]
    fn replicated_reductions_do_not_fence() {
        let p = parse("c = scan('centroids')\nspread = frob(c)\n").expect("parse");
        let analysis = analyze(&p, &map_for(&["points"]));
        assert_eq!(analysis.fence, 2, "no sharded data, no fence");
        assert!(analysis.carriers.is_empty());
    }

    #[test]
    fn fully_rowwise_program_carries_its_result() {
        let p = parse("a = scan('v')\nb = a * 2\n").expect("parse");
        let analysis = analyze(&p, &map_for(&["v"]));
        assert_eq!(analysis.fence, 2);
        assert_eq!(analysis.carriers, vec!["b".to_owned()]);
    }

    #[test]
    fn immediate_reduction_fences_at_line_zero() {
        let p = parse("s = sum(scan('v'))\n").expect("parse");
        let analysis = analyze(&p, &map_for(&["v"]));
        assert_eq!(analysis.fence, 0);
        assert!(analysis.carriers.is_empty());
    }
}
