//! Seeded inputs: every registered program, re-fed from the benchmark seed.
//!
//! Each variant keeps the registered program text, name, Table-I size and
//! declared wire formats, and swaps only the generator: the same public
//! `isp_workloads::datagen` generators (or, for the two wire-format
//! programs, the same public `csd_sim::wire` encodings) at the registered
//! shapes, drawn from a seed the benchmark derives from `--seed`.
//!
//! Every materialization goes through [`crate::trace`] as a `datagen`
//! span, whoever triggers it (sampling, plan materialization, baselines).

use std::sync::Arc;

use alang::value::EncodedVal;
use alang::{Storage, Value};
use isp_workloads::apps::{loggrep, tpch_q6_gz};
use isp_workloads::datagen::{forestgen, graph, linalg, options, points, tpch};
use isp_workloads::Workload;

use crate::rng::SplitMix;
use crate::trace;

/// The programs of the registered full set, in registration order.
pub const PROGRAMS: [&str; 12] = [
    "blackscholes",
    "KMeans",
    "LightGBM",
    "MatrixMul",
    "MixedGEMM",
    "PageRank",
    "TPC-H-1",
    "TPC-H-6",
    "TPC-H-14",
    "SparseMV",
    "TPC-H-6-gz",
    "LogGrep",
];

/// Materialized rows of the stock generators (what the registered
/// workloads use); `scan-large` raises the full-scale count.
const STOCK_ROWS: usize = 4096;
const STOCK_MATRIX_ROWS: usize = 2048;
const LINEITEM_PART_ROWS: usize = 2048;
const GRAPH_NODES: usize = 384;

/// Builds the seeded variant of registered program `name`.
///
/// `full_rows` overrides the materialized row count of the full-scale
/// (`scale >= 1`) input only; sampling-scale inputs keep the stock size,
/// so planning work stays what a stock run does.
///
/// # Panics
///
/// Panics if `name` is not a registered program.
#[must_use]
pub fn variant(name: &str, seed: u64, full_rows: Option<usize>) -> Workload {
    let stock = isp_workloads::by_name(name).expect("a registered program");
    let owned = stock.name().to_owned();
    let rows = move |scale: f64, stock_rows: usize| match full_rows {
        Some(n) if scale >= 1.0 => n,
        _ => stock_rows,
    };
    let generate: Arc<dyn Fn(f64) -> Storage + Send + Sync> =
        Arc::new(move |scale: f64| trace::span("datagen", || generate(&owned, seed, scale, &rows)));
    Workload::new(
        stock.name(),
        stock.table1_gb(),
        stock.description(),
        stock.source(),
        generate,
    )
    .with_encodings(stock.encodings().to_vec())
}

fn generate(name: &str, seed: u64, scale: f64, rows: &dyn Fn(f64, usize) -> usize) -> Storage {
    let mut st = Storage::new();
    match name {
        "blackscholes" => st.insert(
            "options",
            options::option_chain(9.1, scale, rows(scale, STOCK_ROWS), seed),
        ),
        "KMeans" => {
            let pts = points::clustered_points(5.3, scale, 8, 8, rows(scale, STOCK_ROWS), seed);
            st.insert("points", pts);
            st.insert("centroids", points::initial_centroids(8, 8, seed));
        }
        "LightGBM" => {
            let x = linalg::feature_matrix(7.1, scale, 32, rows(scale, STOCK_MATRIX_ROWS), seed);
            st.insert("features", x);
            st.insert("gbm_model", forestgen::random_forest(10, 4, 32, seed));
        }
        "MatrixMul" => {
            let x = linalg::feature_matrix(6.0, scale, 64, rows(scale, STOCK_MATRIX_ROWS), seed);
            st.insert("features64", x);
            st.insert("proj_weights", linalg::weight_matrix(64, 4, seed));
        }
        "MixedGEMM" => {
            let x = linalg::feature_matrix(9.4, scale, 64, rows(scale, STOCK_MATRIX_ROWS), seed);
            st.insert("mixed_features", x);
            st.insert("mixed_proj", linalg::weight_matrix(64, 8, seed));
        }
        "PageRank" => {
            st.insert(
                "web_graph",
                graph::adjacency(7.7, scale, GRAPH_NODES, 16.0, seed),
            );
            st.insert("ranks", graph::initial_ranks(7.7, scale, GRAPH_NODES));
        }
        "SparseMV" => {
            st.insert(
                "sparse_matrix",
                graph::adjacency(6.4, scale, GRAPH_NODES, 24.0, seed),
            );
            st.insert("xvec", graph::dense_vector(6.4, scale, GRAPH_NODES, seed));
        }
        "TPC-H-1" | "TPC-H-6" => st.insert(
            "lineitem",
            tpch::lineitem(
                6.9,
                scale,
                rows(scale, STOCK_ROWS),
                LINEITEM_PART_ROWS,
                seed,
            ),
        ),
        "TPC-H-14" => {
            st.insert(
                "lineitem",
                tpch::lineitem(
                    6.9,
                    scale,
                    rows(scale, STOCK_ROWS),
                    LINEITEM_PART_ROWS,
                    seed,
                ),
            );
            st.insert("part", tpch::part(0.2, scale, LINEITEM_PART_ROWS, seed));
        }
        "TPC-H-6-gz" => {
            let logical = wire_rows(tpch_q6_gz::DECODED_GB, 32.0, scale);
            let mut rng = SplitMix::new(seed ^ scale.to_bits().rotate_left(17));
            let n = STOCK_ROWS;
            let columns: [(&str, Vec<f64>); 4] = [
                (
                    "shipdate_gz",
                    draw(&mut rng, n, |r| 8400.0 + r.below(1200) as f64),
                ),
                (
                    "quantity_gz",
                    draw(&mut rng, n, |r| 1.0 + r.below(50) as f64),
                ),
                (
                    "discount_gz",
                    draw(&mut rng, n, |r| r.below(11) as f64 / 100.0),
                ),
                (
                    "extendedprice_gz",
                    draw(&mut rng, n, |r| 900.0 + r.below(100_000) as f64 / 100.0),
                ),
            ];
            for (column, data) in columns {
                let enc = EncodedVal::from_f64s(tpch_q6_gz::encoding(), &data, logical);
                st.insert(column, Value::Encoded(enc));
            }
        }
        "LogGrep" => {
            let logical = wire_rows(loggrep::GB, 16.0, scale);
            let mut rng = SplitMix::new(seed ^ scale.to_bits().rotate_left(17));
            let n = STOCK_ROWS;
            let status = draw(&mut rng, n, |r| match r.below(20) {
                0..=13 => 200.0,
                14 | 15 => 301.0,
                16..=18 => 404.0,
                _ => 500.0 + r.below(4) as f64,
            });
            let latency = draw(&mut rng, n, |r| {
                if r.below(10) == 0 {
                    -1.0
                } else {
                    20.0 + r.below(400) as f64 * 0.5 + r.below(13) as f64 * 0.07
                }
            });
            let st_enc = EncodedVal::from_f64s(loggrep::status_encoding(), &status, logical);
            let lat_enc = EncodedVal::from_f64s(loggrep::latency_encoding(), &latency, logical);
            st.insert("log_status", Value::Encoded(st_enc));
            st.insert("log_latency", Value::Encoded(lat_enc));
        }
        other => unreachable!("no seeded generator for {other}"),
    }
    st
}

/// Logical rows of a wire-format column holding `gb` decoded gigabytes
/// at `bytes_per_row` decoded bytes, as the registered generators size it.
fn wire_rows(gb: f64, bytes_per_row: f64, scale: f64) -> u64 {
    ((gb * scale * 1e9 / bytes_per_row).round() as u64).max(STOCK_ROWS as u64)
}

fn draw(rng: &mut SplitMix, n: usize, mut f: impl FnMut(&mut SplitMix) -> f64) -> Vec<f64> {
    (0..n).map(|_| f(rng)).collect()
}
