//! Warm-start persistence: the on-disk codec for plan-cache seeds and
//! measured profiles.
//!
//! A cold [`crate::plan::PlanCache`] miss runs the sampling phase —
//! dozens of down-scaled executions plus full-scale input
//! materialization, all driven by datagen calls against the workload's
//! [`crate::sampling::InputSource`]. Everything planning derives from
//! those calls is captured by two values: the [`SamplingReport`] and the
//! materialized full-scale [`Storage`]. This module serializes exactly
//! that pair per cache key (plus the profile store's accumulated
//! observations) into a single checksummed binary file, so a restarted
//! process re-plans **byte-identical** plans with *zero* datagen calls
//! — the warm half of the crash-recovery story, next to the execution
//! WAL in [`crate::resume`].
//!
//! ## Format
//!
//! ```text
//! [ magic "ISPWARM3" : 8 bytes ]
//! [ u64 payload_len (LE) ][ u64 fnv1a(payload) (LE) ][ payload ]
//! ```
//!
//! One frame for the whole file: warm state is written atomically at
//! save points (not appended), so a torn write is detected by the
//! length/checksum and the caller falls back to cold planning. The
//! payload is a straight little-endian encoding via the WAL's
//! [`ByteWriter`]/[`ByteReader`]; floats travel as IEEE-754 bit patterns
//! so round trips are exact and replanning from a loaded seed is
//! bit-identical to replanning from the live one.

use crate::profile::{LineObservation, ProfileKey, WorkloadProfile};
use crate::sampling::{LineSamples, SamplePoint, SamplingReport};
use alang::copyelim::StaticType;
use alang::forest::{Forest, Tree, TreeNode};
use alang::matrix::{Csr, Matrix};
use alang::table::{Column, Table};
use alang::value::{ArrayVal, BoolArrayVal, EncodedVal};
use alang::{LineCost, Storage, Value};
use csd_sim::wire::{ByteOrder, Codec, Encoding};
use isp_obs::fnv1a;
use isp_obs::wal::{ByteReader, ByteWriter};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// File header identifying a warm-start file and its format version.
/// Version 3 keys seeds by the canonical-fingerprint plan-cache key
/// without an evaluation backend; version 2 keys still hashed one, and
/// version 1 keys hashed `Debug` renderings. Both are rejected on load:
/// their keys would all miss, a silent cold start.
pub const WARM_MAGIC: [u8; 8] = *b"ISPWARM3";

/// Everything a plan-cache miss needs to re-plan without datagen: the
/// sampling measurements and the materialized full-scale input.
#[derive(Debug, Clone)]
pub struct WarmSeed {
    /// The down-scale sampling measurements (planning phase 1's output).
    pub sampling: SamplingReport,
    /// The materialized full-scale input (planning phase 6's output).
    pub storage: Storage,
}

/// Serializes warm seeds and profiles and writes the framed file.
///
/// # Errors
///
/// Propagates file write errors.
pub fn save_warm_file(
    path: &Path,
    seeds: &[(ProfileKey, WarmSeed)],
    profiles: &[(ProfileKey, WorkloadProfile)],
) -> io::Result<()> {
    let mut w = ByteWriter::default();
    w.u32(seeds.len() as u32);
    for (key, seed) in seeds {
        enc_key(&mut w, key);
        enc_sampling(&mut w, &seed.sampling);
        enc_storage(&mut w, &seed.storage);
    }
    w.u32(profiles.len() as u32);
    for (key, profile) in profiles {
        enc_key(&mut w, key);
        enc_profile(&mut w, profile);
    }
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&WARM_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    std::fs::write(path, out)
}

/// Reads and decodes a file written by [`save_warm_file`].
///
/// # Errors
///
/// File I/O errors pass through; a bad magic, length, checksum, or
/// payload surfaces as [`io::ErrorKind::InvalidData`] so callers can
/// fall back to cold planning.
#[allow(clippy::type_complexity)]
pub fn load_warm_file(
    path: &Path,
) -> io::Result<(
    Vec<(ProfileKey, WarmSeed)>,
    Vec<(ProfileKey, WorkloadProfile)>,
)> {
    let bytes = std::fs::read(path)?;
    decode_warm_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[allow(clippy::type_complexity)]
fn decode_warm_bytes(
    bytes: &[u8],
) -> Result<
    (
        Vec<(ProfileKey, WarmSeed)>,
        Vec<(ProfileKey, WorkloadProfile)>,
    ),
    String,
> {
    if bytes.len() < 24 || bytes[..8] != WARM_MAGIC {
        return Err(match bytes.get(..8) {
            Some(head) if head[..7] == WARM_MAGIC[..7] => format!(
                "warm-start format {} is not {}",
                String::from_utf8_lossy(head),
                String::from_utf8_lossy(&WARM_MAGIC)
            ),
            _ => "not a warm-start file (bad magic)".into(),
        });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = bytes
        .get(24..24 + len)
        .ok_or("warm-start payload truncated")?;
    if 24 + len != bytes.len() {
        return Err("warm-start file has trailing bytes".into());
    }
    if fnv1a(payload) != checksum {
        return Err("warm-start checksum mismatch (torn write?)".into());
    }
    let mut r = ByteReader::new(payload);
    let mut seeds = Vec::new();
    for _ in 0..r.u32()? {
        let key = dec_key(&mut r)?;
        let sampling = dec_sampling(&mut r)?;
        let storage = dec_storage(&mut r)?;
        seeds.push((key, WarmSeed { sampling, storage }));
    }
    let mut profiles = Vec::new();
    for _ in 0..r.u32()? {
        let key = dec_key(&mut r)?;
        profiles.push((key, dec_profile(&mut r)?));
    }
    if r.remaining() != 0 {
        return Err(format!(
            "warm-start payload has {} undecoded bytes",
            r.remaining()
        ));
    }
    Ok((seeds, profiles))
}

fn enc_key(w: &mut ByteWriter, key: &ProfileKey) {
    w.str(&key.0);
    w.u64(key.1);
}

fn dec_key(r: &mut ByteReader<'_>) -> Result<ProfileKey, String> {
    Ok((r.str()?, r.u64()?))
}

fn enc_cost(w: &mut ByteWriter, c: &LineCost) {
    w.u64(c.compute_ops);
    w.u64(c.storage_bytes);
    w.u64(c.bytes_in);
    w.u64(c.bytes_out);
    w.u64(c.copy_bytes);
    w.u64(c.eliminable_copy_bytes);
    w.u32(c.calls);
}

fn dec_cost(r: &mut ByteReader<'_>) -> Result<LineCost, String> {
    Ok(LineCost {
        compute_ops: r.u64()?,
        storage_bytes: r.u64()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        copy_bytes: r.u64()?,
        eliminable_copy_bytes: r.u64()?,
        calls: r.u32()?,
    })
}

fn static_type_code(t: StaticType) -> u8 {
    match t {
        StaticType::Num => 0,
        StaticType::Bool => 1,
        StaticType::Str => 2,
        StaticType::Array => 3,
        StaticType::BoolArray => 4,
        StaticType::Table => 5,
        StaticType::Matrix => 6,
        StaticType::Csr => 7,
        StaticType::Forest => 8,
        StaticType::Unknown => 9,
        StaticType::Encoded => 10,
    }
}

fn static_type_from(code: u8) -> Result<StaticType, String> {
    Ok(match code {
        0 => StaticType::Num,
        1 => StaticType::Bool,
        2 => StaticType::Str,
        3 => StaticType::Array,
        4 => StaticType::BoolArray,
        5 => StaticType::Table,
        6 => StaticType::Matrix,
        7 => StaticType::Csr,
        8 => StaticType::Forest,
        9 => StaticType::Unknown,
        10 => StaticType::Encoded,
        other => return Err(format!("unknown static type code {other}")),
    })
}

fn enc_sampling(w: &mut ByteWriter, s: &SamplingReport) {
    w.u32(s.lines.len() as u32);
    for line in &s.lines {
        w.u64(line.line as u64);
        w.u32(line.points.len() as u32);
        for p in &line.points {
            w.f64(p.scale);
            enc_cost(w, &p.cost);
        }
    }
    w.u32(s.dataset_types.len() as u32);
    for (name, t) in &s.dataset_types {
        w.str(name);
        w.u8(static_type_code(*t));
    }
    enc_cost(w, &s.total_sampling_cost);
}

fn dec_sampling(r: &mut ByteReader<'_>) -> Result<SamplingReport, String> {
    let mut lines = Vec::new();
    for _ in 0..r.u32()? {
        let line = r.u64()? as usize;
        let mut points = Vec::new();
        for _ in 0..r.u32()? {
            points.push(SamplePoint {
                scale: r.f64()?,
                cost: dec_cost(r)?,
            });
        }
        lines.push(LineSamples { line, points });
    }
    let mut dataset_types = alang::copyelim::DatasetTypes::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let t = static_type_from(r.u8()?)?;
        dataset_types.insert(name, t);
    }
    let total_sampling_cost = dec_cost(r)?;
    Ok(SamplingReport {
        lines,
        dataset_types,
        total_sampling_cost,
    })
}

fn enc_storage(w: &mut ByteWriter, storage: &Storage) {
    let names: Vec<&str> = storage.names().collect();
    w.u32(names.len() as u32);
    for name in names {
        w.str(name);
        let value = storage.get(name).expect("name came from the storage");
        enc_value(w, value);
    }
}

fn dec_storage(r: &mut ByteReader<'_>) -> Result<Storage, String> {
    let mut storage = Storage::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let value = dec_value(r)?;
        storage.insert(name, value);
    }
    Ok(storage)
}

fn enc_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Num(x) => {
            w.u8(0);
            w.f64(*x);
        }
        Value::Bool(b) => {
            w.u8(1);
            w.bool(*b);
        }
        Value::Str(s) => {
            w.u8(2);
            w.str(s);
        }
        Value::Array(a) => {
            w.u8(3);
            w.u64(a.logical_len());
            w.u32(a.data().len() as u32);
            for x in a.data() {
                w.f64(*x);
            }
        }
        Value::BoolArray(a) => {
            w.u8(4);
            w.u64(a.logical_len());
            w.u32(a.data().len() as u32);
            for b in a.data() {
                w.bool(*b);
            }
        }
        Value::Table(t) => {
            w.u8(5);
            w.u64(t.logical_rows());
            let names: Vec<&str> = t.column_names().collect();
            w.u32(names.len() as u32);
            for name in names {
                w.str(name);
                match t.column(name).expect("name came from the table") {
                    Column::F64(data) => {
                        w.u8(0);
                        w.u32(data.len() as u32);
                        for x in data.iter() {
                            w.f64(*x);
                        }
                    }
                    Column::I64(data) => {
                        w.u8(1);
                        w.u32(data.len() as u32);
                        for x in data.iter() {
                            w.u64(*x as u64);
                        }
                    }
                    Column::Dict { codes, dict } => {
                        w.u8(2);
                        w.u32(codes.len() as u32);
                        for c in codes.iter() {
                            w.u32(*c);
                        }
                        w.u32(dict.len() as u32);
                        for s in dict.iter() {
                            w.str(s);
                        }
                    }
                }
            }
        }
        Value::Matrix(m) => {
            w.u8(6);
            w.u32(m.rows() as u32);
            w.u32(m.cols() as u32);
            w.u64(m.logical_rows());
            w.u64(m.logical_cols());
            for x in m.data() {
                w.f64(*x);
            }
        }
        Value::Csr(c) => {
            w.u8(7);
            w.u32(c.rows() as u32);
            w.u32(c.cols() as u32);
            w.u64(c.logical_rows());
            w.u64(c.logical_cols());
            w.u64(c.logical_nnz());
            w.u32(c.row_ptr().len() as u32);
            for p in c.row_ptr() {
                w.u32(*p);
            }
            w.u32(c.values().len() as u32);
            for (idx, val) in c.col_idx().iter().zip(c.values()) {
                w.u32(*idx);
                w.f64(*val);
            }
        }
        Value::Forest(f) => {
            w.u8(8);
            w.u32(f.feature_count());
            w.u32(f.trees().len() as u32);
            for tree in f.trees() {
                w.u32(tree.nodes().len() as u32);
                for n in tree.nodes() {
                    w.u32(n.feature);
                    w.f64(n.threshold);
                    w.u32(n.left);
                    w.u32(n.right);
                    w.f64(n.value);
                }
            }
        }
        Value::Encoded(e) => {
            w.u8(9);
            enc_encoding(w, e.encoding());
            w.u64(e.logical_len());
            w.u64(e.encoded_logical_bytes());
            w.u32(e.actual_len() as u32);
            w.u32(e.chunks().len() as u32);
            for chunk in e.chunks() {
                w.bytes(chunk);
            }
        }
    }
}

fn enc_encoding(w: &mut ByteWriter, enc: &Encoding) {
    w.u8(match enc.codec {
        Codec::Gzip => 0,
        Codec::Zlib => 1,
        Codec::None => 2,
    });
    w.bool(enc.shuffle);
    w.u8(match enc.byte_order {
        ByteOrder::Little => 0,
        ByteOrder::Big => 1,
    });
    match enc.fill_value {
        None => w.bool(false),
        Some(f) => {
            w.bool(true);
            w.f64(f);
        }
    }
}

fn dec_encoding(r: &mut ByteReader<'_>) -> Result<Encoding, String> {
    let codec = match r.u8()? {
        0 => Codec::Gzip,
        1 => Codec::Zlib,
        2 => Codec::None,
        other => return Err(format!("unknown codec tag {other}")),
    };
    let shuffle = r.bool()?;
    let byte_order = match r.u8()? {
        0 => ByteOrder::Little,
        1 => ByteOrder::Big,
        other => return Err(format!("unknown byte-order tag {other}")),
    };
    let fill_value = if r.bool()? { Some(r.f64()?) } else { None };
    Ok(Encoding {
        codec,
        shuffle,
        byte_order,
        fill_value,
    })
}

fn dec_value(r: &mut ByteReader<'_>) -> Result<Value, String> {
    Ok(match r.u8()? {
        0 => Value::Num(r.f64()?),
        1 => Value::Bool(r.bool()?),
        2 => Value::Str(r.str()?),
        3 => {
            let logical = r.u64()?;
            let len = r.u32()? as usize;
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(r.f64()?);
            }
            Value::Array(ArrayVal::with_logical(data, logical))
        }
        4 => {
            let logical = r.u64()?;
            let len = r.u32()? as usize;
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(r.bool()?);
            }
            Value::BoolArray(BoolArrayVal::with_logical(data, logical))
        }
        5 => {
            let logical_rows = r.u64()?;
            let ncols = r.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let name = r.str()?;
                let col = match r.u8()? {
                    0 => {
                        let len = r.u32()? as usize;
                        let mut data = Vec::with_capacity(len);
                        for _ in 0..len {
                            data.push(r.f64()?);
                        }
                        Column::F64(Arc::new(data))
                    }
                    1 => {
                        let len = r.u32()? as usize;
                        let mut data = Vec::with_capacity(len);
                        for _ in 0..len {
                            data.push(r.u64()? as i64);
                        }
                        Column::I64(Arc::new(data))
                    }
                    2 => {
                        let len = r.u32()? as usize;
                        let mut codes = Vec::with_capacity(len);
                        for _ in 0..len {
                            codes.push(r.u32()?);
                        }
                        let dlen = r.u32()? as usize;
                        let mut dict = Vec::with_capacity(dlen);
                        for _ in 0..dlen {
                            dict.push(r.str()?);
                        }
                        Column::Dict {
                            codes: Arc::new(codes),
                            dict: Arc::new(dict),
                        }
                    }
                    other => return Err(format!("unknown column tag {other}")),
                };
                columns.push((name, col));
            }
            Value::Table(Table::with_logical_rows(columns, logical_rows).map_err(err_str)?)
        }
        6 => {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            let logical_rows = r.u64()?;
            let logical_cols = r.u64()?;
            let n = rows.checked_mul(cols).ok_or("matrix dimensions overflow")?;
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(r.f64()?);
            }
            Value::Matrix(
                Matrix::with_logical(data, rows, cols, logical_rows, logical_cols)
                    .map_err(err_str)?,
            )
        }
        7 => {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            let logical_rows = r.u64()?;
            let logical_cols = r.u64()?;
            let logical_nnz = r.u64()?;
            let plen = r.u32()? as usize;
            let mut row_ptr = Vec::with_capacity(plen);
            for _ in 0..plen {
                row_ptr.push(r.u32()?);
            }
            let nnz = r.u32()? as usize;
            let mut col_idx = Vec::with_capacity(nnz);
            let mut values = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                col_idx.push(r.u32()?);
                values.push(r.f64()?);
            }
            Value::Csr(
                Csr::from_parts(
                    row_ptr,
                    col_idx,
                    values,
                    rows,
                    cols,
                    logical_rows,
                    logical_cols,
                    logical_nnz,
                )
                .map_err(err_str)?,
            )
        }
        8 => {
            let features = r.u32()?;
            let ntrees = r.u32()? as usize;
            let mut trees = Vec::with_capacity(ntrees);
            for _ in 0..ntrees {
                let nnodes = r.u32()? as usize;
                let mut nodes = Vec::with_capacity(nnodes);
                for _ in 0..nnodes {
                    nodes.push(TreeNode {
                        feature: r.u32()?,
                        threshold: r.f64()?,
                        left: r.u32()?,
                        right: r.u32()?,
                        value: r.f64()?,
                    });
                }
                trees.push(Tree::new(nodes).map_err(err_str)?);
            }
            Value::Forest(Forest::new(trees, features).map_err(err_str)?)
        }
        9 => {
            let encoding = dec_encoding(r)?;
            let logical_len = r.u64()?;
            let encoded_logical_bytes = r.u64()?;
            let actual_len = r.u32()? as usize;
            let nchunks = r.u32()? as usize;
            let mut chunks = Vec::with_capacity(nchunks);
            for _ in 0..nchunks {
                chunks.push(r.bytes()?);
            }
            Value::Encoded(EncodedVal::from_parts(
                encoding,
                chunks,
                actual_len,
                logical_len,
                encoded_logical_bytes,
            ))
        }
        other => return Err(format!("unknown value tag {other}")),
    })
}

fn enc_profile(w: &mut ByteWriter, p: &WorkloadProfile) {
    w.u64(p.version);
    let obs = p.observations();
    w.u32(obs.len() as u32);
    for o in obs {
        w.u64(o.count);
        for s in o.sums() {
            // u128 accumulators travel as (low, high) u64 halves.
            w.u64(s as u64);
            w.u64((s >> 64) as u64);
        }
        w.u32(o.calls());
    }
}

fn dec_profile(r: &mut ByteReader<'_>) -> Result<WorkloadProfile, String> {
    let version = r.u64()?;
    let nlines = r.u32()? as usize;
    let mut lines = Vec::with_capacity(nlines);
    for _ in 0..nlines {
        let count = r.u64()?;
        let mut sums = [0u128; 6];
        for s in &mut sums {
            let lo = r.u64()?;
            let hi = r.u64()?;
            *s = u128::from(lo) | (u128::from(hi) << 64);
        }
        let calls = r.u32()?;
        lines.push(LineObservation::from_parts(count, sums, calls));
    }
    Ok(WorkloadProfile::from_parts(version, lines))
}

fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_storage() -> Storage {
        let mut st = Storage::new();
        st.insert("num", Value::Num(3.5));
        st.insert("flag", Value::Bool(true));
        st.insert("label", Value::Str("warm".into()));
        st.insert(
            "arr",
            Value::Array(ArrayVal::with_logical(vec![1.0, -2.5, 3.25], 1_000_000)),
        );
        st.insert(
            "mask",
            Value::BoolArray(BoolArrayVal::with_logical(vec![true, false, true], 999)),
        );
        st.insert(
            "tab",
            Value::Table(
                Table::with_logical_rows(
                    vec![
                        ("price".into(), Column::F64(Arc::new(vec![1.5, 2.5]))),
                        ("qty".into(), Column::I64(Arc::new(vec![-3, 7]))),
                        (
                            "city".into(),
                            Column::Dict {
                                codes: Arc::new(vec![0, 1]),
                                dict: Arc::new(vec!["a".into(), "b".into()]),
                            },
                        ),
                    ],
                    5_000,
                )
                .expect("table"),
            ),
        );
        let m = Matrix::with_logical(vec![0.0, 1.0, 2.0, 0.0], 2, 2, 100, 100).expect("matrix");
        st.insert("csr", Value::Csr(m.to_csr()));
        st.insert("mat", Value::Matrix(m));
        let wire: Vec<f64> = (0..5000).map(|i| f64::from(i % 13)).collect();
        st.insert(
            "wire",
            Value::Encoded(EncodedVal::from_f64s(
                Encoding {
                    codec: Codec::Gzip,
                    shuffle: true,
                    byte_order: ByteOrder::Big,
                    fill_value: Some(-9999.0),
                },
                &wire,
                5_000_000,
            )),
        );
        st.insert(
            "model",
            Value::Forest(
                Forest::new(
                    vec![Tree::new(vec![
                        TreeNode::split(0, 0.5, 1, 2),
                        TreeNode::leaf(-1.0),
                        TreeNode::leaf(1.0),
                    ])
                    .expect("tree")],
                    3,
                )
                .expect("forest"),
            ),
        );
        st
    }

    fn sample_report() -> SamplingReport {
        let cost = LineCost {
            compute_ops: 100,
            storage_bytes: 800,
            bytes_in: 40,
            bytes_out: 10,
            copy_bytes: 20,
            eliminable_copy_bytes: 20,
            calls: 2,
        };
        let mut dataset_types = alang::copyelim::DatasetTypes::new();
        dataset_types.insert("arr".into(), StaticType::Array);
        dataset_types.insert("tab".into(), StaticType::Table);
        dataset_types.insert("wire".into(), StaticType::Encoded);
        SamplingReport {
            lines: vec![LineSamples {
                line: 0,
                points: vec![
                    SamplePoint {
                        scale: 2f64.powi(-10),
                        cost,
                    },
                    SamplePoint {
                        scale: 2f64.powi(-9),
                        cost,
                    },
                ],
            }],
            dataset_types,
            total_sampling_cost: cost,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("activepy_warm_{}_{name}.bin", std::process::id()))
    }

    #[test]
    fn warm_file_round_trips_every_value_kind() {
        let path = tmp("round_trip");
        let key: ProfileKey = ("workload".into(), 0xBEEF);
        let seed = WarmSeed {
            sampling: sample_report(),
            storage: sample_storage(),
        };
        let mut profile = WorkloadProfile::default();
        profile.record_run(&[sample_report().total_sampling_cost]);
        save_warm_file(
            &path,
            &[(key.clone(), seed.clone())],
            &[(key.clone(), profile.clone())],
        )
        .expect("save");
        let (seeds, profiles) = load_warm_file(&path).expect("load");
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].0, key);
        assert_eq!(seeds[0].1.sampling, seed.sampling);
        // Storage has no PartialEq; compare via per-name value equality.
        let loaded = &seeds[0].1.storage;
        let orig = &seed.storage;
        let names: Vec<&str> = orig.names().collect();
        assert_eq!(loaded.names().collect::<Vec<_>>(), names);
        for name in names {
            assert_eq!(
                loaded.get(name).expect("loaded"),
                orig.get(name).expect("orig"),
                "dataset `{name}`"
            );
        }
        assert_eq!(profiles, vec![(key, profile)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn older_format_version_is_rejected_not_loaded_empty() {
        let path = tmp("stale");
        let key: ProfileKey = ("workload".into(), 0xBEEF);
        let seed = WarmSeed {
            sampling: sample_report(),
            storage: sample_storage(),
        };
        save_warm_file(&path, &[(key, seed)], &[]).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        for stale in ["ISPWARM1", "ISPWARM2"] {
            bytes[..8].copy_from_slice(stale.as_bytes());
            std::fs::write(&path, &bytes).expect("write stale");
            let err = load_warm_file(&path).expect_err("older versions must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(stale), "{err}");
            let cache = crate::plan::PlanCache::new();
            let err = cache.load_warm(&path).expect_err("no silent 0 seeds");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_warm_file_is_invalid_data_not_garbage() {
        let path = tmp("corrupt");
        save_warm_file(&path, &[], &[]).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a payload byte (or the checksum itself when empty).
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let err = load_warm_file(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncation is detected too.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let err = load_warm_file(&path).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
