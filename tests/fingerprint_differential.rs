//! Differential and mutation tests for the canonical structural
//! fingerprint ([`isp_obs::Fingerprint`]).
//!
//! 1. **Differential.** The answer fingerprint used to be FNV-1a over the
//!    `Debug` rendering of every final variable. That hash survives here
//!    as the oracle: over the random-program corpus of `tests/common` plus
//!    hand-built values of all ten [`Value`] variants (NaN payloads,
//!    signed zeros, empty arrays, `Dict` columns, CSR, forests, encoded
//!    streams), two values hash equal under the oracle exactly when they
//!    hash equal under [`Fingerprint`]. The same holds for whole-run
//!    answers, where the new side is the production `values_fingerprint`
//!    of an executed run.
//! 2. **Mutation.** Changing any single field of any variant, or any
//!    field `plan_fingerprint` covers, changes the fingerprint; fields the
//!    plan fingerprint deliberately excludes do not.
//!
//! The new hash is strictly finer than the oracle in exactly one place,
//! named in [`strictly_finer`]: an [`Encoding`] fill sentinel is hashed by
//! raw bit pattern (decode masks by bit pattern, so NaN sentinels with
//! different payloads mask different elements), where `Debug` prints
//! every NaN as `NaN`.

use std::fmt::Debug;
use std::sync::Arc;

use activepy::exec::execute;
use activepy::{plan_fingerprint, ActivePy, ExecOptions, PlanCache};
use alang::builtins::Storage;
use alang::forest::{Forest, Tree, TreeNode};
use alang::interp::Interpreter;
use alang::matrix::{Csr, Matrix};
use alang::parser::parse;
use alang::table::{Column, Table};
use alang::value::{ArrayVal, BoolArrayVal, EncodedVal};
use alang::Value;
use csd_sim::wire::{ByteOrder, Codec, Encoding};
use csd_sim::{EngineKind, SystemConfig};
use isp_obs::{fnv1a, Fingerprint};
use proptest::{Strategy, TestRng};
use rand::SeedableRng;

mod common;

/// The retired answer hash: FNV-1a over the `Debug` rendering.
fn debug_hash<T: Debug + ?Sized>(v: &T) -> u64 {
    fnv1a(format!("{v:?}").as_bytes())
}

/// A NaN whose payload differs from `f64::NAN`'s.
fn payload_nan() -> f64 {
    f64::from_bits(0x7ff0_0000_0000_0bad)
}

/// The one documented place the new hash splits an oracle class: two
/// encoded values that differ only in the payload of a NaN fill sentinel.
fn strictly_finer(a: &Option<Value>, b: &Option<Value>) -> bool {
    let fill_bits = |v: &Option<Value>| match v {
        Some(Value::Encoded(e)) => e.encoding().fill_value.filter(|f| f.is_nan()),
        _ => None,
    };
    match (fill_bits(a), fill_bits(b)) {
        (Some(x), Some(y)) => x.to_bits() != y.to_bits(),
        _ => false,
    }
}

fn gen_storage() -> Storage {
    let mut st = Storage::new();
    st.insert(
        "v",
        Value::Array(ArrayVal::with_logical(
            (0..64).map(|i| f64::from(i % 10)).collect(),
            1_000_000,
        )),
    );
    st.insert(
        "w",
        Value::Array(ArrayVal::with_logical(
            (0..32).map(|i| f64::from(i) - 16.0).collect(),
            500_000,
        )),
    );
    st
}

const GENERATED_PROGRAMS: usize = 1024;
const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// The sources drawn from the shared generator under a pinned seed.
fn generated_sources() -> Vec<String> {
    let mut rng = TestRng::seed_from_u64(0xF1_9E25);
    let lines = common::lines();
    (0..GENERATED_PROGRAMS)
        .map(|_| common::source(&lines.sample(&mut rng)))
        .collect()
}

fn table(columns: Vec<(&str, Column)>, logical_rows: u64) -> Value {
    let columns = columns
        .into_iter()
        .map(|(n, c)| (n.to_owned(), c))
        .collect();
    Value::Table(Table::with_logical_rows(columns, logical_rows).expect("table"))
}

fn f64s(v: &[f64]) -> Column {
    Column::F64(Arc::new(v.to_vec()))
}

fn dict(codes: &[u32], words: &[&str]) -> Column {
    Column::Dict {
        codes: Arc::new(codes.to_vec()),
        dict: Arc::new(words.iter().map(|w| (*w).to_owned()).collect()),
    }
}

fn matrix(data: &[f64], rows: usize, cols: usize, lr: u64, lc: u64) -> Value {
    Value::Matrix(Matrix::with_logical(data.to_vec(), rows, cols, lr, lc).expect("matrix"))
}

#[allow(clippy::too_many_arguments)]
fn csr(
    row_ptr: &[u32],
    col_idx: &[u32],
    values: &[f64],
    rows: usize,
    cols: usize,
    lr: u64,
    lc: u64,
    lnnz: u64,
) -> Value {
    Value::Csr(
        Csr::from_parts(
            row_ptr.to_vec(),
            col_idx.to_vec(),
            values.to_vec(),
            rows,
            cols,
            lr,
            lc,
            lnnz,
        )
        .expect("csr"),
    )
}

fn stump(threshold: f64, lo: f64, hi: f64) -> Tree {
    Tree::new(vec![
        TreeNode::split(0, threshold, 1, 2),
        TreeNode::leaf(lo),
        TreeNode::leaf(hi),
    ])
    .expect("tree")
}

fn forest(trees: Vec<Tree>, features: u32) -> Value {
    Value::Forest(Forest::new(trees, features).expect("forest"))
}

fn encoding(codec: Codec, shuffle: bool, byte_order: ByteOrder, fill: Option<f64>) -> Encoding {
    Encoding {
        codec,
        shuffle,
        byte_order,
        fill_value: fill,
    }
}

fn encoded(enc: Encoding, data: &[f64], logical_len: u64) -> Value {
    Value::Encoded(EncodedVal::from_f64s(enc, data, logical_len))
}

/// Groups of values where each member after the first differs from the
/// first in exactly one field (one constructor argument) — the mutation
/// corpus. Every value also joins the differential corpus.
fn single_field_mutations() -> Vec<(&'static str, Vec<Value>)> {
    let nan = f64::NAN;
    let raw = Encoding::raw();
    let gz = Encoding::gzip_shuffled();
    let wire: Vec<f64> = (0..5000).map(|i| f64::from(i % 13)).collect();
    let wire_other: Vec<f64> = (0..5000).map(|i| f64::from(i % 11)).collect();
    let base_encoded = EncodedVal::from_f64s(gz, &wire, 5_000_000);
    let parts = |enc: Encoding, chunks: &[Vec<u8>], actual: usize, logical: u64, bytes: u64| {
        Value::Encoded(EncodedVal::from_parts(
            enc,
            chunks.to_vec(),
            actual,
            logical,
            bytes,
        ))
    };
    let chunks = base_encoded.chunks().to_vec();
    let (actual, logical, bytes) = (
        base_encoded.actual_len(),
        base_encoded.logical_len(),
        base_encoded.encoded_logical_bytes(),
    );
    let mut other_chunks = chunks.clone();
    other_chunks[0][0] ^= 1;
    vec![
        (
            "Num",
            vec![
                Value::Num(0.0),
                Value::Num(-0.0),
                Value::Num(nan),
                Value::Num(f64::INFINITY),
                Value::Num(f64::from_bits(1)),
            ],
        ),
        ("Bool", vec![Value::Bool(false), Value::Bool(true)]),
        (
            "Str",
            vec![Value::Str(String::new()), Value::Str("NaN".into())],
        ),
        (
            "Array",
            vec![
                Value::Array(ArrayVal::with_logical(vec![1.0, 2.0], 10)),
                Value::Array(ArrayVal::with_logical(vec![1.0, -0.0], 10)),
                Value::Array(ArrayVal::with_logical(vec![1.0, 2.0], 11)),
            ],
        ),
        (
            "BoolArray",
            vec![
                Value::BoolArray(BoolArrayVal::with_logical(vec![true, false], 9)),
                Value::BoolArray(BoolArrayVal::with_logical(vec![true, true], 9)),
                Value::BoolArray(BoolArrayVal::with_logical(vec![true, false], 8)),
            ],
        ),
        (
            // `rows` is implied by the column lengths, so it only ever
            // changes together with a column.
            "Table",
            vec![
                table(
                    vec![("p", f64s(&[1.5, 2.5])), ("c", dict(&[0, 1], &["a", "b"]))],
                    7,
                ),
                table(
                    vec![("p", f64s(&[1.5, 2.5])), ("c", dict(&[1, 1], &["a", "b"]))],
                    7,
                ),
                table(
                    vec![("p", f64s(&[1.5, 2.5])), ("c", dict(&[0, 1], &["a", "c"]))],
                    7,
                ),
                table(
                    vec![("q", f64s(&[1.5, 2.5])), ("c", dict(&[0, 1], &["a", "b"]))],
                    7,
                ),
                table(
                    vec![("p", f64s(&[1.5, 2.5])), ("c", dict(&[0, 1], &["a", "b"]))],
                    8,
                ),
                table(
                    vec![
                        ("p", Column::I64(Arc::new(vec![1, 2]))),
                        ("c", dict(&[0, 1], &["a", "b"])),
                    ],
                    7,
                ),
            ],
        ),
        (
            // `rows × cols` must cover `data`, so `rows` moves with `cols`.
            "Matrix",
            vec![
                matrix(&[0.0, 1.0, 2.0, 0.0], 2, 2, 100, 100),
                matrix(&[0.0, 1.0, 2.0, -0.0], 2, 2, 100, 100),
                matrix(&[0.0, 1.0, 2.0, 0.0], 1, 4, 100, 100),
                matrix(&[0.0, 1.0, 2.0, 0.0], 2, 2, 101, 100),
                matrix(&[0.0, 1.0, 2.0, 0.0], 2, 2, 100, 101),
            ],
        ),
        (
            // `rows` is implied by `row_ptr`'s length.
            "Csr",
            vec![
                csr(&[0, 1, 2], &[1, 0], &[1.0, 2.0], 2, 2, 100, 100, 10),
                csr(&[0, 0, 2], &[1, 0], &[1.0, 2.0], 2, 2, 100, 100, 10),
                csr(&[0, 1, 2], &[0, 0], &[1.0, 2.0], 2, 2, 100, 100, 10),
                csr(&[0, 1, 2], &[1, 0], &[1.0, nan], 2, 2, 100, 100, 10),
                csr(&[0, 1, 2], &[1, 0], &[1.0, 2.0], 2, 3, 100, 100, 10),
                csr(&[0, 1, 2], &[1, 0], &[1.0, 2.0], 2, 2, 101, 100, 10),
                csr(&[0, 1, 2], &[1, 0], &[1.0, 2.0], 2, 2, 100, 101, 10),
                csr(&[0, 1, 2], &[1, 0], &[1.0, 2.0], 2, 2, 100, 100, 11),
            ],
        ),
        (
            "Forest",
            vec![
                forest(vec![stump(0.5, -1.0, 1.0)], 3),
                forest(vec![stump(0.5, -1.0, 1.0), stump(0.5, -1.0, 1.0)], 3),
                forest(vec![stump(0.5, -1.0, 1.0)], 4),
                forest(vec![stump(-0.0, -1.0, 1.0)], 3),
                forest(vec![stump(0.5, nan, 1.0)], 3),
                forest(
                    vec![Tree::new(vec![
                        TreeNode::split(1, 0.5, 1, 2),
                        TreeNode::leaf(-1.0),
                        TreeNode::leaf(1.0),
                    ])
                    .expect("tree")],
                    3,
                ),
                forest(
                    vec![Tree::new(vec![
                        TreeNode::split(0, 0.5, 2, 1),
                        TreeNode::leaf(-1.0),
                        TreeNode::leaf(1.0),
                    ])
                    .expect("tree")],
                    3,
                ),
            ],
        ),
        (
            "Encoded",
            vec![
                parts(gz, &chunks, actual, logical, bytes),
                parts(
                    encoding(Codec::Gzip, true, ByteOrder::Little, Some(nan)),
                    &chunks,
                    actual,
                    logical,
                    bytes,
                ),
                parts(
                    encoding(Codec::Gzip, true, ByteOrder::Big, None),
                    &chunks,
                    actual,
                    logical,
                    bytes,
                ),
                parts(
                    encoding(Codec::Gzip, false, ByteOrder::Little, None),
                    &chunks,
                    actual,
                    logical,
                    bytes,
                ),
                parts(raw, &chunks, actual, logical, bytes),
                parts(gz, &other_chunks, actual, logical, bytes),
                parts(gz, &chunks, actual - 1, logical, bytes),
                parts(gz, &chunks, actual, logical + 1, bytes),
                parts(gz, &chunks, actual, logical, bytes + 1),
                encoded(gz, &wire_other, 5_000_000),
            ],
        ),
    ]
}

/// Hand-built edge cases of all ten variants, beyond the mutation groups.
fn hand_built() -> Vec<Value> {
    let wire: Vec<f64> = (0..300).map(|i| f64::from(i % 7)).collect();
    let mut out = vec![
        Value::Num(payload_nan()),
        Value::Num(-f64::NAN),
        Value::Num(f64::NEG_INFINITY),
        Value::Num(1.0),
        Value::Num(1.000_000_000_000_000_2),
        Value::Str("a".into()),
        Value::Str("a\"b".into()),
        Value::Array(ArrayVal::new(vec![])),
        Value::Array(ArrayVal::with_logical(vec![], 5)),
        Value::Array(ArrayVal::new(vec![0.0])),
        Value::Array(ArrayVal::new(vec![-0.0])),
        Value::Array(ArrayVal::new(vec![f64::NAN])),
        Value::Array(ArrayVal::new(vec![payload_nan()])),
        Value::BoolArray(BoolArrayVal::new(vec![])),
        Value::BoolArray(BoolArrayVal::new(vec![false])),
        table(vec![("p", f64s(&[]))], 0),
        table(vec![("p", f64s(&[f64::NAN]))], 1),
        table(vec![("p", f64s(&[payload_nan()]))], 1),
        table(vec![("c", dict(&[], &[]))], 0),
        table(vec![("c", dict(&[0], &["", "x"]))], 3),
        matrix(&[], 0, 0, 0, 0),
        matrix(&[f64::NAN], 1, 1, 1, 1),
        matrix(&[payload_nan()], 1, 1, 1, 1),
        csr(&[0], &[], &[], 0, 0, 0, 0, 0),
        forest(
            vec![Tree::new(vec![TreeNode::leaf(-0.0)]).expect("leaf")],
            1,
        ),
        forest(vec![stump(0.5, payload_nan(), 1.0)], 3),
        encoded(Encoding::raw(), &[], 0),
        encoded(Encoding::raw(), &wire, 300),
        encoded(Encoding::gzip_shuffled(), &wire, 300),
    ];
    // The named strictly-finer case: NaN fill sentinels by payload.
    for fill in [f64::NAN, payload_nan()] {
        out.push(encoded(
            encoding(Codec::Zlib, false, ByteOrder::Little, Some(fill)),
            &wire,
            300,
        ));
    }
    out
}

/// Every final variable of every generated program that runs cleanly.
fn generated_values() -> Vec<Option<Value>> {
    let st = gen_storage();
    let mut out = vec![None];
    for src in generated_sources() {
        let program = parse(&src).expect("generated source parses");
        let mut interp = Interpreter::new(&st);
        if interp.run(&program, &[]).is_ok() {
            out.extend(VARS.iter().map(|v| interp.var(v).cloned()));
        }
    }
    out
}

/// Asserts oracle-equal ⇔ new-equal over every pair, up to the named
/// strictly-finer case, and returns how many oracle classes were seen.
fn assert_same_classes(corpus: &[Option<Value>]) -> usize {
    let old: Vec<u64> = corpus.iter().map(debug_hash).collect();
    let new: Vec<u64> = corpus.iter().map(Fingerprint::fingerprint).collect();
    for i in 0..corpus.len() {
        for j in i + 1..corpus.len() {
            let (o, n) = (old[i] == old[j], new[i] == new[j]);
            if o && !n && strictly_finer(&corpus[i], &corpus[j]) {
                continue;
            }
            assert_eq!(
                o, n,
                "oracle-equal={o} but fingerprint-equal={n} for\n  {:?}\n  {:?}",
                corpus[i], corpus[j]
            );
        }
    }
    let mut classes = old.clone();
    classes.sort_unstable();
    classes.dedup();
    classes.len()
}

#[test]
fn value_fingerprints_match_the_debug_oracle_classes() {
    let mut corpus = generated_values();
    let generated = corpus.len();
    // Every generated value twice, the second a deep copy: equal values
    // must hash equal without sharing their `Arc`s.
    let copies: Vec<Option<Value>> = corpus[1..generated]
        .iter()
        .map(|v| v.as_ref().map(deep_copy))
        .collect();
    corpus.extend(copies);
    for (_, group) in single_field_mutations() {
        corpus.extend(group.into_iter().map(Some));
    }
    corpus.extend(hand_built().into_iter().map(Some));
    let kinds: std::collections::BTreeSet<&str> =
        corpus.iter().flatten().map(Value::type_name).collect();
    assert_eq!(kinds.len(), 10, "all ten variants present: {kinds:?}");
    let classes = assert_same_classes(&corpus);
    assert!(
        classes > 100,
        "corpus too uniform: {classes} classes over {} values",
        corpus.len()
    );
}

#[test]
fn nan_fill_payloads_are_the_one_strictly_finer_case() {
    let wire: Vec<f64> = (0..300).map(|i| f64::from(i % 7)).collect();
    let [quiet, payload] = [f64::NAN, payload_nan()].map(|fill| {
        Some(encoded(
            encoding(Codec::Zlib, false, ByteOrder::Little, Some(fill)),
            &wire,
            300,
        ))
    });
    assert!(strictly_finer(&quiet, &payload));
    assert_eq!(debug_hash(&quiet), debug_hash(&payload));
    assert_ne!(quiet.fingerprint(), payload.fingerprint());
}

/// A structurally equal copy that shares no buffers with `v`.
fn deep_copy(v: &Value) -> Value {
    match v {
        Value::Array(a) => Value::Array(ArrayVal::with_logical(a.data().to_vec(), a.logical_len())),
        Value::BoolArray(m) => Value::BoolArray(BoolArrayVal::with_logical(
            m.data().to_vec(),
            m.logical_len(),
        )),
        other => other.clone(),
    }
}

#[test]
fn every_single_field_mutation_moves_the_fingerprint() {
    for (variant, group) in single_field_mutations() {
        let base = group[0].fingerprint();
        for (k, mutated) in group.iter().enumerate().skip(1) {
            assert_ne!(
                mutated.fingerprint(),
                base,
                "{variant} mutation {k} kept the fingerprint: {mutated:?}"
            );
        }
        assert_eq!(group[0].fingerprint(), group[0].clone().fingerprint());
    }
    // Type tags: the same payload under another variant differs too.
    assert_ne!(
        Value::Num(1.0).fingerprint(),
        Value::Array(ArrayVal::new(vec![1.0])).fingerprint()
    );
    assert_ne!(
        Value::Array(ArrayVal::new(vec![])).fingerprint(),
        Value::BoolArray(BoolArrayVal::new(vec![])).fingerprint()
    );
}

/// The retired `values_fingerprint`: each variable's name, then the
/// `Debug` rendering of its final value, in first-assignment order.
fn debug_answer_hash(program: &alang::Program, interp: &Interpreter<'_>) -> u64 {
    let mut text = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for line in program.lines() {
        if !seen.contains(&line.target.as_str()) {
            seen.push(&line.target);
        }
    }
    for target in seen {
        text.push_str(target);
        text.push_str(&format!("{:?}", interp.var(target)));
    }
    fnv1a(text.as_bytes())
}

#[test]
fn run_fingerprints_match_the_debug_oracle_classes() {
    let st = gen_storage();
    let mut old = Vec::new();
    let mut new = Vec::new();
    let mut sources = Vec::new();
    for src in generated_sources() {
        let program = parse(&src).expect("parse");
        let mut interp = Interpreter::new(&st);
        if interp.run(&program, &[]).is_err() {
            continue;
        }
        let lowered = alang::lower::lower_with(&program, &[]).expect("lowers");
        let placements = vec![EngineKind::Host; program.len()];
        let mut sys = SystemConfig::paper_default().build();
        let report = execute(
            &program,
            &lowered,
            &st,
            &placements,
            None,
            None,
            &mut sys,
            &ExecOptions::activepy(),
        )
        .expect("host run");
        old.push(debug_answer_hash(&program, &interp));
        new.push(report.values_fingerprint);
        sources.push(src);
    }
    assert!(
        sources.len() >= GENERATED_PROGRAMS / 8,
        "too few clean runs: {}",
        sources.len()
    );
    for i in 0..sources.len() {
        for j in i + 1..sources.len() {
            assert_eq!(
                old[i] == old[j],
                new[i] == new[j],
                "answer classes diverge between\n{}\nand\n{}",
                sources[i],
                sources[j]
            );
        }
    }
}

/// A small planned program, for the plan-fingerprint mutations.
fn small_plan() -> activepy::OffloadPlan {
    let input = |scale: f64| {
        let logical = (scale * 1e9).round().max(100.0) as u64;
        let actual = (((logical / 100_000).clamp(100, 8000) / 100) * 100) as usize;
        let data: Vec<f64> = (0..actual).map(|i| (i % 100) as f64).collect();
        let mut st = Storage::new();
        st.insert("v", Value::Array(ArrayVal::with_logical(data, logical)));
        st
    };
    let program = parse("a = scan('v')\nb = a * 2\ns = sum(b)\n").expect("parse");
    let plan = PlanCache::new()
        .plan_for(
            &ActivePy::new(),
            "fp",
            &program,
            &input,
            &SystemConfig::paper_default(),
        )
        .expect("plan");
    (*plan).clone()
}

#[test]
fn plan_fingerprint_covers_every_planning_decision() {
    let plan = small_plan();
    let base = plan_fingerprint(&plan);
    assert_eq!(base, plan_fingerprint(&plan.clone()));
    type Mutation = (&'static str, fn(&mut activepy::OffloadPlan));
    let covered: [Mutation; 13] = [
        ("predictions.len", |p| {
            p.predictions.pop();
        }),
        ("predictions.line", |p| p.predictions[0].line += 7),
        ("predictions.cost", |p| p.predictions[0].cost.calls += 1),
        ("predictions.compute_curve", |p| {
            p.predictions[0].compute_curve.coefficient += 1.0;
        }),
        ("predictions.out_curve", |p| {
            p.predictions[0].out_curve.residual += 1.0;
        }),
        ("calibration", |p| p.calibration.cse_slowdown *= 2.0),
        ("copy_elim", |p| p.copy_elim[0] = !p.copy_elim[0]),
        ("estimates.ct_host", |p| p.estimates[0].ct_host += 1.0),
        ("estimates.d_out", |p| p.estimates[0].d_out += 1),
        ("assignment.csd_lines", |p| {
            let line = p.program.len() + 1;
            p.assignment.csd_lines.insert(line);
        }),
        ("assignment.t_host", |p| p.assignment.t_host += 1.0),
        ("assignment.t_csd", |p| p.assignment.t_csd += 1.0),
        ("sampling.dataset_types", |p| {
            p.sampling
                .dataset_types
                .insert("extra".into(), alang::copyelim::StaticType::Unknown);
        }),
    ];
    for (field, mutate) in covered {
        let mut p = plan.clone();
        mutate(&mut p);
        assert_ne!(plan_fingerprint(&p), base, "`{field}` is not covered");
    }
    let excluded: [Mutation; 4] = [
        ("sampling_secs", |p| p.sampling_secs += 1.0),
        ("compile_secs", |p| p.compile_secs += 1.0),
        ("timings", |p| p.timings.fit_nanos += 1),
        ("eq1", |p| {
            p.eq1.clear();
        }),
    ];
    for (field, mutate) in excluded {
        let mut p = plan.clone();
        mutate(&mut p);
        assert_eq!(plan_fingerprint(&p), base, "`{field}` must stay excluded");
    }
}
