//! The sampling phase (§III-A).
//!
//! ActivePy "starts by heuristically selecting data from raw inputs to
//! create sample inputs of different sizes" at four scaling factors — tiny
//! 2⁻¹⁰, small 2⁻⁹, medium 2⁻⁸, large 2⁻⁷ — runs the program on each, and
//! records per line the execution time, input size, and output size,
//! separating data-access time from computation.
//!
//! Here the [`InputSource`] trait abstracts "the raw input": workload
//! generators materialize storage at any requested scale, and the sampler
//! runs the interpreted program on each sample, collecting
//! [`alang::LineCost`] records and the dataset types that later enable
//! copy elimination.

use crate::error::{ActivePyError, Result};
use alang::builtins::Storage;
use alang::copyelim::{DatasetTypes, StaticType};
use alang::{ExecBackend, LineCost, Program, Value, Vm};
use isp_obs::{SpanKind, Tracer};
use serde::{Deserialize, Serialize};

/// A provider of program inputs at arbitrary scale.
///
/// `scale = 1.0` is the full (paper-scale) input; the sampler requests the
/// paper's four sub-unity factors. Implementations must keep logical sizes
/// proportional to `scale` so extrapolation is meaningful.
pub trait InputSource {
    /// Materializes the named datasets at the given scale.
    fn storage_at(&self, scale: f64) -> Storage;

    /// Combined fingerprint of the wire-format encodings this source
    /// declares for its datasets, `0` when everything is served as plain
    /// in-memory values.
    ///
    /// Folded into plan-cache keys so plans for differently-encoded
    /// inputs never collide — and answerable *without* materializing
    /// storage, preserving the zero-datagen warm-start path.
    fn wire_fingerprint(&self) -> u64 {
        0
    }
}

impl<F: Fn(f64) -> Storage> InputSource for F {
    fn storage_at(&self, scale: f64) -> Storage {
        self(scale)
    }
}

/// The paper's four sampling scale factors.
#[must_use]
pub fn paper_scales() -> Vec<f64> {
    vec![
        2f64.powi(-10), // tiny
        2f64.powi(-9),  // small
        2f64.powi(-8),  // medium
        2f64.powi(-7),  // large
    ]
}

/// One sample run's measurement for one line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplePoint {
    /// The scale factor of the sample input.
    pub scale: f64,
    /// The measured per-line cost at that scale.
    pub cost: LineCost,
}

/// All sample measurements for one line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineSamples {
    /// The line index.
    pub line: usize,
    /// One point per sampling scale, in increasing scale order.
    pub points: Vec<SamplePoint>,
}

/// The outcome of the sampling phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingReport {
    /// Per-line measurements.
    pub lines: Vec<LineSamples>,
    /// Dataset types observed in the samples (feeds copy elimination).
    pub dataset_types: DatasetTypes,
    /// Total cost of all sample runs combined (the overhead ActivePy pays;
    /// the paper reports ≈0.1 s / ≈1 %).
    pub total_sampling_cost: LineCost,
}

/// Runs the sampling phase: lowers `program` once and executes it on the
/// [`Vm`] once per scale factor, collecting per-line statistics and
/// recording one `sampling.scale` span per sample run into `tracer`. The
/// tracer is observation-only: reports are identical with it enabled or
/// disabled.
///
/// # Errors
///
/// Returns an error if `scales` is empty, lowering fails, or any sample
/// run fails.
pub fn run_sampling(
    program: &Program,
    input: &dyn InputSource,
    scales: &[f64],
    tracer: &Tracer,
) -> Result<SamplingReport> {
    if scales.is_empty() {
        return Err(ActivePyError::sampling("no sampling scales provided"));
    }
    let lowered = alang::lower::lower(program)?;
    let mut lines: Vec<LineSamples> = (0..program.len())
        .map(|line| LineSamples {
            line,
            points: Vec::with_capacity(scales.len()),
        })
        .collect();
    let mut total = LineCost::zero();
    let mut dataset_types = DatasetTypes::new();
    for &scale in scales {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(ActivePyError::sampling(format!(
                "scale factor {scale} outside (0, 1]"
            )));
        }
        let span = tracer.begin_with(
            "sampling.scale",
            SpanKind::Phase,
            None,
            vec![("scale".into(), scale.into())],
        );
        let storage = input.storage_at(scale);
        dataset_types.extend(observe_dataset_types(&storage));
        // Sample runs execute the unoptimized program — the original code,
        // before any code generation — with copy elimination disabled.
        let records = Vm::new(&lowered, &storage).run()?;
        tracer.end(span, None);
        for rec in records {
            total += rec.cost;
            lines[rec.index].points.push(SamplePoint {
                scale,
                cost: rec.cost,
            });
        }
    }
    Ok(SamplingReport {
        lines,
        dataset_types,
        total_sampling_cost: total,
    })
}

/// [`run_sampling`] with tracing disabled; the backend is ignored.
#[doc(hidden)] // Kept only for perfbench/'s call signature; the next benchmark change deletes it.
pub fn run_sampling_with(
    program: &Program,
    input: &dyn InputSource,
    scales: &[f64],
    _backend: ExecBackend,
) -> Result<SamplingReport> {
    run_sampling(program, input, scales, &Tracer::disabled())
}

/// Observes the static types of every dataset in `storage` — what a
/// sampling run learns about stored data, and what the copy-elimination
/// pass needs as seeds.
#[must_use]
pub fn observe_dataset_types(storage: &Storage) -> DatasetTypes {
    storage
        .names()
        .filter_map(|name| {
            storage
                .get(name)
                .ok()
                .map(|v| (name.to_owned(), observe_type(v)))
        })
        .collect()
}

/// Maps a runtime value to its static type (what sampling "observes").
fn observe_type(v: &Value) -> StaticType {
    match v {
        Value::Num(_) => StaticType::Num,
        Value::Bool(_) => StaticType::Bool,
        Value::Str(_) => StaticType::Str,
        Value::Array(_) => StaticType::Array,
        Value::BoolArray(_) => StaticType::BoolArray,
        Value::Table(_) => StaticType::Table,
        Value::Matrix(_) => StaticType::Matrix,
        Value::Csr(_) => StaticType::Csr,
        Value::Forest(_) => StaticType::Forest,
        Value::Encoded(_) => StaticType::Encoded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::parser::parse;
    use alang::value::ArrayVal;

    /// A linear synthetic input: `n = scale * 1e6` logical elements,
    /// materialized at `n / 1000`.
    fn linear_input() -> impl InputSource {
        |scale: f64| {
            let logical = (scale * 1e6).round().max(4.0) as u64;
            let actual = (logical / 100).clamp(4, 4096) as usize;
            let data: Vec<f64> = (0..actual).map(|i| i as f64).collect();
            let mut st = Storage::new();
            st.insert("v", Value::Array(ArrayVal::with_logical(data, logical)));
            st
        }
    }

    fn sample(program: &Program, scales: &[f64]) -> Result<SamplingReport> {
        run_sampling(program, &linear_input(), scales, &Tracer::disabled())
    }

    #[test]
    fn paper_scales_are_the_four_powers() {
        let s = paper_scales();
        assert_eq!(s.len(), 4);
        assert!((s[0] - 1.0 / 1024.0).abs() < 1e-12);
        assert!((s[3] - 1.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_collects_one_point_per_scale_per_line() {
        let program = parse("a = scan('v')\nb = a * 2\ns = sum(b)\n").expect("parse");
        let rep = sample(&program, &paper_scales()).expect("sampling");
        assert_eq!(rep.lines.len(), 3);
        for ls in &rep.lines {
            assert_eq!(ls.points.len(), 4);
        }
        // Larger scale => more storage bytes on the scan line.
        let scan = &rep.lines[0].points;
        assert!(scan[3].cost.storage_bytes > scan[0].cost.storage_bytes);
    }

    #[test]
    fn sampling_observes_dataset_types() {
        let program = parse("a = scan('v')\n").expect("parse");
        let rep = sample(&program, &[0.01]).expect("sampling");
        assert_eq!(rep.dataset_types.get("v"), Some(&StaticType::Array));
    }

    #[test]
    fn sampling_cost_is_small_relative_to_full_run() {
        let program = parse("a = scan('v')\ns = sum(a)\n").expect("parse");
        let rep = sample(&program, &paper_scales()).expect("sampling");
        // Full-scale run for comparison.
        let storage = linear_input().storage_at(1.0);
        let lowered = alang::lower::lower(&program).expect("lower");
        let full: LineCost = Vm::new(&lowered, &storage)
            .run()
            .expect("run")
            .iter()
            .map(|r| r.cost)
            .sum();
        // Four samples at <= 2^-7 each: total sampling compute should be a
        // few percent of the real run.
        assert!((rep.total_sampling_cost.compute_ops as f64) < 0.05 * full.compute_ops as f64);
    }

    #[test]
    fn empty_scales_rejected() {
        let program = parse("a = 1\n").expect("parse");
        assert!(sample(&program, &[]).is_err());
    }

    #[test]
    fn out_of_range_scale_rejected() {
        let program = parse("a = 1\n").expect("parse");
        assert!(sample(&program, &[1.5]).is_err());
        assert!(sample(&program, &[0.0]).is_err());
    }
}
