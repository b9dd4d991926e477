//! Trace-layer invariants across the full pipeline:
//!
//! 1. **Byte-determinism** — two same-seed traced runs produce
//!    byte-identical journals once wall-clock fields are masked, on both
//!    export backends (JSONL and Chrome `trace_event`).
//! 2. **Observation-only** — enabling tracing perturbs nothing: the
//!    outcome of a traced run equals the untraced run's, field for field,
//!    including `values_fingerprint` and every metrics counter.
//! 3. **Coverage** — a traced contended pipeline records spans for all
//!    six phases (sampling, fit, profit, assign, compile, execute) and a
//!    `migration.decision` instant carrying a `reason` attribute.
//! 4. **Well-formedness** (property-tested under varying contention) —
//!    every span's duration is non-negative on both clocks, children
//!    complete before their parents, and a child's simulated interval
//!    nests inside its parent's.
//! 5. **Golden Chrome export** — the masked Chrome trace of a pinned run
//!    is byte-identical to the committed golden file
//!    (`tests/golden/trace_chrome.json`); regenerate with
//!    `REGEN_TRACE_GOLDEN=1 cargo test --test trace_determinism`.

use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::sampling::InputSource;
use alang::builtins::Storage;
use alang::parser::parse;
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_obs::{export, parse_journal, MemorySink, Tracer};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The runtime facade's reference workload: a filter-reduce over an 8 GB
/// logical array whose materialized length keeps selectivity exactly 0.5
/// at every sampling scale.
fn input() -> impl InputSource {
    |scale: f64| {
        let logical = (scale * 1e9).round().max(100.0) as u64;
        let actual = (((logical / 100_000).clamp(100, 8000) / 100) * 100) as usize;
        let data: Vec<f64> = (0..actual).map(|i| (i % 100) as f64).collect();
        let mut st = Storage::new();
        st.insert("v", Value::Array(ArrayVal::with_logical(data, logical)));
        st
    }
}

const SRC: &str = "\
a = scan('v')
m = a < 50
b = select(a, m)
s = sum(b)
";

/// Runs the full pipeline under heavy mid-run contention (which forces a
/// migration) with a fresh memory tracer; returns the sink and outcome.
fn traced_run() -> (Arc<MemorySink>, activepy::runtime::ActivePyOutcome) {
    let (tracer, sink) = Tracer::to_memory();
    let program = parse(SRC).expect("parse");
    let config = SystemConfig::paper_default();
    let outcome = ActivePy::with_options(ActivePyOptions::default().with_tracer(tracer.clone()))
        .run(
            &program,
            &input(),
            &config,
            ContentionScenario::after_progress(0.5, 0.1),
        )
        .expect("traced pipeline");
    (sink, outcome)
}

#[test]
fn masked_journals_are_byte_identical_across_same_seed_runs() {
    let (a, _) = traced_run();
    let (b, _) = traced_run();
    let jsonl_a = export::jsonl(&a.events(), None, true);
    let jsonl_b = export::jsonl(&b.events(), None, true);
    assert_eq!(jsonl_a, jsonl_b, "masked JSONL journals diverged");
    let chrome_a = export::chrome_trace(&a.events(), None, true);
    let chrome_b = export::chrome_trace(&b.events(), None, true);
    assert_eq!(chrome_a, chrome_b, "masked Chrome traces diverged");
    // Unmasked journals carry real wall timestamps, so the masking is
    // doing actual work: the spans exist and are non-empty.
    assert!(!a.events().is_empty());
}

#[test]
fn tracing_is_observation_only() {
    let (_, traced) = traced_run();
    let program = parse(SRC).expect("parse");
    let config = SystemConfig::paper_default();
    let untraced = ActivePy::new()
        .run(
            &program,
            &input(),
            &config,
            ContentionScenario::after_progress(0.5, 0.1),
        )
        .expect("untraced pipeline");
    // Full-outcome equality: report (fingerprint, line costs, metrics),
    // assignment, estimates, predictions, sampling — nothing may move.
    assert_eq!(traced, untraced);
}

#[test]
fn traced_pipeline_covers_all_phases_and_the_migration() {
    let (sink, outcome) = traced_run();
    assert!(
        outcome.report.migration.is_some(),
        "the 10% contention scenario must force a migration"
    );
    let journal =
        parse_journal(&export::jsonl(&sink.events(), None, true)).expect("journal parses");
    let span_names: Vec<&str> = journal.spans.iter().map(|s| s.name.as_str()).collect();
    for phase in [
        "phase.sampling",
        "phase.fit",
        "phase.profit",
        "phase.assign",
        "phase.compile",
        "phase.execute",
        "sampling.scale",
        "exec.region",
        "exec.chunk",
    ] {
        assert!(
            span_names.contains(&phase),
            "missing span {phase} in {span_names:?}"
        );
    }
    let migration = journal
        .instants
        .iter()
        .find(|i| i.name == "migration.decision")
        .expect("migration.decision instant");
    let reason = migration
        .attrs
        .iter()
        .find(|(k, _)| k == "reason")
        .and_then(|(_, v)| v.as_str().map(str::to_string))
        .expect("reason attribute");
    assert_eq!(reason, "degraded");
    assert!(
        journal.instants.iter().any(|i| i.name == "monitor.window"),
        "monitor windows must be journaled"
    );
    assert!(
        journal
            .instants
            .iter()
            .any(|i| i.name == "assign.candidate"),
        "assignment rounds must be journaled"
    );
}

#[test]
fn chrome_export_matches_the_committed_golden() {
    let (sink, _) = traced_run();
    let rendered = export::chrome_trace(&sink.events(), None, true);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_chrome.json"
    );
    if std::env::var_os("REGEN_TRACE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("golden is writable");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        rendered, golden,
        "Chrome export drifted from tests/golden/trace_chrome.json; \
         regenerate with REGEN_TRACE_GOLDEN=1 if intentional"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Spans are well-formed under varying contention: non-negative durations on both clocks,
    /// children complete before their parents, and simulated intervals
    /// nest.
    #[test]
    fn spans_are_well_formed(
        fraction in prop_oneof![Just(0.1f64), Just(0.5f64), Just(1.0f64)],
    ) {
        let (tracer, sink) = Tracer::to_memory();
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let scenario = if fraction >= 1.0 {
            ContentionScenario::none()
        } else {
            ContentionScenario::after_progress(0.5, fraction)
        };
        ActivePy::with_options(ActivePyOptions::default().with_tracer(tracer.clone()))
        .run(&program, &input(), &config, scenario)
        .expect("pipeline");
        let journal = parse_journal(&export::jsonl(&sink.events(), None, false))
            .expect("journal parses");
        prop_assert!(!journal.spans.is_empty());
        let by_id: BTreeMap<u64, &isp_obs::journal::JournalSpan> =
            journal.spans.iter().map(|s| (s.id, s)).collect();
        for s in &journal.spans {
            if let Some(d) = s.sim_dur_secs {
                prop_assert!(d >= 0.0, "span {} negative sim duration {d}", s.name);
            }
            let Some(parent) = by_id.get(&s.parent) else { continue };
            prop_assert!(
                s.seq < parent.seq,
                "child {} (seq {}) must complete before parent {} (seq {})",
                s.name, s.seq, parent.name, parent.seq
            );
            if let (Some(cs), Some(cd), Some(ps), Some(pd)) =
                (s.sim_secs, s.sim_dur_secs, parent.sim_secs, parent.sim_dur_secs)
            {
                prop_assert!(
                    cs >= ps - 1e-9 && cs + cd <= ps + pd + 1e-9,
                    "child {} [{cs}, {}] escapes parent {} [{ps}, {}]",
                    s.name, cs + cd, parent.name, ps + pd
                );
            }
        }
        for i in &journal.instants {
            if let Some(parent) = by_id.get(&i.parent) {
                prop_assert!(i.seq < parent.seq);
            }
        }
    }
}
