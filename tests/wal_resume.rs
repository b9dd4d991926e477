//! Crash-resume differential: random programs × random placements ×
//! random deterministic fault plans × a kill at a random byte offset of
//! the execution journal, across fleet sizes N ∈ {1, 4}. The invariants
//! the resume path must hold, for every draw:
//!
//! 1. **Same answer** — a run resumed from any prefix of the journal
//!    (including a torn mid-record tail) finishes with the exact
//!    `values_fingerprint` of the uninterrupted run.
//! 2. **Same history** — after the resumed run completes, the journal
//!    file holds byte-for-byte the record stream of the uninterrupted
//!    run: replay verified the surviving prefix and append wrote the
//!    missing suffix, with no duplicates and no gaps.
//! 3. **Same accounting** — migrations and the recovery layer's stats
//!    (retries, transient faults, backoff) match the uninterrupted run
//!    exactly; retries consumed before the crash are re-consumed, not
//!    double-counted.
//!
//! Plus the warm-start half of persistence: a fresh process that loads a
//! warm file re-plans with **zero** datagen calls and gets a
//! byte-identical plan.

use activepy::exec::{execute, ExecOptions, RunReport};
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{execute_sharded, ActivePyError, ExecJournal, FleetRun, PlanCache};
use alang::builtins::Storage;
use alang::parser::parse;
use alang::shard::{ShardMap, ShardStrategy};
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::fault::FaultPlan;
use csd_sim::{ContentionScenario, EngineKind, SystemConfig};
use isp_obs::wal::{read_wal, WAL_MAGIC};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
#[path = "common/faults.rs"]
mod faults;

fn storage() -> Storage {
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

/// Unique temp path per call: tests run concurrently in one process.
fn wal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("activepy_wal_{}_{tag}_{n}.wal", std::process::id()))
}

/// Simulates a kill: keeps only the first `frac` of the journal's bytes
/// (always at least the magic, so the file reads as a valid-but-short
/// WAL; offsets inside a record exercise the torn-tail rule).
fn truncate_at_fraction(path: &std::path::Path, frac: f64) -> u64 {
    let bytes = std::fs::read(path).expect("journal exists");
    let min = WAL_MAGIC.len();
    let keep = min + ((bytes.len() - min) as f64 * frac).floor() as usize;
    std::fs::write(path, &bytes[..keep]).expect("truncate journal");
    keep as u64
}

fn one_unsharded(
    src: &str,
    placements: &[EngineKind],
    faults: &FaultPlan,
    journal: ExecJournal,
) -> Result<RunReport, ActivePyError> {
    let program = parse(src).expect("generated source parses");
    let lowered = alang::lower::lower(&program).expect("generated source lowers");
    let st = storage();
    let mut system = SystemConfig::paper_default().build();
    let opts = ExecOptions::activepy()
        .with_faults(faults.clone())
        .with_journal(journal);
    execute(
        &program,
        &lowered,
        &st,
        placements,
        None,
        None,
        &mut system,
        &opts,
    )
}

/// Asserts the resumed run's observable outcome equals the
/// uninterrupted run's, field by field.
fn assert_same_outcome(
    full: &RunReport,
    resumed: &RunReport,
    src: &str,
    tag: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        full.values_fingerprint,
        resumed.values_fingerprint,
        "[{}] resume changed the answer for:\n{}",
        tag,
        src
    );
    prop_assert_eq!(
        &full.migration,
        &resumed.migration,
        "[{}] resume changed the migration outcome for:\n{}",
        tag,
        src
    );
    let a = &full.metrics.recovery;
    let b = &resumed.metrics.recovery;
    prop_assert_eq!(a.transient_faults, b.transient_faults);
    prop_assert_eq!(a.retries, b.retries, "[{}] retry accounting diverged", tag);
    prop_assert_eq!(a.recovered_ops, b.recovered_ops);
    prop_assert_eq!(a.hard_faults, b.hard_faults);
    prop_assert_eq!(a.fault_migrations, b.fault_migrations);
    prop_assert_eq!(a.backoff_secs.to_bits(), b.backoff_secs.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill-at-random-point chaos: record a journaled run, cut the
    /// journal at an arbitrary byte offset, resume, and demand the
    /// uninterrupted outcome — unsharded and as an N=4 fleet.
    #[test]
    fn resumed_runs_reach_the_uninterrupted_outcome(
        lines in common::lines(),
        on_csd in prop::collection::vec(any::<bool>(), 6..7),
        faults in faults::fault_plan(),
        kill_frac in 0.0f64..1.0,
    ) {
        let src = common::source(&lines);
        let placements: Vec<EngineKind> = (0..lines.len())
            .map(|i| if on_csd[i] { EngineKind::Cse } else { EngineKind::Host })
            .collect();

        // --- Unsharded (fleet of one device) ---
        let path = wal_path("solo");
        let journal = ExecJournal::record_to(&path).expect("create journal");
        let full = one_unsharded(&src, &placements, &faults, journal);
        let Ok(full) = full else {
            // Invalid programs (reads of undefined names) fail with
            // or without a journal; nothing to resume.
            std::fs::remove_file(&path).ok();
            return Ok(());
        };
        let reference = read_wal(&path).expect("read full journal");
        prop_assert!(!reference.torn, "uninterrupted journal must be clean");
        prop_assert!(reference.records.len() >= 2, "at least RunStart + RunEnd");

        truncate_at_fraction(&path, kill_frac);
        let (journal, info) = ExecJournal::resume_from(&path).expect("resume");
        prop_assert!(info.records <= reference.records.len());
        let resumed = one_unsharded(&src, &placements, &faults, journal)
            .expect("resumed run succeeds");
        assert_same_outcome(&full, &resumed, &src, "solo")?;

        // Invariant 2: the healed journal is the uninterrupted one.
        let healed = read_wal(&path).expect("read healed journal");
        prop_assert!(!healed.torn);
        prop_assert_eq!(
            &healed.records, &reference.records,
            "healed journal diverged from the uninterrupted record \
             stream for:\n{}", src
        );
        std::fs::remove_file(&path).ok();

        // --- N=4 fleet: shard lanes + host tail lane ---
        let program = parse(&src).expect("parses");
        let lowered = alang::lower::lower(&program).expect("lowers");
        let st = storage();
        let config = SystemConfig::paper_default();
        let map = ShardMap::auto(&st, 4, ShardStrategy::Range);
        let run = FleetRun {
            program: &program,
            storage: &st,
            map: &map,
            lowered: &lowered,
            lead_in_secs: 0.0,
        };
        let per_shard = vec![placements.clone(); 4];
        let shard_faults: Vec<FaultPlan> = (0..4)
            .map(|s| faults.clone().with_seed(97 * s as u64 + 13))
            .collect();
        let fpath = wal_path("fleet");
        let journal = ExecJournal::record_to(&fpath).expect("create fleet journal");
        let opts = ExecOptions::activepy().with_journal(journal);
        let fleet_full = execute_sharded(
            &run, &per_shard, None, &config, &opts, &shard_faults,
        ).expect("fleet runs where the unsharded run ran");
        let fleet_ref = read_wal(&fpath).expect("read fleet journal");
        prop_assert!(!fleet_ref.torn);

        truncate_at_fraction(&fpath, kill_frac);
        let (journal, _) = ExecJournal::resume_from(&fpath).expect("fleet resume");
        let opts = ExecOptions::activepy().with_journal(journal);
        let fleet_resumed = execute_sharded(
            &run, &per_shard, None, &config, &opts, &shard_faults,
        ).expect("resumed fleet run succeeds");
        prop_assert_eq!(
            fleet_full.values_fingerprint,
            fleet_resumed.values_fingerprint,
            "fleet resume changed the answer for:\n{}", src
        );
        prop_assert_eq!(
            fleet_full.recovered_transients(),
            fleet_resumed.recovered_transients(),
        );
        let healed = read_wal(&fpath).expect("read healed fleet journal");
        prop_assert!(!healed.torn);
        prop_assert_eq!(
            &healed.records, &fleet_ref.records,
            "healed fleet journal diverged for:\n{}", src
        );
        std::fs::remove_file(&fpath).ok();
    }
}

/// Satellite regression: retries consumed before the crash are
/// re-consumed against `max_retries` on resume, not double-counted. A
/// heavy transient fault plan guarantees real retry traffic, the cut at
/// 60% of the journal lands mid-stream, and the resumed accounting must
/// be bit-exact.
#[test]
fn resume_reconsumes_retries_exactly() {
    let src = "a = scan('v')\nb = sum((a * 2))\nc = mean(scan('w'))\nd = (b + c)\n";
    let placements = [
        EngineKind::Cse,
        EngineKind::Cse,
        EngineKind::Cse,
        EngineKind::Host,
    ];
    let faults = FaultPlan::none()
        .with_seed(7)
        .with_flash_read_error_prob(0.25)
        .with_nvme_error_prob(0.2)
        .with_dma_error_prob(0.2);

    let path = wal_path("retries");
    let journal = ExecJournal::record_to(&path).expect("create journal");
    let full = one_unsharded(src, &placements, &faults, journal).expect("uninterrupted run");
    assert!(
        full.metrics.recovery.retries > 0,
        "fault plan must force retries for the regression to bite"
    );

    truncate_at_fraction(&path, 0.6);
    let (journal, info) = ExecJournal::resume_from(&path).expect("resume");
    assert!(info.records > 0, "a 60% cut keeps some records");
    let resumed = one_unsharded(src, &placements, &faults, journal).expect("resumed run");

    let a = &full.metrics.recovery;
    let b = &resumed.metrics.recovery;
    assert_eq!(a.retries, b.retries, "retries double- or under-counted");
    assert_eq!(a.transient_faults, b.transient_faults);
    assert_eq!(a.recovered_ops, b.recovered_ops);
    assert_eq!(a.hard_faults, b.hard_faults);
    assert_eq!(a.fault_migrations, b.fault_migrations);
    assert_eq!(a.backoff_secs.to_bits(), b.backoff_secs.to_bits());
    assert_eq!(full.values_fingerprint, resumed.values_fingerprint);
    std::fs::remove_file(&path).ok();
}

/// A run resumed against a *different* fault plan diverges from the
/// journal and must say so, not silently produce a different history.
#[test]
fn resume_against_different_faults_is_detected() {
    let src = "a = scan('v')\nb = sum((a * 3))\nc = (b / 2)\n";
    let placements = [EngineKind::Cse, EngineKind::Cse, EngineKind::Host];
    let faults = FaultPlan::none()
        .with_seed(11)
        .with_flash_read_error_prob(0.3)
        .with_nvme_error_prob(0.3);

    let path = wal_path("divergence");
    let journal = ExecJournal::record_to(&path).expect("create journal");
    let full = one_unsharded(src, &placements, &faults, journal).expect("uninterrupted run");
    assert!(full.metrics.recovery.transient_faults > 0);

    let (journal, _) = ExecJournal::resume_from(&path).expect("resume");
    let other = faults.with_seed(12);
    let err = one_unsharded(src, &placements, &other, journal)
        .expect_err("a different fault stream cannot match the journal");
    assert!(
        err.to_string().contains("journal divergence"),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Warm-start persistence: a fresh cache that loads the warm file plans
/// with zero datagen calls and produces a byte-identical plan.
#[test]
fn warm_start_replans_identically_with_zero_datagen_calls() {
    let src = "a = scan('v')\nb = scan('w')\nc = sum((a * 2))\nd = (c + mean(b))\n";
    let program = parse(src).expect("parses");
    let config = SystemConfig::paper_default();

    fn input_at(scale: f64) -> Storage {
        let logical = (scale * 1e9).round().max(100.0) as u64;
        let actual = (((logical / 100_000).clamp(100, 8000) / 100) * 100) as usize;
        let mut st = Storage::new();
        st.insert(
            "v",
            Value::Array(ArrayVal::with_logical(
                (0..actual).map(|i| (i % 100) as f64).collect(),
                logical,
            )),
        );
        st.insert(
            "w",
            Value::Array(ArrayVal::with_logical(
                (0..actual).map(|i| (i % 97) as f64 - 48.0).collect(),
                logical / 2,
            )),
        );
        st
    }

    let path = std::env::temp_dir().join(format!("activepy_warm_{}.bin", std::process::id()));

    // Process 1: cold plan (datagen runs), then persist.
    let rt1 = ActivePy::with_options(ActivePyOptions::default());
    let cache1 = PlanCache::new();
    let cold_calls = AtomicU64::new(0);
    let counting1 = |scale: f64| {
        cold_calls.fetch_add(1, Ordering::Relaxed);
        input_at(scale)
    };
    let cold = cache1
        .plan_for(&rt1, "warm", &program, &counting1, &config)
        .expect("cold plan");
    assert!(
        cold_calls.load(Ordering::Relaxed) > 0,
        "cold planning must sample the input source"
    );
    cache1.save_warm(&path).expect("save warm file");

    // Process 2 (simulated): fresh cache, load, re-plan. The counter
    // proves the input source is never consulted.
    let rt2 = ActivePy::with_options(ActivePyOptions::default());
    let cache2 = PlanCache::new();
    let loaded = cache2.load_warm(&path).expect("load warm file");
    assert_eq!(loaded, 1, "one seed persisted");
    let warm_calls = AtomicU64::new(0);
    let counting2 = |scale: f64| {
        warm_calls.fetch_add(1, Ordering::Relaxed);
        input_at(scale)
    };
    let warm = cache2
        .plan_for(&rt2, "warm", &program, &counting2, &config)
        .expect("warm plan");
    assert_eq!(
        warm_calls.load(Ordering::Relaxed),
        0,
        "warm start must not touch the input source"
    );
    assert_eq!(cache2.warm_starts(), 1);

    // Byte-identical planning output.
    assert_eq!(
        activepy::plan_fingerprint(&cold),
        activepy::plan_fingerprint(&warm),
        "warm plan fingerprint diverged from cold"
    );
    assert_eq!(
        format!("{:?}", cold.assignment),
        format!("{:?}", warm.assignment)
    );
    assert_eq!(cold.copy_elim, warm.copy_elim);
    assert_eq!(
        format!("{:?}", cold.predictions),
        format!("{:?}", warm.predictions)
    );

    // And identical execution.
    let out_cold = rt1
        .execute_plan(&cold, &config, ContentionScenario::none())
        .expect("cold run");
    let out_warm = rt2
        .execute_plan(&warm, &config, ContentionScenario::none())
        .expect("warm run");
    assert_eq!(
        out_cold.report.values_fingerprint,
        out_warm.report.values_fingerprint
    );
    std::fs::remove_file(&path).ok();
}

/// Kill/resume chaos over a wire-format workload: the journaled decode
/// pipeline (scan_raw → decode on the CSD, under a retry-forcing fault
/// plan) resumes from cuts across the whole journal to the exact
/// uninterrupted fingerprint, and the resumed journal file is
/// byte-for-byte the uninterrupted record stream — decode chunks replay,
/// they do not re-execute differently.
#[test]
fn decode_workload_resumes_byte_exact() {
    let w = isp_workloads::by_name("LogGrep").expect("registered workload");
    let program = w.program().expect("parses");
    let lowered = alang::lower::lower(&program).expect("lowers");
    let st = w.storage_at(1.0 / 1024.0);
    // The workload's planned regime: the whole pipeline on the CSD.
    let placements = vec![EngineKind::Cse; program.len()];
    let faults = FaultPlan::none()
        .with_seed(23)
        .with_flash_read_error_prob(0.25)
        .with_nvme_error_prob(0.2)
        .with_dma_error_prob(0.15);
    let config = SystemConfig::paper_default();

    let path = wal_path("decode");
    let journal = ExecJournal::record_to(&path).expect("create journal");
    let opts = ExecOptions::activepy()
        .with_faults(faults.clone())
        .with_journal(journal);
    let mut system = config.build();
    let full = execute(
        &program,
        &lowered,
        &st,
        &placements,
        None,
        None,
        &mut system,
        &opts,
    )
    .expect("uninterrupted run");
    assert!(
        full.metrics.recovery.retries > 0,
        "fault plan must force retries through the decode pipeline"
    );
    let full_journal = std::fs::read(&path).expect("journal exists");

    for frac in [0.1, 0.5, 0.9] {
        std::fs::write(&path, &full_journal).expect("restore journal");
        truncate_at_fraction(&path, frac);
        let (journal, _) = ExecJournal::resume_from(&path).expect("resume");
        let opts = ExecOptions::activepy()
            .with_faults(faults.clone())
            .with_journal(journal);
        let mut system = config.build();
        let resumed = execute(
            &program,
            &lowered,
            &st,
            &placements,
            None,
            None,
            &mut system,
            &opts,
        )
        .expect("resumed run");
        assert_eq!(
            full.values_fingerprint, resumed.values_fingerprint,
            "resume at {frac} changed the decode answer"
        );
        assert_eq!(
            full.metrics.recovery.retries, resumed.metrics.recovery.retries,
            "retry accounting diverged at {frac}"
        );
        let resumed_journal = std::fs::read(&path).expect("journal exists");
        assert_eq!(
            full_journal, resumed_journal,
            "resumed journal bytes diverged at {frac}"
        );
    }
    std::fs::remove_file(&path).ok();
}
