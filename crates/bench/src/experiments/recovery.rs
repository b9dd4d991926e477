//! Recovery benchmark: what crash consistency costs and what warm-start
//! persistence buys.
//!
//! Three measurements, all on a fixed faulted workload with real kernel
//! work (200k-element physical arrays, so wall-clock is dominated by
//! compute, not dispatch):
//!
//! 1. **Journal append overhead** — the same run with the execution WAL
//!    attached vs disabled, min-of-rounds. The journal writes one framed
//!    record per execution boundary (host line, region chunk, migration,
//!    reclaim); the target is < 3 % wall-clock overhead.
//! 2. **Resume latency** — a run resumed from a journal cut at 50 % of
//!    its bytes vs the uninterrupted journaled run. Resume re-executes
//!    deterministically and *verifies* the surviving prefix, so it costs
//!    about one run plus replay bookkeeping — the point is that it is
//!    flat (ratio ≈ 1), not proportional to how much had completed.
//! 3. **Warm-start planning** — cold `PlanCache::plan_for` (sampling +
//!    materialization + fit/assign/compile) vs a warm start from a
//!    persisted seed (fit/assign/compile only, zero datagen calls).
//!
//! The same workload backs `repro --journal/--resume`, so the CI
//! kill-resume smoke test and this benchmark exercise one code path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use activepy::exec::{execute, ExecOptions, RunReport};
use activepy::runtime::ActivePy;
use activepy::{ExecJournal, PlanCache};
use alang::builtins::Storage;
use alang::parser::parse;
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::fault::FaultPlan;
use csd_sim::{EngineKind, SystemConfig};
use isp_obs::wal::read_wal;
use serde::Serialize;

/// Fixed seed for the injected transients: same seed, same journal, same
/// BENCH_repro.json.
pub const RECOVERY_SEED: u64 = 0x0E57_0E57;

/// The journaled workload: a mixed pipeline with device-resident scans
/// (region chunk records), host lines (host-line records), and enough
/// arithmetic that kernel work dominates the wall-clock.
const SRC: &str = "a = scan('v')\n\
                   b = (a * 2) + 1\n\
                   c = sum((b * b))\n\
                   d = scan('w')\n\
                   e = abs(d - mean(d))\n\
                   f = sum(e) + c\n\
                   g = (f / 2) + 1\n\
                   h = g * 3\n";

/// Placements: the array pipeline on the CSD, the scalar tail on the
/// host.
const PLACEMENTS: [EngineKind; 8] = [
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Host,
    EngineKind::Host,
    EngineKind::Host,
];

fn storage() -> Storage {
    let mut st = Storage::new();
    st.insert(
        "v",
        Value::Array(ArrayVal::with_logical(
            (0..200_000).map(|i| f64::from(i % 100)).collect(),
            1_000_000_000,
        )),
    );
    st.insert(
        "w",
        Value::Array(ArrayVal::with_logical(
            (0..200_000).map(|i| f64::from(i % 97) - 48.0).collect(),
            500_000_000,
        )),
    );
    st
}

fn faults() -> FaultPlan {
    FaultPlan::none()
        .with_seed(RECOVERY_SEED)
        .with_flash_read_error_prob(0.05)
        .with_nvme_error_prob(0.05)
        .with_dma_error_prob(0.05)
}

/// One journaled (or journal-disabled) execution of the recovery
/// workload. Shared with `repro --journal/--resume`.
///
/// # Panics
///
/// Panics if the fixed workload fails to execute — it cannot, short of a
/// runtime bug.
#[must_use]
pub fn run_once(journal: ExecJournal) -> RunReport {
    let program = parse(SRC).expect("recovery workload parses");
    let st = storage();
    let mut system = SystemConfig::paper_default().build();
    let opts = ExecOptions::activepy()
        .with_faults(faults())
        .with_journal(journal);
    let lowered = alang::lower::lower(&program).expect("recovery workload lowers");
    execute(
        &program,
        &lowered,
        &st,
        &PLACEMENTS,
        None,
        None,
        &mut system,
        &opts,
    )
    .expect("recovery workload executes")
}

/// The `recovery` section of BENCH_repro.json.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Wall-clock of the run with the journal disabled (min of rounds).
    pub baseline_secs: f64,
    /// Wall-clock of the same run journaling to disk (min of rounds).
    pub journaled_secs: f64,
    /// Journal overhead in percent (target: < 3).
    pub journal_overhead_pct: f64,
    /// Records the uninterrupted journal holds.
    pub journal_records: usize,
    /// Bytes of the uninterrupted journal file.
    pub journal_bytes: u64,
    /// Wall-clock of the uninterrupted journaled run.
    pub cold_run_secs: f64,
    /// Wall-clock of a run resumed from a 50 %-cut journal (replay
    /// verification + append of the missing suffix).
    pub resume_secs: f64,
    /// `resume_secs / cold_run_secs` — flat resume means ≈ 1.
    pub resume_ratio: f64,
    /// Resumed and uninterrupted fingerprints agree. Must be `true`.
    pub resume_fingerprint_match: bool,
    /// Cold planning latency: sampling + materialize + fit/assign/compile.
    pub cold_plan_secs: f64,
    /// Warm planning latency from a persisted seed (min of rounds).
    pub warm_plan_secs: f64,
    /// `cold_plan_secs / warm_plan_secs`.
    pub warm_speedup: f64,
    /// Datagen calls the warm path made. Must be `0`.
    pub warm_datagen_calls: u64,
    /// Warm and cold plan fingerprints agree. Must be `true`.
    pub warm_plan_match: bool,
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("activepy_bench_{}_{tag}", std::process::id()))
}

/// Scale-aware input for the warm-start measurement (the plan-cache test
/// family's shape: logical sizes track the scale, physical stays small).
fn plan_input(scale: f64) -> Storage {
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

/// Runs all three measurements.
///
/// # Panics
///
/// Panics on temp-file I/O failure or if the fixed workload fails.
#[must_use]
pub fn run() -> Report {
    const ROUNDS: usize = 5;

    // 1. Append overhead: disabled vs journaled, min of rounds.
    let mut baseline_secs = f64::INFINITY;
    let mut journaled_secs = f64::INFINITY;
    let wal = temp("overhead.wal");
    for _ in 0..ROUNDS {
        let t = Instant::now();
        std::hint::black_box(run_once(ExecJournal::disabled()));
        baseline_secs = baseline_secs.min(t.elapsed().as_secs_f64());

        let journal = ExecJournal::record_to(&wal).expect("create journal");
        let t = Instant::now();
        std::hint::black_box(run_once(journal));
        journaled_secs = journaled_secs.min(t.elapsed().as_secs_f64());
    }
    let journal_overhead_pct = (journaled_secs / baseline_secs - 1.0) * 100.0;

    // 2. Resume latency: cut the journal at 50 % of its bytes, resume,
    // and compare against the uninterrupted journaled run.
    let journal = ExecJournal::record_to(&wal).expect("create journal");
    let t = Instant::now();
    let full = run_once(journal);
    let cold_run_secs = t.elapsed().as_secs_f64();
    let bytes = std::fs::read(&wal).expect("journal readable");
    let journal_bytes = bytes.len() as u64;
    let journal_records = read_wal(&wal).expect("journal parses").records.len();
    std::fs::write(&wal, &bytes[..bytes.len() / 2]).expect("cut journal");
    let (journal, _) = ExecJournal::resume_from(&wal).expect("resume");
    let t = Instant::now();
    let resumed = run_once(journal);
    let resume_secs = t.elapsed().as_secs_f64();
    std::fs::remove_file(&wal).ok();

    // 3. Warm-start planning.
    let program = parse("a = scan('v')\nb = scan('w')\nc = sum((a * 2))\nd = (c + mean(b))\n")
        .expect("plan workload parses");
    let config = SystemConfig::paper_default();
    let rt = ActivePy::new();
    let cold_cache = PlanCache::new();
    let t = Instant::now();
    let cold_plan = cold_cache
        .plan_for(&rt, "recovery", &program, &plan_input, &config)
        .expect("cold plan");
    let cold_plan_secs = t.elapsed().as_secs_f64();
    let warm_file = temp("warm.bin");
    cold_cache.save_warm(&warm_file).expect("save warm file");

    let warm_datagen_calls = AtomicU64::new(0);
    let counting = |scale: f64| {
        warm_datagen_calls.fetch_add(1, Ordering::Relaxed);
        plan_input(scale)
    };
    let mut warm_plan_secs = f64::INFINITY;
    let mut warm_plan_match = true;
    for _ in 0..ROUNDS {
        // A fresh cache each round so every measurement is a true warm
        // start (a second lookup on the same cache is a plain hit).
        let warm_cache = PlanCache::new();
        warm_cache.load_warm(&warm_file).expect("load warm file");
        let t = Instant::now();
        let warm_plan = warm_cache
            .plan_for(&rt, "recovery", &program, &counting, &config)
            .expect("warm plan");
        warm_plan_secs = warm_plan_secs.min(t.elapsed().as_secs_f64());
        warm_plan_match &=
            activepy::plan_fingerprint(&cold_plan) == activepy::plan_fingerprint(&warm_plan);
    }
    std::fs::remove_file(&warm_file).ok();

    Report {
        baseline_secs,
        journaled_secs,
        journal_overhead_pct,
        journal_records,
        journal_bytes,
        cold_run_secs,
        resume_secs,
        resume_ratio: resume_secs / cold_run_secs,
        resume_fingerprint_match: resumed.values_fingerprint == full.values_fingerprint,
        cold_plan_secs,
        warm_plan_secs,
        warm_speedup: cold_plan_secs / warm_plan_secs,
        warm_datagen_calls: warm_datagen_calls.load(Ordering::Relaxed) / ROUNDS as u64,
        warm_plan_match,
    }
}

/// Prints the recovery benchmark.
pub fn print(r: &Report) {
    println!("== Recovery: journal overhead, resume, warm start ==");
    println!(
        "journal append: baseline {:.3} ms, journaled {:.3} ms ({:+.2}% overhead, target < 3%)",
        r.baseline_secs * 1e3,
        r.journaled_secs * 1e3,
        r.journal_overhead_pct
    );
    println!(
        "journal size:   {} records, {} bytes",
        r.journal_records, r.journal_bytes
    );
    println!(
        "resume:         cold {:.3} ms, resumed-from-50% {:.3} ms ({:.2}x), fingerprints match: {}",
        r.cold_run_secs * 1e3,
        r.resume_secs * 1e3,
        r.resume_ratio,
        r.resume_fingerprint_match
    );
    println!(
        "warm start:     cold plan {:.3} ms, warm plan {:.3} ms ({:.1}x), datagen calls {} (must be 0), plans match: {}",
        r.cold_plan_secs * 1e3,
        r.warm_plan_secs * 1e3,
        r.warm_speedup,
        r.warm_datagen_calls,
        r.warm_plan_match
    );
}

/// Invariant check for CI: wall-clock numbers vary, correctness must
/// not.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check(r: &Report) -> Result<(), String> {
    if !r.resume_fingerprint_match {
        return Err("resumed run diverged from the uninterrupted run".into());
    }
    if !r.warm_plan_match {
        return Err("warm-started plan diverged from the cold plan".into());
    }
    if r.warm_datagen_calls != 0 {
        return Err(format!(
            "warm start performed {} datagen calls (must be 0)",
            r.warm_datagen_calls
        ));
    }
    if r.journal_records == 0 {
        return Err("journaled run produced an empty journal".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_benchmark_holds_its_invariants() {
        let report = run();
        check(&report).expect("recovery invariants");
        // The journaled workload really exercises every record family a
        // region run can emit: chunks dominate, and the host tail lines
        // land too.
        assert!(report.journal_records > 10, "{report:?}");
        assert!(report.journal_bytes > 100, "{report:?}");
    }
}
