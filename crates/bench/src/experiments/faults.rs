//! Fault sweep: every workload under a deterministic device-fault plan at
//! increasing per-operation error rates, measuring slowdown against the
//! fault-free run, the recovery work performed, and — the point — that no
//! injected fault ever changes the computed answer.
//!
//! Each cell injects transient flash/NVMe/DMA errors at the cell's rate, a
//! GC burst early in the run, and (at the harshest rate) a hard CSE crash
//! at 50 % of the workload's CSD progress. The runtime is expected to
//! retry the transients with sim-time backoff and to recover the crash
//! through a checkpointed migration to the host
//! ([`MigrationReason::DeviceFault`]), so every row must report
//! `values_match == true`.

use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{MigrationReason, PlanCache};
use csd_sim::fault::FaultPlan;
use csd_sim::units::{Duration, SimTime};
use csd_sim::{ContentionScenario, SystemConfig};
use serde::Serialize;

/// Fixed seed for every fault plan in the sweep: same seed, same faults,
/// same BENCH_repro.json.
pub const FAULT_SEED: u64 = 0xC5D_FA17;

/// Per-operation error rates swept, mildest first. The last (harshest)
/// rate additionally schedules a hard CSE crash.
pub const FAULT_RATES: [f64; 3] = [0.01, 0.05, 0.2];

/// Residual availability during the injected GC burst.
const GC_RESIDUAL: f64 = 0.25;

/// One workload under one fault rate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Per-operation transient error probability (flash, NVMe, and DMA).
    pub fault_rate: f64,
    /// Whether this cell also injected a hard CSE crash.
    pub crash_injected: bool,
    /// Fault-free run, seconds.
    pub uncontended_secs: f64,
    /// Faulted run, seconds.
    pub faulted_secs: f64,
    /// Slowdown of the faulted run over the fault-free run.
    pub slowdown: f64,
    /// Transient faults absorbed by the recovery layer.
    pub transient_faults: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Operations that succeeded after at least one retry.
    pub recovered_ops: u64,
    /// Hard faults (crashes observed plus retry exhaustions).
    pub hard_faults: u64,
    /// Migrations caused by device faults.
    pub fault_migrations: u64,
    /// Whether the faulted run fell back to the host via
    /// [`MigrationReason::DeviceFault`].
    pub fault_migrated: bool,
    /// Whether the faulted run produced a byte-identical answer
    /// (values fingerprints equal). Must always be `true`.
    pub values_match: bool,
}

/// The fault plan for one cell: transients at `rate` on every device
/// surface, one GC burst at 25 % of the fault-free runtime, and a crash at
/// `crash_at` when given.
fn cell_plan(rate: f64, uncontended_secs: f64, crash_at: Option<f64>) -> FaultPlan {
    let mut plan = FaultPlan::none()
        .with_seed(FAULT_SEED)
        .with_flash_read_error_prob(rate)
        .with_nvme_error_prob(rate)
        .with_dma_error_prob(rate)
        .with_gc_burst(
            SimTime::from_secs(uncontended_secs * 0.25),
            Duration::from_secs(uncontended_secs * 0.1),
            GC_RESIDUAL,
        );
    if let Some(at) = crash_at {
        plan = plan.with_crash_at(SimTime::from_secs(at));
    }
    plan
}

/// Runs every fault rate for one workload, hoisting the plan and the
/// fault-free reference out of the per-rate loop.
fn run_workload(w: &isp_workloads::Workload, config: &SystemConfig, cache: &PlanCache) -> Vec<Row> {
    let program = w.program().expect("registered workloads parse");
    let rt = ActivePy::new();
    let plan = cache
        .plan_for(&rt, w.name(), &program, w, config)
        .expect("planning succeeds");
    let reference = rt
        .execute_plan(&plan, config, ContentionScenario::none())
        .expect("fault-free reference");
    let t_half = reference
        .report
        .time_at_csd_progress(0.5)
        .unwrap_or(reference.report.total_secs * 0.5);
    let harshest = FAULT_RATES[FAULT_RATES.len() - 1];
    FAULT_RATES
        .iter()
        .map(|&rate| {
            let crash = (rate == harshest).then_some(t_half);
            let faults = cell_plan(rate, reference.report.total_secs, crash);
            let faulted_rt = ActivePy::with_options(ActivePyOptions::default().with_faults(faults));
            // Recovery/faults are execution-only, so the cached plan is
            // shared across every rate.
            let faulted = faulted_rt
                .execute_plan(&plan, config, ContentionScenario::none())
                .expect("faulted run");
            let recovery = faulted.report.metrics.recovery;
            Row {
                name: w.name().to_owned(),
                fault_rate: rate,
                crash_injected: crash.is_some(),
                uncontended_secs: reference.report.total_secs,
                faulted_secs: faulted.report.total_secs,
                slowdown: faulted.report.total_secs / reference.report.total_secs,
                transient_faults: recovery.transient_faults,
                retries: recovery.retries,
                recovered_ops: recovery.recovered_ops,
                hard_faults: recovery.hard_faults,
                fault_migrations: recovery.fault_migrations,
                fault_migrated: faulted
                    .report
                    .migration
                    .is_some_and(|m| m.reason == MigrationReason::DeviceFault),
                values_match: faulted.report.values_fingerprint
                    == reference.report.values_fingerprint,
            }
        })
        .collect()
}

/// Runs the full fault sweep (every workload × [`FAULT_RATES`]) with a
/// private plan cache.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run(config: &SystemConfig) -> Vec<Row> {
    run_with(config, &PlanCache::new())
}

/// [`run`] against a shared [`PlanCache`], so a full repro run plans each
/// workload once across experiments.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run_with(config: &SystemConfig, cache: &PlanCache) -> Vec<Row> {
    let per_workload: Vec<Vec<Row>> = crate::sweep::run_grid(isp_workloads::full_set(), |w| {
        run_workload(&w, config, cache)
    });
    per_workload.into_iter().flatten().collect()
}

/// Prints the sweep, one block per workload.
pub fn print(rows: &[Row]) {
    println!("== Fault sweep: deterministic injection (seed {FAULT_SEED:#x}) ==");
    println!(
        "{:<14} {:>6} {:>6} {:>9} {:>9} {:>6} {:>7} {:>7} {:>5} {:>7} {:>6}",
        "workload",
        "rate",
        "crash",
        "clean",
        "faulted",
        "slow",
        "trans",
        "retry",
        "hard",
        "migr",
        "match"
    );
    for r in rows {
        println!(
            "{:<14} {:>6.2} {:>6} {:>8.2}s {:>8.2}s {:>5.2}x {:>7} {:>7} {:>5} {:>7} {:>6}",
            r.name,
            r.fault_rate,
            if r.crash_injected { "yes" } else { "no" },
            r.uncontended_secs,
            r.faulted_secs,
            r.slowdown,
            r.transient_faults,
            r.retries,
            r.hard_faults,
            r.fault_migrations,
            if r.values_match { "ok" } else { "WRONG" },
        );
    }
    let wrong = rows.iter().filter(|r| !r.values_match).count();
    let migrated = rows.iter().filter(|r| r.fault_migrated).count();
    println!(
        "{} rows, {} fault migrations, {} wrong answers (must be 0)",
        rows.len(),
        migrated,
        wrong
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_never_wrong() {
        let config = SystemConfig::paper_default();
        let cache = PlanCache::new();
        let rows = run_with(&config, &cache);
        assert_eq!(
            rows.len(),
            isp_workloads::full_set().len() * FAULT_RATES.len()
        );
        // Zero wrong answers, at any fault rate, crash or not.
        assert!(
            rows.iter().all(|r| r.values_match),
            "wrong answers: {:?}",
            rows.iter().filter(|r| !r.values_match).collect::<Vec<_>>()
        );
        // Transient injection actually exercised the retry path somewhere.
        assert!(rows.iter().any(|r| r.recovered_ops > 0));
        // Every observed hard fault was absorbed by a fault migration, and
        // the crash cells that hit a device-resident stream migrated.
        for r in &rows {
            assert!(
                r.hard_faults == 0 || r.fault_migrations >= 1,
                "unabsorbed hard fault: {r:?}"
            );
            assert!(
                r.slowdown >= 1.0 - 1e-9,
                "faults cannot speed a run up: {r:?}"
            );
        }
        assert!(
            rows.iter().any(|r| r.crash_injected && r.fault_migrated),
            "at least one crash must land mid-stream and force host fallback"
        );
        // Same seed, same rows: the sweep reproduces byte-identically.
        let again = run(&config);
        assert_eq!(rows, again);
    }
}
