//! The no-CSD baselines: the hand-written C implementation and the three
//! language-runtime tiers (§V, "ActivePy's optimizations in its language
//! runtime").
//!
//! All four run the same workload entirely on the host; they differ only in
//! the code tier — [`ExecTier::Native`] is the paper's C baseline (the
//! denominator of every speedup), [`ExecTier::Interpreted`] is plain
//! Python, [`ExecTier::Compiled`] is Cython output, and
//! [`ExecTier::CompiledCopyElim`] is ActivePy's generated host code.

use crate::error::Result;
use activepy::exec::{execute, ExecOptions, RunReport};
use activepy::sampling::observe_dataset_types;
use alang::copyelim::eliminable_lines;
use alang::{ExecBackend, ExecTier};
use csd_sim::{EngineKind, SystemConfig};
use isp_workloads::Workload;

/// Runs `workload` entirely on the host at the given code `tier`,
/// returning the execution report.
///
/// Copy elimination (for [`ExecTier::CompiledCopyElim`]) uses dataset types
/// observed from a tiny probe materialization, mirroring what ActivePy
/// learns during sampling.
///
/// # Errors
///
/// Propagates parse and execution failures.
pub fn run_host_only(
    workload: &Workload,
    config: &SystemConfig,
    tier: ExecTier,
) -> Result<RunReport> {
    let program = workload.program()?;
    let storage = workload.storage_at(1.0);
    let copy_elim = match tier {
        ExecTier::CompiledCopyElim => {
            let probe = workload.storage_at(1.0 / 1024.0);
            eliminable_lines(&program, &observe_dataset_types(&probe))
        }
        _ => vec![false; program.len()],
    };
    let lowered = alang::lower::lower_with(&program, &copy_elim)?;
    let opts = ExecOptions {
        tier,
        offload_overheads: false,
        ..ExecOptions::native_static()
    };
    let report = execute(
        &program,
        &lowered,
        &storage,
        &vec![EngineKind::Host; program.len()],
        None,
        None,
        &mut config.build(),
        &opts,
    )?;
    Ok(report)
}

/// [`run_host_only`]; the backend is ignored.
#[doc(hidden)] // Kept only for perfbench/'s call signature; the next benchmark change deletes it.
pub fn run_host_only_with(
    workload: &Workload,
    config: &SystemConfig,
    tier: ExecTier,
    _backend: ExecBackend,
) -> Result<RunReport> {
    run_host_only(workload, config, tier)
}

/// Runs the C (native, host-only) baseline — the paper's reference point.
///
/// # Errors
///
/// Propagates parse and execution failures.
pub fn run_c_baseline(workload: &Workload, config: &SystemConfig) -> Result<RunReport> {
    run_host_only(workload, config, ExecTier::Native)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_baseline_runs_all_workloads() {
        let config = SystemConfig::paper_default();
        for w in isp_workloads::with_sparsemv() {
            let rep =
                run_c_baseline(&w, &config).unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
            assert!(rep.total_secs > 0.0, "{} took no time", w.name());
            assert_eq!(rep.csd_lines_executed, 0);
        }
    }

    #[test]
    fn runtime_tier_ladder_holds_per_workload() {
        let config = SystemConfig::paper_default();
        for w in isp_workloads::table1() {
            let native = run_host_only(&w, &config, ExecTier::Native)
                .expect("native")
                .total_secs;
            let elim = run_host_only(&w, &config, ExecTier::CompiledCopyElim)
                .expect("elim")
                .total_secs;
            let compiled = run_host_only(&w, &config, ExecTier::Compiled)
                .expect("compiled")
                .total_secs;
            let interp = run_host_only(&w, &config, ExecTier::Interpreted)
                .expect("interp")
                .total_secs;
            assert!(
                native <= elim + 1e-9 && elim <= compiled && compiled < interp,
                "{}: ladder violated ({native}, {elim}, {compiled}, {interp})",
                w.name()
            );
        }
    }

    #[test]
    fn c_baseline_latencies_are_seconds_scale() {
        // The paper's baselines run 11-73 s on the Ryzen testbed; our
        // simulated host should land in the same order of magnitude.
        let config = SystemConfig::paper_default();
        for w in isp_workloads::table1() {
            let rep = run_c_baseline(&w, &config).expect("run");
            assert!(
                rep.total_secs > 0.5 && rep.total_secs < 200.0,
                "{}: {}s out of plausible range",
                w.name(),
                rep.total_secs
            );
        }
    }
}
