//! The programmer-directed ISP baseline (§V).
//!
//! "To create an optimal programmer-directed code for each C application,
//! we exhaustively tried to offload all reasonable combinations of
//! single-entry-single-exit code regions … when the CSD entirely dedicated
//! itself to the running program. We select the combination that delivers
//! the shortest end-to-end latency."
//!
//! Because data flows forward through these pipelines, the reasonable
//! combinations are the contiguous line ranges (plus the empty plan); the
//! search simulates every one at native tier under full CSD availability
//! and keeps the fastest. The returned [`OffloadPlan`] can then be re-run
//! under any contention scenario — that re-run *is* the Summarizer-style
//! static framework of Figures 2 and 5.

use crate::error::{BaselineError, Result};
use activepy::exec::{execute, ExecOptions, RunReport};
use csd_sim::contention::ContentionScenario;
use csd_sim::{EngineKind, SystemConfig};
use isp_workloads::Workload;
use serde::{Deserialize, Serialize};

/// A fixed, compiler-baked offload decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadPlan {
    /// Per-line engine placement.
    pub placements: Vec<EngineKind>,
    /// The offloaded contiguous range, if any (inclusive).
    pub range: Option<(usize, usize)>,
    /// End-to-end latency measured during the search (100 % CSD
    /// availability, native code).
    pub optimized_secs: f64,
}

impl OffloadPlan {
    /// Line indices offloaded by this plan.
    #[must_use]
    pub fn csd_lines(&self) -> Vec<usize> {
        self.placements
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == EngineKind::Cse)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Exhaustively searches contiguous offload ranges for the plan with the
/// shortest end-to-end latency at 100 % CSD availability, in C (native)
/// code — the paper's optimal programmer-directed configuration.
///
/// # Errors
///
/// Propagates parse/execution failures from candidate runs.
pub fn best_static_plan(workload: &Workload, config: &SystemConfig) -> Result<OffloadPlan> {
    let program = workload.program()?;
    let storage = workload.storage_at(1.0);
    let n = program.len();
    if n == 0 {
        return Err(BaselineError::search("cannot plan an empty program"));
    }
    let lowered = alang::lower::lower(&program)?;
    let opts = ExecOptions::native_static();
    let mut best: Option<OffloadPlan> = None;
    let mut candidates: Vec<Option<(usize, usize)>> = vec![None];
    for i in 0..n {
        for j in i..n {
            candidates.push(Some((i, j)));
        }
    }
    for range in candidates {
        let placements: Vec<EngineKind> = (0..n)
            .map(|k| match range {
                Some((i, j)) if k >= i && k <= j => EngineKind::Cse,
                _ => EngineKind::Host,
            })
            .collect();
        let report = execute(
            &program,
            &lowered,
            &storage,
            &placements,
            None,
            None,
            &mut config.build(),
            &opts,
        )?;
        let candidate = OffloadPlan {
            placements,
            range,
            optimized_secs: report.total_secs,
        };
        if best
            .as_ref()
            .is_none_or(|b| candidate.optimized_secs < b.optimized_secs)
        {
            best = Some(candidate);
        }
    }
    best.ok_or_else(|| BaselineError::search("no candidate plan produced a report"))
}

/// Re-runs a fixed plan under `scenario` with no migration capability —
/// the behaviour of a conventional compiled ISP framework when the world
/// changes after the code was written.
///
/// # Errors
///
/// Propagates parse/execution failures.
pub fn run_plan(
    workload: &Workload,
    config: &SystemConfig,
    plan: &OffloadPlan,
    scenario: ContentionScenario,
) -> Result<RunReport> {
    let program = workload.program()?;
    if plan.placements.len() != program.len() {
        return Err(BaselineError::search(format!(
            "plan has {} placements for a {}-line program",
            plan.placements.len(),
            program.len()
        )));
    }
    let report = execute(
        &program,
        &alang::lower::lower(&program)?,
        &workload.storage_at(1.0),
        &plan.placements,
        None,
        None,
        &mut config.build(),
        &ExecOptions::native_static().with_scenario(scenario),
    )?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_only::run_c_baseline;

    #[test]
    fn search_beats_or_matches_host_only() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let plan = best_static_plan(&q6, &config).expect("plan");
        let host = run_c_baseline(&q6, &config).expect("host");
        assert!(
            plan.optimized_secs <= host.total_secs + 1e-9,
            "search must never lose to the empty plan: {} vs {}",
            plan.optimized_secs,
            host.total_secs
        );
        assert!(
            plan.range.is_some(),
            "Q6 is the archetypal ISP query; something should offload"
        );
    }

    #[test]
    fn plan_rerun_reproduces_search_latency() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let plan = best_static_plan(&q6, &config).expect("plan");
        let rep = run_plan(&q6, &config, &plan, ContentionScenario::none()).expect("rerun");
        assert!(
            (rep.total_secs - plan.optimized_secs).abs() / plan.optimized_secs < 1e-9,
            "deterministic simulator must reproduce the search result"
        );
    }

    #[test]
    fn contention_degrades_a_fixed_plan() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let plan = best_static_plan(&q6, &config).expect("plan");
        let full = run_plan(&q6, &config, &plan, ContentionScenario::none()).expect("full");
        let starved =
            run_plan(&q6, &config, &plan, ContentionScenario::constant(0.1)).expect("starved");
        assert!(
            starved.total_secs > full.total_secs * 1.3,
            "10% availability must hurt a static plan: {} vs {}",
            starved.total_secs,
            full.total_secs
        );
    }

    #[test]
    fn plan_length_mismatch_is_rejected() {
        let config = SystemConfig::paper_default();
        let q6 = isp_workloads::by_name("TPC-H-6").expect("q6");
        let bad = OffloadPlan {
            placements: vec![EngineKind::Host; 2],
            range: None,
            optimized_secs: 0.0,
        };
        assert!(run_plan(&q6, &config, &bad, ContentionScenario::none()).is_err());
    }
}
