//! Scatter-gather offload planning and execution across a CSD fleet.
//!
//! The paper plans for one device; this module extends the pipeline to a
//! [`Fleet`] of N independent CSDs holding hash- or range-sharded rows
//! ([`ShardMap`]). Planning reuses the single-device sampling and fitting
//! products wholesale: a [`ShardedPlan`] derives per-shard estimates by
//! *exact integer slicing* of the base plan's full-scale estimates, then
//! re-runs Algorithm 1 per shard against the shared-link bandwidth
//! `min(BW_link, BW_budget / N)` — the fleet-aware Eq. 1.
//!
//! Execution is scatter → gather → combine → tail:
//!
//! 1. **Scatter**: every shard executes the program's rowwise prefix
//!    (lines before the [`alang::shard::analyze`] fence) on its own
//!    device, charged only for its row slice via [`ShardSlice`]. Shards
//!    are independent failure domains: a GC burst or hard fault migrates
//!    *that shard* to the host while the rest keep running on-device.
//! 2. **Gather**: the carriers (sharded values live across the fence)
//!    stream to the host concurrently; [`Fleet::gather_secs`] charges the
//!    max of the per-link and aggregate-budget bottlenecks.
//! 3. **Combine**: shard slices are reduced on the host in **ascending
//!    shard index** — the same ordered-reduction discipline that keeps
//!    [`alang::par`] bit-identical — so fleet answers never depend on
//!    arrival order.
//! 4. **Tail**: the fence and everything after it run host-side over the
//!    combined carriers.
//!
//! Values are computed on the full data in every phase (the repo's
//! placement-affects-costs-only discipline), so `values_fingerprint` is
//! identical across every shard count by construction — the bench sweep
//! and the proptest differential both pin that invariant.

use crate::assign::{assign_refined, Assignment};
use crate::error::{ActivePyError, Result};
use crate::estimate::{shared_link_bandwidth, LineEstimate};
use crate::exec::{execute, ExecOptions, MigrationReason, RunReport, ShardSlice};
use crate::monitor::{ShardDecision, ShardMonitors};
use crate::plan::OffloadPlan;
use crate::runtime::ActivePy;
use alang::shard::{analyze, ShardAnalysis, ShardMap};
use alang::{LoweredProgram, Program, Storage};
use csd_sim::contention::{ContentionScenario, Trigger};
use csd_sim::fault::{FaultCounters, FaultPlan};
use csd_sim::units::{Bandwidth, Duration, Ops, SimTime};
use csd_sim::{EngineKind, Fleet, System, SystemConfig};
use isp_obs::{Fingerprint, SpanKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Host-side combine cost: one operation per gathered 8-byte element.
/// The combine is a concatenation-or-merge pass over the carrier slices,
/// not a recompute — it is deliberately cheap, and charged sequentially
/// in ascending shard index.
const COMBINE_OPS_PER_BYTE: f64 = 0.125;

/// Availability-probe window spacing (seconds of device sim-time) used by
/// the per-shard monitor's recovery check.
const PROBE_WINDOW_SECS: f64 = 0.01;

/// A single-device [`OffloadPlan`] extended with a per-line × per-shard
/// placement: the sharded data model, the scatter/gather fence, per-shard
/// estimates sliced from the base plan (sampling is never redone per
/// shard), and per-shard Algorithm-1 assignments against the shared-link
/// bandwidth.
#[derive(Debug, Clone)]
pub struct ShardedPlan {
    /// The single-device plan everything derives from.
    pub base: Arc<OffloadPlan>,
    /// Row partition and the set of sharded storage names.
    pub map: ShardMap,
    /// Fence position, per-line shardedness, and gather carriers.
    pub analysis: ShardAnalysis,
    /// Per shard: the base estimates with extensive quantities sliced to
    /// the shard's rows (replicated lines keep their full cost).
    pub shard_estimates: Vec<Vec<LineEstimate>>,
    /// Per shard: Algorithm 1 re-run on the sliced estimates, restricted
    /// to the rowwise prefix (the tail always runs host-side).
    pub shard_assignments: Vec<Assignment>,
    /// The effective per-shard D2H bandwidth the assignments assumed:
    /// `min(link, budget / N)`.
    pub shard_bandwidth: Bandwidth,
    /// Per shard: the Eq. 1 terms its assignment consumed, with the
    /// shared-link bandwidth and fleet width baked in — the fleet side of
    /// the audit capture ([`crate::audit::capture_terms`]).
    pub shard_eq1: Vec<Vec<crate::audit::Eq1Term>>,
}

impl ShardedPlan {
    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.map.count()
    }

    /// Per-line placements for shard `s`: the shard's own assignment on
    /// the rowwise prefix, host for the fence and everything after it.
    #[must_use]
    pub fn shard_placements(&self, s: usize) -> Vec<EngineKind> {
        let len = self.base.program.len();
        let mut placements = self.shard_assignments[s].placements(len);
        for p in placements.iter_mut().skip(self.analysis.fence) {
            *p = EngineKind::Host;
        }
        placements
    }
}

/// Derives the fleet plan for `map` from a cached single-device plan:
/// fence analysis, per-shard estimate slicing, and per-shard assignment
/// against the fleet's shared-link bandwidth. No sampling, fitting, or
/// code generation is repeated — the base plan's products are reused.
#[must_use]
pub fn derive_sharded_plan(
    base: &Arc<OffloadPlan>,
    map: ShardMap,
    config: &SystemConfig,
    budget: Bandwidth,
) -> ShardedPlan {
    let analysis = analyze(&base.program, &map);
    let n = map.count();
    let bw = shared_link_bandwidth(config.d2h_bandwidth(), budget, n);
    let shard_estimates: Vec<Vec<LineEstimate>> = (0..n)
        .map(|s| {
            let fraction = map.fraction(s);
            base.estimates
                .iter()
                .map(|e| {
                    if analysis.line_sharded.get(e.line).copied().unwrap_or(false) {
                        LineEstimate {
                            line: e.line,
                            ct_host: e.ct_host * fraction,
                            ct_device: e.ct_device * fraction,
                            d_in: map.slice_u64(e.d_in, s),
                            d_out: map.slice_u64(e.d_out, s),
                            ops: map.slice_u64(e.ops, s),
                        }
                    } else {
                        *e
                    }
                })
                .collect()
        })
        .collect();
    let shard_assignments: Vec<Assignment> = shard_estimates
        .iter()
        .map(|est| {
            let mut a = assign_refined(&base.program, est, bw.as_bytes_per_sec());
            // The fence and everything after it run host-side over the
            // gathered carriers; only the rowwise prefix may offload.
            a.csd_lines.retain(|line| *line < analysis.fence);
            a
        })
        .collect();
    let shard_eq1 = shard_estimates
        .iter()
        .zip(&shard_assignments)
        .map(|(est, a)| crate::audit::capture_terms(est, a, bw.as_bytes_per_sec(), n))
        .collect();
    ShardedPlan {
        base: Arc::clone(base),
        map,
        analysis,
        shard_estimates,
        shard_assignments,
        shard_bandwidth: bw,
        shard_eq1,
    }
}

/// One shard's slice of the scatter phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRunReport {
    /// Shard index.
    pub shard: usize,
    /// What the fleet monitor decided before the shard ran.
    pub decision: ShardDecision,
    /// The shard's execution report (its own device clock).
    pub report: RunReport,
    /// Bytes this shard contributed to the gather phase.
    pub gather_bytes: u64,
}

/// The result of one scatter-gather fleet execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// End-to-end latency: lead-in + scatter + gather + combine + tail.
    pub total_secs: f64,
    /// The scatter phase: max over the shards' device clocks (devices run
    /// concurrently).
    pub scatter_secs: f64,
    /// The concurrent carrier gather, charged by [`Fleet::gather_secs`].
    pub gather_secs: f64,
    /// The ordered host-side combine (ascending shard index).
    pub combine_secs: f64,
    /// The host-side fence-and-after phase.
    pub tail_secs: f64,
    /// Index of the first host-side line (`program.len()` when the whole
    /// program was rowwise).
    pub fence: usize,
    /// Per-shard scatter reports, ascending shard index.
    pub shards: Vec<ShardRunReport>,
    /// The tail run's report (the host clock spanning gather → combine →
    /// tail).
    pub tail: RunReport,
    /// Total bytes gathered across all shards.
    pub gathered_bytes: u64,
    /// The one answer fingerprint — identical on every shard and the
    /// tail by construction, and equal to the unsharded run's.
    pub values_fingerprint: u64,
    /// Sum of every device's injected-fault counters after the run.
    pub injected: FaultCounters,
}

impl FleetReport {
    /// Shards that completed their scatter phase on-device (no migration
    /// and not pre-migrated by fleet pressure).
    #[must_use]
    pub fn shards_on_device(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.report.migration.is_none() && s.decision != ShardDecision::PreMigrate)
            .count()
    }

    /// Sum of the per-shard (and tail) transient-fault counts absorbed by
    /// the recovery layer — compared against `injected` by the chaos
    /// differential.
    #[must_use]
    pub fn recovered_transients(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.report.metrics.recovery.transient_faults)
            .sum::<u64>()
            + self.tail.metrics.recovery.transient_faults
    }
}

/// Everything a fleet execution needs that is independent of the shard
/// loop: the program and its lowering, its full (unsliced) storage, and
/// the row partition.
#[derive(Debug, Clone, Copy)]
pub struct FleetRun<'a> {
    /// The program to execute.
    pub program: &'a Program,
    /// The *full* input: every phase evaluates on it, so answers cannot
    /// depend on the partition.
    pub storage: &'a Storage,
    /// The row partition.
    pub map: &'a ShardMap,
    /// The program's bytecode, shared by every shard and the tail; its
    /// baked flags decide copy elimination.
    pub lowered: &'a LoweredProgram,
    /// Simulated seconds that precede the scatter (pipeline overheads);
    /// charged once on the host clock.
    pub lead_in_secs: f64,
}

/// Samples a shard device's CSE availability over `windows` consecutive
/// probe instants (most recent last), folding in a time-triggered
/// contention scenario that would already be active. This is the signal
/// [`ShardMonitors::decision`] uses to spare a recovered shard from a
/// fleet-pressure pre-migration.
fn shard_probe(device: &System, scenario: &ContentionScenario, windows: u32) -> Vec<f64> {
    (0..windows)
        .map(|w| {
            let t = SimTime::from_secs(f64::from(w) * PROBE_WINDOW_SECS);
            let trace = device.engine(EngineKind::Cse).availability().fraction_at(t);
            let scen = match scenario.trigger() {
                Trigger::AtTime(at) if !scenario.is_none() && at <= t => scenario.fraction(),
                _ => 1.0,
            };
            trace.min(scen)
        })
        .collect()
}

/// Executes one scatter-gather fleet run on a fresh default-budget fleet of
/// `run.map.count()` devices built from `config`.
///
/// `shard_placements[s]` are the per-line placements for shard `s` (the
/// fence and after are forced host regardless); `shard_estimates`, when
/// given, feed each shard's monitor. `shard_faults[s]` installs a
/// deterministic fault plan on device `s` only — missing entries inject
/// nothing.
///
/// # Errors
///
/// Propagates per-shard execution failures, rejects placement vectors of
/// the wrong shape, and fails if any phase's `values_fingerprint`
/// diverges (a broken invariant, never an input condition).
pub fn execute_sharded(
    run: &FleetRun<'_>,
    shard_placements: &[Vec<EngineKind>],
    shard_estimates: Option<&[Vec<LineEstimate>]>,
    config: &SystemConfig,
    opts: &ExecOptions,
    shard_faults: &[FaultPlan],
) -> Result<FleetReport> {
    let n = run.map.count();
    if shard_placements.len() != n {
        return Err(ActivePyError::exec(format!(
            "fleet of {n} devices needs {n} shard placements, got {}",
            shard_placements.len()
        )));
    }
    let mut fleet = Fleet::new(config, n);
    let analysis = analyze(run.program, run.map);
    let len = run.program.len();
    let fleet_span = opts.tracer.begin_with(
        "fleet.execute",
        SpanKind::Phase,
        Some(0.0),
        vec![
            ("shards".into(), n.into()),
            ("fence".into(), analysis.fence.into()),
        ],
    );

    // Scatter: ascending shard index. Earlier shards' degradation
    // migrations build fleet pressure; later shards are pre-migrated
    // under majority pressure unless their own availability probe clears
    // a full streak window (ShardMonitors — the narrow inverse of
    // migrate-to-host).
    let mut monitors = opts.monitor.map(|cfg| (ShardMonitors::new(cfg, n), cfg));
    let mut shards: Vec<ShardRunReport> = Vec::with_capacity(n);
    for s in 0..n {
        let decision = match &monitors {
            Some((sm, cfg)) => {
                let probe = shard_probe(fleet.device(s), &opts.scenario, cfg.decreasing_streak);
                sm.decision(s, &probe)
            }
            None => ShardDecision::Stay,
        };
        let mut placements = shard_placements[s].clone();
        if placements.len() != len {
            return Err(ActivePyError::exec(format!(
                "shard {s}: {} placements for {len} lines",
                placements.len()
            )));
        }
        for p in placements.iter_mut().skip(analysis.fence) {
            *p = EngineKind::Host;
        }
        if decision == ShardDecision::PreMigrate {
            placements.fill(EngineKind::Host);
        }
        let (lo, hi) = run.map.bounds_of(s);
        let slice = ShardSlice {
            index: s,
            count: n,
            lo,
            hi,
            rows: run.map.rows_total(),
            charge_start: 0,
            charge_end: analysis.fence,
            sharded: analysis.line_sharded.clone(),
        };
        let mut shard_opts = opts.clone();
        shard_opts.faults = shard_faults.get(s).cloned().unwrap_or_else(FaultPlan::none);
        // Shard s journals (and replays) on its own WAL lane, so fleet
        // record streams interleave in the file but verify independently.
        shard_opts.journal = opts.journal.lane(s as u32);
        let estimates = shard_estimates.map(|est| est[s].as_slice());
        let shard_span = opts.tracer.begin_with(
            "fleet.shard",
            SpanKind::Device,
            Some(0.0),
            vec![
                ("shard".into(), s.into()),
                ("decision".into(), format!("{decision:?}").into()),
            ],
        );
        let report = execute(
            run.program,
            run.lowered,
            run.storage,
            &placements,
            estimates,
            Some(&slice),
            fleet.device_mut(s),
            &shard_opts,
        )?;
        opts.tracer.end(shard_span, Some(report.total_secs));
        if let Some((sm, _)) = monitors.as_mut() {
            let degraded = report
                .migration
                .map(|m| m.reason == MigrationReason::Degraded)
                .unwrap_or(false);
            sm.record(s, degraded);
        }
        let gather_bytes: u64 = analysis
            .carriers
            .iter()
            .filter_map(|c| run.program.def_site(c))
            .map(|def| report.lines[def].cost.bytes_out)
            .sum();
        shards.push(ShardRunReport {
            shard: s,
            decision,
            report,
            gather_bytes,
        });
    }
    let scatter_secs = shards
        .iter()
        .map(|s| s.report.total_secs)
        .fold(0.0f64, f64::max);

    // Gather: carriers stream from every shard concurrently, bounded by
    // per-device links and the shared host budget. A migrated shard's
    // slice may already sit host-side; the gather conservatively charges
    // it anyway (the budget term dominates at scale either way).
    let per_shard_bytes: Vec<u64> = shards.iter().map(|s| s.gather_bytes).collect();
    let gather_secs = fleet.gather_secs(&per_shard_bytes);
    let gathered_bytes: u64 = per_shard_bytes.iter().sum();
    opts.tracer.instant(
        "fleet.gather",
        SpanKind::Device,
        Some(scatter_secs),
        vec![
            ("bytes".into(), gathered_bytes.into()),
            ("secs".into(), gather_secs.into()),
        ],
    );

    // The host clock: lead-in, then the scatter barrier, then the gather,
    // then the ordered combine, then the tail lines.
    let mut host = config.build();
    host.advance(Duration::from_secs(
        run.lead_in_secs + scatter_secs + gather_secs,
    ));
    let combine_t0 = host.now().as_secs();
    for (s, bytes) in per_shard_bytes.iter().enumerate() {
        // Ascending shard index, unconditionally: the combine's ordering
        // rule is part of the answer-determinism contract, so even an
        // empty slice holds its place in the sequence.
        let ops = (*bytes as f64 * COMBINE_OPS_PER_BYTE) as u64;
        if ops > 0 {
            host.compute(EngineKind::Host, Ops::new(ops));
        }
        opts.tracer.instant(
            "fleet.combine",
            SpanKind::Device,
            Some(host.now().as_secs()),
            vec![
                ("shard".into(), s.into()),
                ("bytes".into(), (*bytes).into()),
            ],
        );
    }
    let combine_secs = host.now().as_secs() - combine_t0;

    // Tail: the fence and after, host-side, over the combined carriers.
    // The prefix is evaluated free (values only); charges start at the
    // fence.
    let tail_slice = ShardSlice {
        index: 0,
        count: 1,
        lo: 0,
        hi: run.map.rows_total(),
        rows: run.map.rows_total(),
        charge_start: analysis.fence,
        charge_end: len,
        sharded: analysis.line_sharded.clone(),
    };
    let mut tail_opts = opts.clone();
    tail_opts.faults = FaultPlan::none();
    // The host-side tail journals on lane n, after the shard lanes.
    tail_opts.journal = opts.journal.lane(n as u32);
    let tail_t0 = host.now().as_secs();
    let tail = execute(
        run.program,
        run.lowered,
        run.storage,
        &vec![EngineKind::Host; len],
        None,
        Some(&tail_slice),
        &mut host,
        &tail_opts,
    )?;
    let tail_secs = tail.total_secs - tail_t0;

    // The invariant the whole module exists to uphold: every phase
    // computed the same answer.
    let fingerprint = tail.values_fingerprint;
    for s in &shards {
        if s.report.values_fingerprint != fingerprint {
            return Err(ActivePyError::exec(format!(
                "shard {} fingerprint {:#x} diverged from {:#x}",
                s.shard, s.report.values_fingerprint, fingerprint
            )));
        }
    }
    let total_secs = tail.total_secs;
    opts.tracer.end_with(
        fleet_span,
        Some(total_secs),
        vec![("gathered_bytes".into(), gathered_bytes.into())],
    );
    Ok(FleetReport {
        total_secs,
        scatter_secs,
        gather_secs,
        combine_secs,
        tail_secs,
        fence: analysis.fence,
        shards,
        tail,
        gathered_bytes,
        values_fingerprint: fingerprint,
        injected: fleet.fault_counters(),
    })
}

/// Executes a [`ShardedPlan`] under `runtime`'s execution options on a
/// fresh default-budget fleet: the fleet counterpart of
/// [`ActivePy::execute_plan`], charging the base plan's pipeline
/// overheads once on the host clock.
///
/// # Errors
///
/// As [`execute_sharded`].
pub fn execute_sharded_plan(
    runtime: &ActivePy,
    plan: &ShardedPlan,
    config: &SystemConfig,
    scenario: ContentionScenario,
    shard_faults: &[FaultPlan],
) -> Result<FleetReport> {
    let ropts = runtime.options();
    let mut opts = ExecOptions::from_runtime(ropts, scenario);
    // Faults come per shard from `shard_faults`, and shard runs never
    // record profiles: their measured costs are slice-scaled and would
    // bias the unsharded profile.
    opts.faults = FaultPlan::none();
    opts.profile = crate::profile::ProfileRecorder::disabled();
    // Journal the fleet's plan identity — base plan fingerprint plus the
    // shard map's — so a resume against a re-planned fleet or a different
    // shard count fails at the first record.
    opts.journal.on_record(isp_obs::WalRecord::PlanCommit {
        lane: 0,
        plan_fp: crate::resume::plan_fingerprint(&plan.base),
        shard_fp: plan.map.fingerprint(),
    })?;
    let lead_in_secs = if ropts.charge_pipeline_overheads {
        plan.base.sampling_secs + plan.base.compile_secs
    } else {
        0.0
    };
    let run = FleetRun {
        program: &plan.base.program,
        storage: &plan.base.full_storage,
        map: &plan.map,
        lowered: &plan.base.lowered,
        lead_in_secs,
    };
    let shard_placements: Vec<Vec<EngineKind>> = (0..plan.count())
        .map(|s| plan.shard_placements(s))
        .collect();
    let mut report = execute_sharded(
        &run,
        &shard_placements,
        Some(&plan.shard_estimates),
        config,
        &opts,
        shard_faults,
    )?;
    // Echo each shard's Eq. 1 terms so the audit layer can join fleet
    // reports without the plan in hand (observation-only: every simulated
    // quantity above is already final).
    for (s, sr) in report.shards.iter_mut().enumerate() {
        sr.report.eq1 = plan.shard_eq1[s].clone();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanCache;
    use crate::sampling::InputSource;
    use alang::parser::parse;
    use alang::shard::ShardStrategy;
    use alang::value::ArrayVal;
    use alang::Value;

    /// A filter-reduce workload over an 8 GB logical array, sharded on
    /// `v`.
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

    const SRC: &str = "a = scan('v')\nm = a < 50\nb = select(a, m)\ns = sum(b)\n";

    fn sharded_plan(n: usize) -> (ShardedPlan, SystemConfig, ActivePy) {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let base = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let map = ShardMap::auto(&base.full_storage, n, ShardStrategy::Range);
        let budget = config
            .d2h_bandwidth()
            .scale(csd_sim::fleet::DEFAULT_BUDGET_LINKS);
        let plan = derive_sharded_plan(&base, map, &config, budget);
        (plan, config, rt)
    }

    #[test]
    fn fingerprint_is_identical_across_shard_counts_and_vs_unsharded() {
        let program = parse(SRC).expect("parse");
        let unsharded = execute(
            &program,
            &alang::lower::lower(&program).expect("lower"),
            &input().storage_at(1.0),
            &[EngineKind::Host; 4],
            None,
            None,
            &mut SystemConfig::paper_default().build(),
            &ExecOptions::native_static(),
        )
        .expect("host baseline");
        let mut prints = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let (plan, config, rt) = sharded_plan(n);
            let report = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &[])
                .expect("fleet run");
            prints.push((n, report.values_fingerprint));
            assert_eq!(report.shards.len(), n);
            assert_eq!(report.fence, 3, "sum is the fence in {SRC:?}");
        }
        for (n, p) in &prints {
            assert_eq!(
                *p, unsharded.values_fingerprint,
                "N={n} diverged from the unsharded answer"
            );
        }
    }

    #[test]
    fn sharding_the_prefix_scales_the_scatter_phase() {
        let (plan1, config1, rt1) = sharded_plan(1);
        let one = execute_sharded_plan(&rt1, &plan1, &config1, ContentionScenario::none(), &[])
            .expect("N=1");
        let (plan4, config4, rt4) = sharded_plan(4);
        let four = execute_sharded_plan(&rt4, &plan4, &config4, ContentionScenario::none(), &[])
            .expect("N=4");
        assert!(
            four.scatter_secs < one.scatter_secs / 2.0,
            "4 devices should at least halve the scatter: {} vs {}",
            four.scatter_secs,
            one.scatter_secs
        );
        assert!(
            four.total_secs < one.total_secs,
            "N=4 {} must beat N=1 {}",
            four.total_secs,
            one.total_secs
        );
    }

    #[test]
    fn one_faulted_shard_migrates_alone_with_the_correct_answer() {
        let (plan, config, rt) = sharded_plan(4);
        let healthy = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &[])
            .expect("healthy");
        // Crash shard 2's CSE immediately; its scatter work falls back to
        // the host from the checkpoint while shards 0, 1, 3 stay on-device.
        let mut faults = vec![FaultPlan::none(); 4];
        faults[2] = FaultPlan::none().with_crash_at(SimTime::from_secs(0.0));
        let chaos = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &faults)
            .expect("chaos");
        assert_eq!(chaos.values_fingerprint, healthy.values_fingerprint);
        assert!(
            chaos.shards[2].report.migration.is_some(),
            "the crashed shard must migrate: {:?}",
            chaos.shards[2].report.migration
        );
        for s in [0usize, 1, 3] {
            assert!(
                chaos.shards[s].report.migration.is_none(),
                "shard {s} must stay on-device"
            );
        }
        assert_eq!(chaos.injected.cse_crashes, 1);
        assert!(chaos.total_secs >= healthy.total_secs);
    }

    #[test]
    fn per_shard_fault_accounting_sums_to_the_injected_counters() {
        let (plan, config, rt) = sharded_plan(4);
        let faults: Vec<FaultPlan> = (0..4)
            .map(|s| {
                FaultPlan::none()
                    .with_seed(100 + s as u64)
                    .with_flash_read_error_prob(0.05)
            })
            .collect();
        let report = execute_sharded_plan(&rt, &plan, &config, ContentionScenario::none(), &faults)
            .expect("faulted fleet");
        assert_eq!(
            report.recovered_transients(),
            report.injected.transient_total(),
            "recovery accounting must match the injectors: {report:?}"
        );
    }

    #[test]
    fn derive_restricts_offload_to_the_rowwise_prefix() {
        let (plan, _, _) = sharded_plan(4);
        assert_eq!(plan.analysis.fence, 3);
        for s in 0..4 {
            let placements = plan.shard_placements(s);
            assert_eq!(placements[3], EngineKind::Host, "the fence line is host");
            assert!(
                plan.shard_assignments[s].csd_lines.iter().all(|l| *l < 3),
                "shard {s} offloads past the fence"
            );
        }
    }
}
