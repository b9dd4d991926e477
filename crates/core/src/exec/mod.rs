//! The execution engine: runs a partitioned program against the simulated
//! platform.
//!
//! The engine walks the program line by line (the ActivePy task unit),
//! charging the simulator for compute, storage streaming, interconnect
//! transfers, queue-pair invocations, and status updates. When a monitor is
//! installed, every CSD status update is inspected and, on degradation, the
//! remaining CSD work is re-estimated and migrated back to the host at the
//! current line boundary (§III-D): live state moves through the shared
//! address space, host code is regenerated, and execution resumes at the
//! breakpoint.
//!
//! Every job reaches the engine through one entry point, [`execute`]; the
//! concerns it composes live in submodules: the chunk-pipelined CSD
//! region runner (`region`), the migration and reclaim policy
//! (`migrate`), and variable residency in the shared address space
//! (`residency`).

mod migrate;
mod region;
mod residency;
#[cfg(test)]
mod tests;

use crate::error::{ActivePyError, Result};
use crate::estimate::LineEstimate;
use crate::metrics::MetricsSnapshot;
use crate::monitor::{Monitor, MonitorConfig};
use crate::recovery::{Recovery, RecoveryPolicy};
use crate::runtime::ActivePyOptions;
use alang::compile::CompiledProgram;
use alang::{CostParams, ExecTier, LineCost, LoweredProgram, ParallelPolicy, Program, Storage, Vm};
use csd_sim::contention::{ContentionScenario, Trigger};
use csd_sim::fault::{DeviceFault, FaultPlan};
use csd_sim::units::{Bytes, Duration, Ops};
use csd_sim::{Direction, EngineKind, System};
use isp_obs::{Fingerprint, Fnv1a, SpanKind, StateSnap, Tracer, WalRecord};
use migrate::{announce, install_contention, try_reclaim, wal_record};
use region::RegionRun;
use residency::{stage_inputs, VarSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options controlling one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// The code tier both partitions run at.
    pub tier: ExecTier,
    /// Cost-model constants.
    pub params: CostParams,
    /// CSE contention applied during the run.
    pub scenario: ContentionScenario,
    /// Monitoring/migration policy; `None` disables migration (the static
    /// frameworks of Figures 2 and 5).
    pub monitor: Option<MonitorConfig>,
    /// Whether to charge queue-pair invocation and status-update overheads
    /// (on for ISP runs; irrelevant for all-host runs).
    pub offload_overheads: bool,
    /// Simulated time at which the CSD must preempt the ISP task for a
    /// high-priority request (§III-D, case 1): a `Break` command lands in
    /// the call queue, the status-update code sees it at the next chunk
    /// boundary, and the task migrates unconditionally.
    pub preempt_at: Option<f64>,
    /// How the run responds to injected device faults (retry budget,
    /// sim-time backoff, host fallback).
    pub recovery: RecoveryPolicy,
    /// The deterministic fault plan injected into the simulator for this
    /// run; [`FaultPlan::none`] (the default) injects nothing.
    pub faults: FaultPlan,
    /// How builtin kernels execute on the repro host: chunked across a
    /// worker pool (`threads > 1`) or serially (the default). Execution-only
    /// — values, [`LineCost`] records, and `values_fingerprint` are
    /// identical for every valid policy, so plans cached under one policy
    /// replay under any other.
    pub parallel: ParallelPolicy,
    /// Trace recording handle. Disabled by default; when enabled, the run
    /// records dual-clock spans for regions, chunks, host lines, monitor
    /// windows, migration decisions, faults, and recovery backoffs.
    /// Observation-only: a live tracer never perturbs the simulated clock,
    /// `values_fingerprint`, or any [`RunReport`] field.
    pub tracer: Tracer,
    /// Measured-cost recording handle. Disabled by default; when enabled,
    /// the run appends its per-line measured [`LineCost`]s to the attached
    /// [`crate::profile::ProfileStore`] after the report is assembled.
    /// Observation-only, like the tracer: recording never perturbs the
    /// simulated clock, `values_fingerprint`, or any [`RunReport`] field.
    pub profile: crate::profile::ProfileRecorder,
    /// Crash-consistent journal handle. Disabled by default; when enabled,
    /// the run appends one checksummed WAL record per execution boundary
    /// (run start/end, host line, region chunk, migration, reclaim) — or,
    /// when resuming, verifies each boundary against the recovered log.
    /// Like the tracer, a live journal never perturbs the simulated
    /// clock, `values_fingerprint`, or any [`RunReport`] field.
    pub journal: crate::resume::ExecJournal,
}

impl ExecOptions {
    /// ActivePy's own execution: generated copy-eliminated code, default
    /// monitoring, no contention.
    #[must_use]
    pub fn activepy() -> Self {
        ExecOptions {
            tier: ExecTier::CompiledCopyElim,
            params: CostParams::paper_default(),
            scenario: ContentionScenario::none(),
            monitor: Some(MonitorConfig::default()),
            offload_overheads: true,
            preempt_at: None,
            recovery: RecoveryPolicy::default(),
            faults: FaultPlan::none(),
            parallel: ParallelPolicy::default(),
            tracer: Tracer::disabled(),
            profile: crate::profile::ProfileRecorder::disabled(),
            journal: crate::resume::ExecJournal::disabled(),
        }
    }

    /// A hand-written C framework: native code, no monitoring.
    #[must_use]
    pub fn native_static() -> Self {
        Self {
            tier: ExecTier::Native,
            monitor: None,
            ..Self::activepy()
        }
    }

    /// ActivePy's execution of a plan under `scenario`: generated
    /// copy-eliminated code, with every execution setting of the runtime's
    /// `options` (cost model, monitoring, preemption, recovery,
    /// faults, kernel policy, and the tracer, profile, and journal
    /// handles).
    #[must_use]
    pub fn from_runtime(options: &ActivePyOptions, scenario: ContentionScenario) -> Self {
        Self {
            params: options.params,
            scenario,
            monitor: options.monitor,
            preempt_at: options.preempt_at,
            recovery: options.recovery,
            faults: options.faults.clone(),
            parallel: options.parallel,
            tracer: options.tracer.clone(),
            profile: options.profile.clone(),
            journal: options.journal.clone(),
            ..Self::activepy()
        }
    }

    /// Replaces the contention scenario.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ContentionScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Disables task migration.
    #[must_use]
    pub fn without_migration(mut self) -> Self {
        self.monitor = None;
        self
    }

    /// Schedules a high-priority preemption at `at_secs`.
    #[must_use]
    pub fn with_preemption_at(mut self, at_secs: f64) -> Self {
        self.preempt_at = Some(at_secs);
        self
    }

    /// Replaces the recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Installs a deterministic fault plan for the run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the data-parallel kernel policy. Validated at the door like
    /// every other policy; see [`ParallelPolicy::validate`].
    #[must_use]
    pub fn with_parallelism(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches a trace recording handle to the run.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a measured-cost recording handle to the run.
    #[must_use]
    pub fn with_profile(mut self, profile: crate::profile::ProfileRecorder) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches a crash-consistent journal handle to the run.
    #[must_use]
    pub fn with_journal(mut self, journal: crate::resume::ExecJournal) -> Self {
        self.journal = journal;
        self
    }
}

/// One shard's view of an execution, for fleet scatter/gather runs.
///
/// The repo's central repro discipline is that placement affects *costs
/// only*: the evaluator always computes every value on the full data, so
/// answers are byte-identical no matter where lines run. A `ShardSlice`
/// extends the same discipline to fleets: a shard run evaluates the whole
/// program (values — and therefore `values_fingerprint` — are identical
/// on every shard), but is *charged* only for its own work:
///
/// * lines outside `[charge_start, charge_end)` are evaluated free — no
///   storage, compute, staging, or allocation charges (they belong to a
///   different phase of the fleet plan, e.g. the host-side combine);
/// * charged lines whose output is row-partitioned (`sharded[line]`)
///   charge the shard's exact slice of every extensive quantity, using
///   the same integer partition arithmetic as chunk streaming, so slices
///   across shards sum to the unsharded total with no remainder;
/// * charged replicated lines (model weights, centroid seeds) charge in
///   full on every shard — replicated work really is redone per device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlice {
    /// This shard's index.
    pub index: usize,
    /// Total shards in the fleet.
    pub count: usize,
    /// Row-bound numerator: first row owned.
    pub lo: u64,
    /// Row-bound numerator: one past the last row owned.
    pub hi: u64,
    /// The partition denominator (total logical rows).
    pub rows: u64,
    /// First line this run is charged for.
    pub charge_start: usize,
    /// One past the last line this run is charged for.
    pub charge_end: usize,
    /// Per line: whether its output is row-partitioned (sharded lines
    /// charge a slice, replicated lines charge in full).
    pub sharded: Vec<bool>,
}

impl ShardSlice {
    /// This shard's exact slice of an extensive total; slices across all
    /// shards of one [`alang::shard::ShardMap`] sum to `total`.
    #[must_use]
    pub fn slice(&self, total: u64) -> u64 {
        if self.rows == 0 {
            return total;
        }
        total * self.hi / self.rows - total * self.lo / self.rows
    }

    /// Whether `line` is charged by this run at all.
    #[must_use]
    pub fn charges(&self, line: usize) -> bool {
        line >= self.charge_start && line < self.charge_end
    }

    /// The charge for a quantity produced *by* `line`: zero outside the
    /// charge range, a slice for sharded lines, full for replicated ones.
    #[must_use]
    pub fn scale_line(&self, line: usize, total: u64) -> u64 {
        if !self.charges(line) {
            0
        } else if self.sharded.get(line).copied().unwrap_or(false) {
            self.slice(total)
        } else {
            total
        }
    }

    /// The charge for moving a value defined at `def_line` on behalf of
    /// `at_line`: sliced when the *defining* line is row-partitioned
    /// (each shard ships only its rows), full otherwise.
    #[must_use]
    pub fn scale_def(&self, def_line: Option<usize>, at_line: usize, total: u64) -> u64 {
        if !self.charges(at_line) {
            return 0;
        }
        match def_line {
            Some(d) if self.sharded.get(d).copied().unwrap_or(false) => self.slice(total),
            _ => total,
        }
    }
}

/// What happened on one line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineOutcome {
    /// Line index.
    pub line: usize,
    /// Engine that executed it.
    pub engine: EngineKind,
    /// Start time, seconds.
    pub start_secs: f64,
    /// End time, seconds.
    pub end_secs: f64,
    /// Measured cost.
    pub cost: LineCost,
    /// Bytes moved across the interconnect to stage this line's inputs.
    pub staged_bytes: u64,
}

/// Why a migration was initiated (§III-D distinguishes throughput
/// degradation from preemption; device faults extend the same mechanism
/// to hardware adversity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationReason {
    /// The monitor observed degraded throughput and the re-estimate said
    /// finishing on the host is cheaper.
    Degraded,
    /// The device signalled a high-priority request through the command
    /// pages; the task must vacate immediately.
    Preempted,
    /// A hard device fault (CSE crash, or a transient fault that exhausted
    /// its retry budget): the remaining work falls back to the host from
    /// the last completed chunk-boundary checkpoint.
    DeviceFault,
    /// The reverse direction: lines that had migrated to the host after a
    /// degradation are speculatively re-assigned to the CSD once measured
    /// availability clears again (profile-guided re-planning's bidirectional
    /// migration). Hysteresis-guarded to avoid ping-ponging.
    Reclaim,
}

impl MigrationReason {
    /// Stable lowercase label — the `reason` attribute on
    /// `migration.decision` trace events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MigrationReason::Degraded => "degraded",
            MigrationReason::Preempted => "preempted",
            MigrationReason::DeviceFault => "device_fault",
            MigrationReason::Reclaim => "reclaim",
        }
    }
}

/// A migration that occurred during the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// The CSD line at whose end execution broke.
    pub after_line: usize,
    /// Live state moved device-to-host, bytes.
    pub state_bytes: u64,
    /// Wall-clock time of the decision, seconds.
    pub at_secs: f64,
    /// Code-regeneration overhead paid, seconds.
    pub regen_secs: f64,
    /// What triggered the break.
    pub reason: MigrationReason,
}

/// The result of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// End-to-end latency in seconds.
    pub total_secs: f64,
    /// Per-line outcomes.
    pub lines: Vec<LineOutcome>,
    /// The migration, if one occurred.
    pub migration: Option<MigrationEvent>,
    /// Lines that actually executed on the CSD.
    pub csd_lines_executed: usize,
    /// Total bytes shipped device-to-host.
    pub d2h_bytes: u64,
    /// Total bytes shipped host-to-device.
    pub h2d_bytes: u64,
    /// Peak bytes of program state resident in device DRAM (BAR-mapped
    /// shared-address-space allocations).
    pub peak_device_bytes: u64,
    /// Canonical fingerprint ([`isp_obs::Fingerprint`]) of every program
    /// variable's final value, in first-assignment order — the cheap
    /// "did we compute the same answer?" check the fault sweep and the
    /// chaos differential compare across faulted and fault-free runs.
    pub values_fingerprint: u64,
    /// The kernel-execution policy the run was configured with.
    pub parallel: ParallelPolicy,
    /// The unified metrics block: fault, recovery, and kernel counter
    /// families in one deterministic snapshot (plan-cache counters are
    /// zero here; [`crate::plan::PlanCache`] fills them in for cached
    /// runs).
    pub metrics: MetricsSnapshot,
    /// Every migration the run performed, in decision order — including
    /// [`MigrationReason::Reclaim`] flips back to the CSD. The legacy
    /// `migration` field above stays the last *host-ward* event so callers
    /// that predate bidirectional migration read what they always read.
    /// Appended after `metrics` so the serialized prefix the golden
    /// journals predate is unchanged.
    pub migrations: Vec<MigrationEvent>,
    /// The per-line Eq. 1 terms of the assignment that executed —
    /// empty for raw `execute` calls, filled by
    /// [`crate::runtime::ActivePy::execute_plan`] and the fleet plan
    /// executor so the audit layer can join predictions against this
    /// report without the plan in hand. Appended after `migrations` to
    /// keep the serialized prefix stable.
    pub eq1: Vec<crate::audit::Eq1Term>,
}

impl RunReport {
    /// Sum of measured line costs.
    #[must_use]
    pub fn total_cost(&self) -> LineCost {
        self.lines.iter().map(|l| l.cost).sum()
    }

    /// Total wall-clock seconds spent executing CSD lines.
    #[must_use]
    pub fn csd_busy_secs(&self) -> f64 {
        self.lines
            .iter()
            .filter(|l| l.engine == EngineKind::Cse)
            .map(|l| l.end_secs - l.start_secs)
            .sum()
    }

    /// The absolute simulated time at which the ISP task had completed
    /// `fraction` of its CSD work in this run — how the Figure 5 stress
    /// point ("right after 50 % of their progress") is computed from an
    /// uncontended reference run. Returns `None` when nothing ran on the
    /// CSD.
    #[must_use]
    pub fn time_at_csd_progress(&self, fraction: f64) -> Option<f64> {
        let total = self.csd_busy_secs();
        if total <= 0.0 {
            return None;
        }
        let target = total * fraction.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for l in &self.lines {
            if l.engine != EngineKind::Cse {
                continue;
            }
            let span = l.end_secs - l.start_secs;
            if acc + span >= target {
                return Some(l.start_secs + (target - acc));
            }
            acc += span;
        }
        self.lines.last().map(|l| l.end_secs)
    }
}

/// Evaluates `line` on `vm` under the lowering's baked copy-elimination
/// flag and returns the cost the run is charged: the measured cost, or the
/// shard's share of it ([`shard_scaled_cost`]).
fn charged_line(
    vm: &mut Vm<'_>,
    line: usize,
    shard: Option<&ShardSlice>,
) -> alang::error::Result<LineCost> {
    let cost = vm.exec_line(line)?;
    Ok(match shard {
        Some(sh) => shard_scaled_cost(sh, line, cost),
        None => cost,
    })
}

/// Canonical fingerprint of every program variable's name and final
/// value (first-assignment order): the answer-integrity check compared
/// between faulted and fault-free runs.
fn values_fingerprint(program: &Program, vm: &Vm<'_>) -> u64 {
    let mut seen: Vec<&str> = Vec::new();
    for line in program.lines() {
        if seen.contains(&line.target.as_str()) {
            continue;
        }
        seen.push(&line.target);
    }
    let mut h = Fnv1a::new();
    for target in seen {
        h.write_str(target);
        vm.var(target).fingerprint_into(&mut h);
    }
    h.finish()
}

/// A hard fault leaving the recovery layer: either a crash, or a transient
/// fault that exhausted its retry budget — both escalate to the permanent
/// [`ActivePyError::DeviceFault`] so callers never retry them again.
fn escalate(fault: DeviceFault) -> ActivePyError {
    ActivePyError::device_fault(fault.to_string())
}

/// The shard's charged view of a measured [`LineCost`]: every extensive
/// field scaled by [`ShardSlice::scale_line`] (zero outside the charge
/// range, an exact slice for sharded lines, full for replicated ones).
fn shard_scaled_cost(sh: &ShardSlice, line: usize, cost: LineCost) -> LineCost {
    LineCost {
        compute_ops: sh.scale_line(line, cost.compute_ops),
        storage_bytes: sh.scale_line(line, cost.storage_bytes),
        bytes_in: sh.scale_line(line, cost.bytes_in),
        bytes_out: sh.scale_line(line, cost.bytes_out),
        copy_bytes: sh.scale_line(line, cost.copy_bytes),
        eliminable_copy_bytes: sh.scale_line(line, cost.eliminable_copy_bytes),
        calls: cost.calls,
    }
}

/// Assembles the deterministic boundary snapshot the journal records: sim
/// clock, recovery accounting, injected-fault counters, the fault
/// injector's stream position, and (inside regions) the monitor's
/// degradation evidence. Everything here is simulated-clock state, so an
/// uninterrupted run and its replay produce bit-identical snapshots.
fn wal_snap(system: &System, recov: &Recovery, monitor: Option<&Monitor>) -> StateSnap {
    let counters = system.fault_counters();
    let (crashed, rng_state) = match system.faults() {
        Some(f) => (f.crashed(), f.rng_state()),
        None => (false, 0),
    };
    StateSnap {
        clock_bits: system.now().as_secs().to_bits(),
        transient_faults: recov.stats.transient_faults,
        retries: recov.stats.retries,
        recovered_ops: recov.stats.recovered_ops,
        hard_faults: recov.stats.hard_faults,
        fault_migrations: recov.stats.fault_migrations,
        backoff_bits: recov.stats.backoff_secs.to_bits(),
        flash_read_errors: counters.flash_read_errors,
        nvme_command_errors: counters.nvme_command_errors,
        dma_transfer_errors: counters.dma_transfer_errors,
        cse_crashes: counters.cse_crashes,
        crashed,
        rng_state,
        monitor: monitor.map(|m| m.wal_snapshot()),
    }
}

/// Executes `program` with the given per-line `placements` on `system` —
/// the engine's one entry point. A host-only run places every line on
/// [`EngineKind::Host`].
///
/// `lowered` is the program's bytecode; its baked copy-elimination flags
/// ([`LoweredProgram::copy_elim`]) decide elimination, and the [`Vm`]
/// executes it without re-lowering. `estimates` (from the sampling/fitting pipeline) are
/// required for migration decisions; without them the monitor is ignored.
/// When `shard` is given the run is charged as one shard of a fleet:
/// values are still computed in full (so `values_fingerprint` matches the
/// unsharded run byte-for-byte), but extensive costs are restricted to the
/// shard's charge range and row slice.
///
/// # Errors
///
/// Returns an error if `lowered` or `placements` does not match the
/// program length, if any option fails validation, or if any line fails to
/// evaluate.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    program: &Program,
    lowered: &LoweredProgram,
    storage: &Storage,
    placements: &[EngineKind],
    estimates: Option<&[LineEstimate]>,
    shard: Option<&ShardSlice>,
    system: &mut System,
    opts: &ExecOptions,
) -> Result<RunReport> {
    if lowered.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "lowered program has {} lines, source has {}",
            lowered.len(),
            program.len()
        )));
    }
    if placements.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "{} placements for {} lines",
            placements.len(),
            program.len()
        )));
    }
    // Options are validated up front: a bad policy is a configuration
    // error at the door, not a silent clamp mid-run.
    if let Some(cfg) = opts.monitor {
        cfg.validate()?;
    }
    opts.recovery.validate()?;
    opts.faults.validate().map_err(ActivePyError::config)?;
    opts.parallel.validate().map_err(ActivePyError::config)?;
    if !opts.faults.is_none() {
        system.install_faults(opts.faults.clone());
    }
    let mut recov = Recovery::with_tracer(opts.recovery, opts.tracer.clone());
    let mut vm = Vm::with_policy(lowered, storage, opts.parallel);
    vm.set_tracer(opts.tracer.clone());
    // The plan's original placement is the reclaim target set: only lines
    // the planner offloaded — then migrated host-ward mid-run — are ever
    // speculatively re-assigned to the CSD.
    let original: Vec<EngineKind> = placements.to_vec();
    let mut placements = placements.to_vec();
    let mut var_loc: BTreeMap<String, EngineKind> = BTreeMap::new();
    let mut vars = VarSpace::default();
    let mut lines_out = Vec::with_capacity(program.len());
    let mut migration: Option<MigrationEvent> = None;
    let mut migrations: Vec<MigrationEvent> = Vec::new();
    let mut csd_executed = 0usize;
    let csd_total = placements.iter().filter(|p| **p == EngineKind::Cse).count();
    let mut contention_applied = false;
    let exec_span = opts.tracer.begin_with(
        "phase.execute",
        SpanKind::Phase,
        Some(system.now().as_secs()),
        vec![
            ("lines".into(), program.len().into()),
            ("csd_lines".into(), csd_total.into()),
        ],
    );
    opts.journal.on_record(WalRecord::RunStart {
        lane: 0,
        program_len: program.len() as u32,
    })?;

    // Distribute the CSD binary into device memory before execution
    // starts. A must-complete transfer: DMA faults only delay it.
    if csd_total > 0 && opts.offload_overheads {
        let region_lines = csd_total;
        let binary = Bytes::new(16 * 1024 + region_lines as u64 * 2048);
        recov.run_to_completion(system, |s| s.try_transfer(Direction::HostToDevice, binary));
    }

    // Absolute-time contention is installed into the availability traces up
    // front, so it throttles resources even in the middle of a line.
    if let Trigger::AtTime(at) = opts.scenario.trigger() {
        if !opts.scenario.is_none() {
            install_contention(system, opts, at);
            contention_applied = true;
        }
    }

    let mut i = 0usize;
    while i < program.len() {
        // Progress-based contention triggers on ISP-task progress.
        let progress = if csd_total == 0 {
            0.0
        } else {
            csd_executed as f64 / csd_total as f64
        };
        if !contention_applied && opts.scenario.active_at_progress(progress) {
            let now = system.now();
            install_contention(system, opts, now);
            contention_applied = true;
        }

        // Bidirectional migration (§III-D in reverse): when measured CSE
        // availability has cleared after a degradation migration, the
        // remaining originally-offloaded lines are speculatively
        // re-assigned to the CSD at this line boundary. The decision reads
        // only simulated-clock quantities (availability traces, modelled
        // estimates), so — like every placement decision — it cannot affect
        // computed values.
        if let Some(event) = try_reclaim(
            program.len(),
            i,
            &original,
            &mut placements,
            system,
            opts,
            estimates,
            migrations.last(),
        ) {
            migrations.push(event);
            opts.journal
                .on_record(wal_record(&event, i, None, wal_snap(system, &recov, None)))?;
            // Re-enter the loop at the same line: it is now CSD-resident
            // and executes through the region path.
            continue;
        }

        if placements[i] == EngineKind::Host {
            let line = &program.lines()[i];
            let start = system.now().as_secs();
            let line_span = opts.tracer.begin_with(
                "exec.host_line",
                SpanKind::Device,
                Some(start),
                vec![("line".into(), i.into())],
            );
            let staged = stage_inputs(
                program,
                line,
                EngineKind::Host,
                system,
                &vm,
                &mut var_loc,
                &mut vars,
                true,
                &mut recov,
                shard,
            )?;
            let cost = charged_line(&mut vm, line.index, shard)?;
            if cost.storage_bytes > 0 {
                system.storage_read(EngineKind::Host, Bytes::new(cost.storage_bytes));
            }
            let ops = cost.effective_ops(opts.tier, &opts.params);
            if ops > 0 {
                system.compute(EngineKind::Host, Ops::new(ops));
            }
            var_loc.insert(line.target.clone(), EngineKind::Host);
            let bind_bytes = match shard {
                Some(sh) => sh.scale_line(i, vm.var_bytes(&line.target)),
                None => vm.var_bytes(&line.target),
            };
            vars.bind(system, &line.target, EngineKind::Host, bind_bytes)?;
            opts.tracer.end(line_span, Some(system.now().as_secs()));
            lines_out.push(LineOutcome {
                line: i,
                engine: EngineKind::Host,
                start_secs: start,
                end_secs: system.now().as_secs(),
                cost,
                staged_bytes: staged,
            });
            vars.release_dead(system, program, i)?;
            opts.journal.on_record(WalRecord::HostLine {
                lane: 0,
                line: i as u32,
                snap: wal_snap(system, &recov, None),
            })?;
            i += 1;
            continue;
        }

        // A contiguous CSD region [i, end]: executed as a chunk-pipelined
        // stream (real CSD frameworks process per flash page / per chunk;
        // the paper's Python lines sit inside chunked loops, with status
        // updates "once every tens of machine instructions").
        let mut end = i;
        while end + 1 < program.len() && placements[end + 1] == EngineKind::Cse {
            end += 1;
        }
        let region_span = opts.tracer.begin_with(
            "exec.region",
            SpanKind::Device,
            Some(system.now().as_secs()),
            vec![
                ("start_line".into(), i.into()),
                ("end_line".into(), end.into()),
            ],
        );
        let region = match RegionRun::prepare(
            program,
            i,
            end,
            system,
            &mut vm,
            &mut var_loc,
            &mut vars,
            opts,
            &mut recov,
            shard,
        ) {
            Ok(region) => region,
            Err(ActivePyError::DeviceFault { .. }) if opts.recovery.fallback_to_host => {
                // The invocation itself hard-faulted, before any region
                // state was computed or moved: fall back by re-placing the
                // remaining CSD lines on the host and re-entering the loop
                // at the same line. No live state to drain (checkpoint is
                // the previous line boundary), only host code to regenerate.
                let later = placements[i..]
                    .iter()
                    .filter(|p| **p == EngineKind::Cse)
                    .count();
                let regen_secs = CompiledProgram::compile_secs_for(later);
                let event = announce(
                    opts,
                    MigrationReason::DeviceFault,
                    i.saturating_sub(1),
                    0,
                    regen_secs,
                    system.now().as_secs(),
                );
                migration = Some(event);
                migrations.push(event);
                system.advance(Duration::from_secs(regen_secs));
                recov.stats.fault_migrations += 1;
                opts.journal.on_record(wal_record(
                    &event,
                    event.after_line,
                    None,
                    wal_snap(system, &recov, None),
                ))?;
                opts.tracer.end_with(
                    region_span,
                    Some(system.now().as_secs()),
                    vec![("aborted".into(), true.into())],
                );
                demote_csd(&mut placements[i..]);
                continue;
            }
            Err(e) => return Err(e),
        };
        let outcome = region.execute(
            system,
            &mut var_loc,
            &mut vars,
            &mut placements,
            opts,
            estimates,
            &mut contention_applied,
            csd_executed,
            csd_total,
            &mut recov,
        )?;
        opts.tracer.end(region_span, Some(system.now().as_secs()));
        lines_out.extend(outcome.lines);
        csd_executed += end - i + 1;
        if let Some(event) = outcome.migration {
            migration = Some(event);
            migrations.push(event);
        }
        if let Some(event) = outcome.reclaim {
            migrations.push(event);
        }
        vars.release_dead(system, program, end)?;
        i = end + 1;
    }

    // The program's result must end up in host memory (must-complete).
    // In a fleet shard run, gathering results is the fleet's combine
    // phase, charged against the shared host link budget instead.
    if let Some(last) = program.lines().last() {
        if var_loc.get(&last.target) == Some(&EngineKind::Cse) {
            let full = vm.var_bytes(&last.target);
            let bytes = match shard {
                Some(sh) => sh.scale_line(last.index, full),
                None => full,
            };
            // A free line in a shard run drains nothing; the unsharded
            // path keeps issuing the (possibly empty) transfer so its
            // timing is byte-identical to the pre-fleet engine.
            if shard.is_none() || bytes > 0 {
                recov.run_to_completion(system, |s| {
                    s.try_transfer(Direction::DeviceToHost, Bytes::new(bytes))
                });
            }
        }
    }

    let metrics = MetricsSnapshot {
        plan_cache_hits: 0,
        plan_cache_misses: 0,
        faults: system.fault_counters(),
        recovery: recov.stats,
        par: vm.par_stats(),
        plan_cache_refits: 0,
        audit: crate::metrics::AuditStats::default(),
    };
    metrics.publish_to(&opts.tracer);
    opts.tracer.end_with(
        exec_span,
        Some(system.now().as_secs()),
        vec![("migrated".into(), migration.is_some().into())],
    );
    // Feed the run's measured per-line costs to the profile store. Shard
    // runs are skipped: their costs are slice-scaled and would bias the
    // unsharded profile the planner refits against.
    if opts.profile.is_enabled() && shard.is_none() {
        let mut costs = vec![LineCost::default(); program.len()];
        for l in &lines_out {
            if let Some(slot) = costs.get_mut(l.line) {
                *slot = l.cost;
            }
        }
        opts.profile.record(&costs);
    }
    let fingerprint = values_fingerprint(program, &vm);
    let total_secs = system.now().as_secs();
    opts.journal.on_record(WalRecord::RunEnd {
        lane: 0,
        fingerprint,
        total_secs_bits: total_secs.to_bits(),
    })?;
    Ok(RunReport {
        total_secs,
        lines: lines_out,
        migration,
        csd_lines_executed: csd_executed,
        d2h_bytes: system.dma().d2h_bytes().as_u64(),
        h2d_bytes: system.dma().h2d_bytes().as_u64(),
        peak_device_bytes: vars.peak_device,
        values_fingerprint: fingerprint,
        parallel: opts.parallel,
        metrics,
        migrations,
        eq1: Vec::new(),
    })
}

/// Re-places every CSD line in `placements` on the host: what a host-ward
/// migration does to the rest of the plan.
fn demote_csd(placements: &mut [EngineKind]) {
    for p in placements {
        if *p == EngineKind::Cse {
            *p = EngineKind::Host;
        }
    }
}
