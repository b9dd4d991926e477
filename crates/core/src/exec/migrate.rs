//! Migration policy: the rule that breaks a degraded CSD stream to the
//! host (§III-D), the one rule that returns host-ward work to the CSD once
//! availability recovers, the one record every migration leaves in the
//! trace, the metrics, and the journal, and the contention edges that
//! drive both directions.

use super::region::REGION_CHUNKS;
use super::{ExecOptions, MigrationEvent, MigrationReason};
use crate::estimate::LineEstimate;
use crate::monitor::{Monitor, MonitorConfig};
use crate::resume::reason_code;
use alang::compile::CompiledProgram;
use csd_sim::availability::AvailabilityTrace;
use csd_sim::units::{Duration, SimTime};
use csd_sim::{EngineKind, System};
use isp_obs::{SpanKind, StateSnap, WalRecord};

/// The work a migration would move to the other engine.
struct Remainder {
    /// Estimated seconds to finish it on the device at full availability.
    device_secs: f64,
    /// Estimated seconds to finish it on the host.
    host_secs: f64,
    /// Live state that must cross the interconnect with it.
    move_bytes: u64,
    /// Code regeneration for the moved lines on the receiving engine.
    regen_secs: f64,
}

/// The host-ward rule (§III-D), applied once the monitor reports degraded
/// throughput at a chunk boundary of the region `start..=end`,
/// `done_fraction` of the way through its stream. The remainder is the
/// region's undone share plus every later CSD line, and moving it carries
/// `move_bytes` of live state; it breaks to the host when its
/// re-estimated device time exceeds draining the live state, regenerating
/// host code, and finishing on the host.
pub(super) fn break_pays(
    system: &System,
    monitor: &Monitor,
    est: &[LineEstimate],
    placements: &[EngineKind],
    (start, end): (usize, usize),
    done_fraction: f64,
    move_bytes: u64,
) -> bool {
    let later_csd: Vec<&LineEstimate> = est
        .iter()
        .filter(|e| e.line > end && placements[e.line] == EngineKind::Cse)
        .collect();
    let region_est: Vec<&LineEstimate> = est
        .iter()
        .filter(|e| e.line >= start && e.line <= end)
        .collect();
    let rem = Remainder {
        device_secs: (1.0 - done_fraction) * region_est.iter().map(|e| e.ct_device).sum::<f64>()
            + later_csd.iter().map(|e| e.ct_device).sum::<f64>(),
        host_secs: (1.0 - done_fraction) * region_est.iter().map(|e| e.ct_host).sum::<f64>()
            + later_csd.iter().map(|e| e.ct_host).sum::<f64>(),
        move_bytes,
        regen_secs: CompiledProgram::compile_secs_for(end - start + 1 + later_csd.len()),
    };
    let bw = system.d2h_bandwidth().as_bytes_per_sec();
    monitor.reestimate_remaining(rem.device_secs)
        > rem.move_bytes as f64 / bw + rem.regen_secs + rem.host_secs
}

/// The reclaim rule, shared by the line-boundary ([`try_reclaim`]) and
/// in-region ([`try_reclaim_region`]) reclaim paths: whether `rem` should
/// return to the CSD now, after a degradation migrated it host-ward at
/// `migrated_at`.
///
/// The rule is hysteresis-guarded against ping-ponging. One monitor window
/// is the remainder's device time split into [`REGION_CHUNKS`]
/// status-update windows; the degradation must be at least
/// `decreasing_streak` windows old, and the CSE's effective availability
/// must clear the degradation threshold at `decreasing_streak`
/// window-spaced probes — the mirror image of the evidence the monitor
/// needed to leave. Finishing on the device at the currently observed
/// availability, plus moving `move_bytes` and regenerating device code,
/// must then beat finishing on the host. Every quantity read is
/// simulated-clock state, so, like every placement decision, it cannot
/// affect computed values.
fn reclaim_pays(system: &System, cfg: &MonitorConfig, migrated_at: f64, rem: &Remainder) -> bool {
    let window = rem.device_secs / REGION_CHUNKS as f64;
    if window <= 0.0 {
        return false;
    }
    let now = system.now();
    if now.as_secs() - f64::from(cfg.decreasing_streak) * window <= migrated_at {
        return false;
    }
    let cse = system.engine(EngineKind::Cse);
    for j in 0..cfg.decreasing_streak {
        let probe = SimTime::from_secs(now.as_secs() - f64::from(j) * window);
        if cse.effective_fraction_at(probe) < cfg.degradation_threshold {
            return false;
        }
    }
    let fraction = cse.effective_fraction_at(now);
    let bw = system.d2h_bandwidth().as_bytes_per_sec();
    if rem.device_secs / fraction + rem.move_bytes as f64 / bw + rem.regen_secs >= rem.host_secs {
        return false;
    }
    true
}

/// Decides whether the remaining originally-offloaded, host-resident lines
/// should migrate *back* to the CSD at the line boundary `i`, and performs
/// the flip when [`reclaim_pays`]. Only lines a *degradation* pushed
/// host-ward are candidates: the last migration must be
/// [`MigrationReason::Degraded`], so a reclaim arms only after a fresh
/// degradation. The candidates' inputs re-stage through the region's
/// normal prepare path, so line `i`'s input volume is the bytes moved.
#[allow(clippy::too_many_arguments)]
pub(super) fn try_reclaim(
    len: usize,
    i: usize,
    original: &[EngineKind],
    placements: &mut [EngineKind],
    system: &mut System,
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
    last: Option<&MigrationEvent>,
) -> Option<MigrationEvent> {
    let cfg = opts.monitor?;
    let est = estimates?;
    let last = last?;
    // Preempted tasks must stay off the device and fault fallbacks carry
    // no evidence the device works; only degradations are reversible.
    if last.reason != MigrationReason::Degraded {
        return None;
    }
    let is_candidate =
        |line: usize| original[line] == EngineKind::Cse && placements[line] == EngineKind::Host;
    if !is_candidate(i) {
        return None;
    }
    let pending = || est.iter().filter(|e| e.line >= i && is_candidate(e.line));
    let candidates: Vec<usize> = (i..len).filter(|&k| is_candidate(k)).collect();
    let remainder = Remainder {
        device_secs: pending().map(|e| e.ct_device).sum(),
        host_secs: pending().map(|e| e.ct_host).sum(),
        move_bytes: est.iter().filter(|e| e.line == i).map(|e| e.d_in).sum(),
        regen_secs: CompiledProgram::compile_secs_for(candidates.len()),
    };
    if !reclaim_pays(system, &cfg, last.at_secs, &remainder) {
        return None;
    }
    for &k in &candidates {
        placements[k] = EngineKind::Cse;
    }
    // Only code regeneration is charged here: input staging is charged by
    // the region's normal prepare path once the reclaimed region runs.
    let event = announce(
        opts,
        MigrationReason::Reclaim,
        i.saturating_sub(1),
        0,
        remainder.regen_secs,
        system.now().as_secs(),
    );
    system.advance(Duration::from_secs(remainder.regen_secs));
    Some(event)
}

/// After a mid-region [`MigrationReason::Degraded`] break at `migrated_at`
/// moved the stream of the region starting at line `start` host-ward,
/// decides at host line boundary `start + k` whether the region's
/// unfinished slice should return to the CSD, under the one reclaim rule
/// ([`reclaim_pays`]). The remainder is each line's estimate scaled by its
/// undone fraction (`done_ops` of `ops`), and the `state_bytes` of live
/// state must move back to device memory.
#[allow(clippy::too_many_arguments)]
pub(super) fn try_reclaim_region(
    (start, k): (usize, usize),
    ops: &[u64],
    done_ops: &[u64],
    reason: MigrationReason,
    system: &System,
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
    state_bytes: u64,
    migrated_at: f64,
) -> Option<MigrationEvent> {
    // Preempted tasks must stay off the device and fault fallbacks carry
    // no evidence the device works; only degradations reverse.
    if reason != MigrationReason::Degraded {
        return None;
    }
    let cfg = opts.monitor?;
    let est = estimates?;
    let len = ops.len();
    let undone = |j: usize| -> f64 {
        if ops[j] == 0 {
            0.0
        } else {
            1.0 - done_ops[j] as f64 / ops[j] as f64
        }
    };
    let mut device_secs = 0.0;
    let mut host_secs = 0.0;
    for j in k..len {
        let line = start + j;
        if let Some(e) = est.iter().find(|e| e.line == line) {
            device_secs += e.ct_device * undone(j);
            host_secs += e.ct_host * undone(j);
        }
    }
    let remainder = Remainder {
        device_secs,
        host_secs,
        move_bytes: state_bytes,
        regen_secs: CompiledProgram::compile_secs_for(len - k),
    };
    if !reclaim_pays(system, &cfg, migrated_at, &remainder) {
        return None;
    }
    Some(announce(
        opts,
        MigrationReason::Reclaim,
        (start + k).saturating_sub(1),
        state_bytes,
        remainder.regen_secs,
        system.now().as_secs(),
    ))
}

/// Announces a migration decision — in either direction — taken at
/// `at_secs`: the `migration.decision` trace instant, the
/// `exec.migrations` counter, and the returned event. Every migration the
/// engine performs is announced here and only here.
pub(super) fn announce(
    opts: &ExecOptions,
    reason: MigrationReason,
    after_line: usize,
    state_bytes: u64,
    regen_secs: f64,
    at_secs: f64,
) -> MigrationEvent {
    opts.tracer.instant(
        "migration.decision",
        SpanKind::Migration,
        Some(at_secs),
        vec![
            ("reason".into(), reason.as_str().into()),
            ("after_line".into(), after_line.into()),
            ("state_bytes".into(), state_bytes.into()),
            ("regen_secs".into(), regen_secs.into()),
        ],
    );
    opts.tracer.counter_add("exec.migrations", 1);
    MigrationEvent {
        after_line,
        state_bytes,
        at_secs,
        regen_secs,
        reason,
    }
}

/// The journal record of a performed migration at boundary `line`:
/// `chunk` is the region chunk it was taken in, `None` at a line boundary.
/// Reclaims journal as [`WalRecord::Reclaim`], host-ward moves as
/// [`WalRecord::Migration`].
pub(super) fn wal_record(
    event: &MigrationEvent,
    line: usize,
    chunk: Option<u64>,
    snap: StateSnap,
) -> WalRecord {
    match event.reason {
        MigrationReason::Reclaim => WalRecord::Reclaim {
            lane: 0,
            line: line as u32,
            in_region: chunk.is_some(),
            snap,
        },
        reason => WalRecord::Migration {
            lane: 0,
            line: line as u32,
            chunk: chunk.unwrap_or(0) as u32,
            reason: reason_code(reason),
            state_bytes: event.state_bytes,
            snap,
        },
    }
}

/// Installs the scenario's degradation on the CSE (and, for competing ISP
/// tenants, the internal flash data path) from time `at` onward. A
/// scenario with a recovery time later than `at` also installs the
/// recovery edge, so phase-shifting traces (drop, then recover) degrade
/// and restore every affected resource consistently.
pub(super) fn install_contention(system: &mut System, opts: &ExecOptions, at: SimTime) {
    system
        .engine_mut(EngineKind::Cse)
        .degrade_from(at, opts.scenario.fraction());
    let recover = opts.scenario.recover_at().filter(|rec| *rec > at);
    if let Some(rec) = recover {
        system.engine_mut(EngineKind::Cse).degrade_from(rec, 1.0);
    }
    if opts.scenario.affects_storage() {
        let mut trace = AvailabilityTrace::full().with_change(at, opts.scenario.fraction());
        if let Some(rec) = recover {
            trace = trace.with_change(rec, 1.0);
        }
        system.flash_mut().set_contention(trace);
    }
}
