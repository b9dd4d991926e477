//! The region runner: a contiguous run of CSD lines invoked once through
//! the queue pair and streamed in [`REGION_CHUNKS`] chunks, with the
//! monitor watching every chunk boundary and the remaining stream breaking
//! to the host when it degrades (§III-D).

use super::migrate::{announce, break_pays, install_contention, try_reclaim_region, wal_record};
use super::residency::{stage_inputs, VarSpace};
use super::{
    charged_line, demote_csd, escalate, wal_snap, ExecOptions, LineOutcome, MigrationEvent,
    MigrationReason, ShardSlice,
};
use crate::error::{ActivePyError, Result};
use crate::estimate::LineEstimate;
use crate::monitor::{Monitor, Observation};
use crate::recovery::Recovery;
use alang::compile::CompiledProgram;
use alang::{LineCost, Program, Vm};
use csd_sim::fault::DeviceFault;
use csd_sim::nvme::CommandKind;
use csd_sim::units::{Bytes, Duration, Ops};
use csd_sim::{Direction, EngineKind, System};
use isp_obs::{Attrs, SpanKind, WalRecord};
use std::collections::BTreeMap;

/// How many chunks a CSD region's stream is processed in. Real CSD
/// frameworks stream per flash page; the paper's status updates land
/// "typically once every tens of machine instructions", so detection and
/// break granularity is far finer than one of our bulk lines.
pub(super) const REGION_CHUNKS: u64 = 64;

/// Splits `total` into [`REGION_CHUNKS`] near-equal slices; returns slice `c`.
fn chunk_slice(total: u64, c: u64) -> u64 {
    total * (c + 1) / REGION_CHUNKS - total * c / REGION_CHUNKS
}

/// What a region run produced.
pub(super) struct RegionOutcome {
    pub(super) lines: Vec<LineOutcome>,
    pub(super) migration: Option<MigrationEvent>,
    /// A device-ward reclaim performed *inside* the region's post-migration
    /// host completion, when availability recovered mid-stream. Always
    /// chronologically after `migration`.
    pub(super) reclaim: Option<MigrationEvent>,
}

/// A contiguous run of CSD lines prepared for chunk-pipelined execution.
pub(super) struct RegionRun {
    start: usize,
    end: usize,
    targets: Vec<String>,
    costs: Vec<LineCost>,
    ops: Vec<u64>,
    staged: Vec<u64>,
    /// Per line: bytes of its output that escape the region (consumed by a
    /// later line or as the program result) — the only live state a
    /// streaming region carries at a chunk boundary.
    escaping_out: Vec<u64>,
    /// Region-external inputs currently resident in device memory.
    external_input_bytes: u64,
}

impl RegionRun {
    /// Stages inputs, invokes the CSD function through the queue pair, and
    /// computes the region's values and measured costs.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn prepare(
        program: &Program,
        start: usize,
        end: usize,
        system: &mut System,
        vm: &mut Vm<'_>,
        var_loc: &mut BTreeMap<String, EngineKind>,
        vars: &mut VarSpace,
        opts: &ExecOptions,
        recov: &mut Recovery,
        shard: Option<&ShardSlice>,
    ) -> Result<RegionRun> {
        if opts.offload_overheads {
            // The invocation command can be hit by injected NVMe errors (or
            // observe the crash). Rolled — and hard-failed — *before* any
            // region state is evaluated or relocated, so an aborted prepare
            // needs no unwinding: the caller just re-places the lines.
            recov
                .run_bounded(system, |s| s.try_nvme_command())
                .map_err(escalate)?;
            let now = system.now();
            system
                .queue_mut()
                .submit(now, CommandKind::InvokeFunction { entry_line: start })
                .map_err(|e| ActivePyError::exec(format!("queue submit failed: {e}")))?;
            system
                .queue_mut()
                .fetch()
                .map_err(|e| ActivePyError::exec(format!("queue fetch failed: {e}")))?;
            system.charge_invocation();
        }
        let mut targets = Vec::with_capacity(end - start + 1);
        let mut costs = Vec::with_capacity(end - start + 1);
        let mut ops = Vec::with_capacity(end - start + 1);
        let mut staged = Vec::with_capacity(end - start + 1);
        let mut external_input_bytes = 0u64;
        for line in &program.lines()[start..=end] {
            // External inputs cross to device memory before the stream
            // starts; intra-region values are consumed chunk-by-chunk.
            let external: u64 = line
                .inputs()
                .iter()
                .filter(|v| {
                    program.def_site(v).is_none_or(|d| d < start)
                        && var_loc.get(*v) == Some(&EngineKind::Host)
                })
                .map(|v| match shard {
                    Some(sh) => sh.scale_def(program.def_site(v), line.index, vm.var_bytes(v)),
                    None => vm.var_bytes(v),
                })
                .sum();
            let s = stage_inputs(
                program,
                line,
                EngineKind::Cse,
                system,
                vm,
                var_loc,
                vars,
                false,
                recov,
                shard,
            )?;
            external_input_bytes += external;
            staged.push(s);
            let cost = charged_line(vm, line.index, shard)?;
            ops.push(cost.effective_ops(opts.tier, &opts.params));
            costs.push(cost);
            targets.push(line.target.clone());
            var_loc.insert(line.target.clone(), EngineKind::Cse);
        }
        let escaping_out: Vec<u64> = (start..=end)
            .map(|k| {
                let line = &program.lines()[k];
                let consumed_later = !program.consumers_of(&line.target, end).is_empty();
                let is_result = k == program.len() - 1;
                if consumed_later || is_result {
                    costs[k - start].bytes_out
                } else {
                    0
                }
            })
            .collect();
        // Only escaping values materialize in device DRAM; the chunk
        // pipeline consumes everything else in place.
        for (k, bytes) in escaping_out.iter().enumerate() {
            if *bytes > 0 {
                vars.bind(system, &targets[k], EngineKind::Cse, *bytes)?;
            }
        }
        Ok(RegionRun {
            start,
            end,
            targets,
            costs,
            ops,
            staged,
            escaping_out,
            external_input_bytes,
        })
    }

    /// Streams the region through the simulator in [`REGION_CHUNKS`]
    /// chunks, monitoring throughput after each and migrating the remaining
    /// stream to the host when the re-estimate says so (§III-D).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn execute(
        self,
        system: &mut System,
        var_loc: &mut BTreeMap<String, EngineKind>,
        vars: &mut VarSpace,
        placements: &mut [EngineKind],
        opts: &ExecOptions,
        estimates: Option<&[LineEstimate]>,
        contention_applied: &mut bool,
        csd_executed: usize,
        csd_total: usize,
        recov: &mut Recovery,
    ) -> Result<RegionOutcome> {
        let len = self.end - self.start + 1;
        let region_t0 = system.now().as_secs();
        let mut durations = vec![0.0f64; len];
        let mut done_storage = vec![0u64; len];
        let mut done_ops = vec![0u64; len];
        // The expected instruction throughput is "the total amount of
        // estimated instructions divided by estimated execution time on
        // CSD" (§III-D) — an end-to-end progress rate that includes data
        // stalls, so starvation of the data path registers as degraded IPC.
        let expected_rate = estimates
            .and_then(|est| {
                let region: Vec<&LineEstimate> = est
                    .iter()
                    .filter(|e| e.line >= self.start && e.line <= self.end)
                    .collect();
                let ops: u64 = region.iter().map(|e| e.ops).sum();
                let secs: f64 = region.iter().map(|e| e.ct_device).sum();
                (secs > 0.0 && ops > 0).then(|| ops as f64 / secs)
            })
            .unwrap_or_else(|| {
                system
                    .engine(EngineKind::Cse)
                    .nominal_rate()
                    .as_ops_per_sec()
            });
        let mut monitor = opts.monitor.map(|cfg| {
            Monitor::new(
                cfg,
                expected_rate,
                *system.engine(EngineKind::Cse).counters(),
            )
        });
        let mut migration: Option<MigrationEvent> = None;
        let mut reclaim: Option<MigrationEvent> = None;
        let mut break_submitted = false;

        'chunks: for c in 0..REGION_CHUNKS {
            // Progress-triggered contention can fire mid-region.
            if !*contention_applied && csd_total > 0 {
                let progress = (csd_executed as f64
                    + (c as f64 / REGION_CHUNKS as f64) * len as f64)
                    / csd_total as f64;
                if opts.scenario.active_at_progress(progress) {
                    let now = system.now();
                    install_contention(system, opts, now);
                    *contention_applied = true;
                }
            }
            let chunk_t0 = system.now().as_secs();
            let chunk_span = opts.tracer.begin_with(
                "exec.chunk",
                SpanKind::Device,
                Some(chunk_t0),
                vec![("chunk".into(), c.into())],
            );
            let mut chunk_ops = 0u64;
            // A hard fault mid-chunk ends the device stream; the completed
            // work stays counted so the host replays only the remainder.
            let mut fault: Option<DeviceFault> = None;
            'lines: for k in 0..len {
                let t0 = system.now().as_secs();
                let rb = chunk_slice(self.costs[k].storage_bytes, c);
                if rb > 0 {
                    match recov.run_bounded(system, |s| {
                        s.try_storage_read(EngineKind::Cse, Bytes::new(rb))
                    }) {
                        Ok(_) => done_storage[k] += rb,
                        Err(f) => {
                            durations[k] += system.now().as_secs() - t0;
                            fault = Some(f);
                            break 'lines;
                        }
                    }
                }
                let co = chunk_slice(self.ops[k], c);
                if co > 0 {
                    match recov
                        .run_bounded(system, |s| s.try_compute(EngineKind::Cse, Ops::new(co)))
                    {
                        Ok(_) => {
                            done_ops[k] += co;
                            chunk_ops += co;
                        }
                        Err(f) => {
                            durations[k] += system.now().as_secs() - t0;
                            fault = Some(f);
                            break 'lines;
                        }
                    }
                }
                if opts.offload_overheads {
                    system.charge_status_update();
                }
                durations[k] += system.now().as_secs() - t0;
            }
            let chunk_wall = system.now().as_secs() - chunk_t0;
            opts.tracer.end(chunk_span, Some(system.now().as_secs()));
            if opts.tracer.is_enabled() {
                // Simulated chunk latency, in whole nanoseconds so the
                // histogram stays integral and deterministic.
                opts.tracer
                    .observe("exec.chunk_sim_ns", (chunk_wall * 1e9) as u64);
            }
            // Chunk boundary (or mid-chunk hard fault): the status-update
            // code first checks the command pages for a high-priority
            // request (§III-D case 1), then the host-side monitor checks
            // throughput (case 2); a hard device fault (case 3, this PR)
            // bypasses both and breaks unconditionally.
            let (reason, done_fraction) = if let Some(f) = fault {
                if !opts.recovery.fallback_to_host {
                    return Err(escalate(f));
                }
                recov.stats.fault_migrations += 1;
                // The checkpoint is the last *completed* chunk boundary;
                // the failed chunk's partial work is replayed on the host
                // via the exact done_storage/done_ops remainders.
                (
                    Some(MigrationReason::DeviceFault),
                    c as f64 / REGION_CHUNKS as f64,
                )
            } else {
                let done_fraction = (c + 1) as f64 / REGION_CHUNKS as f64;
                // A completed stream has nothing left to break.
                let reason = if done_fraction >= 1.0 {
                    None
                } else {
                    if let Some(t) = opts.preempt_at {
                        if !break_submitted && system.now().as_secs() >= t {
                            let now = system.now();
                            // Host posts the Break; losing the slot on a full ring
                            // only delays preemption to the next boundary.
                            let _ = system.queue_mut().submit(now, CommandKind::Break);
                            break_submitted = true;
                        }
                    }
                    if system.queue().has_pending_break() {
                        while system.queue_mut().fetch().is_ok() {}
                        Some(MigrationReason::Preempted)
                    } else if let (Some(mon), Some(est)) = (monitor.as_mut(), estimates) {
                        let obs = mon.observe_window(chunk_ops as f64, chunk_wall);
                        if opts.tracer.is_enabled() {
                            let (label, ratio) = match obs {
                                Observation::Warmup => ("warmup", None),
                                Observation::Healthy => ("healthy", None),
                                Observation::Degraded { ratio } => ("degraded", Some(ratio)),
                            };
                            let mut attrs: Attrs = vec![
                                ("observation".into(), label.into()),
                                ("ops".into(), chunk_ops.into()),
                                ("window_secs".into(), chunk_wall.into()),
                            ];
                            if let Some(r) = ratio {
                                attrs.push(("ratio".into(), r.into()));
                            }
                            opts.tracer.instant(
                                "monitor.window",
                                SpanKind::Monitor,
                                Some(system.now().as_secs()),
                                attrs,
                            );
                        }
                        let degraded = matches!(obs, Observation::Degraded { .. });
                        (degraded
                            && break_pays(
                                system,
                                mon,
                                est,
                                placements,
                                (self.start, self.end),
                                done_fraction,
                                self.live_state_bytes(done_fraction),
                            ))
                        .then_some(MigrationReason::Degraded)
                    } else {
                        None
                    }
                };
                (reason, done_fraction)
            };
            let Some(reason) = reason else {
                opts.journal.on_record(WalRecord::Chunk {
                    lane: 0,
                    region_start: self.start as u32,
                    region_end: (self.end + 1) as u32,
                    chunk: c as u32,
                    snap: wal_snap(system, recov, monitor.as_ref()),
                })?;
                continue;
            };
            // Any migration consumes the monitor's accumulated evidence:
            // after a preemption or device-fault fallback the task is no
            // longer on the CSD either, so a stale decreasing-IPC streak
            // must not instantly re-trigger (or poison a later reclaim
            // decision) once work returns to the device.
            if let Some(mon) = monitor.as_mut() {
                mon.acknowledge_migration();
            }
            let state_bytes = self.live_state_bytes(done_fraction);
            let later_count = placements[self.end + 1..]
                .iter()
                .filter(|p| **p == EngineKind::Cse)
                .count();
            let regen_secs = CompiledProgram::compile_secs_for(len + later_count);
            // Break at this chunk boundary: move the live state, regenerate
            // host code, and resume the remaining stream on the host. The
            // state drain is controller-side DMA, which survives a CSE
            // crash — a must-complete transfer.
            let decided_at = system.now().as_secs();
            recov.run_to_completion(system, |s| {
                s.try_transfer(Direction::DeviceToHost, Bytes::new(state_bytes))
            });
            system.advance(Duration::from_secs(regen_secs));
            for k in 0..len {
                let t0 = system.now().as_secs();
                let rem_b = self.costs[k].storage_bytes.saturating_sub(done_storage[k]);
                let rem_o = self.ops[k].saturating_sub(done_ops[k]);
                if opts.scenario.recover_at().is_some() && (rem_b > 0 || rem_o > 0) {
                    // Availability can recover while the host works off
                    // the remainder: under a phase-shifting scenario the
                    // remainder is worked off in chunk slices and the
                    // Degraded migration is reconsidered at every boundary
                    // under the same reclaim rule as a line boundary
                    // ([`reclaim_pays`]). Slicing partitions the exact
                    // remaining bytes/ops, so a trace that never recovers
                    // would time out identically.
                    for c in 0..REGION_CHUNKS {
                        if reclaim.is_none() {
                            if let Some(event) = try_reclaim_region(
                                (self.start, k),
                                &self.ops,
                                &done_ops,
                                reason,
                                system,
                                opts,
                                estimates,
                                state_bytes,
                                decided_at,
                            ) {
                                // The live state returns to device memory
                                // and the remaining stream resumes on
                                // regenerated device code.
                                recov.run_to_completion(system, |s| {
                                    s.try_transfer(Direction::HostToDevice, Bytes::new(state_bytes))
                                });
                                system.advance(Duration::from_secs(event.regen_secs));
                                reclaim = Some(event);
                            }
                        }
                        let engine = if reclaim.is_some() {
                            EngineKind::Cse
                        } else {
                            EngineKind::Host
                        };
                        let sb = chunk_slice(rem_b, c);
                        if sb > 0 {
                            system.storage_read(engine, Bytes::new(sb));
                            done_storage[k] += sb;
                        }
                        let so = chunk_slice(rem_o, c);
                        if so > 0 {
                            system.compute(engine, Ops::new(so));
                            done_ops[k] += so;
                        }
                    }
                } else {
                    if rem_b > 0 {
                        system.storage_read(EngineKind::Host, Bytes::new(rem_b));
                    }
                    if rem_o > 0 {
                        system.compute(EngineKind::Host, Ops::new(rem_o));
                    }
                }
                durations[k] += system.now().as_secs() - t0;
                // The merged region outputs live wherever the stream
                // finished.
                let engine = if reclaim.is_some() {
                    EngineKind::Cse
                } else {
                    EngineKind::Host
                };
                var_loc.insert(self.targets[k].clone(), engine);
                vars.move_to(system, &self.targets[k], engine)?;
            }
            // A reclaimed stream leaves the rest of the plan in place; the
            // device is healthy again.
            if reclaim.is_none() {
                demote_csd(&mut placements[self.end + 1..]);
            }
            let after_line =
                self.start + ((done_fraction * len as f64).floor() as usize).min(len - 1);
            let event = announce(
                opts,
                reason,
                after_line,
                state_bytes,
                regen_secs,
                decided_at,
            );
            migration = Some(event);
            opts.journal.on_record(wal_record(
                &event,
                after_line,
                Some(c),
                wal_snap(system, recov, monitor.as_ref()),
            ))?;
            if let Some(event) = &reclaim {
                opts.journal.on_record(wal_record(
                    event,
                    event.after_line,
                    Some(c),
                    wal_snap(system, recov, monitor.as_ref()),
                ))?;
            }
            break 'chunks;
        }

        // Synthesize sequential per-line intervals from the accumulated
        // durations (chunks interleave lines; total time is exact, the
        // per-line split is proportional).
        let mut cursor = region_t0;
        let lines = (0..len)
            .map(|k| {
                let start_secs = cursor;
                cursor += durations[k];
                LineOutcome {
                    line: self.start + k,
                    engine: EngineKind::Cse,
                    start_secs,
                    end_secs: cursor,
                    cost: self.costs[k],
                    staged_bytes: self.staged[k],
                }
            })
            .collect();
        Ok(RegionOutcome {
            lines,
            migration,
            reclaim,
        })
    }

    /// Live state a break at `done_fraction` of the stream carries: the
    /// done share of every escaping output plus the region-external inputs
    /// already resident in device memory.
    fn live_state_bytes(&self, done_fraction: f64) -> u64 {
        self.escaping_out
            .iter()
            .map(|b| (*b as f64 * done_fraction) as u64)
            .sum::<u64>()
            + self.external_input_bytes
    }
}
