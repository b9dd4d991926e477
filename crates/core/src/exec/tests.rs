use super::*;
use crate::monitor::Observation;
use crate::recovery::RecoveryStats;
use alang::parser::parse;
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::units::SimTime;
use csd_sim::SystemConfig;

/// 4 GB logical array, materialized small.
fn storage() -> Storage {
    let mut st = Storage::new();
    let data: Vec<f64> = (0..4096).map(|i| (i % 100) as f64).collect();
    st.insert("v", Value::Array(ArrayVal::with_logical(data, 500_000_000)));
    st
}

const SRC: &str = "a = scan('v')\nm = a < 50\nb = select(a, m)\ns = sum(b)\n";

/// Runs `src` over [`storage`] on `sys`, lowered with the `copy_elim`
/// flags, with lines `csd` on the CSD.
fn run_on(
    sys: &mut System,
    src: &str,
    csd: &[usize],
    copy_elim: &[bool],
    opts: &ExecOptions,
    estimates: Option<&[LineEstimate]>,
) -> Result<RunReport> {
    let program = parse(src).expect("parse");
    let lowered = alang::lower::lower_with(&program, copy_elim).expect("lower");
    let placements = placements(csd, program.len());
    execute(
        &program,
        &lowered,
        &storage(),
        &placements,
        estimates,
        None,
        sys,
        opts,
    )
}

/// [`run_on`] for [`SRC`] on a fresh paper-default system, without copy
/// elimination.
fn run(csd: &[usize], opts: &ExecOptions, estimates: Option<&[LineEstimate]>) -> Result<RunReport> {
    let mut sys = SystemConfig::paper_default().build();
    run_on(&mut sys, SRC, csd, &[], opts, estimates)
}

fn placements(csd: &[usize], len: usize) -> Vec<EngineKind> {
    (0..len)
        .map(|i| {
            if csd.contains(&i) {
                EngineKind::Cse
            } else {
                EngineKind::Host
            }
        })
        .collect()
}

/// Flat estimates for [`SRC`] that roughly match reality, so the
/// migration decision logic has something to work with.
fn flat_estimates() -> Vec<LineEstimate> {
    (0..4)
        .map(|line| LineEstimate {
            line,
            ct_host: 0.5,
            ct_device: 0.3,
            d_in: 1_000_000,
            d_out: 1_000_000,
            ops: 1_000_000_000,
        })
        .collect()
}

#[test]
fn all_host_run_produces_report() {
    let rep = run(&[], &ExecOptions::native_static(), None).expect("run");
    assert_eq!(rep.lines.len(), 4);
    assert!(rep.total_secs > 0.0);
    assert_eq!(rep.csd_lines_executed, 0);
    assert!(rep.migration.is_none());
    // Host scan of 4 GB at the 4 GB/s external path ≈ 1 s floor.
    assert!(rep.total_secs > 0.9, "got {}", rep.total_secs);
}

#[test]
fn offloading_the_reduction_pipeline_wins() {
    let opts = ExecOptions::native_static();
    let host = run(&[], &opts, None).expect("host");
    let isp = run(&[0, 1, 2, 3], &opts, None).expect("isp");
    assert!(
        isp.total_secs < host.total_secs,
        "ISP {} should beat host {}",
        isp.total_secs,
        host.total_secs
    );
    assert_eq!(isp.csd_lines_executed, 4);
}

#[test]
fn placements_length_mismatch_rejected() {
    let program = parse(SRC).expect("parse");
    let mut sys = SystemConfig::paper_default().build();
    let e = execute(
        &program,
        &alang::lower::lower(&program).expect("lower"),
        &storage(),
        &placements(&[], 2),
        None,
        None,
        &mut sys,
        &ExecOptions::native_static(),
    )
    .unwrap_err();
    assert!(matches!(e, ActivePyError::Exec { .. }));
}

#[test]
fn cross_engine_variables_are_staged() {
    // Line 0,1 on CSD; line 2,3 on host: `a` and `m` must cross back.
    let rep = run(&[0, 1], &ExecOptions::native_static(), None).expect("run");
    let staged: u64 = rep.lines.iter().map(|l| l.staged_bytes).sum();
    assert!(staged > 0, "host lines must pull a and m over: {rep:?}");
    assert!(rep.d2h_bytes >= staged);
}

#[test]
fn constant_contention_slows_static_isp() {
    let all = [0, 1, 2, 3];
    let full = run(&all, &ExecOptions::native_static(), None).expect("full");
    let starved = run(
        &all,
        &ExecOptions::native_static().with_scenario(ContentionScenario::constant(0.1)),
        None,
    )
    .expect("starved");
    assert!(
        starved.total_secs > full.total_secs * 1.5,
        "10% CSE must hurt: {} vs {}",
        starved.total_secs,
        full.total_secs
    );
}

#[test]
fn migration_fires_under_progress_contention() {
    let all = [0, 1, 2, 3];
    let estimates = flat_estimates();
    let opts = ExecOptions::activepy().with_scenario(ContentionScenario::after_progress(0.5, 0.01));
    let rep = run(&all, &opts, Some(&estimates)).expect("run");
    let mig = rep.migration.expect("should migrate under 1% availability");
    assert!(
        mig.after_line >= 1,
        "contention starts at 50% progress, so the break lands mid-stream: {mig:?}"
    );
    assert!(mig.regen_secs > 0.0, "host code regeneration is charged");
    // And the run with migration beats the one without.
    let no_mig = run(&all, &opts.clone().without_migration(), Some(&estimates)).expect("no-mig");
    assert!(
        rep.total_secs < no_mig.total_secs,
        "migration {} must beat starvation {}",
        rep.total_secs,
        no_mig.total_secs
    );
}

#[test]
fn split_placements_form_two_regions_with_two_invocations() {
    // CSD, host, CSD, host: two separate CSD regions, each invoked
    // through the queue pair.
    let mut sys = SystemConfig::paper_default().build();
    let rep = run_on(
        &mut sys,
        SRC,
        &[0, 2],
        &[],
        &ExecOptions::native_static(),
        None,
    )
    .expect("run");
    assert_eq!(rep.csd_lines_executed, 2);
    assert_eq!(
        sys.queue().submitted_total(),
        2,
        "one invocation per region"
    );
    // The host lines in between pull their inputs across.
    let staged: u64 = rep.lines.iter().map(|l| l.staged_bytes).sum();
    assert!(staged > 0);
}

#[test]
fn device_memory_is_accounted_and_bounded() {
    // Lines 0-2 on CSD, line 3 (sum) on host: `b` (the selected array)
    // escapes the region, so it must materialize in device DRAM.
    let rep = run(&[0, 1, 2], &ExecOptions::native_static(), None).expect("run");
    // b has ~250M logical elements x 8 B = ~2 GB.
    assert!(
        rep.peak_device_bytes > 1_000_000_000,
        "escaping output must occupy device DRAM: {}",
        rep.peak_device_bytes
    );
    assert!(rep.peak_device_bytes < 16 * 1024 * 1024 * 1024);
}

#[test]
fn device_dram_overflow_is_an_error_not_a_lie() {
    // A CSD with 1 GB of DRAM cannot hold the ~2 GB escaping array.
    let mut config = SystemConfig::paper_default();
    config.device_dram = csd_sim::units::Bytes::from_gib(1);
    let e = run_on(
        &mut config.build(),
        SRC,
        &[0, 1, 2],
        &[],
        &ExecOptions::native_static(),
        None,
    )
    .unwrap_err();
    let msg = format!("{e}");
    assert!(msg.contains("out of memory"), "got: {msg}");
}

#[test]
fn high_priority_preemption_forces_migration() {
    let all = [0, 1, 2, 3];
    // Uncontended reference to find a mid-run time.
    let reference = run(&all, &ExecOptions::activepy(), None).expect("reference");
    let t_mid = reference.total_secs * 0.4;
    // No contention at all: the monitor would never migrate, but the
    // Break command must.
    let rep = run(
        &all,
        &ExecOptions::activepy().with_preemption_at(t_mid),
        None,
    )
    .expect("preempted run");
    let mig = rep
        .migration
        .expect("the Break command must force a migration");
    assert_eq!(mig.reason, MigrationReason::Preempted);
    assert!(
        mig.at_secs >= t_mid,
        "break happens at the next status update after {t_mid}: {mig:?}"
    );
    // The run completes correctly, just slower than the quiet one.
    assert!(rep.total_secs >= reference.total_secs * 0.99);
}

#[test]
fn preemption_after_completion_is_harmless() {
    let opts = ExecOptions::activepy().with_preemption_at(1e9);
    let rep = run(&[0, 1, 2, 3], &opts, None).expect("run");
    assert!(rep.migration.is_none());
}

#[test]
fn lowered_line_count_mismatch_rejected() {
    let program = parse(SRC).expect("parse");
    let short = parse("a = 1\n").expect("parse");
    let lowered = alang::lower::lower(&short).expect("lower");
    let mut sys = SystemConfig::paper_default().build();
    let e = execute(
        &program,
        &lowered,
        &storage(),
        &placements(&[], 4),
        None,
        None,
        &mut sys,
        &ExecOptions::native_static(),
    )
    .unwrap_err();
    assert!(matches!(e, ActivePyError::Exec { .. }));
}

#[test]
fn fault_free_runs_report_zero_recovery_activity() {
    let rep = run(&[0, 1, 2, 3], &ExecOptions::activepy(), None).expect("run");
    assert_eq!(rep.metrics.recovery, RecoveryStats::default());
    assert_ne!(rep.values_fingerprint, 0);
}

/// Runs SRC fully offloaded, fault-free and with `faults`, and returns
/// (fault-free report, faulted report).
fn run_with_faults(opts: &ExecOptions, faults: FaultPlan) -> (RunReport, RunReport) {
    let all = [0, 1, 2, 3];
    let clean = run(&all, opts, None).expect("clean");
    let faulted = run(&all, &opts.clone().with_faults(faults), None).expect("faulted");
    (clean, faulted)
}

#[test]
fn transient_faults_are_retried_and_preserve_the_answer() {
    let faults = FaultPlan::none()
        .with_seed(11)
        .with_flash_read_error_prob(0.05)
        .with_nvme_error_prob(0.05)
        .with_dma_error_prob(0.05);
    let (clean, faulted) = run_with_faults(&ExecOptions::activepy(), faults);
    assert!(
        faulted.metrics.recovery.transient_faults > 0,
        "5% per-op error over a 64-chunk stream must fire: {:?}",
        faulted.metrics.recovery
    );
    assert!(faulted.metrics.recovery.recovered_ops > 0);
    assert_eq!(faulted.values_fingerprint, clean.values_fingerprint);
    assert!(
        faulted.total_secs > clean.total_secs,
        "detection latency and backoff are charged to sim time"
    );
}

#[test]
fn cse_crash_migrates_to_host_with_identical_answer() {
    let opts = ExecOptions::activepy();
    // Crash mid-way through the CSD stream (reference run finds when).
    let reference = run(&[0, 1, 2, 3], &opts, None).expect("ref");
    let t_half = reference.time_at_csd_progress(0.5).expect("csd ran");
    let faults = FaultPlan::none()
        .with_seed(3)
        .with_crash_at(SimTime::from_secs(t_half));
    let (clean, faulted) = run_with_faults(&opts, faults);
    let mig = faulted.migration.expect("crash must force a migration");
    assert_eq!(mig.reason, MigrationReason::DeviceFault);
    assert!(faulted.metrics.recovery.hard_faults >= 1);
    assert!(faulted.metrics.recovery.fault_migrations >= 1);
    assert_eq!(faulted.values_fingerprint, clean.values_fingerprint);
    assert!(faulted.total_secs > clean.total_secs);
}

#[test]
fn disabling_fallback_turns_a_crash_into_a_device_fault_error() {
    let opts = ExecOptions::activepy()
        .with_recovery(RecoveryPolicy::default().without_fallback())
        .with_faults(FaultPlan::none().with_seed(3).with_crash_at(SimTime::ZERO));
    let e = run(&[0, 1, 2, 3], &opts, None).unwrap_err();
    assert!(matches!(e, ActivePyError::DeviceFault { .. }), "got {e}");
}

#[test]
fn invalid_policies_are_config_errors_at_the_door() {
    let mut bad_recovery = ExecOptions::activepy();
    bad_recovery.recovery.backoff_multiplier = 0.0;
    let mut bad_faults = ExecOptions::activepy();
    bad_faults.faults.flash_read_error_prob = 2.0;
    let mut bad_parallel = ExecOptions::activepy();
    bad_parallel.parallel.threads = 0;
    for opts in [bad_recovery, bad_faults, bad_parallel] {
        let e = run(&[], &opts, None).unwrap_err();
        assert!(matches!(e, ActivePyError::Config { .. }), "got {e}");
    }
}

#[test]
fn parallel_policy_is_execution_only() {
    // Same program, serial vs 8-thread kernels: per-line outcomes,
    // fingerprint, and sim-time must not move. Only the recorded policy
    // (and its counters) differ, so compare fields, not whole reports.
    let all = [0, 1, 2, 3];
    let serial = run(&all, &ExecOptions::activepy(), None).expect("serial");
    let policy = ParallelPolicy::new(8, 64).expect("valid policy");
    let opts = ExecOptions::activepy().with_parallelism(policy);
    let par = run(&all, &opts, None).expect("parallel");
    assert_eq!(par.lines, serial.lines);
    assert_eq!(par.values_fingerprint, serial.values_fingerprint);
    assert_eq!(par.total_secs, serial.total_secs);
    assert_eq!(par.parallel, policy, "the report records its policy");
    assert!(
        par.metrics.par.par_calls > 0,
        "a 64-element threshold engages chunking: {:?}",
        par.metrics.par
    );
    assert_eq!(serial.parallel, ParallelPolicy::default());
    assert_eq!(serial.metrics.par.par_calls, 0);
}

#[test]
fn final_result_returns_to_host() {
    let mut sys = SystemConfig::paper_default().build();
    let rep = run_on(
        &mut sys,
        "a = scan('v')\ns = sum(a)\n",
        &[0, 1],
        &[],
        &ExecOptions::native_static(),
        None,
    )
    .expect("run");
    // The scalar result crossing back is tiny but the path is charged.
    assert!(rep.d2h_bytes >= 8);
}

#[test]
fn every_migration_reason_acknowledges_the_monitor() {
    // The exec engine acknowledges unconditionally at its single
    // migration site; this regression pins the contract per variant: an
    // acknowledged monitor never carries a decrease streak across the
    // move, no matter why the move happened.
    use csd_sim::counters::PerfCounters;
    for reason in [
        MigrationReason::Degraded,
        MigrationReason::Preempted,
        MigrationReason::DeviceFault,
        MigrationReason::Reclaim,
    ] {
        let cfg = MonitorConfig::default();
        let mk = || Monitor::new(cfg, 1000.0, PerfCounters::new());
        // Rates decrease >0.1% per window but keep the smoothed ratio
        // above the threshold, so only the streak condition is in play.
        let rates = [1000.0, 997.0, 994.0, 991.0];
        let mut acked = mk();
        let mut stale = mk();
        for r in &rates[..3] {
            acked.observe_window(*r, 1.0);
            stale.observe_window(*r, 1.0);
        }
        // A migration for `reason` consumes the evidence...
        acked.acknowledge_migration();
        assert!(
            matches!(acked.observe_window(rates[3], 1.0), Observation::Healthy),
            "{}: acknowledged monitor must not re-trigger on a stale streak",
            reason.as_str()
        );
        // ...while an unacknowledged streak (the old behavior for
        // non-Degraded reasons) fires immediately.
        assert!(
            matches!(
                stale.observe_window(rates[3], 1.0),
                Observation::Degraded { .. }
            ),
            "{}: control monitor must hit the streak",
            reason.as_str()
        );
    }
}

/// A phase-shifting run for the reclaim tests. An estimate-free
/// reference run (no migration is possible) calibrates per-line estimates
/// to the simulator's real timings, so the monitor reads a healthy ~1.0
/// throughput ratio until the burst hits; `host_factor(line)` sets each
/// line's host/device cost ratio. A 5%-availability burst then starts at
/// `drop_at(&reference)` and recovers `recover_after` seconds later.
fn run_phase_shift(
    csd: &[usize],
    host_factor: impl Fn(usize) -> f64,
    drop_at: impl Fn(&RunReport) -> f64,
    recover_after: f64,
) -> RunReport {
    let reference = run(csd, &ExecOptions::activepy(), None).expect("reference");
    let params = CostParams::paper_default();
    let estimates: Vec<LineEstimate> = reference
        .lines
        .iter()
        .map(|l| {
            let dur = (l.end_secs - l.start_secs).max(0.02);
            LineEstimate {
                line: l.line,
                ct_host: host_factor(l.line) * dur,
                ct_device: dur,
                d_in: 1_000_000,
                d_out: 1_000_000,
                ops: l.cost.effective_ops(ExecTier::CompiledCopyElim, &params),
            }
        })
        .collect();
    let drop_at = drop_at(&reference);
    let scenario = ContentionScenario::at_time(SimTime::from_secs(drop_at), 0.05)
        .with_recovery_at(SimTime::from_secs(drop_at + recover_after));
    let opts = ExecOptions::activepy().with_scenario(scenario);
    run(csd, &opts, Some(&estimates)).expect("run")
}

/// Line-boundary reclaim: CSD region [0,1], host line 2, CSD line 3.
/// Contention drops mid-region-0 and recovers shortly after, so the
/// degradation migrates line 3 host-ward and the recovery hands it back.
fn run_line_reclaim() -> RunReport {
    run_phase_shift(
        &[0, 1, 3],
        // Line 3 is the reclaim candidate: clearly device-profitable, so
        // abandoning it host-ward is a real loss.
        |line| if line == 3 { 4.0 } else { 1.2 },
        // A 0.5 s burst starting 30% into region [0,1]: long enough for
        // the monitor's smoothed rate to collapse and the re-estimate to
        // favor the host, over well before line 3 is due.
        |reference| {
            let region_start = reference.lines[0].start_secs;
            let region_end = reference.lines[1].end_secs;
            region_start + 0.3 * (region_end - region_start)
        },
        0.5,
    )
}

/// In-region reclaim: every line is placed on the CSD, so the whole
/// program is one merged region and the Degraded break is handled inside
/// the region executor. Estimates make the remainder strongly
/// device-favorable, so once availability recovers mid-completion the
/// host-side remainder migrates back.
fn run_in_region_reclaim() -> RunReport {
    run_phase_shift(
        &[0, 1, 2, 3],
        // Uniformly device-profitable, so finishing host-side is a loss
        // the reclaim check can always recognize.
        |_| 4.0,
        // Burst 30% into the region, recovering 1.4 s later: the monitor
        // breaks host-ward mid-region (after ~3 burst-stretched chunk
        // windows) and the recovery lands while the host is still
        // working off the (4x slower for it) remainder.
        |reference| 0.3 * reference.total_secs,
        1.4,
    )
}

#[test]
fn reclaim_returns_work_to_the_csd_after_recovery() {
    let rep = run_line_reclaim();
    let reasons: Vec<MigrationReason> = rep.migrations.iter().map(|m| m.reason).collect();
    assert!(
        reasons.contains(&MigrationReason::Degraded),
        "the burst must first push work host-ward: {reasons:?}"
    );
    assert!(
        reasons.contains(&MigrationReason::Reclaim),
        "recovered availability must pull line 3 back: {reasons:?}"
    );
    // The reclaimed line really ran on the CSD.
    let line3 = rep.lines.iter().find(|l| l.line == 3).expect("line 3");
    assert_eq!(line3.engine, EngineKind::Cse, "line 3 must run reclaimed");
    // The legacy field still reads the last *host-ward* migration.
    assert_eq!(
        rep.migration.expect("legacy migration").reason,
        MigrationReason::Degraded
    );
    // Reclaim charges regeneration on the simulated clock.
    let reclaim = rep
        .migrations
        .iter()
        .find(|m| m.reason == MigrationReason::Reclaim)
        .expect("reclaim event");
    assert!(reclaim.regen_secs > 0.0);
    assert_eq!(reclaim.state_bytes, 0, "inputs stage via the region path");
}

#[test]
fn in_region_reclaim_resumes_the_merged_region_on_the_csd() {
    let rep = run_in_region_reclaim();
    let reasons: Vec<MigrationReason> = rep.migrations.iter().map(|m| m.reason).collect();
    assert_eq!(
        reasons,
        vec![MigrationReason::Degraded, MigrationReason::Reclaim],
        "burst breaks host-ward, recovery pulls the remainder back"
    );
    let degraded = &rep.migrations[0];
    let reclaim = &rep.migrations[1];
    assert!(
        reclaim.at_secs > degraded.at_secs,
        "reclaim happens strictly after the host-ward break"
    );
    assert_eq!(
        reclaim.state_bytes, degraded.state_bytes,
        "the drained region state is what returns to the device"
    );
    assert!(
        reclaim.regen_secs > 0.0,
        "device code regeneration is charged"
    );
}

#[test]
fn reclaim_schedules_are_value_invariant() {
    // Placement flips — in either direction, at a line boundary or inside
    // a region — may never change computed values: the fingerprint
    // matches an undisturbed static run.
    for (harness, csd) in [
        (run_line_reclaim as fn() -> RunReport, [0, 1, 3].as_slice()),
        (run_in_region_reclaim, &[0, 1, 2, 3]),
    ] {
        let reclaimed = harness();
        let static_run = run(csd, &ExecOptions::native_static(), None).expect("static");
        assert_eq!(reclaimed.values_fingerprint, static_run.values_fingerprint);
    }
}

#[test]
fn runtime_options_derive_every_execution_field() {
    use crate::profile::{ProfileRecorder, ProfileStore};
    use crate::resume::ExecJournal;
    use crate::runtime::ActivePyOptions;

    let path =
        std::env::temp_dir().join(format!("activepy_exec_options_{}.wal", std::process::id()));
    let monitor = MonitorConfig {
        degradation_threshold: 0.4,
        decreasing_streak: 5,
        ..MonitorConfig::default()
    };
    let (tracer, _sink) = Tracer::to_memory();
    let profile = ProfileRecorder::to_store(
        std::sync::Arc::new(ProfileStore::new()),
        ("workload".into(), 7),
    );
    let journal = ExecJournal::record_to(&path).expect("create journal");
    let mut runtime = ActivePyOptions::default()
        .with_preemption_at(2.5)
        .with_recovery(RecoveryPolicy::default().without_fallback())
        .with_faults(FaultPlan::none().with_seed(9).with_nvme_error_prob(0.1))
        .with_parallelism(ParallelPolicy::new(4, 128).expect("valid policy"))
        .with_tracer(tracer.clone())
        .with_profile(profile.clone())
        .with_journal(journal.clone());
    runtime.monitor = Some(monitor);
    runtime.params.dispatch_overhead *= 2.0;
    let scenario = ContentionScenario::constant(0.3);

    let opts = ExecOptions::from_runtime(&runtime, scenario);
    let defaults = ExecOptions::activepy();
    assert_eq!(opts.scenario, scenario);
    assert_eq!(opts.params, runtime.params);
    assert_eq!(opts.monitor, Some(monitor));
    assert_eq!(opts.preempt_at, Some(2.5));
    assert_eq!(opts.recovery, runtime.recovery);
    assert_eq!(opts.faults, runtime.faults);
    assert_eq!(opts.parallel, runtime.parallel);
    assert_eq!(opts.tracer, tracer);
    assert_eq!(opts.profile, profile);
    assert_eq!(opts.journal, journal);
    // Every carried field really differs from the activepy() default, so
    // a field the derivation dropped would fail above.
    assert_ne!(opts.params, defaults.params);
    assert_ne!(opts.monitor, defaults.monitor);
    assert_ne!(opts.recovery, defaults.recovery);
    assert_ne!(opts.faults, defaults.faults);
    assert_ne!(opts.parallel, defaults.parallel);
    assert_ne!(opts.tracer, defaults.tracer);
    assert_ne!(opts.profile, defaults.profile);
    assert_ne!(opts.journal, defaults.journal);
    // The code tier and overhead charging are ActivePy's own.
    assert_eq!(opts.tier, ExecTier::CompiledCopyElim);
    assert!(opts.offload_overheads);
    let _ = std::fs::remove_file(&path);
}
