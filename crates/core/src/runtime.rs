//! The ActivePy runtime facade: the full pipeline of Figure 3.
//!
//! Given an unannotated program and its raw input, [`ActivePy::run`]
//! executes the whole workflow the paper describes: sample → fit → estimate
//! → assign (Algorithm 1) → generate code (with copy elimination) →
//! distribute → execute with monitoring and dynamic task migration. The
//! sampling and code-generation overheads are charged to the simulated
//! clock, so end-to-end latencies include them (the paper reports ≈0.1 s /
//! ≈1 %).

use std::time::Instant;

use crate::assign::{assign_refined_traced, projected_cost, Assignment};
use crate::error::Result;
use crate::estimate::{estimate_lines, Calibration, LineEstimate};
use crate::exec::{execute, ExecOptions, RunReport};
use crate::fit::{blend_predictions, predict_lines, LinePrediction};
use crate::monitor::MonitorConfig;
use crate::plan::{OffloadPlan, PlanTimings};
use crate::profile::{ProfileRecorder, WorkloadProfile};
use crate::recovery::RecoveryPolicy;
use crate::resume::{plan_fingerprint, ExecJournal};
use crate::sampling::{paper_scales, run_sampling, InputSource, SamplingReport};
use alang::compile::CompiledProgram;
use alang::copyelim::eliminable_lines;
use alang::{CostParams, ExecTier, ParallelPolicy, Program, Storage};
use csd_sim::contention::ContentionScenario;
use csd_sim::fault::FaultPlan;
use csd_sim::units::Duration;
use csd_sim::SystemConfig;
use isp_obs::{SpanKind, Tracer, WalRecord};

/// Configuration of the ActivePy runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivePyOptions {
    /// Sampling scale factors (the paper's four powers of two by default).
    pub scales: Vec<f64>,
    /// Cost-model constants.
    pub params: CostParams,
    /// Monitoring/migration policy (`None` disables migration — the
    /// "ActivePy w/o migration" configuration of Figure 5).
    pub monitor: Option<MonitorConfig>,
    /// Whether sampling and code-generation time is charged to the clock.
    pub charge_pipeline_overheads: bool,
    /// Optional high-priority preemption time (§III-D case 1): the device
    /// signals through the command pages and the ISP task vacates at the
    /// next status update.
    pub preempt_at: Option<f64>,
    /// How plan execution responds to injected device faults (retry
    /// budget, sim-time backoff, host fallback).
    pub recovery: RecoveryPolicy,
    /// Deterministic fault plan injected into plan executions;
    /// [`FaultPlan::none`] (the default) injects nothing. Execution-only:
    /// it does not participate in plan-cache fingerprints.
    pub faults: FaultPlan,
    /// Data-parallel kernel policy applied to plan executions. Sampling
    /// runs stay serial regardless — their down-scaled inputs sit below
    /// any sensible threshold, and keeping them on one code path keeps the
    /// fitted curves identical across policies. Execution-only: it does
    /// not participate in plan-cache fingerprints.
    pub parallel: ParallelPolicy,
    /// Trace recording handle threaded through planning and execution.
    /// Disabled by default. Observation-only: it participates in neither
    /// plan-cache fingerprints nor option equality beyond identity, and a
    /// live tracer never perturbs any simulated quantity.
    pub tracer: Tracer,
    /// Profile recording handle: routes each plan execution's measured
    /// per-line costs into a [`crate::profile::ProfileStore`] for
    /// profile-guided re-planning. Disabled by default and
    /// observation-only, exactly like the tracer: identity equality,
    /// outside plan-cache fingerprints, never perturbs simulation.
    pub profile: ProfileRecorder,
    /// Crash-consistent journal handle threaded through plan executions.
    /// Disabled by default. When recording, each execution boundary
    /// appends a checksummed WAL record; when resuming, each boundary is
    /// verified against the recovered log instead. Identity equality,
    /// outside plan-cache fingerprints, never perturbs simulation.
    pub journal: ExecJournal,
}

impl Default for ActivePyOptions {
    fn default() -> Self {
        ActivePyOptions {
            scales: paper_scales(),
            params: CostParams::paper_default(),
            monitor: Some(MonitorConfig::default()),
            charge_pipeline_overheads: true,
            preempt_at: None,
            recovery: RecoveryPolicy::default(),
            faults: FaultPlan::none(),
            parallel: ParallelPolicy::default(),
            tracer: Tracer::disabled(),
            profile: ProfileRecorder::disabled(),
            journal: ExecJournal::disabled(),
        }
    }
}

impl ActivePyOptions {
    /// Disables dynamic task migration.
    #[must_use]
    pub fn without_migration(mut self) -> Self {
        self.monitor = None;
        self
    }

    /// Schedules a high-priority device preemption at `at_secs`.
    #[must_use]
    pub fn with_preemption_at(mut self, at_secs: f64) -> Self {
        self.preempt_at = Some(at_secs);
        self
    }

    /// Replaces the fault-recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Installs a deterministic fault plan for plan executions.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the data-parallel kernel policy for plan executions.
    #[must_use]
    pub fn with_parallelism(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches a trace recording handle to planning and execution.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a profile recording handle to plan executions.
    #[must_use]
    pub fn with_profile(mut self, profile: ProfileRecorder) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches a crash-consistent journal handle to plan executions.
    #[must_use]
    pub fn with_journal(mut self, journal: ExecJournal) -> Self {
        self.journal = journal;
        self
    }
}

/// Everything ActivePy produced for one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivePyOutcome {
    /// The execution report (end-to-end latency, per-line outcomes,
    /// migration).
    pub report: RunReport,
    /// The Algorithm-1 assignment.
    pub assignment: Assignment,
    /// Per-line estimates fed to Algorithm 1 and the monitor.
    pub estimates: Vec<LineEstimate>,
    /// Full-scale predictions with their fitted curves.
    pub predictions: Vec<LinePrediction>,
    /// The raw sampling measurements.
    pub sampling: SamplingReport,
    /// Simulated seconds spent in the sampling phase.
    pub sampling_secs: f64,
    /// Simulated seconds spent generating code.
    pub compile_secs: f64,
    /// The calibrated CSE-slowdown constant.
    pub calibration: Calibration,
}

/// The ActivePy runtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActivePy {
    options: ActivePyOptions,
}

impl ActivePy {
    /// A runtime with the paper's default configuration.
    #[must_use]
    pub fn new() -> Self {
        ActivePy {
            options: ActivePyOptions::default(),
        }
    }

    /// A runtime with custom options.
    #[must_use]
    pub fn with_options(options: ActivePyOptions) -> Self {
        ActivePy { options }
    }

    /// The active options.
    #[must_use]
    pub fn options(&self) -> &ActivePyOptions {
        &self.options
    }

    /// Runs the complete pipeline on `program` with inputs from `input`,
    /// on a platform described by `config`, under `scenario` contention.
    ///
    /// Equivalent to [`ActivePy::plan`] followed by
    /// [`ActivePy::execute_plan`]; callers that run the same (program,
    /// workload, platform) under several scenarios should plan once —
    /// ideally through a [`crate::plan::PlanCache`] — and execute the plan
    /// per scenario.
    ///
    /// # Errors
    ///
    /// Propagates sampling, fitting, and execution failures.
    pub fn run(
        &self,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
        scenario: ContentionScenario,
    ) -> Result<ActivePyOutcome> {
        let plan = self.plan(program, input, config)?;
        self.execute_plan(&plan, config, scenario)
    }

    /// Runs the planning half of the pipeline: sampling at the configured
    /// down-scales, curve fitting, calibration, copy-elimination analysis,
    /// Eq.1 estimation, Algorithm 1, and full-scale input
    /// materialization. The result depends on the contention scenario and
    /// monitoring policy in no way, so one plan serves every execution
    /// variant of the same (program, workload, platform).
    ///
    /// # Errors
    ///
    /// Propagates sampling and fitting failures.
    pub fn plan(
        &self,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
    ) -> Result<OffloadPlan> {
        let tracer = &self.options.tracer;

        // 1. Sampling phase on down-scaled inputs.
        let phase = Instant::now();
        let span = tracer.begin_with(
            "phase.sampling",
            SpanKind::Phase,
            None,
            vec![("scales".into(), self.options.scales.len().into())],
        );
        let sampling = run_sampling(program, input, &self.options.scales, tracer)?;
        let sampling_secs = self.sampling_secs(&sampling, config);
        tracer.end_with(
            span,
            None,
            vec![("sampling_secs".into(), sampling_secs.into())],
        );
        let sampling_nanos = phase_nanos(phase);

        // Materialize the full-scale input the plan will execute on.
        let phase = Instant::now();
        let full_storage = input.storage_at(1.0);
        let materialize_nanos = phase_nanos(phase);

        let mut plan = self.plan_from_sampling(program, sampling, full_storage, config)?;
        plan.timings.sampling_nanos = sampling_nanos;
        plan.timings.materialize_nanos = materialize_nanos;
        Ok(plan)
    }

    /// Runs planning phases 2–5 (curve fitting, calibration,
    /// copy-elimination analysis, Eq.1 estimation, Algorithm 1, and code
    /// generation) from an already-collected [`SamplingReport`] and an
    /// already-materialized full-scale input.
    ///
    /// This is the warm-start entry point: it performs **zero** input
    /// generation — no sampling runs, no `storage_at` calls — so a
    /// process restarted with a persisted sampling report re-plans
    /// without touching the data generator at all. [`ActivePy::plan`] is
    /// exactly sampling + materialization + this method, so the two paths
    /// produce identical plans (timings aside) from the same report.
    ///
    /// # Errors
    ///
    /// Propagates fitting and lowering failures.
    pub fn plan_from_sampling(
        &self,
        program: &Program,
        sampling: SamplingReport,
        full_storage: Storage,
        config: &SystemConfig,
    ) -> Result<OffloadPlan> {
        let mut timings = PlanTimings::default();
        let tracer = &self.options.tracer;
        let sampling_secs = self.sampling_secs(&sampling, config);

        // 2. Fit the five candidate curves and extrapolate to full scale.
        let phase = Instant::now();
        let span = tracer.begin("phase.fit", SpanKind::Phase, None);
        let predictions = predict_lines(&sampling.lines)?;
        tracer.end_with(span, None, vec![("lines".into(), predictions.len().into())]);
        timings.fit_nanos = phase_nanos(phase);

        // 3. Calibrate the CSE slowdown from performance counters, decide
        //    copy elimination from the dataset types sampling observed (the
        //    generated code's optimization), and estimate per-line
        //    host/device times for that code — the profit evaluation.
        let phase = Instant::now();
        let span = tracer.begin("phase.profit", SpanKind::Phase, None);
        let calibration = Calibration::from_counters(config);
        let copy_elim = eliminable_lines(program, &sampling.dataset_types);
        let estimates = estimate_lines(
            &predictions,
            ExecTier::CompiledCopyElim,
            &self.options.params,
            config,
            &calibration,
            &copy_elim,
        );
        tracer.end_with(
            span,
            None,
            vec![(
                "copy_elim_lines".into(),
                copy_elim.iter().filter(|e| **e).count().into(),
            )],
        );

        // 4. Algorithm 1 with flip refinement.
        let span = tracer.begin("phase.assign", SpanKind::Phase, None);
        let assignment = assign_refined_traced(
            program,
            &estimates,
            config.d2h_bandwidth().as_bytes_per_sec(),
            tracer,
        );
        tracer.end_with(
            span,
            None,
            vec![("csd_lines".into(), assignment.csd_lines.len().into())],
        );

        // 5. Code generation. Lower once while planning: every execution
        //    variant of this plan (per scenario, with or without migration)
        //    reuses the bytecode.
        let span = tracer.begin("phase.compile", SpanKind::Phase, None);
        let lowered = alang::lower::lower_with(program, &copy_elim)?;
        let compile_secs = plan_compile_secs(program, &assignment);
        tracer.end_with(
            span,
            None,
            vec![("compile_secs".into(), compile_secs.into())],
        );
        timings.assign_nanos = phase_nanos(phase);

        let eq1 = crate::audit::capture_terms(
            &estimates,
            &assignment,
            config.d2h_bandwidth().as_bytes_per_sec(),
            1,
        );
        Ok(OffloadPlan {
            program: program.clone(),
            lowered,
            sampling,
            predictions,
            calibration,
            copy_elim,
            estimates,
            assignment,
            sampling_secs,
            compile_secs,
            full_storage,
            timings,
            eq1,
        })
    }

    /// Refits a prepared plan from measured observations: blends the
    /// profile's per-line means into the sampled predictions
    /// (observation-count-weighted, [`crate::fit::blend_predictions`]),
    /// re-estimates, and re-runs Algorithm 1 under the blended model.
    ///
    /// Everything sampling produced — the measurements, the calibration,
    /// the lowering, the materialized input — is reused from `prior`, so
    /// a warm re-plan skips the two expensive planning phases entirely.
    /// The prior assignment is always evaluated as a candidate under the
    /// blended cost model, so the refitted plan's modelled sim-time
    /// ([`crate::assign::projected_cost`]) never exceeds the cold plan's
    /// under the same model.
    ///
    /// # Errors
    ///
    /// None currently; the `Result` mirrors [`ActivePy::plan`] so callers
    /// treat both planning paths uniformly.
    pub fn replan(
        &self,
        prior: &OffloadPlan,
        config: &SystemConfig,
        profile: &WorkloadProfile,
    ) -> Result<OffloadPlan> {
        let tracer = &self.options.tracer;
        let span = tracer.begin_with(
            "phase.refit",
            SpanKind::Phase,
            None,
            vec![("observed_runs".into(), (profile.version as usize).into())],
        );
        let predictions = blend_predictions(&prior.predictions, profile);
        let estimates = estimate_lines(
            &predictions,
            ExecTier::CompiledCopyElim,
            &self.options.params,
            config,
            &prior.calibration,
            &prior.copy_elim,
        );
        let bw = config.d2h_bandwidth().as_bytes_per_sec();
        let mut assignment = assign_refined_traced(&prior.program, &estimates, bw, tracer);
        let prior_placements = prior.assignment.placements(prior.program.len());
        let prior_cost = projected_cost(&prior.program, &estimates, &prior_placements, bw);
        if prior_cost < assignment.t_csd {
            assignment = Assignment {
                csd_lines: prior.assignment.csd_lines.clone(),
                t_host: assignment.t_host,
                t_csd: prior_cost,
            };
        }
        let compile_secs = plan_compile_secs(&prior.program, &assignment);
        tracer.end_with(
            span,
            None,
            vec![("csd_lines".into(), assignment.csd_lines.len().into())],
        );
        let eq1 = crate::audit::capture_terms(&estimates, &assignment, bw, 1);
        Ok(OffloadPlan {
            program: prior.program.clone(),
            lowered: prior.lowered.clone(),
            sampling: prior.sampling.clone(),
            predictions,
            calibration: prior.calibration,
            copy_elim: prior.copy_elim.clone(),
            estimates,
            assignment,
            sampling_secs: prior.sampling_secs,
            compile_secs,
            full_storage: prior.full_storage.clone(),
            timings: prior.timings,
            eq1,
        })
    }

    /// Executes a prepared plan under `scenario` contention on a fresh
    /// system built from `config`, applying this runtime's execution
    /// options (monitoring policy, preemption, overhead charging).
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn execute_plan(
        &self,
        plan: &OffloadPlan,
        config: &SystemConfig,
        scenario: ContentionScenario,
    ) -> Result<ActivePyOutcome> {
        let mut system = config.build();
        if self.options.charge_pipeline_overheads {
            system.advance(Duration::from_secs(plan.sampling_secs + plan.compile_secs));
            self.options.tracer.instant(
                "exec.pipeline_overheads",
                SpanKind::Phase,
                Some(system.now().as_secs()),
                vec![
                    ("sampling_secs".into(), plan.sampling_secs.into()),
                    ("compile_secs".into(), plan.compile_secs.into()),
                ],
            );
        }
        let opts = ExecOptions::from_runtime(&self.options, scenario);
        // Journal the plan identity before executing: a resume against a
        // different plan (changed program, drifted fit) is detected at
        // the very first record rather than at some divergent boundary.
        opts.journal.on_record(WalRecord::PlanCommit {
            lane: 0,
            plan_fp: plan_fingerprint(plan),
            shard_fp: 0,
        })?;
        let placements = plan.assignment.placements(plan.program.len());
        // The plan carries the lowering; don't re-lower per scenario.
        let mut report = execute(
            &plan.program,
            &plan.lowered,
            &plan.full_storage,
            &placements,
            Some(&plan.estimates),
            None,
            &mut system,
            &opts,
        )?;
        // Echo the Eq. 1 terms of the assignment that actually executed
        // (recomputed rather than copied from `plan.eq1`, so callers that
        // force placements on a cloned plan still audit what ran).
        report.eq1 = crate::audit::capture_terms(
            &plan.estimates,
            &plan.assignment,
            config.d2h_bandwidth().as_bytes_per_sec(),
            1,
        );

        Ok(ActivePyOutcome {
            report,
            assignment: plan.assignment.clone(),
            estimates: plan.estimates.clone(),
            predictions: plan.predictions.clone(),
            sampling: plan.sampling.clone(),
            sampling_secs: plan.sampling_secs,
            compile_secs: plan.compile_secs,
            calibration: plan.calibration,
        })
    }

    /// Simulated wall-clock cost of the sampling runs: the sample programs
    /// execute interpreted on the host.
    fn sampling_secs(&self, sampling: &SamplingReport, config: &SystemConfig) -> f64 {
        let ops = sampling
            .total_sampling_cost
            .effective_ops(ExecTier::Interpreted, &self.options.params);
        let host_rate = config.host.nominal_rate().as_ops_per_sec();
        let storage_bw = config.host_storage_bandwidth().as_bytes_per_sec();
        ops as f64 / host_rate + sampling.total_sampling_cost.storage_bytes as f64 / storage_bw
    }
}

/// Simulated code-generation cost of a plan: host code for the whole
/// program, plus device code for the offloaded lines when there are any.
fn plan_compile_secs(program: &Program, assignment: &Assignment) -> f64 {
    let csd_lines = assignment.csd_lines.len();
    CompiledProgram::compile_secs_for(program.len())
        + if csd_lines > 0 {
            CompiledProgram::compile_secs_for(csd_lines)
        } else {
            0.0
        }
}

/// Host wall-clock elapsed since `start`, saturating into `u64` nanos.
fn phase_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::builtins::Storage;
    use alang::parser::parse;
    use alang::value::ArrayVal;
    use alang::Value;

    /// A filter-reduce workload over an 8 GB logical array. The
    /// materialized length is kept a multiple of 100 so the `a < 50`
    /// selectivity is exactly 0.5 at every sampling scale.
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

    const SRC: &str = "\
a = scan('v')
m = a < 50
b = select(a, m)
s = sum(b)
";

    #[test]
    fn pipeline_runs_end_to_end_and_offloads_the_scan() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let outcome = ActivePy::new()
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("pipeline");
        assert!(
            outcome.assignment.csd_lines.contains(&0),
            "the scan line should offload: {:?}",
            outcome.assignment
        );
        assert!(outcome.report.total_secs > 0.0);
        assert!(outcome.sampling_secs > 0.0);
        assert!(outcome.compile_secs > 0.0);
        assert_eq!(outcome.estimates.len(), 4);
        assert_eq!(outcome.predictions.len(), 4);
    }

    #[test]
    fn activepy_beats_the_host_only_baseline() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let outcome = ActivePy::new()
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("pipeline");
        let host = execute(
            &program,
            &alang::lower::lower(&program).expect("lower"),
            &input().storage_at(1.0),
            &[csd_sim::EngineKind::Host; 4],
            None,
            None,
            &mut config.build(),
            &ExecOptions::native_static(),
        )
        .expect("host baseline");
        assert!(
            outcome.report.total_secs < host.total_secs,
            "ActivePy {} must beat host {}",
            outcome.report.total_secs,
            host.total_secs
        );
    }

    #[test]
    fn pipeline_overheads_are_small() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let outcome = ActivePy::new()
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("pipeline");
        let overhead = outcome.sampling_secs + outcome.compile_secs;
        assert!(
            overhead < 0.10 * outcome.report.total_secs,
            "overhead {overhead}s too large vs total {}s",
            outcome.report.total_secs
        );
    }

    #[test]
    fn without_migration_option_disables_monitor() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
        let outcome = rt
            .run(
                &program,
                &input(),
                &config,
                ContentionScenario::after_progress(0.5, 0.1),
            )
            .expect("pipeline");
        assert!(outcome.report.migration.is_none());
    }

    #[test]
    fn parallel_plan_execution_matches_serial() {
        // The policy is execution-only: the plan (sampling, fitting,
        // assignment) and the report's observable outcome are unchanged.
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let serial = ActivePy::new()
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("serial");
        let policy = ParallelPolicy::new(8, 256).expect("policy");
        let par = ActivePy::with_options(ActivePyOptions::default().with_parallelism(policy))
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("parallel");
        assert_eq!(par.assignment, serial.assignment);
        assert_eq!(par.report.lines, serial.report.lines);
        assert_eq!(
            par.report.values_fingerprint,
            serial.report.values_fingerprint
        );
        assert_eq!(par.report.total_secs, serial.report.total_secs);
        assert_eq!(par.report.parallel, policy);
    }

    #[test]
    fn volume_predictions_are_close_to_measured() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let outcome = ActivePy::new()
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("pipeline");
        // Compare predicted vs measured output volume per line (the
        // paper's headline accuracy result: geomean error ≈ 9 %).
        for (pred, line) in outcome.predictions.iter().zip(&outcome.report.lines) {
            let predicted = pred.cost.bytes_out as f64;
            let measured = line.cost.bytes_out as f64;
            if measured > 1e6 {
                let err = (predicted - measured).abs() / measured;
                assert!(
                    err < 0.25,
                    "line {} volume error {err}: predicted {predicted}, measured {measured}",
                    pred.line
                );
            }
        }
    }
}
