//! Retry/backoff/fallback policy for injected device faults.
//!
//! The recovery layer sits between the execution engine and the
//! simulator's fallible `try_*` operations: transient faults are retried
//! with bounded exponential backoff *charged to sim time*, and a hard
//! fault (or retry exhaustion) escalates to the caller, which performs a
//! checkpointed migration of the remaining work to the host (§III-D
//! applied to device adversity rather than IPC degradation).

use crate::error::{ActivePyError, Result};
use csd_sim::fault::DeviceFault;
use csd_sim::units::Duration;
use csd_sim::System;
use isp_obs::{SpanKind, Tracer};
use serde::{Deserialize, Serialize};

/// Stable short name of a fault variant, used as the `kind` attribute of
/// `fault.injected` trace instants (matches the `fault.*_errors` counter
/// family published from [`csd_sim::fault::FaultCounters`]).
pub(crate) fn fault_kind_str(fault: &DeviceFault) -> &'static str {
    match fault {
        DeviceFault::FlashRead { .. } => "flash_read",
        DeviceFault::NvmeCommand { .. } => "nvme_command",
        DeviceFault::DmaTransfer { .. } => "dma_transfer",
        DeviceFault::CseCrash { .. } => "cse_crash",
    }
}

/// How the runtime responds to injected device faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Retries allowed per operation before a transient fault is treated
    /// as hard.
    pub max_retries: u32,
    /// Backoff charged to sim time before the first retry, seconds.
    pub backoff_secs: f64,
    /// Multiplier applied to the backoff on each further retry (≥ 1).
    pub backoff_multiplier: f64,
    /// Whether a hard fault migrates the remaining CSD work to the host
    /// (graceful degradation). When `false`, hard faults are terminal
    /// errors.
    pub fallback_to_host: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_secs: 2e-4,
            backoff_multiplier: 2.0,
            fallback_to_host: true,
        }
    }
}

impl RecoveryPolicy {
    /// Exponent cap for the backoff growth, so a long retry chain cannot
    /// produce astronomically large sim-time charges.
    const MAX_BACKOFF_EXPONENT: u32 = 16;

    /// Builds a validated policy.
    ///
    /// # Errors
    ///
    /// Returns [`ActivePyError::Config`] under the same conditions as
    /// [`RecoveryPolicy::validate`].
    pub fn new(
        max_retries: u32,
        backoff_secs: f64,
        backoff_multiplier: f64,
        fallback_to_host: bool,
    ) -> Result<Self> {
        let policy = RecoveryPolicy {
            max_retries,
            backoff_secs,
            backoff_multiplier,
            fallback_to_host,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Checks the policy is usable: the base backoff must be finite and
    /// non-negative, the multiplier finite and at least 1.
    ///
    /// # Errors
    ///
    /// Returns [`ActivePyError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !(self.backoff_secs.is_finite() && self.backoff_secs >= 0.0) {
            return Err(ActivePyError::config(format!(
                "recovery backoff must be finite and non-negative, got {}",
                self.backoff_secs
            )));
        }
        if !(self.backoff_multiplier.is_finite() && self.backoff_multiplier >= 1.0) {
            return Err(ActivePyError::config(format!(
                "recovery backoff multiplier must be finite and at least 1, got {}",
                self.backoff_multiplier
            )));
        }
        Ok(())
    }

    /// Disables host fallback: hard faults become terminal errors.
    #[must_use]
    pub fn without_fallback(mut self) -> Self {
        self.fallback_to_host = false;
        self
    }

    /// The sim-time backoff before retry number `attempt` (1-based):
    /// `backoff_secs * multiplier^(attempt - 1)`, growth capped.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(Self::MAX_BACKOFF_EXPONENT);
        self.backoff_secs
            * self
                .backoff_multiplier
                .powi(i32::try_from(exp).expect("exp <= 16"))
    }
}

/// Counters a run's recovery layer accumulates; reported on
/// `metrics.recovery` of [`RunReport`](crate::exec::RunReport).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Transient faults absorbed (each injected transient fault counts
    /// exactly once, whether or not its retry succeeded).
    pub transient_faults: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Operations that ultimately succeeded after at least one retry.
    pub recovered_ops: u64,
    /// Hard faults: crashes plus transient-retry exhaustions.
    pub hard_faults: u64,
    /// Migrations caused by device faults.
    pub fault_migrations: u64,
    /// Total sim-time seconds spent backing off between retries.
    pub backoff_secs: f64,
}

/// The per-run retry engine: owns the policy, the stats, and the trace
/// handle that records fault/recovery events as they surface.
pub(crate) struct Recovery {
    pub(crate) policy: RecoveryPolicy,
    pub(crate) stats: RecoveryStats,
    tracer: Tracer,
}

impl Recovery {
    #[cfg(test)]
    pub(crate) fn new(policy: RecoveryPolicy) -> Self {
        Self::with_tracer(policy, Tracer::disabled())
    }

    pub(crate) fn with_tracer(policy: RecoveryPolicy, tracer: Tracer) -> Self {
        Recovery {
            policy,
            stats: RecoveryStats::default(),
            tracer,
        }
    }

    /// Records an injected fault surfacing to the runtime as a trace
    /// instant on the simulated clock.
    fn trace_fault(&self, system: &System, fault: &DeviceFault) {
        self.tracer.instant(
            "fault.injected",
            SpanKind::Fault,
            Some(system.now().as_secs()),
            vec![
                ("kind".to_string(), fault_kind_str(fault).into()),
                ("transient".to_string(), fault.is_transient().into()),
            ],
        );
    }

    /// Runs `op`, retrying transient faults up to the policy's bound with
    /// backoff charged to sim time. A hard fault, or a transient fault
    /// that exhausts its retries, is returned to the caller (who decides
    /// between terminal error and fault migration).
    pub(crate) fn run_bounded<T>(
        &mut self,
        system: &mut System,
        mut op: impl FnMut(&mut System) -> std::result::Result<T, DeviceFault>,
    ) -> std::result::Result<T, DeviceFault> {
        let mut attempt = 0u32;
        loop {
            match op(system) {
                Ok(v) => {
                    if attempt > 0 {
                        self.stats.recovered_ops += 1;
                    }
                    return Ok(v);
                }
                Err(fault) => {
                    self.trace_fault(system, &fault);
                    if fault.is_transient() {
                        self.stats.transient_faults += 1;
                    }
                    // Branch on structured kind, not message strings.
                    let retryable = ActivePyError::from(fault).is_retryable();
                    if retryable && attempt < self.policy.max_retries {
                        attempt += 1;
                        self.stats.retries += 1;
                        self.back_off(system, attempt);
                    } else {
                        self.stats.hard_faults += 1;
                        return Err(fault);
                    }
                }
            }
        }
    }

    /// Runs a must-complete operation (host staging, migration-state
    /// drain, final-result transfer): transient faults are retried without
    /// bound. Termination is guaranteed because fault probabilities are
    /// capped strictly below 1 ([`FaultPlan::MAX_ERROR_PROB`]) and none of
    /// the must-complete operations has a permanent failure mode (DMA
    /// survives the CSE crash).
    ///
    /// [`FaultPlan::MAX_ERROR_PROB`]: csd_sim::fault::FaultPlan::MAX_ERROR_PROB
    pub(crate) fn run_to_completion<T>(
        &mut self,
        system: &mut System,
        mut op: impl FnMut(&mut System) -> std::result::Result<T, DeviceFault>,
    ) -> T {
        let mut attempt = 0u32;
        loop {
            match op(system) {
                Ok(v) => {
                    if attempt > 0 {
                        self.stats.recovered_ops += 1;
                    }
                    return v;
                }
                Err(fault) => {
                    self.trace_fault(system, &fault);
                    debug_assert!(
                        fault.is_transient(),
                        "must-complete operations only face transient faults, got {fault}"
                    );
                    self.stats.transient_faults += 1;
                    attempt += 1;
                    self.stats.retries += 1;
                    self.back_off(system, attempt);
                }
            }
        }
    }

    fn back_off(&mut self, system: &mut System, attempt: u32) {
        let backoff = self.policy.backoff_for(attempt);
        self.stats.backoff_secs += backoff;
        let span = self.tracer.begin_with(
            "recovery.backoff",
            SpanKind::Recovery,
            Some(system.now().as_secs()),
            vec![
                ("attempt".to_string(), attempt.into()),
                ("backoff_secs".to_string(), backoff.into()),
            ],
        );
        system.advance(Duration::from_secs(backoff));
        self.tracer.end(span, Some(system.now().as_secs()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_sim::fault::FaultPlan;
    use csd_sim::units::SimTime;

    #[test]
    fn default_policy_is_valid() {
        assert!(RecoveryPolicy::default().validate().is_ok());
        assert!(
            !RecoveryPolicy::default()
                .without_fallback()
                .fallback_to_host
        );
    }

    #[test]
    fn validation_rejects_bad_policies() {
        assert!(RecoveryPolicy::new(3, -1.0, 2.0, true).is_err());
        assert!(RecoveryPolicy::new(3, f64::NAN, 2.0, true).is_err());
        assert!(RecoveryPolicy::new(3, 1e-3, 0.5, true).is_err());
        assert!(RecoveryPolicy::new(3, 1e-3, f64::INFINITY, true).is_err());
        assert!(RecoveryPolicy::new(0, 0.0, 1.0, false).is_ok());
    }

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        let p = RecoveryPolicy {
            max_retries: 100,
            backoff_secs: 1.0,
            backoff_multiplier: 2.0,
            fallback_to_host: true,
        };
        assert!((p.backoff_for(1) - 1.0).abs() < 1e-12);
        assert!((p.backoff_for(2) - 2.0).abs() < 1e-12);
        assert!((p.backoff_for(4) - 8.0).abs() < 1e-12);
        // Growth caps at multiplier^16.
        assert!((p.backoff_for(40) - p.backoff_for(17)).abs() < 1e-9);
    }

    #[test]
    fn run_bounded_retries_transient_then_succeeds() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new(RecoveryPolicy::default());
        let mut failures_left = 2;
        let before = system.now();
        let out = recov.run_bounded(&mut system, |s| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(DeviceFault::FlashRead { at: s.now() })
            } else {
                Ok(7)
            }
        });
        assert_eq!(out, Ok(7));
        assert_eq!(recov.stats.transient_faults, 2);
        assert_eq!(recov.stats.retries, 2);
        assert_eq!(recov.stats.recovered_ops, 1);
        assert_eq!(recov.stats.hard_faults, 0);
        // Backoff was charged to sim time: 2e-4 + 4e-4.
        let elapsed = system.now().duration_since(before).as_secs();
        assert!((elapsed - 6e-4).abs() < 1e-12, "elapsed {elapsed}");
        assert!((recov.stats.backoff_secs - 6e-4).abs() < 1e-12);
    }

    #[test]
    fn run_bounded_exhausts_retries_into_a_hard_fault() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new(RecoveryPolicy::default());
        let out: std::result::Result<(), _> = recov.run_bounded(&mut system, |s| {
            Err(DeviceFault::NvmeCommand { at: s.now() })
        });
        assert!(out.is_err());
        // max_retries=3: initial attempt + 3 retries = 4 transient faults.
        assert_eq!(recov.stats.transient_faults, 4);
        assert_eq!(recov.stats.retries, 3);
        assert_eq!(recov.stats.hard_faults, 1);
        assert_eq!(recov.stats.recovered_ops, 0);
    }

    #[test]
    fn run_bounded_passes_crashes_through_without_retry() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new(RecoveryPolicy::default());
        let out: std::result::Result<(), _> =
            recov.run_bounded(&mut system, |s| Err(DeviceFault::CseCrash { at: s.now() }));
        assert_eq!(out, Err(DeviceFault::CseCrash { at: SimTime::ZERO }));
        assert_eq!(recov.stats.retries, 0);
        assert_eq!(recov.stats.transient_faults, 0);
        assert_eq!(recov.stats.hard_faults, 1);
    }

    #[test]
    fn run_to_completion_outlasts_any_bounded_retry_budget() {
        let mut system = System::paper_default();
        let mut recov = Recovery::new(RecoveryPolicy::default());
        let mut failures_left = 25; // far beyond max_retries
        let out = recov.run_to_completion(&mut system, |s| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(DeviceFault::DmaTransfer { at: s.now() })
            } else {
                Ok("done")
            }
        });
        assert_eq!(out, "done");
        assert_eq!(recov.stats.transient_faults, 25);
        assert_eq!(recov.stats.hard_faults, 0);
        assert_eq!(recov.stats.recovered_ops, 1);
    }

    #[test]
    fn run_to_completion_terminates_against_real_injection() {
        let mut system = System::paper_default();
        system.install_faults(
            FaultPlan::none()
                .with_seed(5)
                .with_dma_error_prob(FaultPlan::MAX_ERROR_PROB),
        );
        let mut recov = Recovery::new(RecoveryPolicy::default());
        for _ in 0..20 {
            recov.run_to_completion(&mut system, |s| {
                s.try_transfer(
                    csd_sim::Direction::DeviceToHost,
                    csd_sim::units::Bytes::from_mib(1),
                )
            });
        }
        assert!(recov.stats.transient_faults > 0, "p=0.9 over 20 transfers");
    }
}
