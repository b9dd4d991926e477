//! Compute engines: the host CPU and the computational storage engine (CSE).
//!
//! Both engines are modelled as aggregate operation servers: `cores ×
//! per-core rate × parallel efficiency`, throttled by an
//! [`AvailabilityTrace`]. This captures the paper's two essential facts
//! (§II-B1): the CSE is *slower* than the host CPU, and its availability to
//! the ISP task can change at run time.

use crate::availability::AvailabilityTrace;
use crate::counters::PerfCounters;
use crate::units::{Duration, OpRate, Ops, SimTime};
use isp_obs::{Fingerprint, Fnv1a};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which compute engine a task (or a line of code) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// The host computer's CPU.
    Host,
    /// The computational storage engine inside the CSD.
    Cse,
}

impl EngineKind {
    /// The opposite engine (migration target).
    #[must_use]
    pub fn other(self) -> EngineKind {
        match self {
            EngineKind::Host => EngineKind::Cse,
            EngineKind::Cse => EngineKind::Host,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Host => write!(f, "host"),
            EngineKind::Cse => write!(f, "cse"),
        }
    }
}

/// Static description of a compute engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Which engine this is.
    pub kind: EngineKind,
    /// Clock frequency in hertz.
    pub freq_hz: f64,
    /// Sustained instructions (abstract ops) per cycle per core.
    pub ipc: f64,
    /// Number of cores.
    pub cores: u32,
    /// Fraction of ideal linear speedup the core count achieves on the
    /// data-parallel kernels the workloads use.
    pub parallel_efficiency: f64,
}

impl Fingerprint for EngineKind {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u8(match self {
            EngineKind::Host => 0,
            EngineKind::Cse => 1,
        });
    }
}

isp_obs::fingerprint_fields!(EngineSpec {
    kind,
    freq_hz,
    ipc,
    cores,
    parallel_efficiency
});

impl EngineSpec {
    /// Aggregate nominal throughput of the engine.
    ///
    /// # Panics
    ///
    /// Panics if the spec describes a non-positive rate.
    #[must_use]
    pub fn nominal_rate(&self) -> OpRate {
        OpRate::from_ops_per_sec(
            self.freq_hz * self.ipc * f64::from(self.cores) * self.parallel_efficiency,
        )
    }
}

/// A compute engine instance: spec + availability + counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeEngine {
    spec: EngineSpec,
    availability: AvailabilityTrace,
    fault: AvailabilityTrace,
    counters: PerfCounters,
}

impl ComputeEngine {
    /// Creates an engine with full availability.
    #[must_use]
    pub fn new(spec: EngineSpec) -> Self {
        ComputeEngine {
            spec,
            availability: AvailabilityTrace::full(),
            fault: AvailabilityTrace::full(),
            counters: PerfCounters::new(),
        }
    }

    /// The engine's static description.
    #[must_use]
    pub fn spec(&self) -> &EngineSpec {
        &self.spec
    }

    /// The engine's aggregate nominal throughput.
    #[must_use]
    pub fn nominal_rate(&self) -> OpRate {
        self.spec.nominal_rate()
    }

    /// The availability trace currently in force.
    #[must_use]
    pub fn availability(&self) -> &AvailabilityTrace {
        &self.availability
    }

    /// Replaces the availability trace (e.g. when a contention scenario
    /// triggers).
    pub fn set_availability(&mut self, trace: AvailabilityTrace) {
        self.availability = trace;
    }

    /// Degrades availability to `fraction` from time `at` onward.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn degrade_from(&mut self, at: SimTime, fraction: f64) {
        self.availability = self.availability.clone().with_change(at, fraction);
    }

    /// Installs an injected-fault availability trace (e.g. GC bursts from
    /// a fault plan). Kept separate from the contention trace because
    /// contention scenarios replace that trace wholesale mid-run; the two
    /// compose multiplicatively at query time.
    pub fn install_fault_trace(&mut self, trace: AvailabilityTrace) {
        self.fault = trace;
    }

    /// The injected-fault trace currently in force (full when no faults
    /// are installed).
    #[must_use]
    pub fn fault_trace(&self) -> &AvailabilityTrace {
        &self.fault
    }

    /// The fraction of the engine available to the ISP task at `t`:
    /// contention and injected-fault traces composed multiplicatively,
    /// exactly as [`ComputeEngine::time_to_execute`] charges them. This is
    /// what a reclaim decision probes when asking "has the device
    /// recovered?".
    #[must_use]
    pub fn effective_fraction_at(&self, t: SimTime) -> f64 {
        self.availability.fraction_at(t) * self.fault.fraction_at(t)
    }

    /// Wall-clock time to retire `ops` when starting at `start`, under the
    /// current availability trace. Does **not** record counters; use
    /// [`ComputeEngine::execute`] for that.
    #[must_use]
    pub fn time_to_execute(&self, start: SimTime, ops: Ops) -> Duration {
        let effective_secs = self.nominal_rate().execute_time(ops).as_secs();
        if self.fault.is_full() {
            self.availability.invert(start, effective_secs)
        } else {
            self.availability
                .product(&self.fault)
                .invert(start, effective_secs)
        }
    }

    /// Executes `ops` starting at `start`: returns the wall-clock duration
    /// and records it in the performance counters.
    pub fn execute(&mut self, start: SimTime, ops: Ops) -> Duration {
        let wall = self.time_to_execute(start, ops);
        self.counters.record(ops, wall);
        wall
    }

    /// The engine's performance counters.
    #[must_use]
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Resets the performance counters (a new program run).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }
}

/// How far an empirically measured parallel efficiency may sit from a
/// modelled [`EngineSpec::parallel_efficiency`] before the scaling sweep
/// flags the model as miscalibrated.
///
/// The band is deliberately wide: the modelled constants describe the
/// paper's testbed (8× A72 CSE cores, 8 desktop host cores), while the
/// repro's worker pool measures whatever machine the bench runs on — a
/// single-core CI box legitimately measures an efficiency of 1.0 at its
/// best thread count of 1, which must still sit within the band of the
/// CSE's modelled 0.85.
pub const PARALLEL_EFFICIENCY_TOLERANCE: f64 = 0.45;

/// Whether `empirical` parallel efficiency is consistent with a `modelled`
/// [`EngineSpec::parallel_efficiency`], within
/// [`PARALLEL_EFFICIENCY_TOLERANCE`].
#[must_use]
pub fn efficiency_within_band(modelled: f64, empirical: f64) -> bool {
    (modelled - empirical).abs() <= PARALLEL_EFFICIENCY_TOLERANCE
}

/// Default host CPU matching the paper's testbed: an octa-core AMD Ryzen 7
/// 3700X at 3.6 GHz (§IV-A). The parallel efficiency is deliberately low:
/// the Table-I workloads are streaming kernels, and eight desktop cores
/// contending for DRAM bandwidth fall well short of linear scaling.
#[must_use]
pub fn default_host_spec() -> EngineSpec {
    EngineSpec {
        kind: EngineKind::Host,
        freq_hz: 3.6e9,
        ipc: 2.0,
        cores: 8,
        parallel_efficiency: 0.5,
    }
}

/// Default CSE matching the paper's prototype: an SoC with 8 ARM Cortex-A72
/// cores (§IV-A). The aggregate rate makes the CSE just under 2× slower
/// than the host, consistent with the paper's observation that "the
/// computation on the CSE is slower than the host CPU" while the rich
/// internal fabric keeps its cores fed — the gain comes mainly from reduced
/// data volume, but modest offload profits exist across the workload suite
/// (Figure 4's 1.33× average).
#[must_use]
pub fn default_cse_spec() -> EngineSpec {
    EngineSpec {
        kind: EngineKind::Cse,
        freq_hz: 1.6e9,
        ipc: 1.5,
        cores: 8,
        parallel_efficiency: 0.85,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_rate_multiplies_out() {
        let spec = EngineSpec {
            kind: EngineKind::Host,
            freq_hz: 1e9,
            ipc: 2.0,
            cores: 4,
            parallel_efficiency: 0.5,
        };
        assert!((spec.nominal_rate().as_ops_per_sec() - 4e9).abs() < 1.0);
    }

    #[test]
    fn cse_is_slower_than_host() {
        let host = default_host_spec().nominal_rate().as_ops_per_sec();
        let cse = default_cse_spec().nominal_rate().as_ops_per_sec();
        assert!(cse < host, "cse {cse} must be slower than host {host}");
        let ratio = host / cse;
        assert!(
            ratio > 1.2 && ratio < 6.0,
            "slowdown ratio {ratio} out of plausible range"
        );
    }

    #[test]
    fn execute_records_counters() {
        let mut eng = ComputeEngine::new(default_host_spec());
        let wall = eng.execute(SimTime::ZERO, Ops::new(1_000_000_000));
        assert!(wall.as_secs() > 0.0);
        assert_eq!(eng.counters().retired(), Ops::new(1_000_000_000));
        assert!((eng.counters().busy().as_secs() - wall.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn degraded_engine_takes_proportionally_longer() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        let base = eng.time_to_execute(SimTime::ZERO, Ops::new(1_000_000_000));
        eng.degrade_from(SimTime::ZERO, 0.1);
        let slow = eng.time_to_execute(SimTime::ZERO, Ops::new(1_000_000_000));
        assert!((slow.as_secs() / base.as_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn degradation_mid_run_only_affects_tail() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        let rate = eng.nominal_rate().as_ops_per_sec();
        // Work that would take exactly 2s at full rate.
        let ops = Ops::new((rate * 2.0) as u64);
        eng.degrade_from(SimTime::from_secs(1.0), 0.5);
        let wall = eng.time_to_execute(SimTime::ZERO, ops);
        // 1s at full + 1s of effective work at 50% = 1 + 2 = 3s.
        assert!(
            (wall.as_secs() - 3.0).abs() < 1e-6,
            "got {}",
            wall.as_secs()
        );
    }

    #[test]
    fn achieved_ipc_reflects_contention() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        eng.degrade_from(SimTime::ZERO, 0.25);
        eng.execute(SimTime::ZERO, Ops::new(1_000_000_000));
        let nominal_ipc =
            eng.spec().ipc * f64::from(eng.spec().cores) * eng.spec().parallel_efficiency;
        let measured = eng.counters().ipc(eng.spec().freq_hz).expect("ipc");
        assert!((measured / nominal_ipc - 0.25).abs() < 1e-6);
    }

    #[test]
    fn fault_trace_composes_with_contention() {
        let mut eng = ComputeEngine::new(default_cse_spec());
        let base = eng.time_to_execute(SimTime::ZERO, Ops::new(1_000_000_000));
        eng.degrade_from(SimTime::ZERO, 0.5);
        eng.install_fault_trace(AvailabilityTrace::constant(0.5));
        let slow = eng.time_to_execute(SimTime::ZERO, Ops::new(1_000_000_000));
        assert!((slow.as_secs() / base.as_secs() - 4.0).abs() < 1e-6);
        // Removing the fault trace restores pure contention timing.
        eng.install_fault_trace(AvailabilityTrace::full());
        let contended = eng.time_to_execute(SimTime::ZERO, Ops::new(1_000_000_000));
        assert!((contended.as_secs() / base.as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn efficiency_band_accepts_plausible_measurements() {
        let modelled = default_cse_spec().parallel_efficiency;
        // An 8-core machine hitting ~70% of linear, and a single-core box
        // measuring a trivially perfect 1.0, both calibrate.
        assert!(efficiency_within_band(modelled, 0.70));
        assert!(efficiency_within_band(modelled, 1.0));
        // A pool losing most of its speedup to contention does not.
        assert!(!efficiency_within_band(modelled, 0.2));
    }

    #[test]
    fn engine_kind_other_flips() {
        assert_eq!(EngineKind::Host.other(), EngineKind::Cse);
        assert_eq!(EngineKind::Cse.other(), EngineKind::Host);
    }
}
