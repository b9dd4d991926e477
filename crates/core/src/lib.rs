//! # activepy — the ActivePy runtime (DAC 2023), reproduced
//!
//! ActivePy lets a programmer write an ordinary interpreted-language
//! program — no annotations, pragmas, or hints — and transparently decides
//! which lines to run inside a computational storage device (CSD). This
//! crate implements the complete pipeline of the paper against the
//! [`csd_sim`] hardware model and the [`alang`] language substrate:
//!
//! 1. **Sampling** ([`sampling`]): run the program on inputs scaled by
//!    2⁻¹⁰…2⁻⁷ and collect per-line statistics (§III-A).
//! 2. **Fitting** ([`fit`]): extrapolate each line's cost to full scale by
//!    choosing among O(1), O(n), O(n log n), O(n²), O(n³) (§III-A).
//! 3. **Estimation** ([`estimate`]): calibrate the CSE slowdown constant
//!    `C` from performance counters or a probe program, and evaluate the
//!    net-profit equation (Eq. 1).
//! 4. **Assignment** ([`assign`]): Algorithm 1's greedy line-by-line CSD
//!    partitioning (§III-B).
//! 5. **Code generation**: Cython-style compilation with redundant-copy
//!    elimination, binary distribution through BAR-mapped device memory
//!    (§III-C, implemented in [`alang::compile`] and charged by the
//!    execution engine).
//! 6. **Execution, monitoring, migration** ([`exec`], [`monitor`]): NVMe
//!    queue-pair function calls, per-line status updates, IPC-based
//!    degradation detection, and line-boundary task migration back to the
//!    host (§III-C0b, §III-D).
//!
//! The [`runtime::ActivePy`] facade chains all of it:
//!
//! ```
//! use activepy::runtime::ActivePy;
//! use alang::builtins::Storage;
//! use alang::value::ArrayVal;
//! use alang::Value;
//! use csd_sim::{ContentionScenario, SystemConfig};
//!
//! let program = alang::parser::parse("a = scan('v')\ns = sum(a)\n")?;
//! let input = |scale: f64| {
//!     let logical = (scale * 1e9) as u64;
//!     let mut st = Storage::new();
//!     st.insert("v", Value::Array(ArrayVal::with_logical(vec![1.0; 512], logical.max(512))));
//!     st
//! };
//! let outcome = ActivePy::new().run(
//!     &program,
//!     &input,
//!     &SystemConfig::paper_default(),
//!     ContentionScenario::none(),
//! )?;
//! println!("end-to-end: {:.3}s, offloaded {} lines",
//!          outcome.report.total_secs, outcome.assignment.csd_lines.len());
//! # Ok::<(), activepy::error::ActivePyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assign;
pub mod audit;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod fit;
pub mod metrics;
pub mod monitor;
pub mod persist;
pub mod plan;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod resume;
pub mod runtime;
pub mod sampling;
pub mod shard;

pub use assign::Assignment;
pub use audit::{
    calibrate, capture_terms, CalibrationReport, CounterfactualFlip, Eq1Term, LineAudit,
    PhaseAttribution,
};
pub use error::ActivePyError;
pub use estimate::{Calibration, LineEstimate};
pub use exec::{ExecOptions, MigrationReason, RunReport};
pub use metrics::{AuditStats, MetricsSnapshot};
pub use monitor::MonitorConfig;
pub use plan::{OffloadPlan, PlanCache, PlanCacheStats, PlanTimings};
pub use profile::{LineObservation, ProfileKey, ProfileRecorder, ProfileStore, WorkloadProfile};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use resume::{plan_fingerprint, ExecJournal, JournalStats, ResumeInfo};
pub use runtime::{ActivePy, ActivePyOptions, ActivePyOutcome};
pub use sampling::InputSource;
pub use shard::{
    derive_sharded_plan, execute_sharded, execute_sharded_plan, FleetReport, FleetRun,
    ShardRunReport, ShardedPlan,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ActivePy>();
        assert_send_sync::<crate::RunReport>();
        assert_send_sync::<crate::Assignment>();
        assert_send_sync::<crate::OffloadPlan>();
        assert_send_sync::<crate::PlanCache>();
    }
}
