//! Chaos differential: random programs × random placements × random
//! deterministic fault plans. The invariants
//! the recovering runtime must hold, for every draw:
//!
//! 1. **No unhandled faults** — with host fallback on (the default), a
//!    faulted run succeeds exactly when its fault-free twin does.
//! 2. **No wrong answers** — the values fingerprint of the faulted run is
//!    byte-identical to the fault-free one.
//! 3. **Every hard fault is absorbed** — a crash or retry exhaustion
//!    always surfaces as a `MigrationReason::DeviceFault` host fallback,
//!    never as an error or a silent divergence.
//! 4. **Accounting agrees** — the transient faults the recovery layer
//!    reports equal the transient errors the injector actually injected.

use activepy::exec::{execute, ExecOptions, MigrationReason, RunReport};
use activepy::ActivePyError;
use alang::builtins::Storage;
use alang::parser::parse;
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::fault::FaultPlan;
use csd_sim::{EngineKind, FaultCounters, SystemConfig};
use proptest::prelude::*;

mod common;
#[path = "common/faults.rs"]
mod faults;

fn storage() -> Storage {
    let mut st = Storage::new();
    st.insert(
        "v",
        Value::Array(ArrayVal::with_logical(
            (0..64).map(|i| f64::from(i % 10)).collect(),
            1_000_000,
        )),
    );
    st.insert(
        "w",
        Value::Array(ArrayVal::with_logical(
            (0..32).map(|i| f64::from(i) - 16.0).collect(),
            500_000,
        )),
    );
    st
}

/// One execution on a fresh system; returns the report (or error) plus
/// what the injector actually injected.
fn run_once(
    src: &str,
    placements: &[EngineKind],
    faults: &FaultPlan,
) -> (Result<RunReport, ActivePyError>, FaultCounters) {
    let program = parse(src).expect("generated source parses");
    let lowered = alang::lower::lower(&program).expect("generated source lowers");
    let st = storage();
    let mut system = SystemConfig::paper_default().build();
    let opts = ExecOptions::activepy().with_faults(faults.clone());
    let res = execute(
        &program,
        &lowered,
        &st,
        placements,
        None,
        None,
        &mut system,
        &opts,
    );
    (res, system.fault_counters())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn faulted_runs_recover_to_the_fault_free_answer(
        lines in common::lines(),
        on_csd in prop::collection::vec(any::<bool>(), 6..7),
        faults in faults::fault_plan(),
    ) {
        let src = common::source(&lines);
        let placements: Vec<EngineKind> = (0..lines.len())
            .map(|i| if on_csd[i] { EngineKind::Cse } else { EngineKind::Host })
            .collect();
        let clean_plan = FaultPlan::none();

        let (clean, _) = run_once(&src, &placements, &clean_plan);
        let (faulted, injected) = run_once(&src, &placements, &faults);
        match (clean, faulted) {
            (Ok(clean), Ok(faulted)) => {
                // Invariant 2: byte-identical answers.
                prop_assert_eq!(
                    clean.values_fingerprint, faulted.values_fingerprint,
                    "faults changed the answer for:\n{}", src
                );
                // Invariant 3: hard faults always resolve into a
                // device-fault migration, never an unhandled error.
                if faulted.metrics.recovery.hard_faults > 0 {
                    let mig = faulted.migration.expect("hard fault must migrate");
                    prop_assert_eq!(mig.reason, MigrationReason::DeviceFault);
                    prop_assert!(faulted.metrics.recovery.fault_migrations >= 1);
                }
                // Invariant 4: recovery accounting matches injection.
                prop_assert_eq!(
                    faulted.metrics.recovery.transient_faults,
                    injected.transient_total(),
                    "recovery layer missed injected faults for:\n{}", src
                );
                // A crash latches: once observed, nothing further runs
                // on the CSE, so at most one crash is ever counted.
                prop_assert!(injected.cse_crashes <= 1);
            }
            (Err(_), Err(_)) => {
                // Invalid programs (reads of undefined names) fail
                // with or without faults; nothing further to check.
            }
            (clean, faulted) => {
                // Invariant 1 violated.
                return Err(TestCaseError::fail(format!(
                    "fault injection changed success for:\n{src}\n\
                     clean: {clean:?}\nfaulted: {faulted:?}"
                )));
            }
        }
    }
}
