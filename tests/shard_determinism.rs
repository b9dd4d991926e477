//! Shard differential: random programs × random placements × every fleet
//! size × pinned per-shard fault plans. The invariants the scatter-gather
//! fleet must hold, for every draw:
//!
//! 1. **One answer** — every fleet size N ∈ {1, 2, 4, 8}, sharded by
//!    range or hash, faulted or clean, produces the
//!    same `values_fingerprint` as the unsharded single-device run.
//! 2. **Consistent failure** — a program that errors unsharded (reads of
//!    undefined names) errors at every fleet size too.
//! 3. **Accounting sums** — the transient faults the per-shard recovery
//!    layers absorbed, summed across the fleet, equal the transient
//!    errors the per-device injectors actually delivered.
//! 4. **Crashes latch per device** — each device counts at most one CSE
//!    crash, shard isolation keeps a crash from spreading, and every
//!    hard-faulted shard still contributes the right slice.

use activepy::exec::{execute, ExecOptions};
use activepy::{execute_sharded, FleetRun};
use alang::builtins::Storage;
use alang::parser::parse;
use alang::shard::{ShardMap, ShardStrategy};
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::fault::FaultPlan;
use csd_sim::{EngineKind, SystemConfig};
use proptest::prelude::*;

mod common;
#[path = "common/shard_faults.rs"]
mod shard_faults;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Both stored arrays clear `SHARD_MIN_ROWS`, so the auto map always
/// partitions them.
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

fn strategy() -> impl Strategy<Value = ShardStrategy> {
    prop_oneof![
        Just(ShardStrategy::Range),
        (0u64..1_000).prop_map(ShardStrategy::Hash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_fleet_size_reproduces_the_unsharded_answer(
        lines in common::lines(),
        on_csd in prop::collection::vec(any::<bool>(), 6..7),
        params in shard_faults::fault_params(),
        shard_strategy in strategy(),
    ) {
        let src = common::source(&lines);
        let program = parse(&src).expect("generated source parses");
        let lowered = alang::lower::lower(&program).expect("generated source lowers");
        let placements: Vec<EngineKind> = (0..lines.len())
            .map(|i| if on_csd[i] { EngineKind::Cse } else { EngineKind::Host })
            .collect();
        let st = storage();
        let config = SystemConfig::paper_default();

        let opts = ExecOptions::activepy();

        // The unsharded single-device reference.
        let mut system = config.build();
        let reference = execute(&program, &lowered, &st, &placements, None, None, &mut system, &opts);

        for &n in &SHARD_COUNTS {
            let map = ShardMap::auto(&st, n, shard_strategy);
            prop_assert_eq!(map.count(), n);
            let faults: Vec<FaultPlan> =
                (0..n).map(|s| params.plan_for_shard(s)).collect();
            let run = FleetRun {
                program: &program,
                storage: &st,
                map: &map,
                lowered: &lowered,
                lead_in_secs: 0.0,
            };
            let per_shard = vec![placements.clone(); n];
            let clean = execute_sharded(&run, &per_shard, None, &config, &opts, &[]);
            let faulted = execute_sharded(&run, &per_shard, None, &config, &opts, &faults);
            match (&reference, clean, faulted) {
                (Ok(reference), Ok(clean), Ok(faulted)) => {
                    // Invariant 1: one answer everywhere.
                    prop_assert_eq!(
                        clean.values_fingerprint,
                        reference.values_fingerprint,
                        "clean N={} diverged for:\n{}", n, src
                    );
                    prop_assert_eq!(
                        faulted.values_fingerprint,
                        reference.values_fingerprint,
                        "faulted N={} diverged for:\n{}", n, src
                    );
                    // Invariant 3: fleet-wide recovery accounting
                    // matches what the injectors delivered.
                    prop_assert_eq!(
                        faulted.recovered_transients(),
                        faulted.injected.transient_total(),
                        "recovery accounting missed faults for:\n{}", src
                    );
                    prop_assert_eq!(clean.injected.transient_total(), 0);
                    // Invariant 4: a crash latches per device.
                    prop_assert!(faulted.injected.cse_crashes <= n as u64);
                    for shard in &faulted.shards {
                        if shard.report.metrics.recovery.hard_faults > 0 {
                            prop_assert!(
                                shard.report.migration.is_some(),
                                "shard {} absorbed a hard fault without \
                                 migrating for:\n{}", shard.shard, src
                            );
                        }
                    }
                }
                (Err(_), Err(_), Err(_)) => {
                    // Invariant 2: invalid programs fail at every
                    // fleet size, faulted or not.
                }
                (reference, clean, faulted) => {
                    return Err(TestCaseError::fail(format!(
                        "sharding changed success at N={n} for:\n{src}\n\
                         reference: {reference:?}\nclean: {clean:?}\n\
                         faulted: {faulted:?}"
                    )));
                }
            }
        }
    }
}
