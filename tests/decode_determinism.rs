//! Decode differential: random wire formats × random placements × pinned
//! fault plans × every fleet size. One decode
//! pipeline, one answer.
//!
//! The program is fixed — a scan_raw→decode→filter→aggregate pipeline
//! over two encoded datasets — and everything around it is drawn:
//! each dataset's codec / shuffle / byte order / fill sentinel, the
//! per-line host-or-CSD placement, the per-device fault stream, and the
//! shard count. Every combination must
//! produce the clean unsharded reference's `values_fingerprint`: wire
//! decoding is bit-exact everywhere or it is not a storage format.

use activepy::exec::{execute, ExecOptions};
use activepy::{execute_sharded, FleetRun};
use alang::builtins::Storage;
use alang::parser::parse;
use alang::shard::{ShardMap, ShardStrategy};
use alang::value::EncodedVal;
use alang::Value;
use csd_sim::fault::FaultPlan;
use csd_sim::units::SimTime;
use csd_sim::wire::{ByteOrder, Codec, Encoding};
use csd_sim::{EngineKind, SystemConfig};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The pipeline under test: decode both streams, grep, aggregate. Nine
/// lines so placement draws cover host/CSD boundaries inside the decode
/// prefix, between the decodes, and at the reduction tail.
const SOURCE: &str = "\
ra = scan_raw('a')
a = decode(ra)
rb = scan_raw('b')
b = decode(rb)
x = a * 2 + b
m = x > 40
sel = select(x, m)
s = sum(sel)
c = count(m)
";

/// Deterministic patterned payload (compressible, sentinel-bearing).
fn payload(salt: u64, sentinel: Option<f64>) -> Vec<f64> {
    (0..256)
        .map(|i: u64| {
            let h = i.wrapping_mul(97).wrapping_add(salt);
            if h.is_multiple_of(11) {
                sentinel.unwrap_or(0.0)
            } else {
                ((h % 50) as f64) - 4.0
            }
        })
        .collect()
}

fn arb_encoding() -> impl Strategy<Value = Encoding> {
    (
        prop_oneof![Just(Codec::None), Just(Codec::Gzip), Just(Codec::Zlib)],
        any::<bool>(),
        prop_oneof![Just(ByteOrder::Little), Just(ByteOrder::Big)],
        prop_oneof![Just(None), Just(Some(-1.0f64)), Just(Some(f64::NAN))],
    )
        .prop_map(|(codec, shuffle, byte_order, fill_value)| Encoding {
            codec,
            shuffle,
            byte_order,
            fill_value,
        })
}

/// Storage with both streams under the drawn wire formats. Logical rows
/// stay at the materialized length: encoded values replicate rather than
/// shard, so the differential exercises the replication path at every N.
fn storage(enc_a: Encoding, enc_b: Encoding) -> Storage {
    let mut st = Storage::new();
    let a = payload(3, enc_a.fill_value);
    let b = payload(11, enc_b.fill_value);
    st.insert(
        "a",
        Value::Encoded(EncodedVal::from_f64s(enc_a, &a, a.len() as u64)),
    );
    st.insert(
        "b",
        Value::Encoded(EncodedVal::from_f64s(enc_b, &b, b.len() as u64)),
    );
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_wire_format_produces_one_fingerprint(
        enc_a in arb_encoding(),
        enc_b in arb_encoding(),
        on_csd in prop::collection::vec(any::<bool>(), 9..10),
        faults in (
            0u64..1_000,
            0.0f64..0.2,
            0.0f64..0.2,
            prop_oneof![Just(None), (0.0f64..0.05).prop_map(Some)],
        ),
        shard_strategy in prop_oneof![
            Just(ShardStrategy::Range),
            (0u64..1_000).prop_map(ShardStrategy::Hash),
        ],
    ) {
        let (seed, flash, nvme, crash) = faults;
        let program = parse(SOURCE).expect("pipeline parses");
        let lowered = alang::lower::lower(&program).expect("pipeline lowers");
        let placements: Vec<EngineKind> = on_csd
            .iter()
            .map(|&c| if c { EngineKind::Cse } else { EngineKind::Host })
            .collect();
        let st = storage(enc_a, enc_b);
        let config = SystemConfig::paper_default();

        // The clean unsharded all-host reference: placement, faults, and
        // sharding must never move a bit of the answer.
        let reference = {
            let mut system = config.build();
            let host = vec![EngineKind::Host; program.len()];
            execute(&program, &lowered, &st, &host, None, None, &mut system, &ExecOptions::activepy())
            .expect("reference run")
            .values_fingerprint
        };

        let opts = ExecOptions::activepy();

        let mut system = config.build();
        let placed = execute(&program, &lowered, &st, &placements, None, None, &mut system, &opts).expect("placed run");
        prop_assert_eq!(
            placed.values_fingerprint, reference,
            "placement moved the answer\na: {:?}\nb: {:?}",
            enc_a, enc_b
        );

        for &n in &SHARD_COUNTS {
            let map = ShardMap::auto(&st, n, shard_strategy);
            let faults: Vec<FaultPlan> = (0..n)
                .map(|s| {
                    let mut plan = FaultPlan::none()
                        .with_seed(seed.wrapping_mul(31).wrapping_add(s as u64))
                        .with_flash_read_error_prob(flash)
                        .with_nvme_error_prob(nvme);
                    if let Some(at) = crash {
                        plan = plan.with_crash_at(SimTime::from_secs(at));
                    }
                    plan
                })
                .collect();
            let run = FleetRun {
                program: &program,
                storage: &st,
                map: &map,
                lowered: &lowered,
                lead_in_secs: 0.0,
            };
            let faulted = execute_sharded(
                &run, &vec![placements.clone(); n], None, &config, &opts, &faults,
            ).expect("sharded faulted run");
            prop_assert_eq!(
                faulted.values_fingerprint, reference,
                "N={} faulted fleet diverged\na: {:?}\nb: {:?}",
                n, enc_a, enc_b
            );
            prop_assert_eq!(
                faulted.recovered_transients(),
                faulted.injected.transient_total(),
                "recovery accounting missed faults"
            );
        }
    }
}
