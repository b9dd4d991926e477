//! Re-planning determinism: profile-guided refits and phase-shifting
//! availability traces may steer *where* lines run — host-ward under a
//! burst, device-ward on reclaim, or to a different assignment after a
//! refit — but never *what* they compute. Random programs run under
//! random burst/recovery traces through the full feedback loop (cold
//! plan → monitored recording run → refit → re-planned run) and every
//! cell must report the uncontended reference's `values_fingerprint`. The refitted plan must also honor
//! the warm-never-worse contract: under the blended cost model its
//! modelled sim-time never exceeds the cold assignment's.

use activepy::assign::projected_cost;
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{InputSource, PlanCache};
use alang::builtins::Storage;
use alang::parser::parse;
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use proptest::prelude::*;

const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// Builtins safe on every value the grammar can produce (`sort` panics
/// on NaNs, `len` rejects scalars; both stay out). The reductions only
/// ever wrap expressions the grammar keeps array-shaped.
const MAPS: [&str; 2] = ["sqrt", "abs"];
const REDUCES: [&str; 2] = ["sum", "mean"];

/// Arithmetic only: comparison masks feeding back into arithmetic or
/// `sqrt`/`abs` error out in sampling, which would skip the case — the
/// planning loop, not the type checker, is under test here.
const OPS: [&str; 4] = ["+", "-", "*", "/"];

fn ident() -> BoxedStrategy<String> {
    (0usize..VARS.len())
        .prop_map(|i| VARS[i].to_owned())
        .boxed()
}

/// A random expression in source form, up to three levels deep.
fn expr() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0u32..50).prop_map(|n| n.to_string()),
        (1u32..40).prop_map(|n| format!("{n}.5")),
        ident(),
        Just("scan('v')".to_owned()),
        Just("scan('w')".to_owned()),
    ];
    leaf.boxed().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| format!("-({e})")),
            (inner.clone(), inner.clone(), 0usize..OPS.len())
                .prop_map(|(l, r, op)| format!("({l} {} {r})", OPS[op])),
            (inner.clone(), 0usize..MAPS.len()).prop_map(|(e, f)| format!("{}({e})", MAPS[f])),
            (inner, 0usize..REDUCES.len())
                .prop_map(|(e, f)| format!("{}((scan('v') + {e}))", REDUCES[f])),
        ]
    })
}

/// Scale-aware input for the sampling phase, as in the plan-cache tests:
/// logical sizes follow the requested scale, physical arrays stay small.
fn input() -> impl InputSource {
    |scale: f64| {
        let logical = (scale * 1e9).round().max(100.0) as u64;
        let actual = (((logical / 100_000).clamp(100, 8000) / 100) * 100) as usize;
        let mut st = Storage::new();
        st.insert(
            "v",
            Value::Array(ArrayVal::with_logical(
                (0..actual).map(|i| (i % 100) as f64).collect(),
                logical,
            )),
        );
        st.insert(
            "w",
            Value::Array(ArrayVal::with_logical(
                (0..actual).map(|i| (i % 97) as f64 - 48.0).collect(),
                logical / 2,
            )),
        );
        st
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replanning_never_changes_values_and_warm_is_never_worse(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..5),
        drop_frac in 0.05f64..0.6,
        recover_span in 0.1f64..0.9,
        burst in 0.02f64..0.3,
    ) {
        // The prelude defines every identifier the grammar can reference
        // (use-before-definition is a sampling error, not an interesting
        // case) and guarantees real device-resident inputs in every plan.
        let prelude = "a = scan('v')\nb = scan('w')\nc = (a * 2) - 1\nd = mean(b)\n";
        let src: String = std::iter::once(prelude.to_owned())
            .chain(
                lines
                    .iter()
                    .map(|(t, e)| format!("{} = {e}\n", VARS[*t])),
            )
            .collect();
        let program = parse(&src).expect("generated source parses");
        let config = SystemConfig::paper_default();

        // Fingerprints from every cell; all equal.
        let mut fingerprints: Vec<(String, u64)> = Vec::new();
        let cache = PlanCache::new();
        let static_rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
        // Programs whose sampling runs fail (e.g. sqrt of a boolean
        // mask comparison chain that errors) can't be planned, so
        // skipping here discards the whole case.
        let Ok(cold) = cache.plan_for(&static_rt, "prop", &program, &input(), &config)
        else {
            return Ok(());
        };
        let clean = static_rt
            .execute_plan(&cold, &config, ContentionScenario::none())
            .expect("planned programs run");
        // Burst and recovery land at random points of the clean run.
        let total = clean.report.total_secs;
        let drop_at = drop_frac * total;
        let recover_at = drop_at + recover_span * (total - drop_at).max(1e-6);
        let scenario =
            ContentionScenario::at_time(SimTime::from_secs(drop_at), burst)
                .with_recovery_at(SimTime::from_secs(recover_at));

        let static_run = static_rt
            .execute_plan(&cold, &config, scenario)
            .expect("static run");
        let monitored_rt = ActivePy::with_options(
            ActivePyOptions::default()
                .with_profile(cache.recorder_for(&static_rt, "prop", &input(), &config)),
        );
        let monitored = monitored_rt
            .execute_plan(&cold, &config, scenario)
            .expect("monitored run");

        // The recorded profile is newer than the cached plan, so this
        // lookup refits.
        let replan_rt = ActivePy::new();
        let warm = cache
            .plan_for(&replan_rt, "prop", &program, &input(), &config)
            .expect("refit succeeds");
        prop_assert_eq!(
            cache.stats().refits, 1,
            "one recorded run must trigger exactly one refit for:\n{}", src
        );
        let replanned = replan_rt
            .execute_plan(&warm, &config, scenario)
            .expect("re-planned run");

        // Warm-never-worse, under the model both plans now share: the
        // refit evaluated the cold assignment as a candidate, so its
        // pick can't project slower than the cold placements do.
        let bw = config.d2h_bandwidth().as_bytes_per_sec();
        let prior_placements = cold.assignment.placements(program.len());
        let prior_cost = projected_cost(&program, &warm.estimates, &prior_placements, bw);
        prop_assert!(
            warm.assignment.t_csd <= prior_cost + 1e-9,
            "refit regressed the modelled sim-time: warm {} vs cold-under-warm-model {} for:\n{}",
            warm.assignment.t_csd, prior_cost, src
        );

        for (cell, outcome) in [
            ("clean", &clean),
            ("static", &static_run),
            ("monitored", &monitored),
            ("replanned", &replanned),
        ] {
            fingerprints.push((
                cell.to_owned(),
                outcome.report.values_fingerprint,
            ));
        }
        let (first_tag, first_fp) = fingerprints[0].clone();
        for (tag, fp) in &fingerprints[1..] {
            prop_assert_eq!(
                *fp, first_fp,
                "placement policy leaked into values ({} vs {}) for:\n{}",
                first_tag, tag, src
            );
        }
    }
}
