//! Differential testing of the two ALang engines: random programs and
//! random copy-elimination flags must behave identically on the
//! tree-walking reference interpreter and the lowered register-bytecode VM
//! — same [`alang::Value`]s, same `LineCost` stream (including copy-elim
//! tagging), same errors at the same lines.

use alang::builtins::Storage;
use alang::interp::Interpreter;
use alang::parser::parse;
use alang::value::ArrayVal;
use alang::{Value, Vm};
use proptest::prelude::*;

mod common;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_programs_agree_across_engines(
        lines in common::lines(),
        flags in prop::collection::vec(any::<bool>(), 0..8),
    ) {
        let src = common::source(&lines);
        let program = parse(&src).expect("generated source parses");
        let st = storage();
        let mut interp = Interpreter::new(&st);
        let ast = interp.run(&program, &flags);
        // Every generated call targets a registered builtin, so lowering
        // cannot fail (unknown functions are a lower-time error).
        let lowered = alang::lower::lower_with(&program, &flags).expect("lowers");
        let mut vm = Vm::new(&lowered, &st);
        let vm_res = vm.run();
        match (ast, vm_res) {
            (Ok(a), Ok(v)) => {
                // Identical LineCost streams, including copy-elim tagging.
                prop_assert_eq!(a, v, "records diverged for:\n{}", src);
                for name in interp.var_names() {
                    // Debug-compare so identical NaNs (0/0, sqrt of a
                    // negative) don't read as inequality.
                    prop_assert_eq!(
                        format!("{:?}", interp.var(name)),
                        format!("{:?}", vm.var(name)),
                        "variable `{}` diverged for:\n{}", name, src
                    );
                    prop_assert_eq!(interp.var_bytes(name), vm.var_bytes(name));
                }
            }
            (Err(a), Err(v)) => {
                prop_assert_eq!(a, v, "errors diverged for:\n{}", src);
            }
            (a, v) => {
                return Err(TestCaseError::fail(format!(
                    "engines diverged for:\n{src}\nast: {a:?}\nvm:  {v:?}"
                )));
            }
        }
    }
}

/// Every registered workload, end to end on the two engines: at the
/// largest sampling scale and at full scale, with copy elimination off
/// and with the planner's `eliminable_lines` flags, the VM's line records
/// and every variable's value and `var_bytes` equal the reference
/// interpreter's. The generator above reaches only a few builtins; this
/// is the check that covers `matmul`, `spmv`, `group_sum`,
/// `forest_score`, `kmeans_*` and the decode kernels.
#[test]
fn every_workload_agrees_across_engines() {
    use activepy::sampling::{observe_dataset_types, paper_scales};
    use alang::copyelim::eliminable_lines;
    use isp_obs::Fingerprint;

    let sampling_scale = *paper_scales().last().expect("four scales");
    for w in isp_workloads::full_set() {
        let program = w.program().expect("registered workloads parse");
        let types = observe_dataset_types(&w.storage_at(sampling_scale));
        let planned = eliminable_lines(&program, &types);
        assert!(
            planned.iter().any(|e| *e),
            "{}: the planner eliminates no copy",
            w.name()
        );
        for scale in [sampling_scale, 1.0] {
            let st = w.storage_at(scale);
            for flags in [&[][..], &planned[..]] {
                let mut interp = Interpreter::new(&st);
                let ast = interp.run(&program, flags).expect("reference run");
                let lowered = alang::lower::lower_with(&program, flags).expect("lowers");
                let mut vm = Vm::new(&lowered, &st);
                let records = vm.run().expect("vm run");
                let case = format!("{} at scale {scale}, flags {flags:?}", w.name());
                assert_eq!(ast, records, "{case}: line records diverged");
                for line in program.lines() {
                    let name = line.target.as_str();
                    assert_eq!(
                        interp.var(name).map(Fingerprint::fingerprint),
                        vm.var(name).map(Fingerprint::fingerprint),
                        "{case}: variable `{name}` diverged"
                    );
                    assert_eq!(
                        interp.var_bytes(name),
                        vm.var_bytes(name),
                        "{case}: `{name}`"
                    );
                }
            }
        }
    }
}
