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
