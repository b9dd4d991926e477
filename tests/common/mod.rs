//! The random-program generator shared by the differential harnesses:
//! straight-line ALang programs over four variables, the stored arrays
//! `v` and `w`, arithmetic and comparison operators, and single-argument
//! builtins. Each harness supplies its own storage and oracle; the
//! generator is fixed so every pinned seed draws the same cases.

use proptest::prelude::*;

/// Assignment targets; reads of not-yet-defined names are valid programs
/// that must fail identically everywhere.
const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// Builtins safe to call with one argument of any generated type: either
/// they succeed or every engine raises the same runtime error. `sort` is
/// excluded because its contract panics on the NaNs that `sqrt`/`0/0`
/// legitimately produce here.
const FNS: [&str; 5] = ["sum", "mean", "sqrt", "abs", "len"];

const OPS: [&str; 8] = ["+", "-", "*", "/", "<", ">", "==", "!="];

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
            (inner, 0usize..FNS.len()).prop_map(|(e, f)| format!("{}({e})", FNS[f])),
        ]
    })
}

/// One to five program lines, each an assignment-target index and an
/// expression.
pub fn lines() -> impl Strategy<Value = Vec<(usize, String)>> {
    prop::collection::vec((0usize..VARS.len(), expr()), 1..6)
}

/// The ALang source of generated `lines`.
pub fn source(lines: &[(usize, String)]) -> String {
    lines
        .iter()
        .map(|(t, e)| format!("{} = {e}\n", VARS[*t]))
        .collect()
}
