//! Static type inference and the redundant-memory-copy elimination pass.
//!
//! ActivePy removes Python's library-boundary buffer copies by placing
//! values in mutable shared memory and, "if ActivePy can determine the
//! target type of memory objects", producing results directly in the
//! consumer's layout (§III-C0c). The enabling analysis is a static type
//! pass: a copy is eliminable only where the value's type is known at
//! code-generation time.
//!
//! `scan(...)` results are dynamically typed (they depend on what is in
//! storage), so programs that consume stored data can only be fully
//! optimized *after* the sampling phase has observed the dataset types —
//! exactly the ActivePy pipeline. [`infer_types`] therefore accepts type
//! seeds for datasets, and [`eliminable_lines`] reports which lines' copies
//! the code generator may remove.

use crate::ast::{BinOp, Expr, Program, UnOp};
use isp_obs::{Fingerprint, Fnv1a};
use std::collections::BTreeMap;

/// The static type lattice (flat, with `Unknown` as bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticType {
    /// Scalar number.
    Num,
    /// Scalar boolean.
    Bool,
    /// String.
    Str,
    /// Numeric array.
    Array,
    /// Boolean mask.
    BoolArray,
    /// Columnar table.
    Table,
    /// Dense matrix.
    Matrix,
    /// CSR matrix.
    Csr,
    /// Forest model.
    Forest,
    /// Wire-format encoded bulk data (not yet decoded).
    Encoded,
    /// Not statically determinable.
    Unknown,
}

impl Fingerprint for StaticType {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u8(match self {
            StaticType::Num => 0,
            StaticType::Bool => 1,
            StaticType::Str => 2,
            StaticType::Array => 3,
            StaticType::BoolArray => 4,
            StaticType::Table => 5,
            StaticType::Matrix => 6,
            StaticType::Csr => 7,
            StaticType::Forest => 8,
            StaticType::Encoded => 9,
            StaticType::Unknown => 10,
        });
    }
}

impl StaticType {
    /// Whether values of this type are bulk (their copies cost bandwidth).
    #[must_use]
    pub fn is_bulk(self) -> bool {
        matches!(
            self,
            StaticType::Array
                | StaticType::BoolArray
                | StaticType::Table
                | StaticType::Matrix
                | StaticType::Csr
                | StaticType::Forest
                | StaticType::Encoded
        )
    }
}

/// Dataset-name → type seeds obtained from sampling runs.
pub type DatasetTypes = BTreeMap<String, StaticType>;

/// Infers the static type of every line's target.
///
/// `datasets` supplies the types of `scan` results (learned during
/// sampling); without a seed a `scan` is `Unknown` and unknownness
/// propagates.
#[must_use]
pub fn infer_types(program: &Program, datasets: &DatasetTypes) -> Vec<StaticType> {
    let mut env: BTreeMap<&str, StaticType> = BTreeMap::new();
    let mut out = Vec::with_capacity(program.len());
    for line in program.lines() {
        let ty = infer_expr(&line.expr, &env, datasets);
        env.insert(line.target.as_str(), ty);
        out.push(ty);
    }
    out
}

fn infer_expr(
    expr: &Expr,
    env: &BTreeMap<&str, StaticType>,
    datasets: &DatasetTypes,
) -> StaticType {
    match expr {
        Expr::Num(_) => StaticType::Num,
        Expr::Str(_) => StaticType::Str,
        Expr::Ident(name) => env
            .get(name.as_str())
            .copied()
            .unwrap_or(StaticType::Unknown),
        Expr::Unary { op, expr } => {
            let t = infer_expr(expr, env, datasets);
            match op {
                UnOp::Neg => t,
                UnOp::Not => t,
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lt = infer_expr(lhs, env, datasets);
            let rt = infer_expr(rhs, env, datasets);
            if lt == StaticType::Unknown || rt == StaticType::Unknown {
                return StaticType::Unknown;
            }
            let any_array = lt == StaticType::Array || rt == StaticType::Array;
            let any_mask = lt == StaticType::BoolArray || rt == StaticType::BoolArray;
            if op.is_comparison() {
                if any_array {
                    StaticType::BoolArray
                } else {
                    StaticType::Bool
                }
            } else {
                match op {
                    BinOp::And | BinOp::Or => {
                        if any_mask {
                            StaticType::BoolArray
                        } else {
                            StaticType::Bool
                        }
                    }
                    _ => {
                        if any_array {
                            StaticType::Array
                        } else {
                            StaticType::Num
                        }
                    }
                }
            }
        }
        Expr::Call { name, args } => {
            let arg_types: Vec<StaticType> =
                args.iter().map(|a| infer_expr(a, env, datasets)).collect();
            builtin_return_type(name, args, &arg_types, datasets)
        }
    }
}

fn builtin_return_type(
    name: &str,
    args: &[Expr],
    arg_types: &[StaticType],
    datasets: &DatasetTypes,
) -> StaticType {
    match name {
        "scan" | "scan_raw" => match args.first() {
            Some(Expr::Str(ds)) => datasets.get(ds).copied().unwrap_or(StaticType::Unknown),
            _ => StaticType::Unknown,
        },
        "col" | "select" | "sort" | "where" | "spmv" | "pagerank_step" | "kmeans_assign"
        | "forest_score" | "gather" | "decode" => StaticType::Array,
        "exp" | "log" | "sqrt" | "erf" | "abs" => {
            arg_types.first().copied().unwrap_or(StaticType::Unknown)
        }
        "filter" | "group_sum" => StaticType::Table,
        "len" | "sum" | "mean" | "minv" | "maxv" | "count" | "dot" | "frob" => StaticType::Num,
        "matmul" | "gemm_batch" | "kmeans_update" | "gram" => StaticType::Matrix,
        "to_csr" => StaticType::Csr,
        _ => StaticType::Unknown,
    }
}

/// Which lines the code generator may apply copy elimination to: every
/// boundary value on the line (inputs read and the value produced) has a
/// known static type.
#[must_use]
pub fn eliminable_lines(program: &Program, datasets: &DatasetTypes) -> Vec<bool> {
    let types = infer_types(program, datasets);
    let mut env: BTreeMap<&str, StaticType> = BTreeMap::new();
    let mut out = Vec::with_capacity(program.len());
    for (line, ty) in program.lines().iter().zip(&types) {
        let inputs_known = line.inputs().iter().all(|name| {
            env.get(name.as_str())
                .is_some_and(|t| *t != StaticType::Unknown)
        });
        let scan_known = !line.accesses_storage() || scan_types_known(&line.expr, datasets);
        out.push(inputs_known && scan_known && *ty != StaticType::Unknown);
        env.insert(line.target.as_str(), *ty);
    }
    out
}

fn scan_types_known(expr: &Expr, datasets: &DatasetTypes) -> bool {
    match expr {
        Expr::Num(_) | Expr::Str(_) | Expr::Ident(_) => true,
        Expr::Call { name, args } => {
            let self_ok = if name == "scan" || name == "scan_raw" {
                matches!(args.first(), Some(Expr::Str(ds))
                    if datasets.get(ds).is_some_and(|t| *t != StaticType::Unknown))
            } else {
                true
            };
            self_ok && args.iter().all(|a| scan_types_known(a, datasets))
        }
        Expr::Binary { lhs, rhs, .. } => {
            scan_types_known(lhs, datasets) && scan_types_known(rhs, datasets)
        }
        Expr::Unary { expr, .. } => scan_types_known(expr, datasets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const PROG: &str = "\
t = scan('lineitem')
q = col(t, 'qty')
m = q < 24
f = filter(t, m)
s = sum(col(f, 'price'))
";

    fn seeds() -> DatasetTypes {
        let mut d = DatasetTypes::new();
        d.insert("lineitem".into(), StaticType::Table);
        d
    }

    #[test]
    fn inference_with_seeds_resolves_everything() {
        let p = parse(PROG).expect("parse");
        let types = infer_types(&p, &seeds());
        assert_eq!(
            types,
            vec![
                StaticType::Table,
                StaticType::Array,
                StaticType::BoolArray,
                StaticType::Table,
                StaticType::Num,
            ]
        );
    }

    #[test]
    fn inference_without_seeds_propagates_unknown() {
        let p = parse(PROG).expect("parse");
        let types = infer_types(&p, &DatasetTypes::new());
        assert_eq!(types[0], StaticType::Unknown);
        // `col` has a fixed Array return type regardless of its input.
        assert_eq!(types[1], StaticType::Array);
        // But the comparison over it is still known.
        assert_eq!(types[2], StaticType::BoolArray);
    }

    #[test]
    fn eliminable_requires_seeds_for_scan_lines() {
        let p = parse(PROG).expect("parse");
        let without = eliminable_lines(&p, &DatasetTypes::new());
        assert!(!without[0], "scan of unseeded dataset is not eliminable");
        assert!(!without[1], "consumer of unknown-typed t is not eliminable");
        let with = eliminable_lines(&p, &seeds());
        assert_eq!(
            with,
            vec![true; 5],
            "all lines eliminable once types are known"
        );
    }

    #[test]
    fn arithmetic_type_rules() {
        let p = parse("a = 1 + 2\nb = a < 3\nc = b and b\n").expect("parse");
        let types = infer_types(&p, &DatasetTypes::new());
        assert_eq!(
            types,
            vec![StaticType::Num, StaticType::Bool, StaticType::Bool]
        );
    }

    #[test]
    fn array_arithmetic_promotes() {
        let mut seeds = DatasetTypes::new();
        seeds.insert("v".into(), StaticType::Array);
        let p = parse("a = scan('v')\nb = a * 2\nm = b >= 1\n").expect("parse");
        let types = infer_types(&p, &seeds);
        assert_eq!(types[1], StaticType::Array);
        assert_eq!(types[2], StaticType::BoolArray);
    }

    #[test]
    fn unknown_variable_is_unknown_type() {
        let p = parse("a = zzz + 1\n").expect("parse");
        let types = infer_types(&p, &DatasetTypes::new());
        assert_eq!(types[0], StaticType::Unknown);
        assert_eq!(eliminable_lines(&p, &DatasetTypes::new()), vec![false]);
    }

    #[test]
    fn bulk_classification() {
        assert!(StaticType::Table.is_bulk());
        assert!(StaticType::Csr.is_bulk());
        assert!(!StaticType::Num.is_bulk());
        assert!(!StaticType::Str.is_bulk());
    }
}
