//! The ahead-of-time compiler (the Cython analog).
//!
//! ActivePy "compiles the resulting host application and the composed CSD
//! functions into machine code to avoid the overhead of continuous runtime
//! interpretation" (§I), leveraging Cython-style code generation invoked
//! *after* the program has started and task/data allocation is decided
//! (§III-C0d). A [`CompiledProgram`] bundles the program with its execution
//! tier, the per-line copy-elimination decisions (which require dataset
//! types learned in sampling), an estimated binary size (what gets DMA'd
//! into device memory for CSD functions), and the compilation time itself —
//! the ≈0.1 s / ≈1 % overhead the paper reports.

use crate::ast::Program;
use crate::builtins::Storage;
use crate::bytecode::{LoweredProgram, Vm};
use crate::copyelim::{self, DatasetTypes};
use crate::cost::{CostParams, ExecTier, LineCost};
use crate::error::Result;
use crate::interp::LineRecord;
use crate::lower;

/// Estimated machine-code bytes emitted per source line.
const BINARY_BYTES_PER_LINE: u64 = 2048;
/// Fixed binary preamble (runtime stubs, queue-pair glue).
const BINARY_BYTES_BASE: u64 = 16 * 1024;
/// Compilation wall-clock seconds per line (Cython + C compiler).
const COMPILE_SECS_PER_LINE: f64 = 1e-3;
/// Fixed compilation start-up seconds.
const COMPILE_SECS_BASE: f64 = 5e-3;

/// A program lowered to a particular execution tier.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    program: Program,
    tier: ExecTier,
    copy_elim: Vec<bool>,
}

impl CompiledProgram {
    /// Lowers `program` to `tier`.
    ///
    /// For [`ExecTier::CompiledCopyElim`], the copy-elimination pass runs
    /// with the supplied dataset `types` (learned during sampling); lines
    /// whose types cannot be determined keep their copies. Other tiers
    /// never eliminate copies.
    #[must_use]
    pub fn compile(program: Program, tier: ExecTier, types: &DatasetTypes) -> Self {
        let copy_elim = match tier {
            ExecTier::CompiledCopyElim => copyelim::eliminable_lines(&program, types),
            _ => vec![false; program.len()],
        };
        CompiledProgram {
            program,
            tier,
            copy_elim,
        }
    }

    /// The underlying program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The tier this artifact executes at.
    #[must_use]
    pub fn tier(&self) -> ExecTier {
        self.tier
    }

    /// Per-line copy-elimination decisions.
    #[must_use]
    pub fn copy_elim(&self) -> &[bool] {
        &self.copy_elim
    }

    /// Estimated size of the emitted machine code, in bytes (charged when
    /// distributing a CSD function into device memory).
    #[must_use]
    pub fn binary_bytes(&self) -> u64 {
        BINARY_BYTES_BASE + self.program.len() as u64 * BINARY_BYTES_PER_LINE
    }

    /// Estimated compilation wall-clock time in seconds for `line_count`
    /// lines (free-standing so partition-sized regions can be costed).
    #[must_use]
    pub fn compile_secs_for(line_count: usize) -> f64 {
        COMPILE_SECS_BASE + line_count as f64 * COMPILE_SECS_PER_LINE
    }

    /// Estimated compilation time of this whole artifact in seconds.
    #[must_use]
    pub fn compile_secs(&self) -> f64 {
        Self::compile_secs_for(self.program.len())
    }

    /// Lowers the artifact to the register bytecode, baking in this tier's
    /// per-line copy-elimination flags; the result runs on [`Vm`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::LangError::UnknownFunction`] if any call site
    /// references an unregistered builtin.
    pub fn lower(&self) -> Result<LoweredProgram> {
        lower::lower_with(&self.program, &self.copy_elim)
    }

    /// Lowers and executes the artifact against `storage` on the [`Vm`],
    /// returning per-line records (costs are tier-independent; apply
    /// [`LineCost::effective_ops`] with [`CompiledProgram::tier`] to get
    /// engine operations).
    ///
    /// # Errors
    ///
    /// Propagates a lowering failure or the first runtime error.
    pub fn run(&self, storage: &Storage) -> Result<Vec<LineRecord>> {
        Vm::new(&self.lower()?, storage).run()
    }

    /// Total effective operations of a run under this artifact's tier.
    #[must_use]
    pub fn total_effective_ops(&self, records: &[LineRecord], params: &CostParams) -> u64 {
        records
            .iter()
            .map(|r| r.cost.effective_ops(self.tier, params))
            .sum()
    }

    /// Sum of raw line costs of a run.
    #[must_use]
    pub fn total_cost(records: &[LineRecord]) -> LineCost {
        records.iter().map(|r| r.cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::Storage;
    use crate::copyelim::StaticType;
    use crate::parser::parse;
    use crate::value::Value;

    fn storage() -> Storage {
        let mut st = Storage::new();
        st.insert(
            "v",
            Value::Array(crate::value::ArrayVal::with_logical(
                vec![1.0, 2.0, 3.0, 4.0],
                4_000_000,
            )),
        );
        st
    }

    fn types() -> DatasetTypes {
        let mut t = DatasetTypes::new();
        t.insert("v".into(), StaticType::Array);
        t
    }

    const SRC: &str = "a = scan('v')\nb = a * 2\nc = sum(b)\n";

    #[test]
    fn tier_ladder_on_a_real_program() {
        let st = storage();
        let params = CostParams::paper_default();
        let mut totals = Vec::new();
        for tier in [
            ExecTier::Native,
            ExecTier::CompiledCopyElim,
            ExecTier::Compiled,
            ExecTier::Interpreted,
        ] {
            let cp = CompiledProgram::compile(parse(SRC).expect("parse"), tier, &types());
            let rec = cp.run(&st).expect("run");
            totals.push(cp.total_effective_ops(&rec, &params));
        }
        assert!(
            totals[0] <= totals[1] && totals[1] < totals[2] && totals[2] < totals[3],
            "ladder violated: {totals:?}"
        );
        // With full type knowledge, copy elimination reaches native parity.
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn elimination_needs_dataset_types() {
        let cp_with = CompiledProgram::compile(
            parse(SRC).expect("parse"),
            ExecTier::CompiledCopyElim,
            &types(),
        );
        assert_eq!(cp_with.copy_elim(), &[true, true, true]);
        let cp_without = CompiledProgram::compile(
            parse(SRC).expect("parse"),
            ExecTier::CompiledCopyElim,
            &DatasetTypes::new(),
        );
        assert!(cp_without.copy_elim().iter().all(|e| !e));
    }

    #[test]
    fn binary_size_and_compile_time_scale_with_lines() {
        let small = CompiledProgram::compile(
            parse("a = 1\n").expect("parse"),
            ExecTier::Compiled,
            &DatasetTypes::new(),
        );
        let big = CompiledProgram::compile(
            parse("a = 1\nb = 2\nc = 3\nd = 4\n").expect("parse"),
            ExecTier::Compiled,
            &DatasetTypes::new(),
        );
        assert!(big.binary_bytes() > small.binary_bytes());
        assert!(big.compile_secs() > small.compile_secs());
        // Roughly the paper's 0.1 s scale for a ~20-line program.
        assert!(CompiledProgram::compile_secs_for(20) < 0.2);
    }

    #[test]
    fn total_cost_sums_lines() {
        let cp = CompiledProgram::compile(parse(SRC).expect("parse"), ExecTier::Compiled, &types());
        let rec = cp.run(&storage()).expect("run");
        let total = CompiledProgram::total_cost(&rec);
        assert_eq!(total.storage_bytes, 4_000_000 * 8);
        assert!(total.compute_ops > 0);
    }
}
