//! The [`Workload`] type: an unannotated ALang program plus its input
//! generator and Table-I metadata.

use activepy::sampling::InputSource;
use alang::builtins::Storage;
use alang::error::Result;
use alang::{parser, Program};
use csd_sim::wire::Encoding;
use isp_obs::Fingerprint;
use std::fmt;
use std::sync::Arc;

/// Type of the input-materialization closures workloads carry.
pub type Generator = Arc<dyn Fn(f64) -> Storage + Send + Sync>;

/// One evaluated application: name, Table-I data size, the ALang source
/// (with one single-entry-single-exit region per line), and a deterministic
/// input generator parameterized by scale.
#[derive(Clone)]
pub struct Workload {
    name: String,
    table1_gb: f64,
    description: String,
    source: String,
    generator: Generator,
    /// Declared on-storage wire formats, `(dataset, encoding)` pairs in
    /// declaration order. Metadata mirroring what the generator encodes —
    /// it lets [`InputSource::wire_fingerprint`] answer without ever
    /// materializing storage, keeping warm starts zero-datagen.
    encodings: Vec<(String, Encoding)>,
}

impl Workload {
    /// Assembles a workload.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        table1_gb: f64,
        description: impl Into<String>,
        source: impl Into<String>,
        generator: Generator,
    ) -> Self {
        Workload {
            name: name.into(),
            table1_gb,
            description: description.into(),
            source: source.into(),
            generator,
            encodings: Vec::new(),
        }
    }

    /// Declares the on-storage wire formats the generator applies, as
    /// `(dataset, encoding)` pairs. The declaration feeds plan-cache
    /// fingerprints (a re-encoded dataset invalidates cached plans);
    /// generators must encode exactly what is declared here.
    #[must_use]
    pub fn with_encodings(mut self, encodings: Vec<(String, Encoding)>) -> Self {
        self.encodings = encodings;
        self
    }

    /// The declared `(dataset, encoding)` pairs (empty for plain
    /// workloads).
    #[must_use]
    pub fn encodings(&self) -> &[(String, Encoding)] {
        &self.encodings
    }

    /// The workload's name as printed in Table I.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input data size in gigabytes (Table I).
    #[must_use]
    pub fn table1_gb(&self) -> f64 {
        self.table1_gb
    }

    /// One-line description of the computation.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The unannotated program source.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Parses the program.
    ///
    /// # Errors
    ///
    /// Propagates parse errors (none expected for the built-in sources).
    pub fn program(&self) -> Result<Program> {
        parser::parse(&self.source)
    }

    /// Materializes the workload's storage at `scale` (1.0 = Table-I size).
    #[must_use]
    pub fn storage_at(&self, scale: f64) -> Storage {
        (self.generator)(scale)
    }
}

impl InputSource for Workload {
    fn storage_at(&self, scale: f64) -> Storage {
        Workload::storage_at(self, scale)
    }

    /// Canonical fingerprint of the declared `(dataset, encoding)` pairs
    /// — `0` for plain workloads, matching the trait default. Computed
    /// from the declarations alone, so plan-cache keys never materialize
    /// storage.
    fn wire_fingerprint(&self) -> u64 {
        if self.encodings.is_empty() {
            return 0;
        }
        self.encodings.fingerprint()
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("table1_gb", &self.table1_gb)
            .field(
                "lines",
                &self.source.lines().filter(|l| !l.trim().is_empty()).count(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::Value;

    fn toy() -> Workload {
        Workload::new(
            "toy",
            1.0,
            "toy sum",
            "a = scan('v')\ns = sum(a)\n",
            Arc::new(|scale| {
                let logical = ((scale * 1e8) as u64).max(16);
                let mut st = Storage::new();
                st.insert(
                    "v",
                    Value::Array(alang::value::ArrayVal::with_logical(vec![1.0; 16], logical)),
                );
                st
            }),
        )
    }

    #[test]
    fn accessors_and_parse() {
        let w = toy();
        assert_eq!(w.name(), "toy");
        assert_eq!(w.table1_gb(), 1.0);
        assert_eq!(w.program().expect("parse").len(), 2);
        assert!(format!("{w:?}").contains("toy"));
    }

    #[test]
    fn storage_scales() {
        let w = toy();
        let full = w.storage_at(1.0);
        let tiny = w.storage_at(1.0 / 1024.0);
        let fb = full.get("v").expect("v").virtual_bytes();
        let tb = tiny.get("v").expect("v").virtual_bytes();
        assert!(fb > 500 * tb);
    }
}
