//! # isp-obs — unified tracing & metrics for the ActivePy reproduction
//!
//! The pipeline (sampling → fit → Eq. 1 profit → Algorithm 1 → compile →
//! monitored execution) runs against **two clocks**: the host's wall
//! clock, which measures what the repro process actually spends, and the
//! simulated device clock, which measures what the modelled platform
//! would spend. This crate records both on every span so a trace answers
//! "where did repro wall-clock go?" and "where did simulated time go?"
//! from one journal.
//!
//! Three pieces:
//!
//! * [`span`] — the dual-clock span/event model and the [`Tracer`]
//!   handle. A disabled tracer (the default) is a `None` behind one
//!   branch: no allocation, no locking, no clock reads, so untraced runs
//!   are byte-identical to pre-tracing behavior.
//! * [`metrics`] — a registry of monotonic counters and fixed-log2-bucket
//!   histograms with deterministic (sorted) snapshot ordering. It absorbs
//!   the previously scattered counter structs (plan cache, fault
//!   injector, recovery, kernel engine) into one namespace.
//! * [`export`] / [`journal`] — JSONL event-journal and Chrome
//!   `trace_event` exporters (loadable in `chrome://tracing` / Perfetto,
//!   with simulated time rendered as a second process track), plus the
//!   parser/summarizer behind the `trace` analysis binary.
//!
//! Alongside them, [`fingerprint`] holds the workspace's one hash: a
//! streaming FNV-1a hasher and the [`Fingerprint`] trait that feeds it
//! canonical bytes, behind every answer, plan, and cache-key fingerprint
//! and the [`wal`] frame checksums.
//!
//! **Determinism contract:** event identity, ordering, names, kinds,
//! attributes, and simulated times depend only on the traced computation;
//! only `wall_ns` fields vary run to run. Exporters therefore accept a
//! `mask_wall` flag that zeroes wall-clock fields, after which two traced
//! runs of the same seed emit byte-identical journals.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod fingerprint;
pub mod journal;
pub mod metrics;
pub mod span;
pub mod wal;

pub use fingerprint::{fnv1a, Fingerprint, Fnv1a};
pub use journal::{
    diff_journals, footer_snapshot, parse_journal, render_diff, summarize, Journal, JournalDiff,
    PhaseDelta,
};
pub use metrics::{Histogram, MetricsRegistry, RegistrySnapshot};
pub use span::{
    AttrValue, Attrs, InstantEvent, MemorySink, Span, SpanHandle, SpanKind, TraceEvent, TraceSink,
    Tracer,
};
pub use wal::{
    parse_wal_bytes, read_wal, ByteReader, ByteWriter, StateSnap, WalReadOutcome, WalRecord,
    WalWriter, KILL_ENV, KILL_EXIT_CODE,
};
