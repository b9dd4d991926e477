//! Crash-consistent write-ahead execution journal.
//!
//! The JSONL journal ([`crate::journal`]) is telemetry: human-readable,
//! wall-clock-stamped, and replayed only by analysis tools. This module
//! is the *recovery* log: a compact binary append-only file of
//! checksummed, length-prefixed records written at the execution
//! boundaries the runtime already observes (plan commit, completed host
//! lines, completed region chunks, migration and reclaim decisions, run
//! end). A killed process leaves a prefix of the record stream — possibly
//! with a torn final record — and the reader's contract is the classic
//! WAL torn-tail rule: **on open, truncate at the first record whose
//! length or checksum fails; never error.**
//!
//! ## Framing
//!
//! ```text
//! [ magic "ISPWAL03" : 8 bytes ]            (file header)
//! [ u32 len (LE) ][ u64 fnv1a(payload) (LE) ][ payload : len bytes ]*
//! ```
//!
//! Every record is flushed as one `write` after its frame is fully
//! assembled, so a crash between appends leaves a clean prefix and a
//! crash mid-append leaves a detectably torn tail (short payload or
//! checksum mismatch). The checksum is FNV-1a over the payload bytes —
//! the [`crate::fingerprint`] hasher fed raw bytes — which is
//! collision-weak cryptographically but exactly strong enough to detect
//! torn writes and bit rot in a single-writer log.
//!
//! ## Record payloads
//!
//! Records carry only primitives (lane ids, line/chunk indices, f64
//! bit-patterns, counter values) so this crate stays free of runtime
//! types; the runtime maps its own state into a [`StateSnap`] at each
//! boundary. Floats travel as `to_bits()` so records are `Eq` and replay
//! verification is exact.
//!
//! ## Kill hook
//!
//! For crash testing from the outside (CI), `ISP_WAL_KILL_AFTER=N` makes
//! the writer abort the whole process with exit code
//! [`KILL_EXIT_CODE`] after appending N records — after first writing a
//! deliberately torn frame, so the reader's truncation rule is exercised
//! by every externally killed run.

use crate::fingerprint::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File header identifying a WAL and its format version. Version 03
/// drops the evaluation-backend byte from `RunStart`; version 02 files
/// carry it, and version 01 files hashed `Debug` renderings instead of
/// using the canonical [`crate::fingerprint`] hasher. [`read_wal`]
/// rejects both.
pub const WAL_MAGIC: [u8; 8] = *b"ISPWAL03";

/// Exit code used by the `ISP_WAL_KILL_AFTER` crash hook.
pub const KILL_EXIT_CODE: i32 = 86;

/// Environment variable: abort the process (exit [`KILL_EXIT_CODE`])
/// after this many records have been appended, leaving a torn tail.
pub const KILL_ENV: &str = "ISP_WAL_KILL_AFTER";

/// Upper bound on a sane record payload; anything larger is treated as a
/// torn length prefix. Real records are well under 200 bytes.
const MAX_RECORD_LEN: u32 = 1 << 16;

/// A deterministic snapshot of the runtime state that must agree between
/// the original run and its replay at every journaled boundary: the sim
/// clock, the recovery layer's accounting, the fault injector's stream
/// position, and the region monitor (when one is live).
///
/// Floats are stored as IEEE-754 bit patterns so the snapshot is `Eq`
/// and replay verification is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateSnap {
    /// Sim clock, seconds, as `f64::to_bits`.
    pub clock_bits: u64,
    /// [`RecoveryStats::transient_faults`] — transient faults absorbed.
    ///
    /// [`RecoveryStats::transient_faults`]: StateSnap
    pub transient_faults: u64,
    /// Retry attempts issued so far.
    pub retries: u64,
    /// Operations that succeeded after at least one retry.
    pub recovered_ops: u64,
    /// Hard faults observed (crashes + retry exhaustions).
    pub hard_faults: u64,
    /// Fault-triggered migrations so far.
    pub fault_migrations: u64,
    /// Total backoff seconds charged, as `f64::to_bits`.
    pub backoff_bits: u64,
    /// Injected flash read errors.
    pub flash_read_errors: u64,
    /// Injected NVMe command errors.
    pub nvme_command_errors: u64,
    /// Injected DMA transfer errors.
    pub dma_transfer_errors: u64,
    /// Hard CSE crashes observed (0 or 1).
    pub cse_crashes: u64,
    /// Whether the hard crash has latched.
    pub crashed: bool,
    /// The fault injector's raw PRNG state (stream position).
    pub rng_state: u64,
    /// Monitor state at the boundary, when a region monitor is live:
    /// `(last_raw_bits, decreases)` — the decrease-streak evidence that
    /// the §III-D triggers accumulate. `None` outside regions.
    pub monitor: Option<(u64, u32)>,
}

/// One WAL record. Lanes identify the journal stream a record belongs
/// to: lane 0 is the only lane of an unsharded run; a sharded fleet uses
/// one lane per shard plus one for the host-side tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// Execution of one lane began. Carries enough shape to detect a
    /// resume against the wrong program.
    RunStart {
        /// Journal lane.
        lane: u32,
        /// Number of program lines.
        program_len: u32,
    },
    /// The plan this journal belongs to was committed. `shard_fp` is the
    /// `ShardMap` fingerprint for fleet runs, 0 for unsharded runs.
    PlanCommit {
        /// Journal lane.
        lane: u32,
        /// Fingerprint of the offload plan.
        plan_fp: u64,
        /// Fingerprint of the shard map (0 when unsharded).
        shard_fp: u64,
    },
    /// A host-placed line completed.
    HostLine {
        /// Journal lane.
        lane: u32,
        /// Line index.
        line: u32,
        /// State at the boundary.
        snap: StateSnap,
    },
    /// One chunk of a CSD region completed (the `REGION_CHUNKS` grid).
    Chunk {
        /// Journal lane.
        lane: u32,
        /// First line of the region.
        region_start: u32,
        /// One past the last line of the region.
        region_end: u32,
        /// Chunk index within the region.
        chunk: u32,
        /// State at the boundary.
        snap: StateSnap,
    },
    /// A migration decision was taken (device→host).
    Migration {
        /// Journal lane.
        lane: u32,
        /// Line after which the migration fired.
        line: u32,
        /// Chunk index at the decision (0 for line-boundary decisions).
        chunk: u32,
        /// Migration reason discriminant (runtime-defined mapping).
        reason: u8,
        /// Checkpoint state bytes drained device→host.
        state_bytes: u64,
        /// State at the decision.
        snap: StateSnap,
    },
    /// A reclaim decision was taken (host→device).
    Reclaim {
        /// Journal lane.
        lane: u32,
        /// Line at which the reclaim fired.
        line: u32,
        /// Whether the decision fired inside a region (chunk boundary)
        /// rather than at a line boundary.
        in_region: bool,
        /// State at the decision.
        snap: StateSnap,
    },
    /// Execution of one lane finished.
    RunEnd {
        /// Journal lane.
        lane: u32,
        /// The run's `values_fingerprint`.
        fingerprint: u64,
        /// Total sim seconds, as `f64::to_bits`.
        total_secs_bits: u64,
    },
}

impl WalRecord {
    /// The journal lane this record belongs to.
    #[must_use]
    pub fn lane(&self) -> u32 {
        match self {
            WalRecord::RunStart { lane, .. }
            | WalRecord::PlanCommit { lane, .. }
            | WalRecord::HostLine { lane, .. }
            | WalRecord::Chunk { lane, .. }
            | WalRecord::Migration { lane, .. }
            | WalRecord::Reclaim { lane, .. }
            | WalRecord::RunEnd { lane, .. } => *lane,
        }
    }

    /// The same record stamped onto `lane`. Emission sites in the
    /// runtime build records with lane 0 and the journal handle stamps
    /// its own lane, so sharded fleets reuse the unsharded emission code
    /// unchanged.
    #[must_use]
    pub fn with_lane(mut self, new_lane: u32) -> WalRecord {
        match &mut self {
            WalRecord::RunStart { lane, .. }
            | WalRecord::PlanCommit { lane, .. }
            | WalRecord::HostLine { lane, .. }
            | WalRecord::Chunk { lane, .. }
            | WalRecord::Migration { lane, .. }
            | WalRecord::Reclaim { lane, .. }
            | WalRecord::RunEnd { lane, .. } => *lane = new_lane,
        }
        self
    }

    /// Short type name for diagnostics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::RunStart { .. } => "run_start",
            WalRecord::PlanCommit { .. } => "plan_commit",
            WalRecord::HostLine { .. } => "host_line",
            WalRecord::Chunk { .. } => "chunk",
            WalRecord::Migration { .. } => "migration",
            WalRecord::Reclaim { .. } => "reclaim",
            WalRecord::RunEnd { .. } => "run_end",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            WalRecord::RunStart { .. } => 1,
            WalRecord::PlanCommit { .. } => 2,
            WalRecord::HostLine { .. } => 3,
            WalRecord::Chunk { .. } => 4,
            WalRecord::Migration { .. } => 5,
            WalRecord::Reclaim { .. } => 6,
            WalRecord::RunEnd { .. } => 7,
        }
    }

    /// Encodes the record payload (no framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::default();
        w.u8(self.tag());
        w.u32(self.lane());
        match self {
            WalRecord::RunStart { program_len, .. } => w.u32(*program_len),
            WalRecord::PlanCommit {
                plan_fp, shard_fp, ..
            } => {
                w.u64(*plan_fp);
                w.u64(*shard_fp);
            }
            WalRecord::HostLine { line, snap, .. } => {
                w.u32(*line);
                snap.encode(&mut w);
            }
            WalRecord::Chunk {
                region_start,
                region_end,
                chunk,
                snap,
                ..
            } => {
                w.u32(*region_start);
                w.u32(*region_end);
                w.u32(*chunk);
                snap.encode(&mut w);
            }
            WalRecord::Migration {
                line,
                chunk,
                reason,
                state_bytes,
                snap,
                ..
            } => {
                w.u32(*line);
                w.u32(*chunk);
                w.u8(*reason);
                w.u64(*state_bytes);
                snap.encode(&mut w);
            }
            WalRecord::Reclaim {
                line,
                in_region,
                snap,
                ..
            } => {
                w.u32(*line);
                w.bool(*in_region);
                snap.encode(&mut w);
            }
            WalRecord::RunEnd {
                fingerprint,
                total_secs_bits,
                ..
            } => {
                w.u64(*fingerprint);
                w.u64(*total_secs_bits);
            }
        }
        w.out
    }

    /// Decodes one record payload.
    ///
    /// # Errors
    ///
    /// Returns a description when the payload is short, has an unknown
    /// tag, or carries trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, String> {
        let mut r = ByteReader { bytes, pos: 0 };
        let tag = r.u8()?;
        let lane = r.u32()?;
        let rec = match tag {
            1 => WalRecord::RunStart {
                lane,
                program_len: r.u32()?,
            },
            2 => WalRecord::PlanCommit {
                lane,
                plan_fp: r.u64()?,
                shard_fp: r.u64()?,
            },
            3 => WalRecord::HostLine {
                lane,
                line: r.u32()?,
                snap: StateSnap::decode(&mut r)?,
            },
            4 => WalRecord::Chunk {
                lane,
                region_start: r.u32()?,
                region_end: r.u32()?,
                chunk: r.u32()?,
                snap: StateSnap::decode(&mut r)?,
            },
            5 => WalRecord::Migration {
                lane,
                line: r.u32()?,
                chunk: r.u32()?,
                reason: r.u8()?,
                state_bytes: r.u64()?,
                snap: StateSnap::decode(&mut r)?,
            },
            6 => WalRecord::Reclaim {
                lane,
                line: r.u32()?,
                in_region: r.bool()?,
                snap: StateSnap::decode(&mut r)?,
            },
            7 => WalRecord::RunEnd {
                lane,
                fingerprint: r.u64()?,
                total_secs_bits: r.u64()?,
            },
            other => return Err(format!("unknown wal record tag {other}")),
        };
        if r.pos != bytes.len() {
            return Err(format!(
                "wal record has {} trailing bytes",
                bytes.len() - r.pos
            ));
        }
        Ok(rec)
    }
}

impl StateSnap {
    fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.clock_bits);
        w.u64(self.transient_faults);
        w.u64(self.retries);
        w.u64(self.recovered_ops);
        w.u64(self.hard_faults);
        w.u64(self.fault_migrations);
        w.u64(self.backoff_bits);
        w.u64(self.flash_read_errors);
        w.u64(self.nvme_command_errors);
        w.u64(self.dma_transfer_errors);
        w.u64(self.cse_crashes);
        w.bool(self.crashed);
        w.u64(self.rng_state);
        match self.monitor {
            Some((raw_bits, decreases)) => {
                w.bool(true);
                w.u64(raw_bits);
                w.u32(decreases);
            }
            None => w.bool(false),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<StateSnap, String> {
        let mut snap = StateSnap {
            clock_bits: r.u64()?,
            transient_faults: r.u64()?,
            retries: r.u64()?,
            recovered_ops: r.u64()?,
            hard_faults: r.u64()?,
            fault_migrations: r.u64()?,
            backoff_bits: r.u64()?,
            flash_read_errors: r.u64()?,
            nvme_command_errors: r.u64()?,
            dma_transfer_errors: r.u64()?,
            cse_crashes: r.u64()?,
            crashed: r.bool()?,
            rng_state: r.u64()?,
            monitor: None,
        };
        if r.bool()? {
            snap.monitor = Some((r.u64()?, r.u32()?));
        }
        Ok(snap)
    }
}

/// Little-endian byte sink for record payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    out: Vec<u8>,
}

impl ByteWriter {
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.out.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string (`u32` length).
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds `u32::MAX` bytes.
    pub fn str(&mut self, v: &str) {
        self.u32(u32::try_from(v.len()).expect("string fits u32"));
        self.out.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed raw byte string (`u32` length).
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds `u32::MAX` bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("byte string fits u32"));
        self.out.extend_from_slice(v);
    }

    /// The accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

/// Bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("wal payload truncated at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Errors when the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (one byte; anything non-zero is true).
    ///
    /// # Errors
    ///
    /// Errors when the payload is exhausted.
    pub fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Errors when the payload is exhausted.
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Errors when the payload is exhausted.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// Errors when the payload is exhausted.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Errors when the payload is exhausted or the bytes are not UTF-8.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in string".to_string())
    }

    /// Reads a length-prefixed raw byte string.
    ///
    /// # Errors
    ///
    /// Errors when the payload is exhausted.
    pub fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// The outcome of reading a WAL: the valid record prefix, the byte
/// length of that prefix (including the header), and whether a torn or
/// corrupt tail was discarded to get there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReadOutcome {
    /// Every record whose frame validated, in append order.
    pub records: Vec<WalRecord>,
    /// File offset one past the last valid record (where appends go).
    pub valid_len: u64,
    /// Whether bytes after `valid_len` were present and discarded.
    pub torn: bool,
}

/// Parses WAL bytes under the torn-tail rule: records are accepted until
/// the first frame whose length prefix, checksum, or payload decode
/// fails; everything from that point on is discarded, never an error. A
/// missing or corrupt magic header yields an empty outcome (the file is
/// treated as garbage from byte 0).
#[must_use]
pub fn parse_wal_bytes(bytes: &[u8]) -> WalReadOutcome {
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return WalReadOutcome {
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        };
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while let Some(frame) = bytes.get(pos..pos + 12) {
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        if len == 0 || len > MAX_RECORD_LEN {
            break;
        }
        let checksum = u64::from_le_bytes([
            frame[4], frame[5], frame[6], frame[7], frame[8], frame[9], frame[10], frame[11],
        ]);
        let start = pos + 12;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break;
        };
        if fnv1a(payload) != checksum {
            break;
        }
        let Ok(rec) = WalRecord::decode(payload) else {
            break;
        };
        records.push(rec);
        pos = start + len as usize;
    }
    WalReadOutcome {
        records,
        valid_len: pos as u64,
        torn: pos != bytes.len(),
    }
}

/// Whether `bytes` opens with the header of another WAL format version
/// (`ISPWAL` plus two digits other than [`WAL_MAGIC`]'s). A crash leaves
/// a prefix of the current header, not another version's, so this is a
/// journal whose fingerprints this build cannot verify, not a torn write.
fn stale_version(bytes: &[u8]) -> bool {
    bytes.get(..WAL_MAGIC.len()).is_some_and(|head| {
        head[..6] == WAL_MAGIC[..6] && head[6..].iter().all(u8::is_ascii_digit) && head != WAL_MAGIC
    })
}

/// Reads and parses a WAL file under the torn-tail rule.
///
/// # Errors
///
/// I/O errors (missing file, unreadable) surface, and so does a journal
/// written by another format version ([`io::ErrorKind::InvalidData`]):
/// its fingerprints would never match this build's, so a resume must
/// fail loudly rather than diverge. Corruption never errors.
pub fn read_wal(path: &Path) -> io::Result<WalReadOutcome> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if stale_version(&bytes) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "WAL format {} is not {}",
                String::from_utf8_lossy(&bytes[..WAL_MAGIC.len()]),
                String::from_utf8_lossy(&WAL_MAGIC),
            ),
        ));
    }
    Ok(parse_wal_bytes(&bytes))
}

/// An append-only WAL writer. Each record is framed, checksummed, and
/// flushed as a unit.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    records: u64,
    kill_after: Option<u64>,
}

impl WalWriter {
    fn kill_after_from_env() -> Option<u64> {
        std::env::var(KILL_ENV).ok()?.parse().ok()
    }

    /// Creates (or truncates) a fresh WAL at `path` and writes the magic
    /// header.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write errors.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        let mut file = File::create(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.flush()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            records: 0,
            kill_after: Self::kill_after_from_env(),
        })
    }

    /// Reopens an existing WAL for appending after a resume: the file is
    /// truncated to `outcome.valid_len` (discarding any torn tail per
    /// the recovery rule) and appends continue from there. A file with
    /// no valid header is rewritten from scratch.
    ///
    /// # Errors
    ///
    /// Propagates file open/truncate errors.
    pub fn append_to(path: &Path, outcome: &WalReadOutcome) -> io::Result<WalWriter> {
        if outcome.valid_len < WAL_MAGIC.len() as u64 {
            return Self::create(path);
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(outcome.valid_len)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            records: outcome.records.len() as u64,
            kill_after: Self::kill_after_from_env(),
        })
    }

    /// Appends one record (frame assembled in memory, written and
    /// flushed as a unit). When the `ISP_WAL_KILL_AFTER` hook is armed
    /// and its budget is reached, a deliberately torn frame is written
    /// and the process exits with [`KILL_EXIT_CODE`].
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("record fits u32")
                .to_le_bytes(),
        );
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.records += 1;
        if self.kill_after == Some(self.records) {
            // Simulate a crash mid-append: a frame header promising more
            // payload than will ever arrive.
            let torn = [0xEEu8; 12 + 5];
            let _ = self.file.write_all(&torn);
            let _ = self.file.flush();
            std::process::exit(KILL_EXIT_CODE);
        }
        Ok(())
    }

    /// Records appended so far (including any pre-existing records when
    /// opened via [`WalWriter::append_to`]).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The file being written.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn snap(seed: u64) -> StateSnap {
        StateSnap {
            clock_bits: (seed as f64 * 0.25).to_bits(),
            transient_faults: seed,
            retries: seed / 2,
            recovered_ops: seed / 3,
            hard_faults: seed % 2,
            fault_migrations: seed % 3,
            backoff_bits: (seed as f64 * 1e-4).to_bits(),
            flash_read_errors: seed % 5,
            nvme_command_errors: seed % 7,
            dma_transfer_errors: seed % 11,
            cse_crashes: seed % 2,
            crashed: seed % 2 == 1,
            rng_state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            monitor: if seed.is_multiple_of(2) {
                Some(((seed as f64).to_bits(), (seed % 9) as u32))
            } else {
                None
            },
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::PlanCommit {
                lane: 0,
                plan_fp: 0xDEAD_BEEF,
                shard_fp: 0,
            },
            WalRecord::RunStart {
                lane: 0,
                program_len: 7,
            },
            WalRecord::HostLine {
                lane: 0,
                line: 0,
                snap: snap(1),
            },
            WalRecord::Chunk {
                lane: 0,
                region_start: 1,
                region_end: 4,
                chunk: 0,
                snap: snap(2),
            },
            WalRecord::Migration {
                lane: 0,
                line: 2,
                chunk: 17,
                reason: 2,
                state_bytes: 4096,
                snap: snap(3),
            },
            WalRecord::Reclaim {
                lane: 1,
                line: 3,
                in_region: true,
                snap: snap(4),
            },
            WalRecord::RunEnd {
                lane: 0,
                fingerprint: 0x1234_5678_9ABC_DEF0,
                total_secs_bits: 1.25f64.to_bits(),
            },
        ]
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("isp_wal_{}_{name}.wal", std::process::id()))
    }

    #[test]
    fn records_round_trip_through_payload_codec() {
        for rec in sample_records() {
            let payload = rec.encode();
            assert_eq!(WalRecord::decode(&payload), Ok(rec), "{}", rec.kind());
        }
    }

    #[test]
    fn decode_rejects_trailing_and_truncated_payloads() {
        let rec = sample_records()[2];
        let mut payload = rec.encode();
        payload.push(0);
        assert!(WalRecord::decode(&payload).is_err(), "trailing byte");
        let payload = rec.encode();
        assert!(
            WalRecord::decode(&payload[..payload.len() - 1]).is_err(),
            "truncated payload"
        );
        assert!(WalRecord::decode(&[99, 0, 0, 0, 0]).is_err(), "unknown tag");
    }

    #[test]
    fn write_then_read_yields_identical_records() {
        let path = tmp_path("round_trip");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create");
        for r in &recs {
            w.append(r).expect("append");
        }
        assert_eq!(w.records(), recs.len() as u64);
        let out = read_wal(&path).expect("read");
        assert_eq!(out.records, recs);
        assert!(!out.torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let path = tmp_path("torn_tail");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create");
        for r in &recs {
            w.append(r).expect("append");
        }
        drop(w);
        // Simulate a crash mid-append: garbage frame header at the end.
        let mut bytes = std::fs::read(&path).expect("read bytes");
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[0xAB; 9]);
        std::fs::write(&path, &bytes).expect("write torn");
        let out = read_wal(&path).expect("read");
        assert_eq!(out.records, recs);
        assert!(out.torn);
        assert_eq!(out.valid_len, clean_len as u64);
        // append_to truncates the tail and continues cleanly.
        let mut w = WalWriter::append_to(&path, &out).expect("append_to");
        assert_eq!(w.records(), recs.len() as u64);
        w.append(&recs[0]).expect("append after resume");
        let reread = read_wal(&path).expect("reread");
        assert!(!reread.torn);
        assert_eq!(reread.records.len(), recs.len() + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_truncates_from_that_record() {
        let path = tmp_path("corrupt");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create");
        for r in &recs {
            w.append(r).expect("append");
        }
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read bytes");
        // Flip one payload byte of the third record: everything from
        // there is discarded (completion order ⇒ no holes allowed).
        let mut pos = WAL_MAGIC.len();
        for _ in 0..2 {
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            pos += 12 + len as usize;
        }
        bytes[pos + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write corrupt");
        let out = read_wal(&path).expect("read");
        assert_eq!(out.records, recs[..2]);
        assert!(out.torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn older_format_version_is_rejected_not_replayed() {
        let path = tmp_path("stale");
        let mut w = WalWriter::create(&path).expect("create");
        for r in &sample_records() {
            w.append(r).expect("append");
        }
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read bytes");
        for stale in ["ISPWAL01", "ISPWAL02"] {
            bytes[..8].copy_from_slice(stale.as_bytes());
            std::fs::write(&path, &bytes).expect("write stale");
            let err = read_wal(&path).expect_err("older versions must not parse");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(stale), "{err}");
        }
        // Garbage and torn headers keep the torn-tail rule.
        let heads: [&[u8]; 3] = [b"ISPWAL\xEE\xEE", b"ISPW", b"not a wal"];
        for head in heads {
            std::fs::write(&path, head).expect("write garbage");
            assert!(read_wal(&path).expect("garbage reads").records.is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_header_reads_as_empty() {
        assert_eq!(
            parse_wal_bytes(b"not a wal"),
            WalReadOutcome {
                records: vec![],
                valid_len: 0,
                torn: true,
            }
        );
        assert_eq!(
            parse_wal_bytes(&[]),
            WalReadOutcome {
                records: vec![],
                valid_len: 0,
                torn: false,
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Satellite: ANY byte-prefix of a valid WAL reopens cleanly and
        /// yields a record-prefix of the full log — the crash model is
        /// "the file ends wherever the kernel stopped writing".
        #[test]
        fn any_byte_prefix_reopens_to_a_record_prefix(cut in 0usize..600, extra in 0usize..7) {
            let recs = sample_records();
            let mut bytes = WAL_MAGIC.to_vec();
            for r in &recs {
                let payload = r.encode();
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
                bytes.extend_from_slice(&payload);
            }
            let cut = cut.min(bytes.len());
            let mut prefix = bytes[..cut].to_vec();
            // A crash can also leave junk past the cut (reused sectors).
            prefix.extend(std::iter::repeat_n(0xEE, extra));
            let out = parse_wal_bytes(&prefix);
            prop_assert!(out.records.len() <= recs.len());
            prop_assert_eq!(&out.records[..], &recs[..out.records.len()]);
            prop_assert_eq!(out.torn, out.valid_len != prefix.len() as u64);
            // The valid prefix re-parses to exactly the same records.
            let reparsed = parse_wal_bytes(&prefix[..out.valid_len as usize]);
            prop_assert_eq!(reparsed.records, out.records);
            prop_assert!(!reparsed.torn);
        }
    }
}
