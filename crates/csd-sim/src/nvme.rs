//! NVMe-style queue pairs.
//!
//! ActivePy invokes CSD functions the way NVMe talks to devices (§III-C0b):
//! the host posts a request to a *submission queue* mapped into device
//! memory, the CSE polls and fetches requests whenever it is free, and
//! status/completion records flow back through a *completion queue*. Status
//! updates are patched in at the end of every line of CSD code and double as
//! the channel through which the host can signal high-priority work
//! (triggering migration).
//!
//! The ring structures here are real data structures — commands are queued,
//! fetched, and completed in FIFO order with bounded depth — and each hop
//! carries a configurable latency that the execution engine charges to the
//! simulated clock.

use crate::units::{Bytes, Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifies a submitted command within its queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CommandId(u64);

impl CommandId {
    /// The raw identifier.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// The kind of request travelling through the call queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommandKind {
    /// Invoke a CSD function (a contiguous run of offloaded lines) starting
    /// at `entry_line`.
    InvokeFunction {
        /// First program line of the offloaded region.
        entry_line: usize,
    },
    /// Ask the CSD to break at the end of the current line and hand state
    /// back (migration, or a high-priority preemption).
    Break,
    /// Distribute a freshly generated device binary of `size` bytes.
    LoadBinary {
        /// Size of the machine-code image.
        size: Bytes,
    },
}

/// A command in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Command {
    /// Identifier assigned at submission.
    pub id: CommandId,
    /// What the device should do.
    pub kind: CommandKind,
    /// When the host posted it.
    pub submitted_at: SimTime,
}

/// A completion record posted by the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// Which command completed.
    pub id: CommandId,
    /// When the device posted the completion.
    pub completed_at: SimTime,
    /// Progress report: fraction of the offloaded region finished (the
    /// "execution rate" of §III-C0b).
    pub progress: f64,
}

/// Latency parameters for the queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueLatencies {
    /// Host-side submission (build entry + doorbell write over PCIe).
    pub submit: Duration,
    /// Device-side fetch of a submission entry.
    pub fetch: Duration,
    /// Device-side posting of a completion + host observing it by polling.
    pub complete: Duration,
    /// Cost of one in-band status update appended at the end of a line of
    /// CSD code ("takes very little overhead", §III-C0b).
    pub status_update: Duration,
}

isp_obs::fingerprint_fields!(QueueLatencies {
    submit,
    fetch,
    complete,
    status_update
});

impl Default for QueueLatencies {
    fn default() -> Self {
        QueueLatencies {
            submit: Duration::from_micros(2.0),
            fetch: Duration::from_micros(1.0),
            complete: Duration::from_micros(2.0),
            status_update: Duration::from_nanos(200.0),
        }
    }
}

/// Errors from queue-pair operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The submission queue is full.
    SubmissionFull,
    /// No command is waiting to be fetched.
    Empty,
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::SubmissionFull => write!(f, "submission queue is full"),
            QueueError::Empty => write!(f, "no command pending"),
        }
    }
}

impl std::error::Error for QueueError {}

/// A submission/completion queue pair mapped into device memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueuePair {
    depth: usize,
    latencies: QueueLatencies,
    submission: VecDeque<Command>,
    completion: VecDeque<Completion>,
    next_id: u64,
    submitted_total: u64,
    completed_total: u64,
    status_updates: u64,
    aborted_total: u64,
}

impl QueuePair {
    /// Creates a queue pair with the given ring `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize, latencies: QueueLatencies) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        QueuePair {
            depth,
            latencies,
            submission: VecDeque::new(),
            completion: VecDeque::new(),
            next_id: 0,
            submitted_total: 0,
            completed_total: 0,
            status_updates: 0,
            aborted_total: 0,
        }
    }

    /// The configured latencies.
    #[must_use]
    pub fn latencies(&self) -> &QueueLatencies {
        &self.latencies
    }

    /// Host posts `kind` at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::SubmissionFull`] when the ring has no free slot.
    pub fn submit(&mut self, now: SimTime, kind: CommandKind) -> Result<CommandId, QueueError> {
        if self.submission.len() >= self.depth {
            return Err(QueueError::SubmissionFull);
        }
        let id = CommandId(self.next_id);
        self.next_id += 1;
        self.submitted_total += 1;
        self.submission.push_back(Command {
            id,
            kind,
            submitted_at: now,
        });
        Ok(id)
    }

    /// Device fetches the oldest pending command ("the CSE fetches a request
    /// from the call queue whenever the CSE is free").
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::Empty`] when nothing is pending.
    pub fn fetch(&mut self) -> Result<Command, QueueError> {
        self.submission.pop_front().ok_or(QueueError::Empty)
    }

    /// Whether a command is waiting — the check the status-update code
    /// performs at every line boundary ("checks if the host computer has any
    /// request that CSD needs to handle with high priority").
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.submission.is_empty()
    }

    /// Whether a [`CommandKind::Break`] specifically is waiting.
    #[must_use]
    pub fn has_pending_break(&self) -> bool {
        self.submission
            .iter()
            .any(|c| matches!(c.kind, CommandKind::Break))
    }

    /// Device posts a completion/status record.
    pub fn post_completion(&mut self, c: Completion) {
        self.completed_total += 1;
        self.completion.push_back(c);
    }

    /// Device emits an in-band status update (progress only, no ring slot).
    /// Returns its cost; the caller charges it to the clock.
    pub fn status_update(&mut self) -> Duration {
        self.status_updates += 1;
        self.latencies.status_update
    }

    /// Host polls the completion queue.
    #[must_use]
    pub fn poll_completion(&mut self) -> Option<Completion> {
        self.completion.pop_front()
    }

    /// Commands submitted over the queue's lifetime.
    #[must_use]
    pub fn submitted_total(&self) -> u64 {
        self.submitted_total
    }

    /// Completions posted over the queue's lifetime.
    #[must_use]
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Status updates emitted over the queue's lifetime.
    #[must_use]
    pub fn status_updates(&self) -> u64 {
        self.status_updates
    }

    /// Records one aborted command attempt (an injected NVMe error hit
    /// before the command reached the ring).
    pub fn record_aborted(&mut self) {
        self.aborted_total += 1;
    }

    /// Command attempts aborted by injected errors over the queue's
    /// lifetime.
    #[must_use]
    pub fn aborted_total(&self) -> u64 {
        self.aborted_total
    }

    /// Round-trip overhead of one function invocation, excluding the work
    /// itself: submit + fetch + complete.
    #[must_use]
    pub fn invocation_overhead(&self) -> Duration {
        self.latencies.submit + self.latencies.fetch + self.latencies.complete
    }

    /// Clears both rings and lifetime counters (new program run).
    pub fn reset(&mut self) {
        self.submission.clear();
        self.completion.clear();
        self.submitted_total = 0;
        self.completed_total = 0;
        self.status_updates = 0;
        self.aborted_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp() -> QueuePair {
        QueuePair::new(4, QueueLatencies::default())
    }

    #[test]
    fn submit_fetch_complete_round_trip() {
        let mut q = qp();
        let id = q
            .submit(SimTime::ZERO, CommandKind::InvokeFunction { entry_line: 3 })
            .expect("submit");
        assert!(q.has_pending());
        let cmd = q.fetch().expect("fetch");
        assert_eq!(cmd.id, id);
        assert!(matches!(
            cmd.kind,
            CommandKind::InvokeFunction { entry_line: 3 }
        ));
        q.post_completion(Completion {
            id,
            completed_at: SimTime::from_secs(1.0),
            progress: 1.0,
        });
        let c = q.poll_completion().expect("completion");
        assert_eq!(c.id, id);
        assert_eq!(q.submitted_total(), 1);
        assert_eq!(q.completed_total(), 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = qp();
        let a = q.submit(SimTime::ZERO, CommandKind::Break).expect("a");
        let b = q
            .submit(
                SimTime::ZERO,
                CommandKind::LoadBinary {
                    size: Bytes::from_kib(64),
                },
            )
            .expect("b");
        assert!(a < b);
        assert_eq!(q.fetch().expect("first").id, a);
        assert_eq!(q.fetch().expect("second").id, b);
    }

    #[test]
    fn full_queue_rejects() {
        let mut q = QueuePair::new(1, QueueLatencies::default());
        q.submit(SimTime::ZERO, CommandKind::Break)
            .expect("first fits");
        assert_eq!(
            q.submit(SimTime::ZERO, CommandKind::Break),
            Err(QueueError::SubmissionFull)
        );
    }

    #[test]
    fn empty_fetch_errors() {
        let mut q = qp();
        assert_eq!(q.fetch().unwrap_err(), QueueError::Empty);
    }

    #[test]
    fn break_detection() {
        let mut q = qp();
        q.submit(SimTime::ZERO, CommandKind::InvokeFunction { entry_line: 0 })
            .expect("submit");
        assert!(!q.has_pending_break());
        q.submit(SimTime::ZERO, CommandKind::Break)
            .expect("submit break");
        assert!(q.has_pending_break());
    }

    #[test]
    fn status_updates_are_cheap_and_counted() {
        let mut q = qp();
        let mut total = Duration::ZERO;
        for _ in 0..1000 {
            total += q.status_update();
        }
        assert_eq!(q.status_updates(), 1000);
        // 1000 updates at 200ns each = 0.2ms: "very little overhead".
        assert!(total.as_secs() < 1e-3);
    }

    #[test]
    fn invocation_overhead_is_microseconds() {
        let q = qp();
        let ov = q.invocation_overhead();
        assert!(ov.as_secs() > 0.0 && ov.as_secs() < 1e-4);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = qp();
        q.submit(SimTime::ZERO, CommandKind::Break).expect("submit");
        q.reset();
        assert!(!q.has_pending());
        assert_eq!(q.submitted_total(), 0);
    }
}
