//! Host-speed calibration for the timed run.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants'
//! load on the shared caches and memory bus moves this process's speed by
//! up to a third over minutes, on a time scale longer than a run, so no
//! run length or in-run statistic makes absolute wall times repeat across
//! runs. The timed run therefore also times a fixed calibration unit,
//! which calls nothing in the repository, in short bursts spread over the
//! run, and reports its wall metrics rescaled to a host on which one unit
//! takes [`REF_UNIT_MS`]. A change to the program moves the rescaled
//! times exactly as it moves the raw ones; a change in the host's speed
//! moves the unit's time too, and cancels.
//!
//! A unit does what the benchmarked jobs spend their time on: scattered
//! reads over a table larger than a core's private caches, and float
//! formatting into a fresh string that is then hashed.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time of one calibration unit on the reference host.
pub const REF_UNIT_MS: f64 = 0.5;
/// 16 MiB of `u64`: past a core's private caches, into the shared ones.
const TABLE_WORDS: usize = 1 << 21;
const READS: usize = 20_000;
const FLOATS: usize = 2_000;
/// Units per burst, and the least time between bursts.
const BURST: usize = 4;
const BURST_EVERY: Duration = Duration::from_millis(200);

pub struct HostClock {
    table: Vec<u64>,
    /// Read-position generator; it carries over from unit to unit, so no
    /// unit finds the lines of the one before it still cached.
    cursor: u64,
    unit_ms: Vec<f64>,
    last_burst: Instant,
}

impl HostClock {
    /// Allocates and touches the table, so it stays resident all run.
    pub fn new() -> Self {
        HostClock {
            table: (0..TABLE_WORDS as u64).collect(),
            cursor: 1,
            unit_ms: Vec::new(),
            last_burst: Instant::now(),
        }
    }

    /// Times one burst of units.
    pub fn burst(&mut self) {
        for _ in 0..BURST {
            let t = Instant::now();
            let sum = self.unit();
            black_box(sum);
            self.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        self.last_burst = Instant::now();
    }

    /// Times a burst if the last one is [`BURST_EVERY`] old; call between
    /// jobs, outside their timing.
    pub fn tick(&mut self) {
        if self.last_burst.elapsed() >= BURST_EVERY {
            self.burst();
        }
    }

    fn unit(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..READS {
            self.cursor = self
                .cursor
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            sum = sum.wrapping_add(self.table[(self.cursor >> 43) as usize]);
        }
        let mut text = String::new();
        for k in 0..FLOATS {
            let _ = write!(text, "{:?},", k as f64 * 1.37 + 0.001);
        }
        text.bytes().fold(sum, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Median wall time of one unit over the run so far.
    pub fn unit_ms(&self) -> f64 {
        let mut v = self.unit_ms.clone();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    /// Number of units timed so far.
    pub fn units(&self) -> usize {
        self.unit_ms.len()
    }

    /// Factor that rescales a wall time measured in this run to the
    /// reference host: below 1 when this host ran slow.
    pub fn scale(&self) -> f64 {
        REF_UNIT_MS / self.unit_ms()
    }

    /// The table's resident size, in MB, which the process's peak
    /// resident set includes.
    pub fn table_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }
}
