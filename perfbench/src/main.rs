//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5-replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one client, closed loop: each job starts when the previous
//! one has returned. `--trace 0` measures the end-to-end metrics untraced,
//! with wall times rescaled to a reference host speed (see `host.rs`);
//! `--trace 1` is a separate run that records spans around every layer
//! call and reports the per-layer metrics. The last line of standard
//! output is one JSON object; the exit code is non-zero when any job
//! failed or returned a wrong answer. See `perfbench/README.md`.

mod bench;
mod host;
mod inputs;
mod rng;
mod trace;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::{Bench, JobOut, Tally, WORKLOADS};
use host::HostClock;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The timed loop runs whole rounds, and at least this many jobs (so
/// `job_ms_p90` has at least ten samples beyond it).
const MIN_JOBS: usize = 100;
/// Rounds replayed by a traced run (each job once traced, once not).
const TRACE_ROUNDS: usize = 2;
/// Where runs keep scratch files and write their span dumps.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let result = if args.trace {
        traced(&args, &dir)
    } else {
        timed(&args, &dir)
    };
    let _ = fs::remove_dir_all(&dir);
    match result {
        Ok(result) => {
            println!("{}", result.json());
            if result.failed > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Checks each replay of a job against its reference answer and against
/// the job's first replay (answer and simulated time, bit for bit).
struct Checker {
    first: Vec<Option<JobOut>>,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn new(jobs: usize) -> Self {
        Checker {
            first: vec![None; jobs],
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, bench: &Bench, j: usize, res: Result<JobOut, String>) {
        self.attempted += 1;
        let problem = match res {
            Err(e) => Some(e),
            Ok(out) if out.fingerprint != bench.expected_fp(j) => {
                Some(format!("job {j}: wrong answer"))
            }
            Ok(out) => match self.first[j] {
                None => {
                    self.first[j] = Some(out);
                    None
                }
                Some(f)
                    if f.fingerprint != out.fingerprint
                        || f.sim_secs.to_bits() != out.sim_secs.to_bits() =>
                {
                    Some(format!("job {j}: replay drifted from its first run"))
                }
                Some(_) => None,
            },
        };
        if let Some(p) = problem {
            eprintln!("perfbench: {p}");
            self.failed += 1;
        }
    }

    /// Geomean over the round's distinct jobs of the no-CSD baseline sim
    /// seconds divided by the job's sim seconds.
    fn sim_speedup_geomean(&self, bench: &Bench) -> f64 {
        let logs: Vec<f64> = self
            .first
            .iter()
            .enumerate()
            .filter(|(j, _)| bench.is_distinct(*j))
            .filter_map(|(j, f)| f.map(|f| (bench.baseline_secs(j) / f.sim_secs).ln()))
            .collect();
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
    }
}

fn timed(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut host = HostClock::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take()); // one set-up alive at a time
        host.burst();
        let t = Instant::now();
        bench = Some(Bench::setup(&args.workload, args.seed, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let n = bench.round_len();
    let mut checker = Checker::new(n);
    let mut tally = Tally::new();
    let mut job_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut round_ms = 0.0;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut k = 0;
    while k % n != 0 || k < MIN_JOBS || start.elapsed() < budget {
        let j = k % n;
        let t = Instant::now();
        let res = bench.run(j, &mut tally);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        job_ms.push(ms);
        round_ms += ms;
        checker.check(&bench, j, res);
        host.tick();
        k += 1;
        if k % n == 0 {
            round_rates.push(n as f64 * 1e3 / round_ms);
            round_ms = 0.0;
        }
    }
    let attempted = checker.attempted;
    let (rate, p50, p90, setup) = (
        quantile(&mut round_rates, 0.5),
        quantile(&mut job_ms, 0.5),
        quantile(&mut job_ms, 0.9),
        quantile(&mut setup_s, 0.5),
    );
    let scale = host.scale();
    eprintln!(
        "perfbench: raw wall jobs_per_s {rate:.4} job_ms_p50 {p50:.4} job_ms_p90 {p90:.4} \
         setup_s {setup:.4}; calibration unit {:.4} ms (median of {}), scale {scale:.4}",
        host.unit_ms(),
        host.units()
    );
    Ok(Outcome {
        attempted,
        failed: checker.failed,
        metrics: vec![
            ("jobs_per_s", rate / scale, "jobs/s"),
            ("job_ms_p50", p50 * scale, "ms"),
            ("job_ms_p90", p90 * scale, "ms"),
            ("setup_s", setup * scale, "s"),
            ("peak_rss_mb", peak_rss_mb()? - host.table_mb(), "MB"),
            (
                "sim_speedup_geomean",
                checker.sim_speedup_geomean(&bench),
                "x",
            ),
            (
                "ok_pct",
                100.0 * (attempted - checker.failed) as f64 / attempted as f64,
                "%",
            ),
        ],
    })
}

fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    trace::enable();
    let mut bench = Bench::setup(&args.workload, args.seed, dir)?;
    let n = bench.round_len();
    let mut checker = Checker::new(n);
    let mut tally = Tally::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for id in 0..TRACE_ROUNDS * n {
        let j = id % n;
        // Alternate which twin runs first, so warm caches favour neither.
        for traced_twin in [id % 2 == 0, id % 2 == 1] {
            if traced_twin {
                trace::set_job(Some(id as u64));
                let t = Instant::now();
                let res = trace::span("job", || bench.run(j, &mut tally));
                traced_s += t.elapsed().as_secs_f64();
                checker.check(&bench, j, res);
                bench.probe(j, &mut tally)?;
                trace::set_job(None);
            } else {
                let mut scratch = Tally::new();
                let t = Instant::now();
                let res = trace::suspended(|| bench.run(j, &mut scratch));
                untraced_s += t.elapsed().as_secs_f64();
                checker.check(&bench, j, res);
            }
        }
    }
    let spans = trace::take();
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    fs::write(&path, trace::to_jsonl(&spans)).map_err(|e| format!("{}: {e}", path.display()))?;

    let own = trace::self_ms_by_name(&spans);
    let ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let t = |name: &str| tally.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jobs: Vec<(usize, u64)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "job")
        .map(|(i, s)| (i, s.dur_ns()))
        .collect();
    let self_ns = trace::self_times(&spans);
    let job_ns: u64 = jobs.iter().map(|(_, d)| d).sum();
    let job_self_ns: u64 = jobs.iter().map(|(i, _)| self_ns[*i]).sum();
    let hits = t("plan_cache.hits");
    let misses = t("plan_cache.misses");
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("datagen.ms", ms("datagen"), "ms"),
            ("datagen.calls", count("datagen"), "count"),
            ("sampling.ms", ms("sampling"), "ms"),
            ("sampling.runs", t("sampling.runs"), "count"),
            ("plan.ms", ms("plan"), "ms"),
            ("plan.fit_ms", t("plan.fit_ms"), "ms"),
            ("plan.assign_ms", t("plan.assign_ms"), "ms"),
            (
                "plan_cache.lookup_us",
                ratio(ms("plan_cache") * 1e3, count("plan_cache")),
                "us",
            ),
            ("plan_cache.hits", hits, "count"),
            ("plan_cache.misses", misses, "count"),
            ("plan_cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
            ("exec.ms", ms("exec"), "ms"),
            ("exec.overhead_ms", ms("exec") - ms("kernels"), "ms"),
            ("exec.lines", t("exec.lines"), "count"),
            ("exec.csd_lines", t("exec.csd_lines"), "count"),
            ("exec.migrations", t("exec.migrations"), "count"),
            ("exec.reclaims", t("exec.reclaims"), "count"),
            ("kernels.ms", ms("kernels"), "ms"),
            ("kernels.par_chunks", t("kernels.par_chunks"), "count"),
            ("sim.secs", t("sim.secs"), "sim_s"),
            ("sim.d2h_bytes", t("sim.d2h_bytes"), "bytes"),
            ("sim.h2d_bytes", t("sim.h2d_bytes"), "bytes"),
            ("sim.csd_busy_s", t("sim.csd_busy_s"), "sim_s"),
            ("baseline.ms", ms("baseline"), "ms"),
            ("shard.derive_ms", ms("shard.derive"), "ms"),
            ("shard.exec_ms", ms("shard.exec"), "ms"),
            ("shard.count", t("shard.count"), "count"),
            ("fault.injected", t("fault.injected"), "count"),
            ("recovery.retries", t("recovery.retries"), "count"),
            (
                "recovery.recovered_ratio",
                ratio(t("recovery.recovered_ops"), t("recovery.transients")),
                "ratio",
            ),
            (
                "recovery.fault_migrations",
                t("recovery.fault_migrations"),
                "count",
            ),
            ("journal.records", t("journal.records"), "count"),
            ("journal.bytes", t("journal.bytes"), "bytes"),
            (
                "journal.overhead_ms",
                ms("shard.exec") + ms("journal") - ms("journal.twin"),
                "ms",
            ),
            ("resume.ms", ms("resume"), "ms"),
            ("resume.replayed", t("resume.replayed"), "count"),
            ("persist.save_ms", ms("persist.save"), "ms"),
            ("persist.load_ms", ms("persist.load"), "ms"),
            ("persist.bytes", bench.warm_bytes() as f64, "bytes"),
            (
                "audit.mean_abs_err_ppm",
                ratio(t("audit.err_ppm_sum"), t("audit.calibrations")),
                "ppm",
            ),
            ("audit.flips", t("audit.flips"), "count"),
            (
                "trace.unattributed_pct",
                100.0 * ratio(job_self_ns as f64, job_ns as f64),
                "%",
            ),
            (
                "trace.overhead_pct",
                100.0 * ratio(traced_s - untraced_s, untraced_s),
                "%",
            ),
        ],
    })
}

/// Nearest-rank quantile (sorts `v` in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The process's peak resident set (`VmHWM`), in MB. Unlike `getrusage`'s
/// `ru_maxrss`, `VmHWM` starts afresh at `exec`, so it does not report the
/// peak of the `cargo` process that launched the benchmark.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
