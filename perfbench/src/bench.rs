//! The four workloads: set-up, one round of jobs, and each job's call
//! sequence into the layers, with the benchmark's spans around each call.
//!
//! A round is a fixed, seed-determined list of jobs. The timed loop
//! replays rounds; every replay of a job must give the first replay's
//! answer and simulated time exactly.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::sampling::{paper_scales, run_sampling_with};
use activepy::{
    execute_sharded_plan, ExecJournal, FleetReport, MigrationReason, OffloadPlan, PlanCache,
    PlanCacheStats, RunReport, ShardedPlan,
};
use alang::{ExecBackend, ExecTier, ParallelPolicy, Program, ShardMap, ShardStrategy, Vm};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, FaultPlan, SystemConfig};
use isp_baselines::run_host_only_with;
use isp_workloads::Workload;

use crate::inputs::{self, PROGRAMS};
use crate::rng::{derive, SplitMix};
use crate::trace::span;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["fig5-replay", "cold-submit", "fleet-recover", "scan-large"];

/// Seeded variants per program in `cold-submit`. A variant's plan, and
/// so its job time, depends on its values; with two variants per program
/// the seed alone moved `jobs_per_s` by 5 %.
const COLD_VARIANTS: usize = 4;
/// Fleet size in `fleet-recover`.
const FLEET_SHARDS: usize = 4;
/// Every `RESTART_EVERY`-th program's fleet job is followed by a
/// crash-restart of it (so one `fleet-recover` job in three).
const RESTART_EVERY: usize = 2;
/// Every `CRASH_EVERY`-th program's fleet job crashes one seeded shard at
/// t = 0.
const CRASH_EVERY: usize = 3;
/// Per-operation transient fault probability on every fleet device.
const TRANSIENT_PROB: f64 = 0.02;
/// `scan-large`: its programs, and the full-scale rows each materializes.
/// MatrixMul's rows are 64 wide, so 8,192 of them already hold 524,288
/// elements. TPC-H-14 makes the program count odd: with an even count of
/// equally weighted programs the median job would sit on the gap between
/// two programs' job times.
const LARGE: [(&str, usize); 5] = [
    ("TPC-H-1", 65_536),
    ("TPC-H-6", 65_536),
    ("TPC-H-14", 65_536),
    ("blackscholes", 65_536),
    ("MatrixMul", 8_192),
];
/// `scan-large` kernel threads.
const LARGE_THREADS: usize = 2;

/// Per-layer counts a job adds to (summed over the traced run).
pub type Tally = BTreeMap<&'static str, f64>;

fn add(tally: &mut Tally, name: &'static str, v: f64) {
    *tally.entry(name).or_insert(0.0) += v;
}

/// The answer and simulated time of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobOut {
    pub fingerprint: u64,
    pub sim_secs: f64,
}

/// One input: a seeded program variant with its untimed references.
struct Input {
    workload: Workload,
    program: Program,
    /// `run_host_only_with` answer on this input.
    host_fp: u64,
    /// No-CSD C-baseline simulated seconds.
    baseline_secs: f64,
    sharded: Option<Arc<ShardedPlan>>,
    map: Option<ShardMap>,
}

#[derive(Debug, Clone)]
enum Kind {
    /// `plan_for` hit + `execute_plan`.
    Cached {
        scenario: ContentionScenario,
        migrate: bool,
    },
    /// Sampling + materialization + `plan_from_sampling` + `execute_plan`.
    Cold,
    /// Journaled `execute_sharded_plan` under per-shard fault plans.
    Fleet { faults: Vec<FaultPlan> },
    /// Crash-restart of the preceding fleet job: cut its journal at a
    /// seeded offset, warm-load a fresh cache, resume, re-execute.
    Restart { faults: Vec<FaultPlan>, cut: u64 },
}

#[derive(Debug, Clone)]
struct Job {
    input: usize,
    kind: Kind,
}

/// What the last job left for the traced run's probes.
struct Last {
    input: usize,
    plan: Arc<OffloadPlan>,
    report: RunReport,
    policy: ParallelPolicy,
}

/// A set-up workload, ready to replay its round.
pub struct Bench {
    config: SystemConfig,
    rt: ActivePy,
    rt_static: ActivePy,
    cache: PlanCache,
    inputs: Vec<Input>,
    jobs: Vec<Job>,
    wal: PathBuf,
    warm: PathBuf,
    last: Option<Last>,
    /// Answer and sim time of the last uninterrupted fleet job, which a
    /// following crash-restart must reproduce.
    last_fleet: Option<JobOut>,
}

impl Bench {
    /// Sets `workload` up from `seed`, keeping its scratch files in `dir`.
    pub fn setup(workload: &str, seed: u64, dir: &Path) -> Result<Bench, String> {
        let config = SystemConfig::paper_default();
        let policy = if workload == "scan-large" {
            ParallelPolicy::with_threads(LARGE_THREADS)
        } else {
            ParallelPolicy::serial()
        };
        let opts = ActivePyOptions::default().with_parallelism(policy);
        let mut b = Bench {
            config,
            rt: ActivePy::with_options(opts.clone()),
            rt_static: ActivePy::with_options(opts.without_migration()),
            cache: PlanCache::new(),
            inputs: Vec::new(),
            jobs: Vec::new(),
            wal: dir.join("fleet.wal"),
            warm: dir.join("warm.bin"),
            last: None,
            last_fleet: None,
        };
        let mut rng = SplitMix::new(derive(seed, 0x0DE5, 0));
        match workload {
            "fig5-replay" => b.setup_fig5(seed, &mut rng)?,
            "cold-submit" => b.setup_cold(seed, &mut rng)?,
            "fleet-recover" => b.setup_fleet(seed, &mut rng)?,
            "scan-large" => b.setup_large(seed, &mut rng)?,
            other => return Err(format!("unknown workload {other:?}")),
        }
        b.check_distinct()?;
        Ok(b)
    }

    /// Jobs in one round.
    pub fn round_len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether job `j` is a job of its own rather than a re-execution of
    /// the job before it (a crash-restart), which the speedup geomean
    /// would otherwise count twice.
    pub fn is_distinct(&self, j: usize) -> bool {
        !matches!(self.jobs[j].kind, Kind::Restart { .. })
    }

    /// The no-CSD baseline simulated seconds of job `j`'s input.
    pub fn baseline_secs(&self, j: usize) -> f64 {
        self.inputs[self.jobs[j].input].baseline_secs
    }

    fn add_input(&mut self, workload: Workload) -> Result<usize, String> {
        let program = workload.program().map_err(|e| e.to_string())?;
        let host = span("baseline", || {
            run_host_only_with(&workload, &self.config, ExecTier::Native, ExecBackend::Vm)
        })
        .map_err(|e| format!("{}: baseline: {e}", workload.name()))?;
        self.inputs.push(Input {
            workload,
            program,
            host_fp: host.values_fingerprint,
            baseline_secs: host.total_secs,
            sharded: None,
            map: None,
        });
        Ok(self.inputs.len() - 1)
    }

    /// Warm-plans input `i` through the shared cache.
    fn warm_plan(&self, i: usize) -> Result<Arc<OffloadPlan>, String> {
        let input = &self.inputs[i];
        span("plan", || {
            self.cache.plan_for(
                &self.rt,
                input.workload.name(),
                &input.program,
                &input.workload,
                &self.config,
            )
        })
        .map_err(|e| format!("{}: plan: {e}", input.workload.name()))
    }

    /// The uncontended reference run of input `i`'s plan: its answer
    /// must be the host-only answer, and its 50 % CSD-progress point
    /// fixes when contention starts.
    fn reference_onset(&self, i: usize, plan: &OffloadPlan) -> Result<f64, String> {
        let input = &self.inputs[i];
        let out = span("reference", || {
            self.rt
                .execute_plan(plan, &self.config, ContentionScenario::none())
        })
        .map_err(|e| format!("{}: reference: {e}", input.workload.name()))?;
        if out.report.values_fingerprint != input.host_fp {
            return Err(format!(
                "{}: planned reference answer differs from the host-only answer",
                input.workload.name()
            ));
        }
        Ok(out
            .report
            .time_at_csd_progress(0.5)
            .unwrap_or(out.report.total_secs * 0.5))
    }

    fn setup_fig5(&mut self, seed: u64, rng: &mut SplitMix) -> Result<(), String> {
        for (p, name) in PROGRAMS.iter().enumerate() {
            let i = self.add_input(inputs::variant(name, derive(seed, 0xF165, p as u64), None))?;
            let plan = self.warm_plan(i)?;
            let onset = self.reference_onset(i, &plan)?;
            self.jobs.push(cached(i, ContentionScenario::none(), true));
            for pct in [50.0, 10.0] {
                let at = ContentionScenario::at_time(SimTime::from_secs(onset), pct / 100.0);
                self.jobs.push(cached(i, at, true));
                self.jobs.push(cached(i, at, false));
            }
        }
        rng.shuffle(&mut self.jobs);
        Ok(())
    }

    fn setup_cold(&mut self, seed: u64, rng: &mut SplitMix) -> Result<(), String> {
        for (p, name) in PROGRAMS.iter().enumerate() {
            for v in 0..COLD_VARIANTS {
                let vseed = derive(seed, 0xC01D, (p * COLD_VARIANTS + v) as u64);
                let i = self.add_input(inputs::variant(name, vseed, None))?;
                self.jobs.push(Job {
                    input: i,
                    kind: Kind::Cold,
                });
            }
        }
        rng.shuffle(&mut self.jobs);
        Ok(())
    }

    fn setup_fleet(&mut self, seed: u64, rng: &mut SplitMix) -> Result<(), String> {
        for (p, name) in PROGRAMS.iter().enumerate() {
            let i = self.add_input(inputs::variant(name, derive(seed, 0xF1EE, p as u64), None))?;
            let plan = self.warm_plan(i)?;
            // The fleet's answer must be the unsharded single-device one.
            let single = span("reference", || {
                self.rt
                    .execute_plan(&plan, &self.config, ContentionScenario::none())
            })
            .map_err(|e| format!("{name}: unsharded reference: {e}"))?;
            if single.report.values_fingerprint != self.inputs[i].host_fp {
                return Err(format!("{name}: unsharded answer differs from host-only"));
            }
            let map = ShardMap::auto(&plan.full_storage, FLEET_SHARDS, ShardStrategy::Range);
            let input = &self.inputs[i];
            let sharded = span("shard.derive", || {
                self.cache.sharded_plan_for(
                    &self.rt,
                    name,
                    &input.program,
                    &input.workload,
                    &self.config,
                    &map,
                )
            })
            .map_err(|e| format!("{name}: shard derive: {e}"))?;
            self.inputs[i].sharded = Some(sharded);
            self.inputs[i].map = Some(map);
        }
        span("persist.save", || self.cache.save_warm(&self.warm))
            .map_err(|e| format!("save_warm: {e}"))?;

        // Which programs crash a shard and which get a crash-restart is
        // fixed, so every seed sends the same job mix; the seed picks the
        // order, the crashed shard, the fault streams and the cut points.
        let mut units: Vec<Vec<Job>> = Vec::new();
        for i in 0..self.inputs.len() {
            let jseed = derive(seed, 0xFA17, i as u64);
            let crash = (i % CRASH_EVERY == 0).then(|| (jseed % FLEET_SHARDS as u64) as usize);
            let faults: Vec<FaultPlan> = (0..FLEET_SHARDS)
                .map(|s| {
                    let plan = FaultPlan::none()
                        .with_seed(derive(jseed, 0x5EED, s as u64))
                        .with_flash_read_error_prob(TRANSIENT_PROB)
                        .with_nvme_error_prob(TRANSIENT_PROB)
                        .with_dma_error_prob(TRANSIENT_PROB);
                    if crash == Some(s) {
                        plan.with_crash_at(SimTime::from_secs(0.0))
                    } else {
                        plan
                    }
                })
                .collect();
            let mut unit = vec![Job {
                input: i,
                kind: Kind::Fleet {
                    faults: faults.clone(),
                },
            }];
            if i % RESTART_EVERY == 0 {
                let cut = rng.next_u64();
                unit.push(Job {
                    input: i,
                    kind: Kind::Restart { faults, cut },
                });
            }
            units.push(unit);
        }
        rng.shuffle(&mut units);
        self.jobs = units.into_iter().flatten().collect();
        Ok(())
    }

    fn setup_large(&mut self, seed: u64, rng: &mut SplitMix) -> Result<(), String> {
        for (p, (name, rows)) in LARGE.iter().enumerate() {
            let w = inputs::variant(name, derive(seed, 0x1A46, p as u64), Some(*rows));
            let i = self.add_input(w)?;
            let plan = self.warm_plan(i)?;
            let onset = self.reference_onset(i, &plan)?;
            self.jobs.push(cached(i, ContentionScenario::none(), true));
            let at = ContentionScenario::at_time(SimTime::from_secs(onset), 0.1);
            self.jobs.push(cached(i, at, true));
        }
        rng.shuffle(&mut self.jobs);
        Ok(())
    }

    /// Distinct seeded inputs must have distinct reference answers, or
    /// the answer check could pass vacuously (say, if the fingerprint
    /// stopped depending on values). `cold-submit` holds four inputs of
    /// each program; the other workloads one each.
    fn check_distinct(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for input in &self.inputs {
            if !seen.insert(input.host_fp) {
                return Err(format!(
                    "{}: two seeded inputs share one reference answer",
                    input.workload.name()
                ));
            }
        }
        Ok(())
    }

    /// Size of the persisted warm-start file (0 when none was saved).
    pub fn warm_bytes(&self) -> u64 {
        file_len(&self.warm)
    }

    /// The reference answer job `j` must reproduce.
    pub fn expected_fp(&self, j: usize) -> u64 {
        self.inputs[self.jobs[j].input].host_fp
    }

    /// Runs job `j`, adding its layer counts to `tally`.
    pub fn run(&mut self, j: usize, tally: &mut Tally) -> Result<JobOut, String> {
        let job = self.jobs[j].clone();
        let name = self.inputs[job.input].workload.name().to_owned();
        let out = match job.kind {
            Kind::Cached { scenario, migrate } => {
                self.run_cached(job.input, scenario, migrate, tally)
            }
            Kind::Cold => self.run_cold(job.input, tally),
            Kind::Fleet { faults } => self.run_fleet(job.input, &faults, tally),
            Kind::Restart { faults, cut } => self.run_restart(job.input, &faults, cut, tally),
        };
        out.map_err(|e| format!("{name}: {e}"))
    }

    fn run_cached(
        &mut self,
        i: usize,
        scenario: ContentionScenario,
        migrate: bool,
        tally: &mut Tally,
    ) -> Result<JobOut, String> {
        let input = &self.inputs[i];
        let rt = if migrate { &self.rt } else { &self.rt_static };
        let before = self.cache.stats();
        let plan = span("plan_cache", || {
            self.cache.plan_for(
                rt,
                input.workload.name(),
                &input.program,
                &input.workload,
                &self.config,
            )
        })
        .map_err(|e| e.to_string())?;
        tally_cache(tally, before, self.cache.stats());
        let out = span("exec", || rt.execute_plan(&plan, &self.config, scenario))
            .map_err(|e| e.to_string())?;
        let policy = rt.options().parallel;
        Ok(self.finish_exec(i, plan, out.report, policy, tally))
    }

    fn run_cold(&mut self, i: usize, tally: &mut Tally) -> Result<JobOut, String> {
        let input = &self.inputs[i];
        let scales = paper_scales();
        let sampling = span("sampling", || {
            run_sampling_with(&input.program, &input.workload, &scales, ExecBackend::Vm)
        })
        .map_err(|e| e.to_string())?;
        add(tally, "sampling.runs", 1.0);
        let storage = input.workload.storage_at(1.0);
        let plan = span("plan", || {
            self.rt
                .plan_from_sampling(&input.program, sampling, storage, &self.config)
        })
        .map_err(|e| e.to_string())?;
        add(tally, "plan.fit_ms", plan.timings.fit_nanos as f64 / 1e6);
        add(
            tally,
            "plan.assign_ms",
            plan.timings.assign_nanos as f64 / 1e6,
        );
        let out = span("exec", || {
            self.rt
                .execute_plan(&plan, &self.config, ContentionScenario::none())
        })
        .map_err(|e| e.to_string())?;
        let policy = self.rt.options().parallel;
        Ok(self.finish_exec(i, Arc::new(plan), out.report, policy, tally))
    }

    fn finish_exec(
        &mut self,
        i: usize,
        plan: Arc<OffloadPlan>,
        report: RunReport,
        policy: ParallelPolicy,
        tally: &mut Tally,
    ) -> JobOut {
        tally_report(tally, &report);
        add(tally, "sim.secs", report.total_secs);
        add(tally, "exec.lines", report.lines.len() as f64);
        add(tally, "exec.csd_lines", report.csd_lines_executed as f64);
        let out = JobOut {
            fingerprint: report.values_fingerprint,
            sim_secs: report.total_secs,
        };
        self.last = Some(Last {
            input: i,
            plan,
            report,
            policy,
        });
        out
    }

    fn run_fleet(
        &mut self,
        i: usize,
        faults: &[FaultPlan],
        tally: &mut Tally,
    ) -> Result<JobOut, String> {
        let sharded = self.sharded_lookup(&self.cache, i, tally)?;
        let journal = span("journal", || ExecJournal::record_to(&self.wal))
            .map_err(|e| format!("journal: {e}"))?;
        let rt = ActivePy::with_options(self.rt.options().clone().with_journal(journal.clone()));
        let report = span("shard.exec", || {
            execute_sharded_plan(
                &rt,
                &sharded,
                &self.config,
                ContentionScenario::none(),
                faults,
            )
        })
        .map_err(|e| e.to_string())?;
        let stats = journal.stats().expect("a recording journal has stats");
        add(tally, "journal.records", stats.appended as f64);
        add(tally, "journal.bytes", file_len(&self.wal) as f64);
        let out = tally_fleet(tally, &report);
        self.last = None;
        self.last_fleet = Some(out);
        Ok(out)
    }

    fn run_restart(
        &mut self,
        i: usize,
        faults: &[FaultPlan],
        cut: u64,
        tally: &mut Tally,
    ) -> Result<JobOut, String> {
        let Some(uninterrupted) = self.last_fleet else {
            return Err("crash-restart without a preceding fleet run".into());
        };
        // The crash: the journal loses everything past a seeded offset.
        let len = file_len(&self.wal);
        let keep = if len == 0 { 0 } else { cut % len };
        OpenOptions::new()
            .write(true)
            .open(&self.wal)
            .and_then(|f| f.set_len(keep))
            .map_err(|e| format!("truncate journal: {e}"))?;
        // The restart: a fresh process state, warm-loaded from disk.
        let fresh = PlanCache::new();
        span("persist.load", || fresh.load_warm(&self.warm))
            .map_err(|e| format!("load_warm: {e}"))?;
        let sharded = self.sharded_lookup(&fresh, i, tally)?;
        let (report, replayed) = span("resume", || {
            let (journal, _) = ExecJournal::resume_from(&self.wal)?;
            let rt =
                ActivePy::with_options(self.rt.options().clone().with_journal(journal.clone()));
            let report = execute_sharded_plan(
                &rt,
                &sharded,
                &self.config,
                ContentionScenario::none(),
                faults,
            )
            .map_err(|e| std::io::Error::other(e.to_string()))?;
            let replayed = journal.stats().map_or(0, |s| s.replayed);
            Ok::<_, std::io::Error>((report, replayed))
        })
        .map_err(|e| format!("resume: {e}"))?;
        add(tally, "resume.replayed", replayed as f64);
        let out = tally_fleet(tally, &report);
        if out.fingerprint != uninterrupted.fingerprint
            || out.sim_secs.to_bits() != uninterrupted.sim_secs.to_bits()
        {
            return Err("resumed run differs from the uninterrupted run".into());
        }
        Ok(out)
    }

    fn sharded_lookup(
        &self,
        cache: &PlanCache,
        i: usize,
        tally: &mut Tally,
    ) -> Result<Arc<ShardedPlan>, String> {
        let input = &self.inputs[i];
        let map = input.map.as_ref().expect("fleet inputs carry a shard map");
        let before = cache.stats();
        let plan = span("shard.derive", || {
            cache.sharded_plan_for(
                &self.rt,
                input.workload.name(),
                &input.program,
                &input.workload,
                &self.config,
                map,
            )
        })
        .map_err(|e| e.to_string())?;
        tally_cache(tally, before, cache.stats());
        add(tally, "shard.count", plan.count() as f64);
        Ok(plan)
    }

    /// Traced-run probes of the job just run, outside its job span:
    /// kernel replay, Eq. 1 audit, and the journal's unjournaled twin.
    pub fn probe(&mut self, j: usize, tally: &mut Tally) -> Result<(), String> {
        if let Some(last) = self.last.take() {
            let kernels = span("kernels", || {
                let mut vm =
                    Vm::with_policy(&last.plan.lowered, &last.plan.full_storage, last.policy);
                for line in 0..last.plan.lowered.len() {
                    vm.exec_line(line)?;
                }
                Ok::<_, alang::LangError>(vm.par_stats())
            })
            .map_err(|e| format!("kernel replay: {e}"))?;
            add(tally, "kernels.par_chunks", kernels.chunks as f64);
            let name = self.inputs[last.input].workload.name();
            let audit = span("audit", || {
                activepy::calibrate(name, &last.plan, &last.report, None)
            });
            add(tally, "audit.err_ppm_sum", audit.mean_abs_rel_err() * 1e6);
            add(tally, "audit.calibrations", 1.0);
            add(tally, "audit.flips", audit.flips.len() as f64);
        }
        if let Kind::Fleet { faults } = &self.jobs[j].kind {
            let input = &self.inputs[self.jobs[j].input];
            let sharded = input
                .sharded
                .as_ref()
                .expect("fleet inputs carry a sharded plan");
            span("journal.twin", || {
                execute_sharded_plan(
                    &self.rt,
                    sharded,
                    &self.config,
                    ContentionScenario::none(),
                    faults,
                )
            })
            .map_err(|e| format!("unjournaled twin: {e}"))?;
        }
        Ok(())
    }
}

fn cached(input: usize, scenario: ContentionScenario, migrate: bool) -> Job {
    Job {
        input,
        kind: Kind::Cached { scenario, migrate },
    }
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

fn tally_cache(tally: &mut Tally, before: PlanCacheStats, after: PlanCacheStats) {
    add(tally, "plan_cache.hits", (after.hits - before.hits) as f64);
    add(
        tally,
        "plan_cache.misses",
        (after.misses - before.misses) as f64,
    );
}

/// Monitor, migration, simulator and recovery counts of one device run.
fn tally_report(tally: &mut Tally, r: &RunReport) {
    let reclaims = r
        .migrations
        .iter()
        .filter(|m| m.reason == MigrationReason::Reclaim)
        .count();
    add(
        tally,
        "exec.migrations",
        (r.migrations.len() - reclaims) as f64,
    );
    add(tally, "exec.reclaims", reclaims as f64);
    add(tally, "sim.d2h_bytes", r.d2h_bytes as f64);
    add(tally, "sim.h2d_bytes", r.h2d_bytes as f64);
    add(tally, "sim.csd_busy_s", r.csd_busy_secs());
    let rec = r.metrics.recovery;
    add(tally, "recovery.retries", rec.retries as f64);
    add(tally, "recovery.recovered_ops", rec.recovered_ops as f64);
    add(tally, "recovery.transients", rec.transient_faults as f64);
    add(
        tally,
        "recovery.fault_migrations",
        rec.fault_migrations as f64,
    );
}

fn tally_fleet(tally: &mut Tally, f: &FleetReport) -> JobOut {
    for s in &f.shards {
        tally_report(tally, &s.report);
    }
    tally_report(tally, &f.tail);
    add(tally, "sim.secs", f.total_secs);
    add(
        tally,
        "fault.injected",
        (f.injected.transient_total() + f.injected.cse_crashes) as f64,
    );
    JobOut {
        fingerprint: f.values_fingerprint,
        sim_secs: f.total_secs,
    }
}
