//! Offload plans and the keyed plan cache.
//!
//! Planning — sampling at the paper's down-scales, curve fitting,
//! calibration, Eq.1 estimation, and Algorithm 1 — depends only on the
//! program, the workload's input generator, the platform
//! [`SystemConfig`], and the planning-relevant runtime options (sampling
//! scales and cost-model constants). It does *not* depend on the
//! contention scenario, the monitoring policy, or preemption timing:
//! those only shape execution. [`OffloadPlan`] captures the full planning
//! product once, so every execution variant of the same (workload,
//! platform) pair — contended, uncontended, with or without migration —
//! replays it instead of re-sampling.
//!
//! [`PlanCache`] keys plans by workload name plus a fingerprint of the
//! platform config and planning options, computes misses under the cache
//! lock so each key is planned exactly once even under concurrent sweeps,
//! and counts hits, misses, and host wall-clock spent planning.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::assign::Assignment;
use crate::error::Result;
use crate::estimate::{Calibration, LineEstimate};
use crate::fit::LinePrediction;
use crate::persist::WarmSeed;
use crate::profile::{ProfileKey, ProfileRecorder, ProfileStore};
use crate::runtime::ActivePy;
use crate::sampling::{InputSource, SamplingReport};
use crate::shard::{derive_sharded_plan, ShardedPlan};
use alang::builtins::Storage;
use alang::shard::ShardMap;
use alang::{LoweredProgram, Program};
use csd_sim::fleet::DEFAULT_BUDGET_LINKS;
use csd_sim::SystemConfig;
use isp_obs::{Fingerprint, Fnv1a};

/// Host wall-clock spent in each planning phase, in nanoseconds.
///
/// These are *real* (measurement-host) times for the cache's bookkeeping,
/// distinct from the simulated seconds charged to the virtual clock
/// (`sampling_secs` / `compile_secs` on [`OffloadPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanTimings {
    /// Sampling runs over the down-scaled inputs.
    pub sampling_nanos: u64,
    /// Complexity fitting and full-scale extrapolation.
    pub fit_nanos: u64,
    /// Calibration, copy-elimination analysis, Eq.1 estimation, and
    /// Algorithm 1 assignment.
    pub assign_nanos: u64,
    /// Materializing the full-scale input.
    pub materialize_nanos: u64,
}

impl PlanTimings {
    /// Total planning wall-clock in nanoseconds.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.sampling_nanos + self.fit_nanos + self.assign_nanos + self.materialize_nanos
    }
}

/// The complete product of the planning half of the pipeline.
///
/// Everything needed to execute under any contention scenario: the
/// program, the fitted predictions and estimates, the Algorithm-1
/// assignment, the simulated pipeline overheads, and the materialized
/// full-scale input.
#[derive(Debug, Clone)]
pub struct OffloadPlan {
    /// The planned program.
    pub program: Program,
    /// The program lowered to register bytecode with this plan's
    /// copy-elimination flags baked in — generated once while planning,
    /// reused by every execution of the plan.
    pub lowered: LoweredProgram,
    /// Raw sampling measurements at the down-scales.
    pub sampling: SamplingReport,
    /// Full-scale predictions with their fitted curves.
    pub predictions: Vec<LinePrediction>,
    /// The calibrated CSE-slowdown constant.
    pub calibration: Calibration,
    /// Per-line copy-elimination decisions for the generated code.
    pub copy_elim: Vec<bool>,
    /// Per-line estimates fed to Algorithm 1 and the monitor.
    pub estimates: Vec<LineEstimate>,
    /// The Algorithm-1 assignment.
    pub assignment: Assignment,
    /// Simulated seconds spent in the sampling phase.
    pub sampling_secs: f64,
    /// Simulated seconds spent generating code.
    pub compile_secs: f64,
    /// The materialized full-scale input.
    pub full_storage: Storage,
    /// Host wall-clock spent building this plan.
    pub timings: PlanTimings,
    /// Per-line Eq. 1 terms exactly as Algorithm 1 consumed them — the
    /// audit layer's capture ([`crate::audit::capture_terms`]). Appended
    /// last so the field prefix existing constructors name is unchanged.
    pub eq1: Vec<crate::audit::Eq1Term>,
}

/// Snapshot of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Cached plans refitted from a newer measured profile.
    pub refits: u64,
    /// Host wall-clock nanoseconds spent building plans.
    pub planning_nanos: u64,
}

impl PlanCacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is unused).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type PlanKey = ProfileKey;

/// A cached plan plus the profile version it was (re)fitted at.
///
/// `generation` 0 is the cold, sampling-only plan; every refit from a
/// newer [`crate::profile::WorkloadProfile`] evicts the entry and stamps
/// it with the profile version it blended in, so a plan is refitted at
/// most once per recorded run no matter how many lookups race.
#[derive(Debug, Clone)]
struct CachedPlan {
    plan: Arc<OffloadPlan>,
    generation: u64,
}

/// A sharded-plan key extends the base key with the [`ShardMap`]
/// fingerprint, which covers shard count, bounds, strategy, and the set
/// of sharded sources — so an N=1 and an N=4 plan (or two different hash
/// seeds over the same rows) can never collide.
type ShardedPlanKey = (String, u64, u64);

/// A thread-safe cache of [`OffloadPlan`]s keyed by workload name and a
/// fingerprint of the platform config plus planning options.
///
/// Misses are computed while holding the cache lock, so concurrent
/// lookups of the same key plan exactly once; the loser of the race
/// observes a hit. Execution-only options (monitoring, preemption,
/// overhead charging, fault/recovery plans, the data-parallel kernel
/// policy) are deliberately outside the key: runs that differ only in
/// those share one plan.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, CachedPlan>>,
    sharded: Mutex<HashMap<ShardedPlanKey, Arc<ShardedPlan>>>,
    /// Warm-start seeds loaded from a persisted cache: per-key sampling
    /// reports and materialized inputs that let a miss plan through
    /// [`ActivePy::plan_from_sampling`] with zero datagen calls.
    warm: Mutex<HashMap<PlanKey, WarmSeed>>,
    profiles: Arc<ProfileStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    refits: AtomicU64,
    warm_starts: AtomicU64,
    planning_nanos: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the cached plan for (`name`, `runtime`'s planning options,
    /// `config`), building it via [`ActivePy::plan`] on first use.
    ///
    /// When the cache's [`ProfileStore`] holds measured observations
    /// newer than the cached plan's generation — i.e. a run recorded
    /// through [`PlanCache::recorder_for`] since the plan was built — the
    /// stale plan is evicted and refitted via [`ActivePy::replan`]: the
    /// profile's per-line means are blended into the predictions and
    /// Algorithm 1 re-runs under the blended model. Refits count in
    /// [`PlanCacheStats::refits`] (the lookup itself still counts as a
    /// hit: sampling never re-runs). With no profile recorded the path is
    /// inert and behaves exactly like a plain cache.
    ///
    /// # Errors
    ///
    /// Propagates planning failures; failed plans are not cached.
    pub fn plan_for(
        &self,
        runtime: &ActivePy,
        name: &str,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
    ) -> Result<Arc<OffloadPlan>> {
        let key = (
            name.to_string(),
            Self::fingerprint(runtime, config, input.wire_fingerprint()),
        );
        let tracer = &runtime.options().tracer;
        let version = self.profiles.version(&key);
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = plans.get_mut(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            tracer.counter_add("plan_cache.hits", 1);
            if cached.generation < version {
                let profile = self.profiles.profile(&key);
                let refit = Arc::new(runtime.replan(&cached.plan, config, &profile)?);
                *cached = CachedPlan {
                    plan: Arc::clone(&refit),
                    generation: version,
                };
                self.refits.fetch_add(1, Ordering::Relaxed);
                tracer.counter_add("plan_cache.refits", 1);
                return Ok(refit);
            }
            return Ok(Arc::clone(&cached.plan));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        tracer.counter_add("plan_cache.misses", 1);
        let started = Instant::now();
        // Warm start: a persisted sampling report plus materialized input
        // for this exact key re-plans through phases 2–5 only — zero
        // sampling runs, zero `storage_at` calls against `input`.
        let seed = self
            .warm
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        let mut plan = Arc::new(match seed {
            Some(seed) => {
                self.warm_starts.fetch_add(1, Ordering::Relaxed);
                tracer.counter_add("plan_cache.warm_starts", 1);
                runtime.plan_from_sampling(program, seed.sampling, seed.storage, config)?
            }
            None => runtime.plan(program, input, config)?,
        });
        if version > 0 {
            // A profile can predate the first plan (recorded by a caller
            // that executed an uncached plan): blend it in immediately.
            let profile = self.profiles.profile(&key);
            plan = Arc::new(runtime.replan(&plan, config, &profile)?);
            self.refits.fetch_add(1, Ordering::Relaxed);
            tracer.counter_add("plan_cache.refits", 1);
        }
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.planning_nanos.fetch_add(nanos, Ordering::Relaxed);
        plans.insert(
            key,
            CachedPlan {
                plan: Arc::clone(&plan),
                generation: version,
            },
        );
        Ok(plan)
    }

    /// The cache's profile store: measured per-line costs keyed exactly
    /// like the plans they refit.
    #[must_use]
    pub fn profiles(&self) -> &Arc<ProfileStore> {
        &self.profiles
    }

    /// A recorder that feeds this cache's profile store under the same
    /// key [`PlanCache::plan_for`] would use for (`name`, `runtime`,
    /// `config`) — attach it via
    /// [`crate::runtime::ActivePyOptions::with_profile`] and every plan
    /// execution's measured line costs become refit observations.
    #[must_use]
    pub fn recorder_for(
        &self,
        runtime: &ActivePy,
        name: &str,
        input: &dyn InputSource,
        config: &SystemConfig,
    ) -> ProfileRecorder {
        ProfileRecorder::to_store(
            Arc::clone(&self.profiles),
            (
                name.to_string(),
                Self::fingerprint(runtime, config, input.wire_fingerprint()),
            ),
        )
    }

    /// Returns the cached fleet plan for (`name`, planning options,
    /// `config`, `map`), deriving it from the base [`OffloadPlan`] —
    /// which is itself looked up (or built) under the *unchanged* base
    /// key, so single-device sampling is reused across every shard
    /// count. The sharded key appends [`ShardMap::fingerprint`], which
    /// covers shard count, bounds, strategy, and sharded sources: plans
    /// for different fleet shapes can never collide.
    ///
    /// # Errors
    ///
    /// Propagates base-planning failures; failed plans are not cached.
    pub fn sharded_plan_for(
        &self,
        runtime: &ActivePy,
        name: &str,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
        map: &ShardMap,
    ) -> Result<Arc<ShardedPlan>> {
        let key = (
            name.to_string(),
            Self::fingerprint(runtime, config, input.wire_fingerprint()),
            map.fingerprint(),
        );
        {
            let sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(plan) = sharded.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                runtime.options().tracer.counter_add("plan_cache.hits", 1);
                return Ok(Arc::clone(plan));
            }
        }
        // The base lookup below does its own hit/miss accounting; the
        // sharded derivation is cheap (no sampling), so only base-plan
        // construction contributes to planning_nanos.
        let base = self.plan_for(runtime, name, program, input, config)?;
        let budget = config.d2h_bandwidth().scale(DEFAULT_BUDGET_LINKS);
        let mut sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
        let plan = sharded
            .entry(key)
            .or_insert_with(|| Arc::new(derive_sharded_plan(&base, map.clone(), config, budget)));
        Ok(Arc::clone(plan))
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            refits: self.refits.load(Ordering::Relaxed),
            planning_nanos: self.planning_nanos.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct plans held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no plans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plans warm-started from persisted seeds (a subset of `misses`).
    #[must_use]
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts.load(Ordering::Relaxed)
    }

    /// The cache key [`PlanCache::plan_for`] derives for (`name`,
    /// `runtime`'s planning options, `config`) — also the
    /// [`ProfileStore`] key, and the identity persisted warm-start seeds
    /// are matched against.
    #[must_use]
    pub fn key_for(
        runtime: &ActivePy,
        name: &str,
        input: &dyn InputSource,
        config: &SystemConfig,
    ) -> ProfileKey {
        (
            name.to_string(),
            Self::fingerprint(runtime, config, input.wire_fingerprint()),
        )
    }

    /// Persists this cache's warm-start state to `path`: for every cached
    /// plan, its sampling report and materialized full-scale input (keyed
    /// by the plan's cache key), plus the profile store's accumulated
    /// observations — everything a restarted process needs to re-plan
    /// identical plans without a single datagen call. The format is the
    /// checksummed binary codec of [`crate::persist`].
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn save_warm(&self, path: &Path) -> std::io::Result<()> {
        let seeds: Vec<(ProfileKey, WarmSeed)> = {
            let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
            let mut v: Vec<_> = plans
                .iter()
                .map(|(k, c)| {
                    (
                        k.clone(),
                        WarmSeed {
                            sampling: c.plan.sampling.clone(),
                            storage: c.plan.full_storage.clone(),
                        },
                    )
                })
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        crate::persist::save_warm_file(path, &seeds, &self.profiles.entries())
    }

    /// Loads warm-start state saved by [`PlanCache::save_warm`]: seeds
    /// install into this cache's warm map (consulted on plan misses) and
    /// persisted profiles restore into the profile store. Returns the
    /// number of seeds loaded.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; a corrupt or truncated file surfaces
    /// as [`std::io::ErrorKind::InvalidData`] (warm start is strictly
    /// optional, so callers typically fall back to cold planning).
    pub fn load_warm(&self, path: &Path) -> std::io::Result<usize> {
        let (seeds, profiles) = crate::persist::load_warm_file(path)?;
        let n = seeds.len();
        {
            let mut warm = self.warm.lock().unwrap_or_else(PoisonError::into_inner);
            for (k, seed) in seeds {
                warm.insert(k, seed);
            }
        }
        for (k, p) in profiles {
            self.profiles.restore(k, p);
        }
        Ok(n)
    }

    /// Canonical fingerprint of the platform config and the
    /// planning-relevant options (sampling scales, cost constants), plus
    /// the input's declared wire-format fingerprint
    /// ([`InputSource::wire_fingerprint`]) — re-encoding a dataset
    /// (codec, shuffle, byte order, fill sentinel) changes decode costs
    /// and therefore invalidates cached plans, without the key ever
    /// needing to materialize storage (warm starts stay zero-datagen).
    fn fingerprint(runtime: &ActivePy, config: &SystemConfig, wire: u64) -> u64 {
        let opts = runtime.options();
        let mut h = Fnv1a::new();
        config.fingerprint_into(&mut h);
        opts.scales.fingerprint_into(&mut h);
        opts.params.fingerprint_into(&mut h);
        h.write_u64(wire);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::parser::parse;
    use alang::value::ArrayVal;
    use alang::Value;
    use csd_sim::ContentionScenario;

    fn input() -> impl InputSource {
        |scale: f64| {
            let logical = (scale * 1e9).round().max(100.0) as u64;
            let actual = (((logical / 100_000).clamp(100, 8000) / 100) * 100) as usize;
            let data: Vec<f64> = (0..actual).map(|i| (i % 100) as f64).collect();
            let mut st = Storage::new();
            st.insert("v", Value::Array(ArrayVal::with_logical(data, logical)));
            st
        }
    }

    const SRC: &str = "a = scan('v')\ns = sum(a)\n";

    #[test]
    fn same_key_hits_and_plans_once() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let first = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let second = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must reuse the plan"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(stats.planning_nanos > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_config_misses() {
        let program = parse(SRC).expect("parse");
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let base = SystemConfig::paper_default();
        let degraded = SystemConfig::nvmeof_default();
        cache
            .plan_for(&rt, "w", &program, &input(), &base)
            .expect("plan");
        cache
            .plan_for(&rt, "w", &program, &input(), &degraded)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "same workload under a different SystemConfig must be a distinct plan"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_key_moves_with_every_planning_input() {
        use crate::runtime::ActivePyOptions;
        use csd_sim::engine::EngineKind;
        use csd_sim::flash::GcSchedule;
        use csd_sim::units::{Bandwidth, Bytes, Duration};

        let key = |opts: ActivePyOptions, config: &SystemConfig, wire: u64| {
            PlanCache::fingerprint(&ActivePy::with_options(opts), config, wire)
        };
        // A reference config with a GC schedule, so `gc`'s fields count.
        let reference = SystemConfig {
            gc: Some(GcSchedule {
                period: Duration::from_micros(100.0),
                window: Duration::from_micros(10.0),
                residual_fraction: 0.5,
            }),
            ..SystemConfig::paper_default()
        };
        let base = key(ActivePyOptions::default(), &reference, 0);
        assert_eq!(base, key(ActivePyOptions::default(), &reference, 0));

        let micros = Duration::from_micros;
        let gbps = Bandwidth::from_gb_per_sec;
        fn gc(c: &mut SystemConfig) -> &mut GcSchedule {
            c.gc.as_mut().expect("reference has gc")
        }
        type Edit<'a> = (&'static str, Box<dyn Fn(&mut SystemConfig) + 'a>);
        let config_edits: Vec<Edit<'_>> = vec![
            ("host.kind", Box::new(|c| c.host.kind = EngineKind::Cse)),
            ("host.freq_hz", Box::new(|c| c.host.freq_hz += 1.0)),
            ("host.ipc", Box::new(|c| c.host.ipc += 0.5)),
            ("host.cores", Box::new(|c| c.host.cores += 1)),
            (
                "host.parallel_efficiency",
                Box::new(|c| c.host.parallel_efficiency /= 2.0),
            ),
            ("cse.kind", Box::new(|c| c.cse.kind = EngineKind::Host)),
            ("cse.freq_hz", Box::new(|c| c.cse.freq_hz += 1.0)),
            ("cse.ipc", Box::new(|c| c.cse.ipc += 0.5)),
            ("cse.cores", Box::new(|c| c.cse.cores += 1)),
            (
                "cse.parallel_efficiency",
                Box::new(|c| c.cse.parallel_efficiency /= 2.0),
            ),
            (
                "flash_capacity",
                Box::new(|c| c.flash_capacity = Bytes::new(1)),
            ),
            (
                "flash_internal_bandwidth",
                Box::new(|c| c.flash_internal_bandwidth = gbps(1.0)),
            ),
            ("gc", Box::new(|c| c.gc = None)),
            ("gc.period", Box::new(|c| gc(c).period = micros(1.0))),
            ("gc.window", Box::new(|c| gc(c).window = micros(1.0))),
            (
                "gc.residual_fraction",
                Box::new(|c| gc(c).residual_fraction = 0.25),
            ),
            ("nvme_bandwidth", Box::new(|c| c.nvme_bandwidth = gbps(1.0))),
            ("nvme_latency", Box::new(|c| c.nvme_latency = micros(9.0))),
            ("pcie_bandwidth", Box::new(|c| c.pcie_bandwidth = gbps(1.0))),
            ("pcie_latency", Box::new(|c| c.pcie_latency = micros(9.0))),
            (
                "queue_latencies.submit",
                Box::new(|c| c.queue_latencies.submit = micros(9.0)),
            ),
            (
                "queue_latencies.fetch",
                Box::new(|c| c.queue_latencies.fetch = micros(9.0)),
            ),
            (
                "queue_latencies.complete",
                Box::new(|c| c.queue_latencies.complete = micros(9.0)),
            ),
            (
                "queue_latencies.status_update",
                Box::new(|c| c.queue_latencies.status_update = micros(9.0)),
            ),
            ("queue_depth", Box::new(|c| c.queue_depth += 1)),
            ("host_dram", Box::new(|c| c.host_dram = Bytes::new(1))),
            ("device_dram", Box::new(|c| c.device_dram = Bytes::new(1))),
            ("dma_setup", Box::new(|c| c.dma_setup = micros(9.0))),
        ];
        for (field, edit) in &config_edits {
            let mut config = reference.clone();
            edit(&mut config);
            assert_ne!(
                key(ActivePyOptions::default(), &config, 0),
                base,
                "SystemConfig.{field} is not in the plan-cache key"
            );
        }

        type OptEdit = (&'static str, fn(&mut ActivePyOptions));
        let option_edits: [OptEdit; 5] = [
            ("scales.len", |o| {
                o.scales.pop();
            }),
            ("scales[0]", |o| o.scales[0] *= 2.0),
            ("params.copy_ops_per_byte", |o| {
                o.params.copy_ops_per_byte += 1.0
            }),
            ("params.dispatch_overhead", |o| {
                o.params.dispatch_overhead += 1.0
            }),
            ("params.scan_ops_per_byte", |o| {
                o.params.scan_ops_per_byte += 1.0
            }),
        ];
        for (field, edit) in option_edits {
            let mut opts = ActivePyOptions::default();
            edit(&mut opts);
            assert_ne!(
                key(opts, &reference, 0),
                base,
                "ActivePyOptions.{field} is not in the plan-cache key"
            );
        }
        assert_ne!(key(ActivePyOptions::default(), &reference, 1), base, "wire");
        // Execution-only options stay out of the key.
        let exec_only = ActivePyOptions::default()
            .without_migration()
            .with_preemption_at(1.0)
            .with_parallelism(alang::ParallelPolicy::new(8, 1024).expect("policy"));
        assert_eq!(key(exec_only, &reference, 0), base);
    }

    #[test]
    fn different_workload_name_misses() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        cache
            .plan_for(&rt, "w1", &program, &input(), &config)
            .expect("plan");
        cache
            .plan_for(&rt, "w2", &program, &input(), &config)
            .expect("plan");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn execution_only_options_share_a_plan_key() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let cache = PlanCache::new();
        let with_migration = ActivePy::new();
        let without_migration =
            ActivePy::with_options(crate::runtime::ActivePyOptions::default().without_migration());
        cache
            .plan_for(&with_migration, "w", &program, &input(), &config)
            .expect("plan");
        cache
            .plan_for(&without_migration, "w", &program, &input(), &config)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "monitor policy must not split the plan key"
        );
        // Faults and recovery are execution-only too: a runtime that will
        // inject faults still reuses the fault-free plan.
        let faulted = ActivePy::with_options(
            crate::runtime::ActivePyOptions::default()
                .with_recovery(crate::recovery::RecoveryPolicy::default().without_fallback())
                .with_faults(
                    csd_sim::fault::FaultPlan::none()
                        .with_seed(9)
                        .with_flash_read_error_prob(0.2),
                ),
        );
        cache
            .plan_for(&faulted, "w", &program, &input(), &config)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (2, 1),
            "fault plan and recovery policy must not split the plan key"
        );
        // The data-parallel kernel policy only changes how the repro host
        // executes kernels, never what they compute: same plan.
        let parallel = ActivePy::with_options(
            crate::runtime::ActivePyOptions::default()
                .with_parallelism(alang::ParallelPolicy::new(8, 1024).expect("policy")),
        );
        cache
            .plan_for(&parallel, "w", &program, &input(), &config)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (3, 1),
            "parallel policy must not split the plan key"
        );
    }

    #[test]
    fn shard_count_splits_the_sharded_key_but_not_the_base_plan() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let storage = input().storage_at(1.0);
        let map1 = alang::shard::ShardMap::auto(&storage, 1, alang::shard::ShardStrategy::Range);
        let map4 = alang::shard::ShardMap::auto(&storage, 4, alang::shard::ShardStrategy::Range);
        let p1 = cache
            .sharded_plan_for(&rt, "w", &program, &input(), &config, &map1)
            .expect("N=1 plan");
        let p4 = cache
            .sharded_plan_for(&rt, "w", &program, &input(), &config, &map4)
            .expect("N=4 plan");
        assert!(
            !Arc::ptr_eq(&p1, &p4),
            "N=1 and N=4 fleet plans must never share a cache slot"
        );
        assert_eq!(p1.count(), 1);
        assert_eq!(p4.count(), 4);
        // The expensive half is shared: both fleet shapes derive from ONE
        // base plan (sampling ran exactly once).
        assert!(
            Arc::ptr_eq(&p1.base, &p4.base),
            "both fleet shapes must reuse the single base plan"
        );
        assert_eq!(
            cache.stats().misses,
            1,
            "only the base plan is ever built from scratch"
        );
        // Same map → hit on the sharded key.
        let p4_again = cache
            .sharded_plan_for(&rt, "w", &program, &input(), &config, &map4)
            .expect("N=4 again");
        assert!(Arc::ptr_eq(&p4, &p4_again));
        // A different hash seed over the same rows is a different
        // placement: distinct slot even at the same shard count.
        let hashed =
            alang::shard::ShardMap::auto(&storage, 4, alang::shard::ShardStrategy::Hash(7));
        let ph = cache
            .sharded_plan_for(&rt, "w", &program, &input(), &config, &hashed)
            .expect("hashed plan");
        assert!(!Arc::ptr_eq(&p4, &ph), "strategy must split the key");
    }

    #[test]
    fn cached_plan_executes_identically_to_direct_run() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let direct = rt
            .run(&program, &input(), &config, ContentionScenario::none())
            .expect("direct run");
        let cache = PlanCache::new();
        let plan = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let via_plan = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("execute plan");
        assert_eq!(direct, via_plan);
    }

    #[test]
    fn warm_profile_triggers_exactly_one_refit() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let cold = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("cold plan");
        // No observations yet: a repeat lookup is a plain hit, no refit.
        let still_cold = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("still cold");
        assert!(Arc::ptr_eq(&cold, &still_cold));
        assert_eq!(cache.stats().refits, 0, "empty profiles must be inert");
        // Record one measured run through the cache's own recorder; the
        // next lookup must refit exactly once.
        let recorder = cache.recorder_for(&rt, "w", &input(), &config);
        let measured: Vec<alang::LineCost> = cold
            .program
            .lines()
            .iter()
            .map(|_| alang::LineCost {
                compute_ops: 2_000_000_000,
                storage_bytes: 4_000_000_000,
                bytes_in: 4_000_000_000,
                bytes_out: 8,
                copy_bytes: 0,
                eliminable_copy_bytes: 0,
                calls: 1,
            })
            .collect();
        recorder.record(&measured);
        let warm = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("warm plan");
        assert!(
            !Arc::ptr_eq(&cold, &warm),
            "a newer profile version must evict the stale plan"
        );
        let stats = cache.stats();
        assert_eq!(stats.refits, 1);
        assert_eq!(stats.misses, 1, "refits are not misses");
        assert_eq!(stats.hits, 2, "refit lookups still count as hits");
        // Without a new recording the refitted plan is stable.
        let warm_again = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("warm again");
        assert!(Arc::ptr_eq(&warm, &warm_again));
        assert_eq!(
            cache.stats().refits,
            1,
            "at most one refit per recorded run"
        );
        // The profile feeds only its own key: a different workload name
        // under the same config stays cold.
        cache
            .plan_for(&rt, "w2", &program, &input(), &config)
            .expect("other workload");
        assert_eq!(cache.stats().refits, 1);
    }

    #[test]
    fn refitted_plan_computes_identical_values() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let cold = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("cold plan");
        let cold_run = rt
            .execute_plan(&cold, &config, ContentionScenario::none())
            .expect("cold run");
        // Feed the *actual* measured costs back, as execute() would with a
        // live recorder, then refit.
        let recorder = cache.recorder_for(&rt, "w", &input(), &config);
        let mut measured = vec![alang::LineCost::zero(); cold.program.len()];
        for l in &cold_run.report.lines {
            measured[l.line] = l.cost;
        }
        recorder.record(&measured);
        let warm = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("warm plan");
        assert_eq!(cache.stats().refits, 1);
        let warm_run = rt
            .execute_plan(&warm, &config, ContentionScenario::none())
            .expect("warm run");
        // Re-planning moves costs, never answers.
        assert_eq!(
            cold_run.report.values_fingerprint,
            warm_run.report.values_fingerprint
        );
        // The refit keeps the modelled projection at least as good as the
        // prior assignment's projection under the same blended model.
        assert!(warm.assignment.t_csd <= warm.assignment.t_host + 1e-12);
    }
}
