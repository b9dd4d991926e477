//! The per-shard fault-plan generator shared by the fleet harnesses.

use csd_sim::fault::FaultPlan;
use csd_sim::units::{Duration, SimTime};
use proptest::prelude::*;

/// Raw parameters of a fault plan; materialized per shard so each device
/// draws an independent deterministic stream from a shard-salted seed.
#[derive(Debug, Clone)]
pub struct FaultParams {
    seed: u64,
    flash: f64,
    nvme: f64,
    dma: f64,
    crash: Option<f64>,
    gc: Option<(f64, f64, f64)>,
}

impl FaultParams {
    pub fn plan_for_shard(&self, s: usize) -> FaultPlan {
        let mut plan = FaultPlan::none()
            .with_seed(self.seed.wrapping_mul(31).wrapping_add(s as u64))
            .with_flash_read_error_prob(self.flash)
            .with_nvme_error_prob(self.nvme)
            .with_dma_error_prob(self.dma);
        if let Some(at) = self.crash {
            plan = plan.with_crash_at(SimTime::from_secs(at));
        }
        if let Some((at, dur, frac)) = self.gc {
            plan = plan.with_gc_burst(SimTime::from_secs(at), Duration::from_secs(dur), frac);
        }
        plan
    }
}

pub fn fault_params() -> impl Strategy<Value = FaultParams> {
    (
        0u64..1_000,
        0.0f64..0.2,
        0.0f64..0.2,
        0.0f64..0.2,
        (any::<bool>(), 0.0f64..0.05),
        (any::<bool>(), 0.0f64..0.05, 0.0f64..0.05, 0.05f64..1.0),
    )
        .prop_map(|(seed, flash, nvme, dma, crash, gc)| FaultParams {
            seed,
            flash,
            nvme,
            dma,
            crash: crash.0.then_some(crash.1),
            gc: gc.0.then_some((gc.1, gc.2, gc.3)),
        })
}
