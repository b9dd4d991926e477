//! The random fault-plan generator shared by the single-device chaos
//! and crash-resume harnesses.

use csd_sim::fault::FaultPlan;
use csd_sim::units::{Duration, SimTime};
use proptest::prelude::*;

/// A random but valid fault plan: independent transient error rates per
/// device surface, an optional GC burst, an optional hard crash.
#[allow(clippy::type_complexity)]
pub fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000,
        0.0f64..0.3,
        0.0f64..0.3,
        0.0f64..0.3,
        (any::<bool>(), 0.0f64..0.05),
        (any::<bool>(), 0.0f64..0.05, 0.0f64..0.05, 0.05f64..1.0),
    )
        .prop_map(|(seed, flash, nvme, dma, crash, gc)| {
            let mut plan = FaultPlan::none()
                .with_seed(seed)
                .with_flash_read_error_prob(flash)
                .with_nvme_error_prob(nvme)
                .with_dma_error_prob(dma);
            if crash.0 {
                plan = plan.with_crash_at(SimTime::from_secs(crash.1));
            }
            if gc.0 {
                plan =
                    plan.with_gc_burst(SimTime::from_secs(gc.1), Duration::from_secs(gc.2), gc.3);
            }
            plan
        })
}
