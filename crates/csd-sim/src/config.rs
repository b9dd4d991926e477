//! System configuration and builder.
//!
//! [`SystemConfig::paper_default`] reproduces the testbed of §IV-A: an
//! octa-core 3.6 GHz host, a CSD with 8 ARM Cortex-A72 cores and 2 TB of
//! flash, 9 GB/s internal NAND bandwidth, a 5 GB/s NVMe host link, and a
//! PCIe 3.0 hub giving storage traffic 4 GB/s. All parameters can be
//! overridden through the builder-style `with_*` methods.

use crate::dma::DmaEngine;
use crate::engine::{default_cse_spec, default_host_spec, ComputeEngine, EngineSpec};
use crate::flash::{FlashArray, GcSchedule};
use crate::link::{Link, Path};
use crate::memory::SharedAddressSpace;
use crate::nvme::{QueueLatencies, QueuePair};
use crate::system::System;
use crate::units::{Bandwidth, Bytes, Duration};
use serde::{Deserialize, Serialize};

/// Complete static description of the simulated platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Host CPU description.
    pub host: EngineSpec,
    /// CSE description.
    pub cse: EngineSpec,
    /// Flash capacity.
    pub flash_capacity: Bytes,
    /// Internal NAND bandwidth seen by the CSE.
    pub flash_internal_bandwidth: Bandwidth,
    /// Optional background garbage collection.
    pub gc: Option<GcSchedule>,
    /// NVMe link bandwidth between CSD and host.
    pub nvme_bandwidth: Bandwidth,
    /// NVMe per-message latency.
    pub nvme_latency: Duration,
    /// PCIe hub bandwidth budget for storage traffic.
    pub pcie_bandwidth: Bandwidth,
    /// PCIe per-message latency.
    pub pcie_latency: Duration,
    /// Queue-pair latencies.
    pub queue_latencies: QueueLatencies,
    /// Queue-pair ring depth.
    pub queue_depth: usize,
    /// Host DRAM capacity.
    pub host_dram: Bytes,
    /// Device DRAM capacity.
    pub device_dram: Bytes,
    /// Per-descriptor DMA setup cost.
    pub dma_setup: Duration,
}

isp_obs::fingerprint_fields!(SystemConfig {
    host,
    cse,
    flash_capacity,
    flash_internal_bandwidth,
    gc,
    nvme_bandwidth,
    nvme_latency,
    pcie_bandwidth,
    pcie_latency,
    queue_latencies,
    queue_depth,
    host_dram,
    device_dram,
    dma_setup
});

impl SystemConfig {
    /// The paper's experimental platform (§IV-A).
    #[must_use]
    pub fn paper_default() -> Self {
        SystemConfig {
            host: default_host_spec(),
            cse: default_cse_spec(),
            flash_capacity: Bytes::from_gib(2048),
            flash_internal_bandwidth: Bandwidth::from_gb_per_sec(9.0),
            gc: None,
            nvme_bandwidth: Bandwidth::from_gb_per_sec(5.0),
            nvme_latency: Duration::from_micros(5.0),
            pcie_bandwidth: Bandwidth::from_gb_per_sec(4.0),
            pcie_latency: Duration::from_micros(1.0),
            queue_latencies: QueueLatencies::default(),
            queue_depth: 64,
            host_dram: Bytes::from_gib(64),
            device_dram: Bytes::from_gib(16),
            dma_setup: Duration::from_micros(1.0),
        }
    }

    /// An NVMe-over-Fabrics attachment (§III-C0a): the CSD sits across a
    /// 25 GbE RDMA fabric instead of a local PCIe slot, so the effective
    /// device-to-host budget drops to ≈3 GB/s and per-message latency
    /// rises an order of magnitude. The CSD maps its internal memory into
    /// the host's address space over the same RDMA infrastructure NVMe-oF
    /// already uses, so the programming model is unchanged — only the
    /// Eq. 1 trade-offs shift (and ActivePy's assignments shift with
    /// them).
    #[must_use]
    pub fn nvmeof_default() -> Self {
        SystemConfig {
            nvme_latency: Duration::from_micros(30.0),
            pcie_bandwidth: Bandwidth::from_gb_per_sec(3.0),
            pcie_latency: Duration::from_micros(15.0),
            ..SystemConfig::paper_default()
        }
    }

    /// Replaces the host spec.
    #[must_use]
    pub fn with_host(mut self, host: EngineSpec) -> Self {
        self.host = host;
        self
    }

    /// Replaces the CSE spec.
    #[must_use]
    pub fn with_cse(mut self, cse: EngineSpec) -> Self {
        self.cse = cse;
        self
    }

    /// Installs a garbage-collection schedule.
    #[must_use]
    pub fn with_gc(mut self, gc: GcSchedule) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Replaces the internal NAND bandwidth.
    #[must_use]
    pub fn with_flash_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.flash_internal_bandwidth = bw;
        self
    }

    /// Replaces the NVMe link bandwidth.
    #[must_use]
    pub fn with_nvme_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.nvme_bandwidth = bw;
        self
    }

    /// Replaces the PCIe budget.
    #[must_use]
    pub fn with_pcie_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.pcie_bandwidth = bw;
        self
    }

    /// Replaces the queue latencies.
    #[must_use]
    pub fn with_queue_latencies(mut self, latencies: QueueLatencies) -> Self {
        self.queue_latencies = latencies;
        self
    }

    /// The device-to-host path crossing NVMe then PCIe.
    #[must_use]
    pub fn d2h_path(&self) -> Path {
        Path::new(vec![
            Link::new("nvme", self.nvme_bandwidth, self.nvme_latency),
            Link::new("pcie", self.pcie_bandwidth, self.pcie_latency),
        ])
    }

    /// The effective device-to-host bandwidth (`BW_D2H` in Eq. 1): the
    /// bottleneck of the NVMe link and the PCIe budget.
    #[must_use]
    pub fn d2h_bandwidth(&self) -> Bandwidth {
        self.nvme_bandwidth.min(self.pcie_bandwidth)
    }

    /// Effective bandwidth at which the *host* streams raw data out of the
    /// CSD's storage: bottleneck of flash, NVMe, and PCIe.
    #[must_use]
    pub fn host_storage_bandwidth(&self) -> Bandwidth {
        self.flash_internal_bandwidth.min(self.d2h_bandwidth())
    }

    /// Builds a runnable [`System`].
    #[must_use]
    pub fn build(&self) -> System {
        let mut flash = FlashArray::new(self.flash_capacity, self.flash_internal_bandwidth);
        if let Some(gc) = self.gc {
            flash.set_gc(gc);
        }
        System::from_parts(
            self.clone(),
            ComputeEngine::new(self.host),
            ComputeEngine::new(self.cse),
            flash,
            self.d2h_path(),
            QueuePair::new(self.queue_depth, self.queue_latencies),
            DmaEngine::new(self.dma_setup),
            SharedAddressSpace::new(self.host_dram, self.device_dram),
        )
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv() {
        let c = SystemConfig::paper_default();
        assert!((c.flash_internal_bandwidth.as_bytes_per_sec() - 9e9).abs() < 1.0);
        assert!((c.nvme_bandwidth.as_bytes_per_sec() - 5e9).abs() < 1.0);
        assert_eq!(c.cse.cores, 8);
        assert_eq!(c.host.cores, 8);
        assert!((c.host.freq_hz - 3.6e9).abs() < 1.0);
    }

    #[test]
    fn d2h_bandwidth_is_bottleneck() {
        let c = SystemConfig::paper_default();
        assert!((c.d2h_bandwidth().as_bytes_per_sec() - 4e9).abs() < 1.0);
        // Internal bandwidth is richer than external: the ISP premise.
        assert!(
            c.flash_internal_bandwidth.as_bytes_per_sec() > c.d2h_bandwidth().as_bytes_per_sec()
        );
    }

    #[test]
    fn builder_overrides_apply() {
        let c = SystemConfig::paper_default()
            .with_nvme_bandwidth(Bandwidth::from_gb_per_sec(2.0))
            .with_pcie_bandwidth(Bandwidth::from_gb_per_sec(8.0));
        assert!((c.d2h_bandwidth().as_bytes_per_sec() - 2e9).abs() < 1.0);
    }

    #[test]
    fn nvmeof_narrows_the_external_path() {
        let local = SystemConfig::paper_default();
        let fabric = SystemConfig::nvmeof_default();
        assert!(
            fabric.d2h_bandwidth().as_bytes_per_sec() < local.d2h_bandwidth().as_bytes_per_sec()
        );
        assert!(fabric.nvme_latency > local.nvme_latency);
        // The internal side is untouched: the ISP premise strengthens.
        assert_eq!(
            fabric.flash_internal_bandwidth,
            local.flash_internal_bandwidth
        );
    }

    #[test]
    fn build_produces_consistent_system() {
        let sys = SystemConfig::paper_default().build();
        assert_eq!(sys.config().queue_depth, 64);
        assert!((sys.flash().internal_bandwidth().as_bytes_per_sec() - 9e9).abs() < 1.0);
    }
}
