//! The kernel's metrics exposition.
//!
//! [`Kernel::metrics`] is the one list of everything the simulation
//! exports — the windowed VM-layer [`odf_vm::VmStats`], physical-layer
//! [`odf_pmem::PoolStats`] and durability counters, buddy, WAL and memory
//! gauges, probe aggregates and trace latency summaries — as one
//! [`Exposition`]. Every surface renders that value: Prometheus text
//! (`GET /metrics` in `odf-httpd`, `STATS` in `odf-kvstore`), JSON
//! (`STATS JSON`) and Redis `INFO` lines.
//!
//! Counter enumeration rides on the `fields()` method the
//! [`odf_trace::counters!`] macro generates, so a counter added to any of
//! the three stats blocks shows up on every surface with no change here.

use odf_trace::Exposition;

use crate::kernel::Kernel;

impl Kernel {
    /// Every metric the kernel exports, counters relative to the last
    /// [`Kernel::reset_metrics_window`]. A new metric is one insertion
    /// here; probe aggregates appear while probes are attached, and trace
    /// summaries while tracing is enabled (`ODF_TRACE=1`).
    pub fn metrics(&self) -> Exposition {
        let mut e = Exposition::new();
        let stats = self.windowed_stats();
        for (name, value) in stats.vm.fields() {
            e.counter(
                &format!("odf_vm_{name}_total"),
                "VM-subsystem operation counter",
                &[],
                value,
            );
        }
        for (name, value) in stats.pool.fields() {
            e.counter(
                &format!("odf_pool_{name}_total"),
                "Frame-pool operation counter",
                &[],
                value,
            );
        }
        let pool = self.machine().pool();
        // Buddy-allocator health, the node-exporter `buddyinfo` shape:
        // one sample per order, plus the external-fragmentation index for
        // huge allocations — the number the THP collapse path lives or
        // dies by.
        for (order, count) in pool.free_blocks_per_order().iter().enumerate() {
            e.gauge(
                "odf_pool_free_blocks",
                "Free buddy blocks by order (/proc/buddyinfo analog)",
                &[("order", &order.to_string())],
                *count as f64,
            );
        }
        e.gauge(
            "odf_pool_external_fragmentation",
            "Fraction of buddy-free memory unusable for an order-9 block",
            &[],
            pool.external_fragmentation(odf_pmem::HUGE_ORDER),
        );
        e.counter(
            "odf_pool_mt_fallbacks_total",
            "Allocations served from the other migratetype's free lists",
            &[],
            pool.mt_fallbacks(),
        );
        e.counter(
            "odf_pool_mt_steals_total",
            "Pageblocks re-tagged to the requesting migratetype",
            &[],
            pool.mt_steals(),
        );
        for (name, value) in self.windowed_durability_stats().fields() {
            e.counter(
                &format!("odf_durability_{name}_total"),
                "Durability-subsystem operation counter (WAL/chain/recovery)",
                &[],
                value,
            );
        }
        // Group-commit lag: appended-but-not-yet-durable WAL records — the
        // gauge the SLO watchdog budgets against. Seqs are high-water
        // marks, not windowed counters.
        let (appended, durable) = odf_durability::wal_seqs();
        e.gauge(
            "odf_durability_wal_appended_seq",
            "Highest WAL sequence number appended",
            &[],
            appended as f64,
        );
        e.gauge(
            "odf_durability_wal_durable_seq",
            "Highest WAL sequence number known durable",
            &[],
            durable as f64,
        );
        e.gauge(
            "odf_durability_group_commit_lag",
            "WAL records appended but not yet durable (appended_seq - durable_seq)",
            &[],
            odf_durability::group_commit_lag() as f64,
        );
        e.gauge(
            "odf_mem_free_bytes",
            "Free simulated physical memory",
            &[],
            self.free_bytes() as f64,
        );
        e.gauge(
            "odf_mem_total_bytes",
            "Total simulated physical memory",
            &[],
            self.total_bytes() as f64,
        );
        e.gauge(
            "odf_processes",
            "Live simulated processes",
            &[],
            self.process_count() as f64,
        );
        // Cardinality is bounded per probe, so the exposition cannot blow
        // up.
        odf_probe::export(&mut e, &odf_probe::engine().read_all());
        if odf_trace::enabled() {
            odf_trace::snapshot().summary().export(&mut e);
        }
        e
    }

    /// [`Kernel::metrics`] in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics().prometheus()
    }

    /// [`Kernel::metrics`] as one JSON object (see
    /// [`Exposition::json`]).
    pub fn metrics_json(&self) -> String {
        self.metrics().json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_export_covers_every_counter() {
        let k = Kernel::new(16 << 20);
        let p = k.spawn().unwrap();
        let a = p.mmap_anon(64 << 10).unwrap();
        p.populate(a, 64 << 10, true).unwrap();
        let text = k.metrics_prometheus();
        let vm_fields = k.stats().vm.fields().len();
        let pool_fields = k.stats().pool.fields().len();
        let durability_fields = odf_durability::stats().snapshot().fields().len();
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count();
        assert!(samples >= vm_fields + pool_fields + durability_fields + 3);
        assert!(text.contains("odf_vm_faults_total"));
        assert!(text.contains("odf_pool_allocs_total"));
        assert!(text.contains("odf_durability_wal_fsyncs_total"));
        assert!(text.contains("odf_durability_recoveries_total"));
        assert!(text.contains("odf_processes 1"));
    }

    #[test]
    fn prometheus_export_reports_buddy_health() {
        let k = Kernel::new(16 << 20);
        let text = k.metrics_prometheus();
        // One buddyinfo sample per order, 0 through MAX_ORDER.
        for order in 0..=odf_pmem::MAX_ORDER {
            assert!(
                text.contains(&format!("odf_pool_free_blocks{{order=\"{order}\"}}")),
                "missing per-order sample for order {order}"
            );
        }
        assert!(text.contains("odf_pool_external_fragmentation"));
        assert!(text.contains("odf_pool_mt_fallbacks_total"));
        assert!(text.contains("odf_pool_mt_steals_total"));
        // A fresh pool is unfragmented.
        assert!(text.contains("odf_pool_external_fragmentation 0"));
    }

    #[test]
    fn json_export_is_balanced_and_nested() {
        let k = Kernel::new(16 << 20);
        let j = k.metrics_json();
        assert!(j.starts_with("{\"vm\":{\"odf_vm_faults_total\":") && j.ends_with('}'));
        assert!(j.contains("\"pool\":{\"odf_pool_"));
        assert!(j.contains("\"odf_pool_allocs_total\":"));
        assert!(j.contains("\"durability\":{\"odf_durability_"));
        assert!(j.contains("\"odf_durability_wal_appends_total\":"));
        assert!(j.contains("\"odf_durability_snapshots_published_total\":"));
        assert!(j.contains("\"odf_durability_group_commit_lag\":"));
        assert!(j.contains("\"odf_pool_external_fragmentation\":"));
        assert!(j.contains("\"odf_pool_mt_fallbacks_total\":"));
        assert!(j.contains("\"mem\":{\"odf_mem_free_bytes\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // The per-order family has one labeled sample per order,
        // 0..=MAX_ORDER.
        let arr = j
            .split("\"odf_pool_free_blocks\":[")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .unwrap();
        for order in 0..=odf_pmem::MAX_ORDER {
            assert!(
                arr.contains(&format!(
                    "{{\"labels\":{{\"order\":\"{order}\"}},\"value\":"
                )),
                "missing per-order sample for order {order}"
            );
        }
        assert_eq!(
            arr.matches("\"order\":").count(),
            odf_pmem::MAX_ORDER as usize + 1,
            "one entry per buddy order"
        );
    }
}
