//! Post-processing a collected [`Trace`] into per-event-class histograms —
//! the analog of `perf script | flamegraph` / ftrace's `hist` triggers:
//! raw events go in, p50/p99/p999 latency decompositions come out.

use std::collections::BTreeMap;

use odf_metrics::Histogram;

use crate::export::Exposition;
use crate::{Event, FaultKind, ForkPolicyKind, Trace};

/// A distribution's label: `(name, value)`.
type Label = (&'static str, &'static str);

/// One sample an event feeds: (Prometheus family, help, label, value).
type Dist = (&'static str, &'static str, Option<Label>, u64);

/// Per-event-class rollup of one [`Trace`].
#[derive(Clone, Default)]
pub struct TraceSummary {
    /// Every distribution the trace fed, keyed by (Prometheus family,
    /// label), with the family's help text beside the histogram.
    pub hists: BTreeMap<(&'static str, Option<Label>), (&'static str, Histogram)>,
    /// Install races lost, summed over the faults' `retries` fields.
    pub fault_retries: u64,
    /// Instant-event counts keyed by class (`tlb_flush`,
    /// `lock_retry_<site>`, `reclaim`, ...).
    pub counts: BTreeMap<String, u64>,
    /// Records lost to ring overwrites before collection.
    pub dropped: u64,
}

impl TraceSummary {
    /// Rolls `trace` up into per-class distributions. Its one `match` is
    /// the only place a trace distribution is named.
    pub fn build(trace: &Trace) -> TraceSummary {
        let mut s = TraceSummary {
            dropped: trace.dropped,
            ..TraceSummary::default()
        };
        for r in &trace.events {
            let (class, dist): (Option<&str>, Option<Dist>) = match r.event {
                Event::Fault {
                    kind,
                    latency_ns,
                    retries,
                    ..
                } => {
                    s.fault_retries += u64::from(retries);
                    let help = "Page-fault latency by fault kind";
                    let label = Some(("kind", kind.label()));
                    let dist = ("odf_trace_fault_latency_ns", help, label, latency_ns);
                    (None, Some(dist))
                }
                Event::ForkEnd {
                    policy, latency_ns, ..
                } => {
                    let help = "Fork latency by policy";
                    let label = Some(("policy", policy.label()));
                    let dist = ("odf_trace_fork_latency_ns", help, label, latency_ns);
                    (None, Some(dist))
                }
                Event::LockRetry { site } => {
                    s.bump(&format!("lock_retry_{}", site.label()));
                    (Some("lock_retry_total"), None)
                }
                Event::CowCopy { bytes, .. } => {
                    let help = "Bytes physically copied per COW event";
                    let dist = ("odf_trace_cow_bytes", help, None, bytes);
                    (Some("cow_copy"), Some(dist))
                }
                Event::MagRefill { blocks, .. } | Event::MagDrain { blocks, .. } => {
                    let help = "Blocks moved per magazine refill/drain";
                    let dist = ("odf_trace_mag_transfer_blocks", help, None, blocks);
                    (Some(r.event.class()), Some(dist))
                }
                Event::BulkFree { blocks, .. } => {
                    let help = "Blocks returned per batched free flush";
                    let dist = ("odf_trace_bulk_free_blocks", help, None, blocks);
                    (Some("bulk_free"), Some(dist))
                }
                Event::Evicted { latency_ns, .. } => {
                    let help = "Per-page eviction latency (copy-out + slot write)";
                    let dist = ("odf_trace_evict_latency_ns", help, None, latency_ns);
                    (Some("evicted"), Some(dist))
                }
                Event::SwappedIn { latency_ns, .. } => {
                    let help = "Swap-in data-path latency (slot read + frame write)";
                    let dist = ("odf_trace_swapin_latency_ns", help, None, latency_ns);
                    (Some("swapped_in"), Some(dist))
                }
                Event::CollapseEnd { latency_ns, .. } => {
                    let help = "Huge-page collapse latency (validate + copy + install)";
                    let dist = ("odf_trace_collapse_latency_ns", help, None, latency_ns);
                    (Some("collapse"), Some(dist))
                }
                Event::WalFsync { latency_ns, .. } => {
                    let help = "WAL group-commit fsync latency";
                    let dist = ("odf_trace_wal_fsync_latency_ns", help, None, latency_ns);
                    (Some("wal_fsync"), Some(dist))
                }
                Event::SnapshotPublish { latency_ns, .. } => {
                    let help = "Snapshot-image publish latency (encode + fsync + rename)";
                    let dist = (
                        "odf_trace_snapshot_publish_latency_ns",
                        help,
                        None,
                        latency_ns,
                    );
                    (Some("snapshot_publish"), Some(dist))
                }
                Event::RecoveryReplay { latency_ns, .. } => {
                    let help = "Recovery WAL-replay latency";
                    let dist = (
                        "odf_trace_recovery_replay_latency_ns",
                        help,
                        None,
                        latency_ns,
                    );
                    (Some("recovery_replay"), Some(dist))
                }
                Event::ReclaimPass { latency_ns, .. } => {
                    let help = "Reclaim-daemon scan-pass latency";
                    let dist = ("odf_trace_reclaim_pass_latency_ns", help, None, latency_ns);
                    (Some("reclaim_pass"), Some(dist))
                }
                Event::ThpPass { latency_ns, .. } => {
                    let help = "THP-daemon scan-pass latency";
                    let dist = ("odf_trace_thp_pass_latency_ns", help, None, latency_ns);
                    (Some("thp_pass"), Some(dist))
                }
                Event::ForkStart { .. }
                | Event::TlbFlush
                | Event::Reclaim { .. }
                | Event::FrameAlloc { .. }
                | Event::FrameFree { .. }
                | Event::ReclaimScanStart { .. }
                | Event::CollapseStart { .. }
                | Event::Demote { .. }
                | Event::CompactScan { .. }
                | Event::ReclaimBackoff { .. }
                | Event::ThpBackoff { .. } => (Some(r.event.class()), None),
            };
            if let Some(class) = class {
                s.bump(class);
            }
            if let Some((family, help, label, value)) = dist {
                s.hists
                    .entry((family, label))
                    .or_insert_with(|| (help, Histogram::new()))
                    .1
                    .record(value);
            }
        }
        s
    }

    fn bump(&mut self, class: &str) {
        *self.counts.entry(class.to_string()).or_insert(0) += 1;
    }

    /// Latency histogram for one fault kind, if any such fault was traced.
    pub fn fault_hist(&self, kind: FaultKind) -> Option<&Histogram> {
        self.labeled(("kind", kind.label()))
    }

    /// Latency histogram for one fork policy, if any such fork was traced.
    pub fn fork_hist(&self, policy: ForkPolicyKind) -> Option<&Histogram> {
        self.labeled(("policy", policy.label()))
    }

    /// The histogram carrying `label`; each label name belongs to one
    /// family.
    fn labeled(&self, label: Label) -> Option<&Histogram> {
        self.hists
            .iter()
            .find(|((_, l), _)| *l == Some(label))
            .map(|(_, (_, h))| h)
    }

    /// Install races lost, as observed by the trace. `LockRetry` events
    /// and the per-fault `retries` tallies cover the same races from two
    /// angles (site-level vs. fault-level), so take whichever view saw
    /// more rather than summing them.
    pub fn lost_install_races(&self) -> u64 {
        let explicit = self.counts.get("lock_retry_total").copied().unwrap_or(0);
        explicit.max(self.fault_retries)
    }

    /// Adds every distribution as a summary family, the instant-event
    /// counts and the dropped-record count to `e`.
    pub fn export(&self, e: &mut Exposition) {
        for (&(family, label), (help, hist)) in &self.hists {
            e.summary(family, help, label.as_slice(), hist);
        }
        for (class, count) in &self.counts {
            e.counter(
                "odf_trace_events_total",
                "Instant trace events by class",
                &[("class", class)],
                *count,
            );
        }
        e.counter(
            "odf_trace_dropped_events_total",
            "Trace records lost to ring-buffer drop-oldest overwrites",
            &[],
            self.dropped,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecord;

    fn rec(ts: u64, event: Event) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            thread: 0,
            event,
        }
    }

    fn sample_trace() -> Trace {
        let mut events = Vec::new();
        for i in 0..100u64 {
            events.push(rec(
                i,
                Event::Fault {
                    kind: FaultKind::CowData,
                    latency_ns: 1000 + i * 10,
                    retries: u32::from(i % 7 == 0),
                    addr: 0x4000 + i * 4096,
                },
            ));
        }
        events.push(rec(
            200,
            Event::ForkEnd {
                policy: ForkPolicyKind::OnDemand,
                pte_copies: 0,
                tables_shared: 9,
                latency_ns: 5_000,
            },
        ));
        events.push(rec(201, Event::TlbFlush));
        events.push(rec(
            202,
            Event::LockRetry {
                site: crate::LockSite::PteInstall,
            },
        ));
        events.push(rec(
            203,
            Event::CowCopy {
                order: 9,
                bytes: 2 << 20,
                frame: 512,
            },
        ));
        events.push(rec(
            204,
            Event::MagRefill {
                order: 0,
                blocks: 32,
            },
        ));
        events.push(rec(
            205,
            Event::MagDrain {
                order: 0,
                blocks: 16,
            },
        ));
        events.push(rec(
            206,
            Event::BulkFree {
                blocks: 8,
                frames: 8,
            },
        ));
        Trace { events, dropped: 3 }
    }

    #[test]
    fn summary_buckets_by_class() {
        let s = sample_trace().summary();
        let h = s.fault_hist(FaultKind::CowData).unwrap();
        assert_eq!(h.count(), 100);
        assert!(h.percentile(50.0) >= 1000);
        assert!(s.fault_hist(FaultKind::DemandZero).is_none());
        assert_eq!(s.fork_hist(ForkPolicyKind::OnDemand).unwrap().count(), 1);
        assert_eq!(s.counts["tlb_flush"], 1);
        assert_eq!(s.counts["lock_retry_pte_install"], 1);
        assert_eq!(s.dropped, 3);
        // 15 faults had one retry each (i % 7 == 0 for i in 0..100),
        // plus one explicit LockRetry event.
        assert!(s.lost_install_races() >= 15);
    }

    fn exposition(s: &TraceSummary) -> Exposition {
        let mut e = Exposition::new();
        s.export(&mut e);
        e
    }

    #[test]
    fn prometheus_output_has_unique_headers() {
        let text = exposition(&sample_trace().summary()).prometheus();
        assert!(text.contains("# TYPE odf_trace_fault_latency_ns summary"));
        assert!(text.contains("odf_trace_fault_latency_ns{kind=\"cow_data\",quantile=\"0.5\"}"));
        assert!(text.contains("odf_trace_dropped_events_total 3"));
        let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut dedup = headers.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(headers.len(), dedup.len(), "duplicate TYPE headers");
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let j = exposition(&sample_trace().summary()).json();
        assert!(j.starts_with("{\"trace\":{") && j.ends_with('}'));
        assert!(j.contains("\"odf_trace_fault_latency_ns\":[{\"labels\":{\"kind\":\"cow_data\"}"));
        // The size distributions render like the latency ones.
        for family in [
            "odf_trace_cow_bytes",
            "odf_trace_mag_transfer_blocks",
            "odf_trace_bulk_free_blocks",
        ] {
            assert!(
                j.contains(&format!("\"{family}\":{{\"count\":")),
                "{family}: {j}"
            );
        }
        assert!(j.contains("\"odf_trace_dropped_events_total\":3"));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn info_lists_every_distribution() {
        let e = exposition(&sample_trace().summary());
        let t = e.info(|_| true);
        assert!(t.contains("trace_fault_latency_ns:kind=cow_data,count=100,"));
        assert!(t.contains("trace_fork_latency_ns:policy=odf,count=1,"));
        assert!(t.contains("trace_mag_transfer_blocks:count=2,"));
        assert!(t.contains("trace_events:class=tlb_flush,value=1\r\n"));
        assert!(t.contains("trace_dropped_events:3\r\n"));
    }
}
