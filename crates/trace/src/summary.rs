//! Post-processing a collected [`Trace`] into per-event-class histograms —
//! the analog of `perf script | flamegraph` / ftrace's `hist` triggers:
//! raw events go in, p50/p99/p999 latency decompositions come out.

use std::collections::BTreeMap;

use odf_metrics::Histogram;

use crate::export::Exposition;
use crate::{FaultKind, ForkPolicyKind, Trace};

/// A distribution's label: `(name, value)`.
type Label = (&'static str, &'static str);

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
    /// Rolls `trace` up into per-point counts and distributions, as each
    /// point's descriptor names them.
    pub fn build(trace: &Trace) -> TraceSummary {
        let mut s = TraceSummary {
            dropped: trace.dropped,
            ..TraceSummary::default()
        };
        for r in &trace.events {
            let (hit, d) = (&r.hit, r.hit.desc());
            s.fault_retries += hit.retries();
            if let Some(key) = d.count {
                s.bump(key);
            }
            if d.count_kinds {
                s.bump(&format!("{}_{}", d.class, hit.kind_label()));
            }
            if let Some(dist) = &d.dist {
                let label = dist.label.map(|name| (name, hit.kind_label()));
                s.hists
                    .entry((dist.family, label))
                    .or_insert_with(|| (dist.help, Histogram::new()))
                    .1
                    .record(hit.w[dist.word]);
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

    /// Install races lost, as observed by the trace. `LockRetry` records
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
    use crate::{Hit, LockSite, Point, TraceRecord};

    fn rec(ts_ns: u64, hit: Hit) -> TraceRecord {
        TraceRecord {
            ts_ns,
            thread: 0,
            hit,
        }
    }

    fn sample_trace() -> Trace {
        let cow = FaultKind::CowData.as_u8();
        let mut events: Vec<TraceRecord> = (0..100u64)
            .map(|i| {
                let words = [u64::from(i % 7 == 0), 0x4000 + i * 4096, 1000 + i * 10];
                rec(i, Hit::new(Point::Fault, &words).kind(cow))
            })
            .collect();
        let odf = ForkPolicyKind::OnDemand.as_u8();
        events.extend([
            rec(200, Hit::new(Point::ForkEnd, &[0, 9, 5_000]).kind(odf)),
            rec(201, Hit::new(Point::TlbFlush, &[])),
            rec(
                202,
                Hit::new(Point::LockRetry, &[]).kind(LockSite::PteInstall.as_u8()),
            ),
            rec(203, Hit::new(Point::CowCopy, &[9, 2 << 20, 512])),
            rec(204, Hit::new(Point::MagRefill, &[0, 32])),
            rec(205, Hit::new(Point::MagDrain, &[0, 16])),
            rec(206, Hit::new(Point::BulkFree, &[8, 8])),
        ]);
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
