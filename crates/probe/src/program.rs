//! Aggregation programs — the bpftrace-style prefabs a probe runs on every
//! hit that passes its filter. A program is a safe trait object over
//! [`Slot`]; prefabs cover the four shapes bpftrace one-liners use most
//! (`hist()`, `count()`, `sum()`, `max()`), and callers with bespoke needs
//! can implement [`Program`] directly and attach via
//! [`crate::ProbeEngine::attach_program`].

use odf_metrics::Histogram;
use odf_trace::Hit;

use crate::map::Slot;

/// One aggregation step. Implementations must be cheap: they run inline on
/// the instrumented path, under a shard lock.
pub trait Program: Send + Sync {
    /// Stable program-kind token (`lat_hist`, `count_by`, ...).
    fn kind(&self) -> &'static str;

    /// Folds one hit into the key's slot.
    fn update(&self, slot: &mut Slot, hit: &Hit);
}

/// The four prefab program kinds, as parsed from a probe spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramKind {
    /// Latency histogram per key: `@[key] = hist(latency)`.
    LatHist,
    /// Hit counter per key: `@[key] = count()`.
    CountBy,
    /// Sample sum per key: `@[key] = sum(value)`.
    SumBy,
    /// Sample high watermark per key: `@[key] = max(value)`.
    Watermark,
}

impl ProgramKind {
    /// Every prefab, for `PROBE LIST` style enumeration.
    pub const ALL: [ProgramKind; 4] = [Self::LatHist, Self::CountBy, Self::SumBy, Self::Watermark];

    /// Stable lowercase token.
    pub fn label(self) -> &'static str {
        match self {
            Self::LatHist => "lat_hist",
            Self::CountBy => "count_by",
            Self::SumBy => "sum_by",
            Self::Watermark => "watermark",
        }
    }

    /// Inverse of [`ProgramKind::label`].
    pub fn from_label(s: &str) -> Option<ProgramKind> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Instantiates the prefab.
    pub fn instantiate(self) -> Box<dyn Program> {
        Box::new(self)
    }
}

impl ProgramKind {
    /// Folds one hit's samples into `slot`: its latency for `lat_hist`,
    /// its point's `value` for `sum_by` and `watermark`. A probe's
    /// per-thread cache calls this directly, with the samples read once
    /// per hit for all of a point's probes.
    #[inline]
    pub(crate) fn fold(self, slot: &mut Slot, latency: u64, value: u64) {
        slot.hits += 1;
        match self {
            // Latency 0 means "hit without a latency measurement": the
            // fault site samples the clock (1-in-N when tracing is off), so
            // the histogram holds the measured subset while `hits` stays
            // exact. Sum and max let reports show mean/max without
            // re-walking the histogram.
            Self::LatHist => {
                if latency > 0 {
                    slot.sum = slot.sum.saturating_add(u128::from(latency));
                    slot.max = slot.max.max(latency);
                    slot.hist
                        .get_or_insert_with(|| Box::new(Histogram::new()))
                        .record(latency);
                }
            }
            Self::CountBy => {}
            Self::SumBy => slot.sum = slot.sum.saturating_add(u128::from(value)),
            Self::Watermark => slot.max = slot.max.max(value),
        }
    }
}

impl Program for ProgramKind {
    fn kind(&self) -> &'static str {
        self.label()
    }

    fn update(&self, slot: &mut Slot, hit: &Hit) {
        self.fold(slot, hit.latency(), hit.value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_trace::Point;

    /// A fault hit, latency `latency_ns`, or a bulk-free hit of `value`
    /// frames (the fault point has no value word).
    fn hit(latency_ns: u64, value: u64) -> Hit {
        match value {
            0 => Hit::new(Point::Fault, &[0, 0, latency_ns]),
            v => Hit::new(Point::BulkFree, &[1, v]),
        }
    }

    #[test]
    fn kind_labels_roundtrip() {
        for k in ProgramKind::ALL {
            assert_eq!(ProgramKind::from_label(k.label()), Some(k));
            assert_eq!(k.instantiate().kind(), k.label());
        }
        assert_eq!(ProgramKind::from_label("bogus"), None);
    }

    #[test]
    fn prefabs_touch_the_expected_slot_fields() {
        let mut slot = Slot {
            label: "k".into(),
            hits: 0,
            sum: 0,
            max: 0,
            hist: None,
        };
        ProgramKind::LatHist.update(&mut slot, &hit(1000, 0));
        ProgramKind::LatHist.update(&mut slot, &hit(3000, 0));
        assert_eq!(slot.hits, 2);
        assert_eq!(slot.sum, 4000);
        assert_eq!(slot.max, 3000);
        assert_eq!(slot.hist.as_ref().unwrap().count(), 2);

        let mut slot = Slot {
            label: "k".into(),
            hits: 0,
            sum: 0,
            max: 0,
            hist: None,
        };
        ProgramKind::CountBy.update(&mut slot, &hit(1, 99));
        assert_eq!((slot.hits, slot.sum, slot.max), (1, 0, 0));
        assert!(
            slot.hist.is_none(),
            "count_by must not allocate a histogram"
        );

        ProgramKind::SumBy.update(&mut slot, &hit(0, 40));
        ProgramKind::SumBy.update(&mut slot, &hit(0, 2));
        assert_eq!(slot.sum, 42);

        ProgramKind::Watermark.update(&mut slot, &hit(0, 7));
        ProgramKind::Watermark.update(&mut slot, &hit(0, 3));
        assert_eq!(slot.max, 7);
    }
}
