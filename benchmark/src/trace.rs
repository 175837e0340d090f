//! Spans recorded by the benchmark's own code around each call into a
//! layer. Held in memory during the run and written out after it as a
//! chrome-trace file (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

const NO_PARENT: u32 = u32::MAX;

/// Spans written to the trace file; statistics use every span recorded.
const MAX_WRITTEN_SPANS: usize = 200_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// The operation (request batch, invocation, write) the span belongs to.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder that records nothing: the untraced run takes the same
    /// code path and pays one branch per call.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.open.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans end in the order they nest");
        self.spans[id.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let child = s.end_ns.saturating_sub(s.start_ns);
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(child);
            }
        }
        own
    }

    /// Median self time per span name, with the number of spans.
    pub fn self_time_medians(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let own = self.self_times();
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, &t) in self.spans.iter().zip(&own) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
            .into_iter()
            .map(|(name, times)| (name, (median(&times), times.len() as u64)))
            .collect()
    }

    /// Median, over spans called `name`, of the share of the span that its
    /// direct children cover.
    pub fn child_coverage(&self, name: &str) -> f64 {
        let own = self.self_times();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && s.end_ns > s.start_ns)
            .map(|(s, &own)| 1.0 - own as f64 / (s.end_ns - s.start_ns) as f64)
            .collect();
        crate::stats::median_f64(&shares)
    }

    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\": [\n")?;
        for (i, s) in self.spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
            let event = Json::obj([
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("op", Json::Num(s.op as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                    ]),
                ),
            ]);
            if i > 0 {
                out.write_all(b",\n")?;
            }
            write!(out, "{event}")?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&'static str, u64, u64, u32)]) -> Tracer {
        let mut t = Tracer::on();
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // iter 0..100 { fork 10..30, write 40..90 { fault 50..70 } }
        let t = fixed(&[
            ("iter", 0, 100, NO_PARENT),
            ("fork", 10, 30, 0),
            ("write", 40, 90, 0),
            ("fault", 50, 70, 2),
        ]);
        assert_eq!(t.self_times(), vec![30, 20, 30, 20]);
        let medians = t.self_time_medians();
        assert_eq!(medians["iter"], (30, 1));
        assert_eq!(medians["fault"], (20, 1));
        assert!((t.child_coverage("iter") - 0.7).abs() < 1e-9);
    }

    #[test]
    fn nesting_is_recorded_and_off_records_nothing() {
        let mut t = Tracer::on();
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::off();
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
