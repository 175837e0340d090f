//! Export formats: the metrics [`Exposition`] and its three renderers
//! (Prometheus text, JSON, Redis `INFO` lines), JSON string escaping, and
//! the chrome://tracing JSON event array.

use std::collections::HashSet;

use odf_metrics::Histogram;

use crate::Trace;

/// What a metric family measures — its Prometheus `TYPE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A count that only grows.
    Counter,
    /// A value that may go up or down.
    Gauge,
    /// The p50/p99/p999, sum and count of a [`Histogram`].
    Summary,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Summary => "summary",
        }
    }
}

/// The quantiles a summary reports: (JSON and `INFO` field, Prometheus
/// `quantile` label, percentile).
const QUANTILES: [(&str, &str, f64); 3] = [
    ("p50", "0.5", 50.0),
    ("p99", "0.99", 99.0),
    ("p999", "0.999", 99.9),
];

/// One sample's value. A summary keeps its histogram's digest — count,
/// sum and the [`QUANTILES`] — not the histogram.
#[derive(Clone, Copy, Debug)]
enum Value {
    Scalar(f64),
    Summary {
        count: u64,
        sum: f64,
        quantiles: [u64; 3],
    },
}

impl Value {
    /// `(field, rendered number)` pairs: `value` for a scalar; `count`,
    /// `sum` and the quantiles for a summary.
    fn pairs(self) -> Vec<(&'static str, String)> {
        match self {
            Value::Scalar(v) => vec![("value", number(v))],
            Value::Summary {
                count,
                sum,
                quantiles,
            } => {
                let mut pairs = vec![("count", count.to_string()), ("sum", number(sum))];
                let named = QUANTILES.iter().zip(quantiles);
                pairs.extend(named.map(|(&(field, _, _), v)| (field, v.to_string())));
                pairs
            }
        }
    }
}

type Labels = Vec<(&'static str, String)>;

/// One metric family: every sample that shares a name, help text and kind.
#[derive(Clone, Debug)]
pub struct Family {
    /// Prometheus metric name, e.g. `odf_vm_faults_total`.
    pub name: String,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The `# TYPE`.
    pub kind: MetricKind,
    samples: Vec<(Labels, Value)>,
}

impl Family {
    /// Whether any sample carries labels.
    pub fn labeled(&self) -> bool {
        self.samples.iter().any(|(labels, _)| !labels.is_empty())
    }
}

/// Everything one metrics endpoint serves: an ordered list of metric
/// families, built once and rendered as Prometheus text, JSON or Redis
/// `INFO` lines.
///
/// Two invariants hold by construction, each a panic when broken: one
/// (name, label set) pair has one sample, and one name has one kind.
/// Every insertion site is under our control, so a violation is a bug,
/// not an input error.
#[derive(Default)]
pub struct Exposition {
    families: Vec<Family>,
    samples: HashSet<(String, Labels)>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a counter sample.
    pub fn counter(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        value: u64,
    ) {
        self.push(
            name,
            help,
            MetricKind::Counter,
            labels,
            Value::Scalar(value as f64),
        );
    }

    /// Adds a gauge sample.
    pub fn gauge(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        value: f64,
    ) {
        self.push(name, help, MetricKind::Gauge, labels, Value::Scalar(value));
    }

    /// Adds a summary sample over `h`.
    pub fn summary(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        h: &Histogram,
    ) {
        let value = Value::Summary {
            count: h.count(),
            sum: h.mean() * h.count() as f64,
            quantiles: QUANTILES.map(|(_, _, p)| h.percentile(p)),
        };
        self.push(name, help, MetricKind::Summary, labels, value);
    }

    fn push(
        &mut self,
        name: &str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&'static str, &str)],
        value: Value,
    ) {
        let labels: Labels = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        assert!(
            self.samples.insert((name.to_string(), labels.clone())),
            "duplicate sample {name}{labels:?}"
        );
        let i = match self.families.iter().rposition(|f| f.name == name) {
            Some(i) => i,
            None => {
                self.families.push(Family {
                    name: name.to_string(),
                    help,
                    kind,
                    samples: Vec::new(),
                });
                self.families.len() - 1
            }
        };
        let family = &mut self.families[i];
        assert_eq!(
            family.kind, kind,
            "metric {name} declared as both {:?} and {kind:?}",
            family.kind
        );
        family.samples.push((labels, value));
    }

    /// Prometheus text exposition: per family one `# HELP`/`# TYPE` header
    /// and then all of its lines, a summary's `_sum` and `_count` included.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let name = &f.name;
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                f.help,
                f.kind.label()
            ));
            for (labels, value) in &f.samples {
                match *value {
                    Value::Scalar(v) => prom_line(&mut out, name, labels, None, v),
                    Value::Summary {
                        count,
                        sum,
                        quantiles,
                    } => {
                        for (&(_, q, _), v) in QUANTILES.iter().zip(quantiles) {
                            prom_line(&mut out, name, labels, Some(q), v as f64);
                        }
                        prom_line(&mut out, &format!("{name}_sum"), labels, None, sum);
                        prom_line(
                            &mut out,
                            &format!("{name}_count"),
                            labels,
                            None,
                            count as f64,
                        );
                    }
                }
            }
        }
        out
    }

    /// One JSON object holding every family under its subsystem — the name
    /// segment after `odf_` — keyed by family name. A lone unlabeled
    /// counter or gauge is a number, a lone unlabeled summary is
    /// `{"count","sum","p50","p99","p999"}`, and any other family is an
    /// array of those fields plus `"labels"`:
    /// `{"pool":{"odf_pool_free_blocks":[{"labels":{"order":"0"},"value":3},…],…},…}`.
    pub fn json(&self) -> String {
        let mut groups: Vec<(&str, Vec<String>)> = Vec::new();
        for f in &self.families {
            let value = match f.samples.as_slice() {
                [(labels, Value::Scalar(v))] if labels.is_empty() => number(*v),
                [(labels, value)] if labels.is_empty() => json_object(labels, *value),
                samples => {
                    let rows: Vec<String> =
                        samples.iter().map(|(l, v)| json_object(l, *v)).collect();
                    format!("[{}]", rows.join(","))
                }
            };
            let entry = format!("\"{}\":{value}", json_escape(&f.name));
            let stem = f.name.strip_prefix("odf_").unwrap_or(&f.name);
            let group = stem.split('_').next().unwrap_or(stem);
            match groups.iter_mut().find(|(g, _)| *g == group) {
                Some((_, entries)) => entries.push(entry),
                None => groups.push((group, vec![entry])),
            }
        }
        let parts: Vec<String> = groups
            .iter()
            .map(|(g, entries)| format!("\"{}\":{{{}}}", json_escape(g), entries.join(",")))
            .collect();
        format!("{{{}}}", parts.join(","))
    }

    /// Redis `INFO` lines for the families `pick` selects, keyed by family
    /// name without its `odf_` prefix and `_total` suffix: an unlabeled
    /// counter or gauge renders as `key:N`, any other sample as
    /// `key:label=v,…,value=N` or `key:label=v,…,count=N,sum=N,p50=N,…`.
    pub fn info(&self, pick: impl Fn(&Family) -> bool) -> String {
        let mut out = String::new();
        for f in self.families.iter().filter(|f| pick(f)) {
            let key = f.name.strip_prefix("odf_").unwrap_or(&f.name);
            let key = key.strip_suffix("_total").unwrap_or(key);
            for (labels, value) in &f.samples {
                let fields: Vec<String> = match (labels.is_empty(), value) {
                    (true, Value::Scalar(v)) => vec![number(*v)],
                    _ => labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .chain(value.pairs().into_iter().map(|(k, v)| format!("{k}={v}")))
                        .collect(),
                };
                out.push_str(&format!("{key}:{}\r\n", fields.join(",")));
            }
        }
        out
    }
}

/// Renders a number the way node_exporter does: integral values without
/// a fractional part.
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        (v as i64).to_string()
    } else {
        v.to_string()
    }
}

/// Appends one Prometheus sample line, with an optional `quantile` label
/// after `labels`.
fn prom_line(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    quantile: Option<&str>,
    v: f64,
) {
    let mut inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    inner.extend(quantile.map(|q| format!("quantile=\"{q}\"")));
    if inner.is_empty() {
        out.push_str(&format!("{name} {}\n", number(v)));
    } else {
        out.push_str(&format!("{name}{{{}}} {}\n", inner.join(","), number(v)));
    }
}

/// One JSON sample object: `"labels"` (when any) and the value's fields.
fn json_object(labels: &[(&'static str, String)], value: Value) -> String {
    let mut fields = Vec::new();
    if !labels.is_empty() {
        let inner: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", json_escape(v)))
            .collect();
        fields.push(format!("\"labels\":{{{}}}", inner.join(",")));
    }
    fields.extend(
        value
            .pairs()
            .into_iter()
            .map(|(k, v)| format!("\"{k}\":{v}")),
    );
    format!("{{{}}}", fields.join(","))
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a trace as chrome://tracing's JSON object format, reading each
/// record's name, category and args from its point's descriptor.
///
/// Records of a point with a latency word become complete (`"ph":"X"`)
/// events whose span ends at the record timestamp; the rest become
/// thread-scoped instants (`"ph":"i"`). Timestamps are microseconds as the
/// format requires.
pub(crate) fn chrome_json(trace: &Trace) -> String {
    let rows: Vec<String> = trace
        .events
        .iter()
        .map(|r| {
            let (hit, d) = (&r.hit, r.hit.desc());
            let us = |ns: u64| ns as f64 / 1000.0;
            let (name, cat) = d.chrome;
            let name = match d.kinds {
                Some(_) => format!("{name}:{}", hit.kind_label()),
                None => name.to_string(),
            };
            let when = match d.latency {
                Some(i) => format!(
                    "\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                    r.thread,
                    us(r.ts_ns.saturating_sub(hit.w[i])),
                    us(hit.w[i])
                ),
                None => format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{:.3}",
                    r.thread,
                    us(r.ts_ns)
                ),
            };
            // Args: the ring's words, less the latency the span shows.
            let args: Vec<String> = (0..3)
                .filter(|&i| !d.words[i].is_empty() && Some(i) != d.latency)
                .map(|i| format!("\"{}\":{}", d.words[i], hit.w[i]))
                .collect();
            let args = match args.is_empty() {
                true => String::new(),
                false => format!(",\"args\":{{{}}}", args.join(",")),
            };
            format!("{{\"name\":\"{name}\",\"cat\":\"{cat}\",{when}{args}}}")
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, ForkPolicyKind, Hit, Point, TraceRecord};

    #[test]
    fn prom_headers_emitted_once() {
        let mut e = Exposition::new();
        e.counter("odf_x_total", "x", &[("k", "a")], 1);
        e.gauge("odf_y", "y", &[], 3.0);
        e.counter("odf_x_total", "x", &[("k", "b")], 2);
        let text = e.prometheus();
        assert_eq!(text.matches("# TYPE odf_x_total counter").count(), 1);
        // A family's lines stay together whatever the insertion order.
        assert!(text.contains("odf_x_total{k=\"a\"} 1\nodf_x_total{k=\"b\"} 2\n"));
        assert!(text.ends_with("# TYPE odf_y gauge\nodf_y 3\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "duplicate sample")]
    fn prom_duplicate_sample_panics() {
        let mut e = Exposition::new();
        e.counter("odf_dup_total", "d", &[], 1);
        e.counter("odf_dup_total", "d", &[], 2);
    }

    #[test]
    #[should_panic(expected = "declared as both")]
    fn one_name_has_one_kind() {
        let mut e = Exposition::new();
        e.counter("odf_k", "k", &[("a", "1")], 1);
        e.gauge("odf_k", "k", &[("a", "2")], 2.0);
    }

    #[test]
    fn prom_label_values_escaped() {
        let mut e = Exposition::new();
        e.gauge("odf_g", "g", &[("path", "a\"b\\c\nd")], 1.5);
        let text = e.prometheus();
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""));
        assert!(text.contains("} 1.5"));
        assert!(e.json().contains("\"path\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn quantiles_emit_summary_series() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        let mut e = Exposition::new();
        e.summary("odf_lat_ns", "latency", &[("kind", "x")], &h);
        let text = e.prometheus();
        assert!(text.contains("odf_lat_ns{kind=\"x\",quantile=\"0.5\"}"));
        assert!(text.contains("odf_lat_ns{kind=\"x\",quantile=\"0.999\"}"));
        assert!(text.contains("odf_lat_ns_count{kind=\"x\"} 1000"));
        assert!(text.contains("odf_lat_ns_sum{kind=\"x\"} 500500"));
    }

    #[test]
    fn json_and_info_render_every_shape() {
        let mut h = Histogram::new();
        h.record(10);
        let mut e = Exposition::new();
        e.counter("odf_vm_faults_total", "f", &[], 12);
        e.gauge("odf_pool_free_blocks", "b", &[("order", "0")], 3.0);
        e.gauge("odf_pool_free_blocks", "b", &[("order", "1")], 0.5);
        e.summary("odf_trace_cow_bytes", "c", &[], &h);
        e.summary("odf_trace_fault_latency_ns", "l", &[("kind", "x")], &h);
        let digest = "\"count\":1,\"sum\":10,\"p50\":10,\"p99\":10,\"p999\":10";
        assert_eq!(
            e.json(),
            format!(
                "{{\"vm\":{{\"odf_vm_faults_total\":12}},\
                 \"pool\":{{\"odf_pool_free_blocks\":[{{\"labels\":{{\"order\":\"0\"}},\"value\":3}},\
                 {{\"labels\":{{\"order\":\"1\"}},\"value\":0.5}}]}},\
                 \"trace\":{{\"odf_trace_cow_bytes\":{{{digest}}},\
                 \"odf_trace_fault_latency_ns\":[{{\"labels\":{{\"kind\":\"x\"}},{digest}}}]}}}}"
            )
        );
        assert_eq!(
            e.info(|f| f.kind != MetricKind::Summary && !f.labeled()),
            "vm_faults:12\r\n"
        );
        assert_eq!(
            e.info(|f| f.kind == MetricKind::Summary),
            "trace_cow_bytes:count=1,sum=10,p50=10,p99=10,p999=10\r\n\
             trace_fault_latency_ns:kind=x,count=1,sum=10,p50=10,p99=10,p999=10\r\n"
        );
        assert_eq!(
            e.info(|f| f.name == "odf_pool_free_blocks"),
            "pool_free_blocks:order=0,value=3\r\npool_free_blocks:order=1,value=0.5\r\n"
        );
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }

    fn rec(ts_ns: u64, thread: u32, hit: Hit) -> TraceRecord {
        TraceRecord { ts_ns, thread, hit }
    }

    #[test]
    fn chrome_json_renders_daemon_pass_and_backoff_rows() {
        let trace = Trace {
            events: vec![
                rec(9000, 3, Hit::new(Point::ReclaimPass, &[12, 90, 4000])),
                rec(9500, 3, Hit::new(Point::ReclaimBackoff, &[90])),
                rec(12000, 4, Hit::new(Point::ThpPass, &[7, 2, 2000])),
                rec(12500, 4, Hit::new(Point::ThpBackoff, &[7])),
            ],
            dropped: 0,
        };
        let j = trace.chrome_json();
        // Passes are spans starting latency before their end timestamp.
        assert!(j.contains("\"name\":\"reclaim_pass\",\"cat\":\"reclaim\",\"ph\":\"X\""));
        assert!(j.contains("\"ts\":5.000,\"dur\":4.000"));
        assert!(j.contains("\"pages_evicted\":12"));
        assert!(j.contains("\"name\":\"thp_pass\",\"cat\":\"thp\",\"ph\":\"X\""));
        assert!(j.contains("\"ts\":10.000,\"dur\":2.000"));
        // Backoffs are instants.
        assert!(j.contains("\"name\":\"reclaim_backoff\",\"cat\":\"reclaim\",\"ph\":\"i\""));
        assert!(j.contains("\"name\":\"thp_backoff\",\"cat\":\"thp\",\"ph\":\"i\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn chrome_json_shapes_duration_and_instant_events() {
        let fault = Hit::new(Point::Fault, &[1, 0x1000, 3000]).kind(FaultKind::TableCow.as_u8());
        let fork = Hit::new(Point::ForkEnd, &[0, 4, 2000]).kind(ForkPolicyKind::OnDemand.as_u8());
        let trace = Trace {
            events: vec![
                rec(5000, 2, fault),
                rec(6000, 0, fork),
                rec(7000, 1, Hit::new(Point::TlbFlush, &[])),
            ],
            dropped: 0,
        };
        let j = trace.chrome_json();
        assert!(j.contains("\"traceEvents\":["));
        assert!(j.contains("\"name\":\"fault:table_cow\""));
        // Fault span: starts at (5000-3000)ns = 2us, lasts 3us.
        assert!(j.contains("\"ts\":2.000,\"dur\":3.000,\"args\":{\"retries\":1,\"addr\":4096}"));
        assert!(j.contains("\"name\":\"fork:odf\""));
        assert!(j.contains("\"tables_shared\":4"));
        assert!(j.ends_with("\"name\":\"tlb_flush\",\"cat\":\"tlb\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":7.000}]}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
