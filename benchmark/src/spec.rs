//! The metric and workload lists, read from `BENCHMARK.json` at build time
//! so names, units and bounds are written down once.

use std::collections::BTreeMap;

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the reference value by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<MetricSpec> {
            root.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| MetricSpec {
                    name: m.get("name").and_then(Json::as_str).expect("name").into(),
                    unit: m.get("unit").and_then(Json::as_str).expect("unit").into(),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
            workloads: root
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workloads")
                .iter()
                .map(|w| {
                    (
                        w.get("name").and_then(Json::as_str).expect("name").into(),
                        w.get("why").and_then(Json::as_str).expect("why").into(),
                    )
                })
                .collect(),
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }
}

/// One measured value and how many samples it summarizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub n: u64,
}

/// Metrics measured by one run, by name. A name is checked against
/// `BENCHMARK.json` when the run is reported, so a typo is an error and
/// not a silently missing row.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Sample>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        let prev = self.0.insert(name.to_string(), Sample { value, n });
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// A count or ratio taken once over the run.
    pub fn set_one(&mut self, name: &str, value: f64) {
        self.set(name, value, 1);
    }

    pub fn get(&self, name: &str) -> Option<Sample> {
        self.0.get(name).copied()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.value)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Orders the metrics as `specs` lists them. End-to-end metrics must all
    /// be present. A per-layer metric a workload does not set reads 0: that
    /// layer did no work there, which is what keeps workloads apart.
    pub fn in_spec_order(
        &self,
        specs: &[MetricSpec],
        require_all: bool,
    ) -> Vec<(MetricSpec, Sample)> {
        for name in self.names() {
            assert!(
                specs.iter().any(|s| s.name == name),
                "metric {name} is not in BENCHMARK.json"
            );
        }
        specs
            .iter()
            .map(|spec| {
                let sample = match self.get(&spec.name) {
                    Some(s) => s,
                    None if require_all => panic!("metric {} was not measured", spec.name),
                    None => Sample { value: 0.0, n: 0 },
                };
                (spec.clone(), sample)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver refuses a `BENCHMARK.json` outside of.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        let spec = Spec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(name_ok(name) && seen.insert(name.clone()), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                name_ok(&m.name) && seen.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(unit_ok(&m.unit), "{}: unit {}", m.name, m.unit);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(BENCHMARK_JSON.len() <= 64 << 10);

        // Keys the benchmark itself does not read.
        let root = Json::parse(BENCHMARK_JSON).unwrap();
        for list in ["end_to_end", "per_layer"] {
            for m in root.get(list).and_then(Json::as_arr).unwrap() {
                let better = m.get("better").and_then(Json::as_str);
                assert!(matches!(better, Some("higher" | "lower")), "{m}");
                let is_setup = m.get("name").and_then(Json::as_str) == Some("setup_s");
                assert!(!is_setup || better == Some("lower"));
            }
        }
        let strings = |key: &str| -> Vec<String> {
            root.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        let command = strings("command");
        assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
        assert_eq!(strings("paths"), ["benchmark"]);
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn unknown_metric_names_are_refused() {
        let mut m = Metrics::default();
        m.set_one("no.such.metric", 1.0);
        m.in_spec_order(&Spec::load().per_layer, false);
    }
}
