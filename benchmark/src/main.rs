//! The repository's benchmark: four workloads, the end-to-end metrics a user
//! of the system feels, and a per-layer breakdown measured from outside the
//! crates. `BENCHMARK.json` at the repository root lists them; `README.md`
//! here says why each exists.
//!
//! ```text
//! odf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     one run; the last line of output is its result as JSON
//! odf-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--repeat <k>]
//!     every workload, untraced then traced, each run in a process of its
//!     own; writes out/result.json; with --repeat, fails unless the sets agree
//! ```

mod api_surface;
mod gen;
mod host;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use spec::{MetricSpec, Sample, Spec};
use workloads::{Outcome, RunCfg, Scale};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_file(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run_{workload}_trace{}.json", u8::from(trace)))
}

fn metrics_json(rows: &[(MetricSpec, Sample)], with_samples: bool) -> Json {
    Json::obj(rows.iter().map(|(spec, sample)| {
        let mut fields = vec![
            ("value", Json::Num(sample.value)),
            ("unit", Json::Str(spec.unit.clone())),
        ];
        if with_samples {
            fields.push(("samples", Json::Num(sample.n as f64)));
        }
        (spec.name.clone(), Json::obj(fields))
    }))
}

/// One run of one workload, in this process.
fn run_one(spec: &Spec, workload: &str, cfg: RunCfg) -> Result<(), String> {
    let outcome: Outcome = workloads::run(workload, cfg).ok_or_else(|| {
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        format!("unknown workload {workload}; known: {}", names.join(", "))
    })?;
    let (specs, require_all) = if cfg.trace {
        (&spec.per_layer, false)
    } else {
        (&spec.end_to_end, true)
    };
    let rows = outcome.metrics.in_spec_order(specs, require_all);
    let correct = outcome.checks.failed == 0;

    println!(
        "# {workload} seed={} seconds={} trace={} cores={} input_digest={:016x}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host::cores(),
        outcome.input_digest
    );
    for (spec, sample) in &rows {
        println!(
            "{:<44} {:>16.4} {:<8} samples={}",
            spec.name, sample.value, spec.unit, sample.n
        );
    }

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;
    if let Some(tracer) = &outcome.tracer {
        let path = out_dir().join(format!("trace_{workload}.json"));
        tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("write {path:?}: {e}"))?;
    }
    let detail = Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        (
            "input_digest",
            Json::Str(format!("{:016x}", outcome.input_digest)),
        ),
        ("metrics", metrics_json(&rows, true)),
    ]);
    let path = run_file(workload, cfg.trace);
    std::fs::write(&path, format!("{detail}\n")).map_err(|e| format!("write {path:?}: {e}"))?;

    // The result line: exactly these keys, and the last line of output.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.checks.attempted as f64)),
            ("failed", Json::Num(outcome.checks.failed as f64)),
            ("metrics", metrics_json(&rows, false)),
        ])
    );
    Ok(())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

/// Every workload, untraced then traced. Each run is a child process, so
/// peak memory and CPU time belong to that run alone.
fn run_set(spec: &Spec, args: &Args, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let host = [
        ("host_cores", Json::Num(host::cores() as f64)),
        ("git_rev", Json::Str(git_rev())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ];
    let mut workloads = Vec::new();
    for (workload, _) in &spec.workloads {
        let mut fields = host.to_vec();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child's table goes straight to this terminal.
            let status = cmd.status().map_err(|e| format!("spawn {exe:?}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload} (trace {trace}) exited with {status}"));
            }
            let path = run_file(workload, trace);
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
            let detail = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
            fields.push((if trace { "per_layer" } else { "end_to_end" }, detail));
        }
        // One file per workload, in the shape `baseline/` keeps.
        let record = Json::obj(fields);
        let path = out_dir().join(format!("{workload}.json"));
        std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("write {path:?}: {e}"))?;
        workloads.push((workload.clone(), record));
    }
    Ok(Json::obj([("workloads", Json::Obj(workloads))]))
}

fn set_is_correct(set: &Json) -> bool {
    set.get("workloads")
        .and_then(Json::as_obj)
        .is_some_and(|ws| {
            ws.iter().all(|(_, w)| {
                ["end_to_end", "per_layer"].iter().all(|mode| {
                    w.get(mode)
                        .and_then(|r| r.get("correct"))
                        .and_then(Json::as_bool)
                        == Some(true)
                })
            })
        })
}

/// End-to-end metrics of `other` that differ from `first` by more than
/// their bound, as printable lines.
fn disagreements(spec: &Spec, first: &Json, other: &Json) -> Vec<String> {
    let value = |set: &Json, workload: &str, metric: &str| {
        set.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let mut lines = Vec::new();
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(a), Some(b)) = (
                value(first, workload, &m.name),
                value(other, workload, &m.name),
            ) else {
                lines.push(format!("{workload}.{}: missing", m.name));
                continue;
            };
            let bound = m.bound.expect("end-to-end bound");
            let diff = (b - a).abs() / a.abs();
            if diff > bound {
                lines.push(format!(
                    "{workload}.{}: {a} vs {b} differ by {:.1} % (bound {:.0} %)",
                    m.name,
                    diff * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    lines
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("odf-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { spec.run_seconds });

    if let Some(workload) = &args.workload {
        let cfg = RunCfg {
            seed: args.seed,
            seconds,
            trace: args.trace,
            scale: if args.smoke {
                Scale::Smoke
            } else {
                Scale::Full
            },
        };
        return match run_one(&spec, workload, cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("odf-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut sets = Vec::new();
    for round in 0..args.repeat.max(1) {
        match run_set(&spec, &args, seconds) {
            Ok(set) => {
                let name = if round == 0 {
                    "result.json".to_string()
                } else {
                    format!("result_{}.json", round + 1)
                };
                let path = out_dir().join(name);
                if let Err(e) = std::fs::write(&path, format!("{set}\n")) {
                    eprintln!("odf-benchmark: write {path:?}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("# wrote {}", path.display());
                sets.push(set);
            }
            Err(e) => {
                eprintln!("odf-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = sets.iter().all(set_is_correct);
    if !ok {
        eprintln!("odf-benchmark: a run reported failed operations");
    }
    for (i, other) in sets.iter().enumerate().skip(1) {
        for line in disagreements(&spec, &sets[0], other) {
            eprintln!("odf-benchmark: set 1 vs set {}: {line}", i + 1);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
