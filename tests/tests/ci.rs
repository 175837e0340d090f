//! CI has one definition, `ci/run.sh`; `.github/workflows/ci.yml` is a
//! matrix over its job names that only calls it. These checks keep the
//! two from drifting apart and keep the script's race rows pointing at
//! tests that exist.

use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ has a parent")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The words between the brackets or parentheses that follow `key` on the
/// first line that starts with it.
fn list_after(src: &str, key: &str) -> Vec<String> {
    let line = src
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("no line starts with {key:?}"));
    line[key.len()..]
        .trim_end_matches([']', ')'])
        .split([',', ' '])
        .filter(|w| !w.is_empty())
        .map(String::from)
        .collect()
}

#[test]
fn ci_yml_only_calls_run_sh() {
    let yml = read(".github/workflows/ci.yml");
    assert!(!yml.contains("cargo"), "ci.yml runs cargo itself");
    let runs: Vec<&str> = yml
        .lines()
        .map(|l| l.trim().trim_start_matches("- "))
        .filter(|l| l.starts_with("run:"))
        .collect();
    assert_eq!(runs, ["run: ci/run.sh ${{ matrix.job }}"]);
}

#[test]
fn the_matrix_lists_every_job_run_sh_declares() {
    let matrix = list_after(&read(".github/workflows/ci.yml"), "job: [");
    let jobs = list_after(&read("ci/run.sh"), "JOBS=(");
    assert!(jobs.len() >= 10, "only {jobs:?} in run.sh");
    assert_eq!(matrix, jobs);
}

fn rust_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension() == Some("rs".as_ref()) {
            out.push_str(&std::fs::read_to_string(&path).expect("read source"));
        }
    }
}

/// A row of `run.sh`'s `ALONE` list runs its tests with `--exact`; a
/// renamed test would leave the row running nothing.
#[test]
fn every_exact_test_run_sh_names_exists() {
    let script = read("ci/run.sh");
    let rows = script
        .split_once("ALONE=(")
        .and_then(|(_, rest)| rest.split_once("\n)"))
        .expect("ALONE list in run.sh")
        .0;
    let mut sources = String::new();
    for dir in ["crates", "tests"] {
        rust_sources(&repo().join(dir), &mut sources);
    }
    let mut checked = 0;
    for row in rows.lines().map(str::trim).filter(|l| l.starts_with('"')) {
        for name in row.trim_matches('"').split_whitespace().skip(2) {
            let name = name.rsplit("::").next().expect("name");
            assert!(
                sources.contains(&format!("fn {name}(")),
                "run.sh runs `{name}`, which no fn under crates/ or tests/ defines"
            );
            checked += 1;
        }
    }
    assert!(checked >= 9, "only {checked} exact test names in run.sh");
}
