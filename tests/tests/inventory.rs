//! The system's inventory matches what it runs. DESIGN.md §2 holds one
//! row per crate and per bench target, saying why it is kept, and the
//! layers deleted because nothing called them stay deleted.

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

/// Every `.rs` file under `dir`, as (path, text).
fn rust_sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension() == Some("rs".as_ref()) {
            let text = std::fs::read_to_string(&path).expect("read source");
            out.push((path, text));
        }
    }
}

/// The first cell of every table row in DESIGN.md §2.
fn design_rows() -> Vec<String> {
    let design = read("DESIGN.md");
    let section = design
        .split_once("\n## 2.")
        .and_then(|(_, rest)| rest.split_once("\n## 3."))
        .expect("DESIGN.md has sections 2 and 3")
        .0;
    section
        .lines()
        .filter_map(|l| l.strip_prefix('|'))
        .filter_map(|l| l.split('|').next())
        .map(|cell| cell.trim().to_string())
        .collect()
}

#[test]
fn deleted_layers_stay_deleted() {
    const GONE: [&str; 7] = [
        "struct FileBackend",
        "trait SwapBackend",
        "struct DiskFs",
        "Deadline(",
        "FsyncPolicy::Never",
        "fn with_swap",
        "fn set_default_fork_policy",
    ];
    let mut sources = Vec::new();
    rust_sources(&repo().join("crates"), &mut sources);
    assert!(sources.len() > 100, "only {} sources", sources.len());
    for (path, text) in &sources {
        for name in GONE {
            assert!(
                !text.contains(name),
                "{} brings back `{name}`: it had no caller outside its own tests; \
                 give it a ledger row, a figure or an oracle in DESIGN.md §2 first",
                path.display()
            );
        }
    }
}

#[test]
fn every_crate_and_bench_has_a_row_in_design_section_2() {
    let rows = design_rows();
    let mut crates: Vec<String> = std::fs::read_dir(repo().join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| format!("`crates/{}`", p.file_name().unwrap().to_string_lossy()))
        .collect();
    crates.sort();
    assert!(crates.len() >= 10, "only {crates:?}");
    let manifest = read("crates/bench/Cargo.toml");
    let benches: Vec<String> = manifest
        .split("[[bench]]")
        .skip(1)
        .map(|b| {
            let name = b
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = "))
                .expect("a [[bench]] has a name");
            format!("bench `{}`", name.trim_matches('"'))
        })
        .collect();
    assert!(benches.len() >= 10, "only {benches:?}");
    for part in crates.iter().chain(&benches) {
        assert!(
            rows.contains(part),
            "{part} has no row in DESIGN.md §2: say what it earns (ledger row, figure, oracle)"
        );
    }
}
