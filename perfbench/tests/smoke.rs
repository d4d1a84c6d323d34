//! Tiny-size smoke runs of every workload, traced and untraced, through
//! the real `perfbench` and `cgte` binaries: each must finish with zero
//! failed operations and print every metric of `BENCHMARK.json` with its
//! name and unit.

use cgte_scenarios::artifact::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// The release `cgte` binary next to this package's binaries, built on
/// first use (the same target directory `run.py` builds both into).
fn cgte() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binary inside <target>/<profile>/");
    let cgte = target.join("release").join("cgte");
    if !cgte.exists() {
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "cgte-cli",
                "--bin",
                "cgte",
            ])
            .env("CARGO_TARGET_DIR", target)
            .current_dir(repo_root())
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building cgte failed");
    }
    cgte
}

/// `(name, unit)` pairs of a metric list in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = parse_json(&text).unwrap();
    let Some(Json::Arr(list)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    list.iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed metric entry {m:?}"),
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--cgte")
        .arg(cgte())
        .arg("--work")
        .arg(&work)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!work.exists(), "the run's scratch directory is removed");
    let last = stdout.lines().last().expect("a result line");
    let doc = parse_json(last).unwrap();
    let Json::Obj(fields) = &doc else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{last}");
    assert_eq!(doc.get("failed"), Some(&Json::Num(0.0)), "{last}");
    assert!(matches!(doc.get("attempted"), Some(Json::Num(n)) if *n >= 1.0));
    let metrics = doc.get("metrics").expect("metrics");
    let table = declared(if trace { "per_layer" } else { "end_to_end" });
    let Json::Obj(got) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(got.len(), table.len(), "{last}");
    for (name, unit) in table {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(m.get("unit"), Some(&Json::Str(unit)), "{workload}: {name}");
        assert!(
            matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{name}"
        );
    }
    let report = stdout.lines().rev().nth(1).expect("a report line");
    assert!(report.starts_with("{\"report\":"), "{report}");
    for key in ["\"host\"", "\"seed\"", "\"holdout_seed\"", "\"why\""] {
        assert!(report.contains(key), "report lacks {key}");
    }
}

#[test]
fn serve_crawl_smoke() {
    smoke("serve_crawl", false);
    smoke("serve_crawl", true);
}

#[test]
fn serve_ci_smoke() {
    smoke("serve_ci", false);
    smoke("serve_ci", true);
}

#[test]
fn serve_poll_smoke() {
    smoke("serve_poll", false);
    smoke("serve_poll", true);
}
