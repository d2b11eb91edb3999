//! One-round smoke runs: what the command prints must be exactly what
//! `BENCHMARK.json` declares — end-to-end metrics (untraced pass) and
//! per-layer metrics (traced pass), with their units, on every workload of
//! the command; and it may list only workloads the command has.

use csspgo_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct ValueUnit {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ValueUnit>,
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
}

fn declared() -> Benchmark {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn run_once(workload: &str, trace: bool) -> ResultLine {
    let out = Command::new(env!("CARGO_BIN_EXE_csspgo-benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--rounds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the result object")
}

#[test]
fn the_code_tables_equal_benchmark_json() {
    let b = declared();
    assert_eq!(b.command, ["bash", "benchmark/run.sh"]);
    assert_eq!(b.paths, ["benchmark"]);
    assert!((1..=60).contains(&b.run_seconds));

    // The driver is handed a subset of the command's workloads, in the
    // command's order (see "Where this departs from ISSUE 12" in the README).
    let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    let known: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| names.contains(w))
        .collect();
    assert_eq!(names, known);
    for w in &b.workloads {
        assert!(well_formed(&w.name));
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    assert_eq!(b.end_to_end.len(), END_TO_END.len());
    for (d, (name, unit, higher, bound)) in b.end_to_end.iter().zip(END_TO_END) {
        assert!(well_formed(&d.name));
        assert_eq!(d.name, name);
        assert_eq!(d.unit, unit, "{name}");
        assert_eq!(d.better, if higher { "higher" } else { "lower" }, "{name}");
        assert_eq!(d.bound, Some(bound), "{name}");
        assert!(bound <= 0.25, "{name}");
    }

    assert_eq!(b.per_layer.len(), PER_LAYER.len());
    for (d, (name, unit, higher, _)) in b.per_layer.iter().zip(PER_LAYER) {
        assert!(well_formed(&d.name));
        assert_eq!(d.name, name);
        assert_eq!(d.unit, unit, "{name}");
        assert_eq!(d.better, if higher { "higher" } else { "lower" }, "{name}");
        assert_eq!(d.bound, None, "{name}: per-layer metrics carry no bound");
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let b = declared();
    let units = |list: &[Declared]| -> BTreeMap<String, String> {
        list.iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect()
    };
    // All six, not only those `BENCHMARK.json` hands the driver.
    for w in WORKLOADS {
        for (trace, want) in [(false, units(&b.end_to_end)), (true, units(&b.per_layer))] {
            let r = run_once(w, trace);
            assert!(r.correct && r.failed == 0, "{w} trace={trace}");
            assert!(r.attempted >= 1);
            let got: BTreeSet<&String> = r.metrics.keys().collect();
            let expected: BTreeSet<&String> = want.keys().collect();
            assert_eq!(got, expected, "{w} trace={trace}");
            for (name, m) in &r.metrics {
                assert_eq!(&m.unit, &want[name], "{name}");
                assert!(m.value.is_finite(), "{name}");
                if !trace {
                    assert!(m.value != 0.0, "{w}: end-to-end metric {name} is 0");
                }
            }
        }
    }
}
