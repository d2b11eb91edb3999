//! `results/` is what the current code renders, byte for byte: every figure
//! of `csspgo_bench::figures::REGISTRY` at the default scale, and
//! `csspgo_lint`'s default report, both rendered in this process and
//! compared with the committed `results/<name>.txt`. An intended change is
//! the diff that `figures --out results` and `csspgo_lint >
//! results/csspgo_lint.txt` write, committed and explained.

use csspgo_bench::figures::{render, Ctx, REGISTRY};
use csspgo_bench::par_map;
use std::path::Path;

#[path = "../src/bin/csspgo_lint.rs"]
#[allow(dead_code)] // the bin's `main`
mod csspgo_lint;

/// Where `rendered` first departs from the committed `results/<name>.txt`,
/// if it does.
fn differs(name: &str, rendered: &str) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{name}.txt"));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if rendered == committed {
        return None;
    }
    let (a, b): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), rendered.lines().collect());
    let line = (0..a.len().max(b.len()))
        .find(|&l| a.get(l) != b.get(l))
        .unwrap_or(0);
    Some(format!(
        "results/{name}.txt line {}:\n  committed: {:?}\n  rendered:  {:?}",
        line + 1,
        a.get(line).unwrap_or(&""),
        b.get(line).unwrap_or(&"")
    ))
}

#[test]
fn every_figure_renders_its_committed_results_file() {
    // The scale `figures --out results` runs at with `CSSPGO_SCALE` unset.
    let ctx = Ctx::new(1.0);
    let moved: Vec<String> = par_map(REGISTRY.iter().collect(), |&(name, figure)| {
        differs(name, &render(&figure(&ctx)))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn the_lint_report_renders_its_committed_results_file() {
    let mut out = String::new();
    assert_eq!(csspgo_lint::run(&[], &mut out), Ok(true));
    if let Some(diff) = differs("csspgo_lint", &out) {
        panic!("{diff}");
    }
}
