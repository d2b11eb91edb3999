//! `results/` is what the current code renders, byte for byte: every figure
//! of `csspgo_bench::figures::REGISTRY` at the default scale, and
//! `csspgo_lint`'s default report, both rendered in this process and
//! compared with the committed `results/<name>.txt`. An intended change is
//! the diff that `figures --out results` and `csspgo_lint >
//! results/csspgo_lint.txt` write, committed and explained.

use csspgo_bench::figures::{render, Ctx, REGISTRY};
use csspgo_bench::par_map;

#[path = "../src/bin/csspgo_lint.rs"]
#[allow(dead_code)] // the bin's `main`
mod csspgo_lint;

#[path = "common/golden.rs"]
mod golden;

/// What moved from the committed `results/<name>.txt` to `rendered`, if
/// anything did, as the golden harness reports it. `results/` has no
/// bless: an intended move is the diff `figures --out results` writes.
fn differs(name: &str, rendered: &str) -> Option<String> {
    let file = format!("results/{name}.txt");
    let committed = std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("read {file}: {e}"));
    let report = || golden::diff(&committed, rendered);
    (rendered != committed).then(|| format!("{file} (old → new):\n{}", report()))
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

/// The harness's reporter names a moved cell by its row's `"case"`, with
/// both values, then the rows added and removed; a text without cases, as
/// `results/` files are, by line number.
#[test]
fn the_golden_reporter_names_every_moved_cell_and_row() {
    let old = "[\n  {\"case\": \"a\", \"n\": 1},\n  {\"case\": \"b\", \"n\": 2}\n]\n";
    let new = "[\n  {\"case\": \"a\", \"n\": 3},\n  {\"case\": \"c\", \"n\": 2}\n]\n";
    assert_eq!(
        golden::diff(old, new),
        r#"  a: {"case": "a", "n": 1} → {"case": "a", "n": 3}
  added: c
  removed: b"#
    );
    assert_eq!(golden::diff("x\ny\n", "x\nz\n"), "  line 2: y → z");
}
