//! The optimizer's flow ledger: how far each pass leaves block counts from
//! a flow. The annotated builds of `tests/compile_allocations.rs` — the six
//! `csspgo_workloads` programs and the five `drift::release_chain`
//! descendants of each, annotated from the base program's probe profile
//! (stale matching on, MCF inference) — walk `opt::run_passes`, and on the
//! input and after every entry each function whose entry block is counted
//! goes through `infer_counts` (MCF, entry = the entry block's count). Its
//! `flow_moved` is how far the counts are from the nearest flow. The sums,
//! per program over the base build and over the five releases, are pinned
//! in `tests/golden/flow_ledger.json`: a rise is a regression; a fall is
//! progress, pinned with `BLESS=1 cargo test --test flow_ledger`.
//!
//! `cargo test --test flow_ledger -- --nocapture` prints the table.

use csspgo::core::annotate::csspgo_annotate;
use csspgo::core::inference::{infer_counts, InferenceMode};
use csspgo::ir::{InlinePlan, Module};
use std::collections::HashMap;

mod common;
#[path = "common/golden.rs"]
mod golden;

const GOLDEN: &str = "tests/golden/flow_ledger.json";

/// One ledger row: what it sums, then `(entry, flow_moved)` on the input
/// and after each entry of the pass list.
type Row = (String, Vec<(String, u64)>);

/// `flow_moved` summed over the functions of `module` whose entry block is
/// counted.
fn flow_moved(module: &Module) -> u64 {
    (module.functions.iter())
        .filter_map(|f| {
            let entry = f.block(f.entry).count?;
            let raw: HashMap<_, _> = (f.iter_blocks())
                .filter_map(|(b, block)| Some((b, block.count?)))
                .collect();
            let inferred = infer_counts(f, &raw, entry, InferenceMode::Mcf);
            Some(inferred.stats.flow_moved)
        })
        .sum()
}

/// The ledger: per program, a row for its base build and one for its five
/// releases together.
fn ledger() -> Vec<Row> {
    let mut rows = Vec::new();
    for lineage in common::lineages() {
        let name = &lineage.workload.name;
        let mut base: Vec<(String, u64)> = Vec::new();
        let mut releases: Vec<(String, u64)> = Vec::new();
        for (i, source) in lineage.sources.iter().enumerate() {
            let mut module = csspgo::lang::compile(source, name).expect("workload compiles");
            csspgo::opt::discriminators::run(&mut module);
            csspgo::opt::probes::run(&mut module);
            csspgo_annotate(
                &mut module,
                &lineage.probe,
                Some(&InlinePlan),
                &lineage.annotate,
            );
            let row = if i == 0 { &mut base } else { &mut releases };
            let mut step = 0;
            csspgo::opt::run_passes(&mut module, &lineage.opt_annotated, |m, pass| {
                if row.len() == step {
                    row.push((pass.to_string(), 0));
                }
                row[step].1 += flow_moved(m);
                step += 1;
            });
        }
        rows.push((format!("{name} base"), base));
        rows.push((format!("{name} releases"), releases));
    }
    rows
}

/// The rows as the golden file holds them, one per line.
fn render(rows: &[Row]) -> String {
    let lines: Vec<String> = (rows.iter())
        .map(|(what, cells)| {
            let cells: Vec<String> = (cells.iter())
                .map(|(pass, n)| format!("[\"{pass}\", {n}]"))
                .collect();
            format!("  [\"{what}\", [{}]]", cells.join(", "))
        })
        .collect();
    golden::array(&lines)
}

#[test]
fn no_pass_moves_counts_further_from_a_flow() {
    let rows = ledger();
    eprintln!("flow_moved on the input and after each entry:");
    let header: String = rows[0].1.iter().map(|(p, _)| format!("{p:>10}")).collect();
    eprintln!("  {:<25}{header}", "");
    for (what, cells) in &rows {
        let cells: String = cells.iter().map(|(_, n)| format!("{n:>10}")).collect();
        eprintln!("  {what:<25}{cells}");
    }
    if let Some(pinned) = golden::pinned(GOLDEN) {
        let pinned: Vec<Row> =
            serde_json::from_str(std::str::from_utf8(&pinned).unwrap()).expect("the golden parses");
        let mut rises = Vec::new();
        for ((what, cells), (_, was)) in rows.iter().zip(&pinned) {
            for ((pass, n), (_, w)) in cells.iter().zip(was) {
                if n > w {
                    rises.push(format!("{what}, after `{pass}`: {w} -> {n}"));
                }
            }
        }
        assert!(
            rises.is_empty(),
            "a pass left counts further from a flow than the ledger allows:\n  {}",
            rises.join("\n  ")
        );
    }
    golden::check(
        GOLDEN,
        render(&rows),
        "the ledger changed without a rise (a fall, or a new row or entry); pin it",
    );
}
