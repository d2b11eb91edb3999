//! Bit-identity oracle for the drift mutators: every output of
//! `workloads::drift`, folded into FNV-1a hashes and pinned in
//! `tests/golden/drift_outputs.json` (re-bless with
//! `BLESS=1 cargo test --test drift_outputs`).
//!
//! One row per (workload, mutator kind) folds the outputs for parameters
//! 0–11 applied to the workload's source and to each of its 24 release-chain
//! sources; one row per (workload, `SCENARIOS` entry) hashes that rebuild;
//! one row per workload hashes its 24-release chain, names and sources.
//! The benchmark's drifted build, the goldens and `csspgo_lint` all read
//! these bytes, so a rewrite of the module must leave every row unchanged.

use csspgo::core::Workload;
use csspgo::workloads::drift::{self, Mutator, SCENARIOS};

#[path = "common/golden.rs"]
mod golden;
use golden::Fnv;

/// Releases per chain: three full cycles of the eight release mutators.
const RELEASES: usize = 24;

/// Parameters each mutator kind is applied with.
const PARAMS: u8 = 12;

/// Folds `s` into `h`, delimited by its length.
fn text(h: &mut Fnv, s: &str) {
    h.bytes(s.as_bytes()).word(s.len() as u64);
}

/// The ten mutator kinds, one per `Mutator` arm.
const KINDS: [&str; 10] = [
    "insert_comments",
    "insert_body_comments",
    "change_cfg",
    "rename_functions",
    "insert_statement",
    "delete_statement",
    "split_function",
    "merge_functions",
    "bump_dependency",
    "flip_feature_flag",
];

fn apply(kind: &str, param: u8, src: &str, keep: &[&str]) -> String {
    let n = usize::from(param);
    let m = match kind {
        "insert_comments" => Mutator::InsertComments,
        "insert_body_comments" => Mutator::InsertBodyComments,
        "change_cfg" => Mutator::ChangeCfg,
        "rename_functions" => Mutator::RenameFunctions,
        "insert_statement" => Mutator::InsertStatement(n),
        "delete_statement" => Mutator::DeleteStatement(n),
        "split_function" => Mutator::SplitFunction(n),
        "merge_functions" => Mutator::MergeFunctions(n),
        "bump_dependency" => Mutator::BumpDependency(u64::from(param)),
        "flip_feature_flag" => Mutator::FlipFeatureFlag(n),
        _ => unreachable!("{kind}"),
    };
    m.apply(src, keep)
}

fn rows(w: &Workload) -> Vec<(String, u64)> {
    let keep = [w.entry.as_str()];
    let chain = drift::release_chain(&w.source, RELEASES, &keep);
    let sources: Vec<&str> = std::iter::once(w.source.as_str())
        .chain(chain.iter().map(|(_, s)| s.as_str()))
        .collect();
    let mut out = Vec::new();
    for kind in KINDS {
        let mut h = Fnv::new();
        for src in &sources {
            for param in 0..PARAMS {
                text(&mut h, &apply(kind, param, src, &keep));
            }
        }
        out.push((format!("{}/{kind}", w.name), h.0));
    }
    for (name, rebuild) in SCENARIOS {
        let mut h = Fnv::new();
        text(&mut h, &rebuild(w));
        out.push((format!("{}/scenario/{name}", w.name), h.0));
    }
    let mut h = Fnv::new();
    for (name, src) in &chain {
        text(&mut h, name);
        text(&mut h, src);
    }
    out.push((format!("{}/release_chain", w.name), h.0));
    out
}

#[test]
fn every_drift_output_matches_golden() {
    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    let rows: Vec<String> = workloads
        .iter()
        .flat_map(rows)
        .map(|(case, hash)| format!("  {{\"case\": \"{case}\", \"fnv1a\": \"{hash:#018x}\"}}"))
        .collect();
    assert_eq!(rows.len(), 6 * (KINDS.len() + SCENARIOS.len() + 1));
    golden::check(
        "tests/golden/drift_outputs.json",
        golden::array(&rows),
        "a drift output moved from the golden; re-bless only for an intended change",
    );
}
