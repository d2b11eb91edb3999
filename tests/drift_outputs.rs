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
use std::path::PathBuf;

/// Releases per chain: three full cycles of the eight release mutators.
const RELEASES: usize = 24;

/// Parameters each mutator kind is applied with.
const PARAMS: u8 = 12;

/// FNV-1a, 64 bit, folded over byte strings, each one length-delimited.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b.iter().chain(&(b.len() as u64).to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }
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
                h.bytes(apply(kind, param, src, &keep).as_bytes());
            }
        }
        out.push((format!("{}/{kind}", w.name), h.0));
    }
    for (name, rebuild) in SCENARIOS {
        let mut h = Fnv::new();
        h.bytes(rebuild(w).as_bytes());
        out.push((format!("{}/scenario/{name}", w.name), h.0));
    }
    let mut h = Fnv::new();
    for (name, src) in &chain {
        h.bytes(name.as_bytes());
        h.bytes(src.as_bytes());
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
    let json = format!("[\n{}\n]\n", rows.join(",\n"));

    let golden: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "drift_outputs.json",
    ]
    .iter()
    .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &json).expect("bless golden");
        return;
    }
    let pinned = std::fs::read_to_string(&golden)
        .expect("golden missing — run `BLESS=1 cargo test --test drift_outputs` to create it");
    assert_eq!(
        json, pinned,
        "a drift output moved from the golden; if intentional, re-bless \
         with `BLESS=1 cargo test --test drift_outputs`"
    );
}
