//! Bit-identity oracle for the stale-profile matcher: the complete
//! [`MatchOutcome`] — every [`FuncMatch`] field, a rename's payload
//! included, and the recovered profile as a node count + hash of its counts,
//! independent of any wire format — for every
//! shipped workload's clean-build profile matched against the seven
//! rebuilds `csspgo_lint` judges and a five-release `drift::release_chain`,
//! pinned in `tests/golden/stale_match.json` (re-bless with
//! `BLESS=1 cargo test --test stale_match`).
//!
//! Summary statistics (`results/csspgo_lint.txt`, the diff-report golden)
//! cannot see a count moved to another probe or a nested sub-profile
//! rebuilt differently; the hash of the recovered profile can.

use csspgo::core::pipeline::{prepared_module, untrimmed_probe_profile};
use csspgo::core::profile::{FuncProfile, ProbeProfile};
use csspgo::core::stalematch::{
    match_stale_profile, FuncMatch, FuncMatchStatus, MatchConfig, MatchOutcome,
};
use csspgo::core::Workload;
use csspgo::workloads::drift::{self, SCENARIOS};

#[path = "common/golden.rs"]
mod golden;
use golden::Fnv;

/// `csspgo_lint`'s default scale.
const SCALE: f64 = 0.05;

/// The seven rebuilds of `csspgo_lint`'s scenario mode, then the five
/// releases of its `--train 5` mode.
fn rebuilds(w: &Workload) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = SCENARIOS
        .iter()
        .map(|(name, rebuild)| (name.to_string(), rebuild(w)))
        .collect();
    for (i, (mutator, src)) in drift::release_chain(&w.source, 5, &[w.entry.as_str()])
        .into_iter()
        .enumerate()
    {
        out.push((format!("train-r{}-{mutator}", i + 1), src));
    }
    out
}

/// The node count and the FNV-1a, 64 bit, of a profile's counts: one
/// canonical (`BTreeMap` order) walk of each function's guid, then per
/// (sub-)profile its checksum, entry, probe counts and call-site keys. No
/// totals: they follow from the counts.
fn fingerprint(profile: &ProbeProfile) -> (usize, u64) {
    fn walk(h: &mut Fnv, f: &FuncProfile<u32>) -> usize {
        h.word(f.checksum).word(f.entry).word(f.body.len() as u64);
        for (&probe, &count) in &f.body {
            h.word(u64::from(probe)).word(count);
        }
        h.word(f.callsites.len() as u64);
        let mut nodes = 1;
        for (&(probe, callee), sub) in &f.callsites {
            h.word(u64::from(probe)).word(callee);
            nodes += walk(h, sub);
        }
        nodes
    }
    let mut h = Fnv::new();
    let nodes = (profile.funcs.iter())
        .map(|(&guid, f)| walk(h.word(guid), f))
        .sum();
    (nodes, h.0)
}

/// One JSON object per function record, every field.
fn func_json(f: &FuncMatch) -> String {
    let status = match &f.status {
        FuncMatchStatus::Renamed {
            from_guid,
            from,
            similarity,
        } => format!(
            "{{\"renamed\": {{\"from_guid\": {from_guid}, \"from\": \"{from}\", \
             \"similarity\": {similarity:?}}}}}"
        ),
        other => format!("\"{}\"", other.tag()),
    };
    format!(
        "{{\"guid\": {}, \"name\": \"{}\", \"status\": {status}, \"matched\": {}, \
         \"fuzzy\": {}, \"dropped\": {}, \"ambiguous\": {}, \"two_to_one\": {}, \
         \"anchor_drift\": {}, \"old_weight\": {}, \"recovered_weight\": {}}}",
        f.guid,
        f.name,
        f.matched_probes,
        f.fuzzy_probes,
        f.dropped_probes,
        f.ambiguous_anchors,
        f.two_to_one,
        f.anchor_drift,
        f.old_weight,
        f.recovered_weight
    )
}

fn outcome_json(label: &str, o: &MatchOutcome) -> String {
    let (nodes, hash) = fingerprint(&o.profile);
    let funcs: Vec<String> = o
        .funcs
        .iter()
        .map(|f| format!("      {}", func_json(f)))
        .collect();
    golden::object(&[
        ("case", format!("\"{label}\"")),
        (
            "profile",
            format!("{{\"nodes\": {nodes}, \"fnv1a\": \"{hash:#018x}\"}}"),
        ),
        ("funcs", format!("[\n{}\n    ]", funcs.join(",\n"))),
    ])
}

#[test]
fn every_match_outcome_matches_golden() {
    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    let mut rows = Vec::new();
    for workload in &workloads {
        let w = workload.scaled(SCALE);
        let profile = untrimmed_probe_profile(&w).unwrap();
        for (scenario, source) in rebuilds(&w) {
            let module = prepared_module(&source, &w.name, true).unwrap();
            let outcome = match_stale_profile(&module, &profile, &MatchConfig::default());
            rows.push(outcome_json(&format!("{}/{scenario}", w.name), &outcome));
        }
    }
    assert_eq!(rows.len(), 6 * 12);
    golden::check(
        "tests/golden/stale_match.json",
        golden::array(&rows),
        "a MatchOutcome drifted from the golden; re-bless only for an intended change",
    );
}
