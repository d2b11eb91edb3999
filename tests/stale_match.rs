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
use csspgo::core::profile::{ProbeFuncProfile, ProbeProfile};
use csspgo::core::stalematch::{
    match_stale_profile, FuncMatch, FuncMatchStatus, MatchConfig, MatchOutcome,
};
use csspgo::core::Workload;
use csspgo::workloads::drift::{self, SCENARIOS};
use std::fmt::Write as _;
use std::path::PathBuf;

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

/// FNV-1a, 64 bit, over a profile's counts: one canonical (`BTreeMap`
/// order) walk of each function's guid, then per (sub-)profile its checksum,
/// entry, probe counts and call-site keys. No totals: they follow from the
/// counts.
struct Fingerprint {
    hash: u64,
    nodes: usize,
}

impl Fingerprint {
    fn of(profile: &ProbeProfile) -> Self {
        let mut fp = Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
            nodes: 0,
        };
        for (&guid, f) in &profile.funcs {
            fp.mix(guid);
            fp.walk(f);
        }
        fp
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn walk(&mut self, f: &ProbeFuncProfile) {
        self.nodes += 1;
        self.mix(f.checksum);
        self.mix(f.entry);
        self.mix(f.probes.len() as u64);
        for (&probe, &count) in &f.probes {
            self.mix(u64::from(probe));
            self.mix(count);
        }
        self.mix(f.callsites.len() as u64);
        for (&(probe, callee), sub) in &f.callsites {
            self.mix(u64::from(probe));
            self.mix(callee);
            self.walk(sub);
        }
    }
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
    let print = Fingerprint::of(&o.profile);
    let funcs: Vec<String> = o
        .funcs
        .iter()
        .map(|f| format!("      {}", func_json(f)))
        .collect();
    let mut out = String::new();
    writeln!(out, "  {{").unwrap();
    writeln!(out, "    \"case\": \"{label}\",").unwrap();
    writeln!(
        out,
        "    \"profile\": {{\"nodes\": {}, \"fnv1a\": \"{:#018x}\"}},",
        print.nodes, print.hash
    )
    .unwrap();
    writeln!(out, "    \"funcs\": [\n{}\n    ]", funcs.join(",\n")).unwrap();
    write!(out, "  }}").unwrap();
    out
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
    let json = format!("[\n{}\n]\n", rows.join(",\n"));

    let golden: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "stale_match.json",
    ]
    .iter()
    .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &json).expect("bless golden");
        return;
    }
    let pinned = std::fs::read_to_string(&golden)
        .expect("golden missing — run `BLESS=1 cargo test --test stale_match` to create it");
    assert_eq!(
        json, pinned,
        "a MatchOutcome drifted from the golden; if intentional, re-bless \
         with `BLESS=1 cargo test --test stale_match`"
    );
}
