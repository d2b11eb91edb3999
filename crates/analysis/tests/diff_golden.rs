//! Golden test pinning the `csspgo_lint --json` report (`csspgo-diff-v1`):
//! the exact bytes a fixed program + synthetic profile produce across the
//! three interesting drift classes, through the same `Analyzer::judge` the
//! tool's three modes call. Format changes must be deliberate (`BLESS=1
//! cargo test -p csspgo-analysis --test diff_golden` re-blesses).
//!
//! Everything feeding the report is deterministic: GUIDs are name hashes,
//! the profile is synthesized (no simulation), and fractions are rounded
//! to four decimals at construction.

use csspgo_analysis::{Analyzer, DiffReport, Policy};
use csspgo_core::profile::ProbeProfile;
use csspgo_ir::probe::anchor_sequence;
use csspgo_ir::Module;
use csspgo_workloads::drift::{self, Mutator};

#[path = "../../../tests/common/golden.rs"]
mod golden;

/// The fixture: `mid` carries two call anchors (enough for rename
/// detection), `serve` exercises interval mapping around a loop.
const SRC: &str = r#"
fn leaf(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn mid(x) {
    let a = leaf(x);
    let b = leaf(x + 1);
    return a + b;
}
fn serve(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + mid(i);
        i = i + 1;
    }
    return s;
}
"#;

fn probed(src: &str) -> Module {
    let mut m = csspgo_lang::compile(src, "golden").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    m
}

fn synthetic_profile(module: &Module) -> ProbeProfile {
    let mut p = ProbeProfile::default();
    for f in &module.functions {
        let fp = p.funcs.entry(f.guid).or_default();
        fp.checksum = f.probe_checksum.unwrap();
        fp.entry = 1000;
        for a in anchor_sequence(module, f.id) {
            fp.record_sum(a.index, 100 + a.index as u64);
            if let Some(callee) = a.callee {
                fp.callsite_mut(a.index, callee).entry = 10;
            }
        }
        p.names.insert(f.guid, f.name.clone());
    }
    p
}

#[test]
fn diff_report_json_matches_golden() {
    let m_old = probed(SRC);
    let profile = synthetic_profile(&m_old);

    let mut analyzer = Analyzer::new(Policy::default());
    let mut report = DiffReport::new();
    let scenarios = [
        (
            "insert_body_comments",
            Mutator::InsertBodyComments.apply(SRC, &[]),
        ),
        ("change_cfg", drift::change_cfg(SRC)),
        // Renames `mid` — the function with call anchors — like
        // the `rename` scenario of `drift::SCENARIOS` picks its
        // best-connected target.
        (
            "rename",
            Mutator::RenameFunctions.apply(SRC, &["leaf", "serve"]),
        ),
    ];
    for (name, drifted) in scenarios {
        let module = probed(&drifted);
        report
            .scenarios
            .push(analyzer.judge(name, "golden", &module, &profile));
    }
    // The fixture must exercise all three outcomes the report classifies.
    for sr in &report.scenarios {
        assert_eq!(
            sr.inference_quality.pf_findings_inferred, 0,
            "{}: MCF-inferred profiles are flow-clean by construction",
            sr.scenario
        );
        let p = &sr.provenance;
        assert!(
            p.sampled + p.stale_matched + p.inferred + p.reconstructed > 0,
            "{}: provenance tags must survive annotation end-to-end",
            sr.scenario
        );
    }
    // CFG drift forces the matcher (and then inference) to carry weight,
    // and the tags must say so.
    let cfg_prov = &report.scenarios[1].provenance;
    assert!(
        cfg_prov.stale_matched > 0,
        "change_cfg weight must be tagged stale-matched"
    );
    assert!(
        cfg_prov.inferred > 0,
        "change_cfg must carry solver-inferred weight"
    );
    assert!(
        report.scenarios[0].checksum_matched == 3,
        "comment drift is transparent"
    );
    assert!(report.scenarios[1].recovered > 0, "change_cfg must recover");
    assert!(report.scenarios[2].renamed == 1, "mid_v2 must be adopted");

    golden::check(
        "tests/golden/diff_report.json",
        report.to_json(),
        "csspgo_lint JSON drifted from the golden report; re-bless only for an intended change",
    );
}
