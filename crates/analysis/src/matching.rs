//! Stale-profile matching lints (`SM001`, `SM004`, `SM005`).
//!
//! The matching *algorithm* lives in [`csspgo_core::stalematch`] so the
//! annotation pipeline can consume recovered counts without a dependency
//! cycle (this crate depends on `csspgo-core`, not the other way around).
//! This module turns what a [`MatchOutcome`] says about the *input* into
//! findings:
//!
//! * `SM001` — a call-anchor label repeats on one side of an alignment, so
//!   the match between those anchors is positional, not exact.
//! * `SM004` — the checksum matches but call-anchor targets changed: the
//!   CFG *shape* hash cannot see a call retarget, so counts silently
//!   describe calls to a different function.
//! * `SM005` — a rename was adopted below the matcher's high-confidence
//!   similarity, [`STRONG_RENAME_SIMILARITY`].
//!
//! What an outcome says about the *matcher* — the mapping is injective and
//! creates no weight — is asserted in `match_stale_profile` itself and held
//! by `tests/match_soundness.rs`.

use crate::diag::{lint, Policy, Report};
use csspgo_core::stalematch::{FuncMatchStatus, MatchOutcome, STRONG_RENAME_SIMILARITY};

/// Emits the `SM` lints for a match outcome.
pub(crate) fn emit_match_lints(
    policy: &Policy,
    unit: &str,
    outcome: &MatchOutcome,
    report: &mut Report,
) {
    for f in &outcome.funcs {
        let func = Some(f.name.clone());
        if f.ambiguous_anchors > 0 {
            report.emit(
                policy,
                lint("SM001"),
                unit,
                func.clone(),
                None,
                format!(
                    "{} repeated call-anchor label(s): alignment is positional there",
                    f.ambiguous_anchors
                ),
            );
        }
        if f.anchor_drift {
            report.emit(
                policy,
                lint("SM004"),
                unit,
                func.clone(),
                None,
                "checksum matches but call-anchor targets changed (CFG-shape hash \
                 cannot see a call retarget)"
                    .into(),
            );
        }
        if let FuncMatchStatus::Renamed {
            from, similarity, ..
        } = &f.status
        {
            if *similarity < STRONG_RENAME_SIMILARITY {
                report.emit(
                    policy,
                    lint("SM005"),
                    unit,
                    func.clone(),
                    None,
                    format!(
                        "adopted rename {from} -> {} at similarity {similarity:.2} \
                         (high-confidence threshold {STRONG_RENAME_SIMILARITY:.2})",
                        f.name
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_core::profile::ProbeProfile;
    use csspgo_core::stalematch::{match_stale_profile, MatchConfig};
    use csspgo_ir::probe::anchor_sequence;
    use csspgo_ir::Module;

    /// Matches `profile` against `module` and lints the outcome.
    fn analyze_stale_match(
        policy: &Policy,
        unit: &str,
        module: &Module,
        profile: &ProbeProfile,
        report: &mut Report,
    ) -> MatchOutcome {
        let outcome = match_stale_profile(module, profile, &MatchConfig::default());
        emit_match_lints(policy, unit, &outcome, report);
        outcome
    }

    fn probed(src: &str) -> Module {
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::probes::run(&mut m);
        m
    }

    fn profile_for(module: &Module) -> ProbeProfile {
        let mut p = ProbeProfile::default();
        for f in &module.functions {
            let fp = p.funcs.entry(f.guid).or_default();
            fp.checksum = f.probe_checksum.unwrap();
            fp.entry = 100;
            for a in anchor_sequence(module, f.id) {
                fp.record_sum(a.index, 10);
                if let Some(callee) = a.callee {
                    fp.callsite_mut(a.index, callee).entry = 10;
                }
            }
            p.names.insert(f.guid, f.name.clone());
        }
        p
    }

    const SRC: &str = r#"
fn a(x) { return x + 1; }
fn b(x) { return x + 2; }
fn f(x) {
    let u = a(x);
    let v = a(u);
    let w = b(v);
    return w;
}
"#;

    #[test]
    fn clean_profile_emits_nothing_under_deny_all() {
        let m = probed(SRC);
        let p = profile_for(&m);
        let mut report = Report::new();
        let out = analyze_stale_match(&Policy::deny_all(), "u", &m, &p, &mut report);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        assert_eq!(out.count("checksum-match"), 3);
    }

    #[test]
    fn drifted_profile_reports_ambiguity() {
        let m_old = probed(SRC);
        let p = profile_for(&m_old);
        // CFG drift in `f` (extra branch) forces a real alignment; the
        // repeated `a` label is ambiguous.
        let drifted = SRC.replace(
            "let u = a(x);",
            "if (x > 1000000) { return 0; }\n    let u = a(x);",
        );
        let m_new = probed(&drifted);
        let mut report = Report::new();
        analyze_stale_match(&Policy::default(), "u", &m_new, &p, &mut report);
        assert!(!report.by_lint("SM001").is_empty(), "ambiguous `a` label");
        assert!(!report.has_denied());
    }

    #[test]
    fn call_retarget_fires_anchor_drift() {
        // `a`/`b` have identical CFG shapes, so swapping the callee keeps
        // f's checksum while changing the call target.
        let m_old = probed(SRC);
        let p = profile_for(&m_old);
        let m_new = probed(&SRC.replace("let w = b(v);", "let w = a(v);"));
        assert_eq!(
            m_old.functions[2].probe_checksum, m_new.functions[2].probe_checksum,
            "retarget must be checksum-invisible for this test to bite"
        );
        let mut report = Report::new();
        analyze_stale_match(&Policy::default(), "u", &m_new, &p, &mut report);
        assert!(!report.by_lint("SM004").is_empty(), "retarget undetected");
    }

    #[test]
    fn low_confidence_rename_fires_sm005() {
        let m_old = probed(SRC);
        let p = profile_for(&m_old);
        // Rename f -> f2 *and* drift its body: the anchor sequences still
        // overlap enough to adopt, but below the high-confidence bar.
        let renamed = SRC
            .replace("fn f(x)", "fn f2(x)")
            .replace("let w = b(v);", "let w = b(v);\n    let z = b(w);");
        let m_new = probed(&renamed);
        let mut report = Report::new();
        let out = analyze_stale_match(&Policy::default(), "u", &m_new, &p, &mut report);
        assert_eq!(out.count("renamed"), 1, "{:#?}", out.funcs);
        assert!(!report.by_lint("SM005").is_empty());
    }
}
