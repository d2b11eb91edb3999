//! Integration tests for the paper's source-drift story (§III.A).

use csspgo::core::pipeline::{
    prepared_module, run_pgo_cycle, run_pgo_cycle_drifted, PgoVariant, PipelineConfig,
};
use csspgo::core::stalematch::{match_stale_profile, MatchConfig, StaleMatching};
use csspgo::workloads::drift::{self, Mutator};

mod common;
use common::collect_probe_profile;

fn cfg() -> PipelineConfig {
    let cfg = PipelineConfig {
        sample_period: 101,
        ..PipelineConfig::default()
    };
    cfg.validate().expect("valid test config");
    cfg
}

#[test]
fn csspgo_is_immune_to_comment_drift() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let drifted = Mutator::InsertBodyComments.apply(&w.source, &[]);
    let clean = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg()).unwrap();
    let after = run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &cfg(), &drifted).unwrap();
    assert_eq!(
        after.annotate_stats.stale_total(),
        0,
        "comments must not look stale"
    );
    assert_eq!(
        clean.eval.cycles, after.eval.cycles,
        "CFG checksums make CSSPGO drift-transparent"
    );
    assert_eq!(clean.eval_result_hash, after.eval_result_hash);
}

#[test]
fn autofdo_profile_degrades_under_comment_drift() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let drifted = Mutator::InsertBodyComments.apply(&w.source, &[]);
    let clean = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg()).unwrap();
    let after = run_pgo_cycle_drifted(&w, PgoVariant::AutoFdo, &cfg(), &drifted).unwrap();
    // The line-shifted profile mis-applies; the paper observed ~8% loss.
    assert!(
        after.eval.cycles > clean.eval.cycles,
        "expected a drift penalty: clean {} vs drifted {}",
        clean.eval.cycles,
        after.eval.cycles
    );
    assert_eq!(clean.eval_result_hash, after.eval_result_hash);
}

#[test]
fn csspgo_rejects_cfg_changing_drift_via_checksums() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let drifted = drift::change_cfg(&w.source);
    let after = run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &cfg(), &drifted).unwrap();
    assert!(
        after.annotate_stats.stale_total() > 0,
        "CFG change must be detected as a checksum mismatch"
    );
    assert_eq!(
        after.annotate_stats.stale_recovered, 0,
        "stale matching defaults to off"
    );
}

#[test]
fn stale_matching_recovers_cfg_drift_counts() {
    // The PR 5 acceptance bar: on a shipped CFG-changing drift, the
    // matcher must restore at least 60% of the weight that the checksum
    // gate would otherwise drop, end to end on a *collected* profile.
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let drifted = drift::change_cfg(&w.source);

    // Matcher-level weight check on the real collected profile.
    let profile = collect_probe_profile(&w, &cfg());
    let module = prepared_module(&drifted, &w.name, true).unwrap();
    let outcome = match_stale_profile(&module, &profile, &MatchConfig::default());
    assert!(
        outcome.stale_old_weight() > 0,
        "change_cfg must invalidate checksums"
    );
    assert!(
        outcome.stale_recovered_fraction() >= 0.6,
        "recovered only {:.1}% of stale weight",
        outcome.stale_recovered_fraction() * 100.0
    );

    // Pipeline-level check: the recover path consumes the salvaged counts.
    let mut recover_cfg = cfg();
    recover_cfg.annotate.stale_matching = StaleMatching::Recover;
    recover_cfg.validate().expect("valid test config");
    let off = run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &cfg(), &drifted).unwrap();
    let rec = run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &recover_cfg, &drifted).unwrap();
    assert!(rec.annotate_stats.stale_recovered > 0, "nothing salvaged");
    assert!(
        rec.annotate_stats.stale_dropped < off.annotate_stats.stale_dropped,
        "recovery must shrink the dropped set ({} vs {})",
        rec.annotate_stats.stale_dropped,
        off.annotate_stats.stale_dropped
    );
    // Annotation counts steer optimization, never semantics.
    assert_eq!(off.eval_result_hash, rec.eval_result_hash);
}
