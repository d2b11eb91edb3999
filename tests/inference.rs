//! Integration tests for min-cost-flow profile inference (the "profi"
//! pass, §III.C): inferred profiles are flow-clean by construction, the
//! solver declines no function of any shipped program, repairing a drifted
//! profile beats leaving its counts raw, and stale recovery feeds inference
//! end to end.

use csspgo::analysis::{Analyzer, Policy};
use csspgo::core::annotate::{csspgo_annotate, AnnotateConfig};
use csspgo::core::inference::InferenceMode;
use csspgo::core::pipeline::{
    prepared_module, run_pgo_cycle, run_pgo_cycle_drifted, PgoVariant, PipelineConfig,
};
use csspgo::core::stalematch::StaleMatching;
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

fn deny_all() -> Policy {
    let mut policy = Policy::default();
    policy.deny.push("all".to_string());
    policy
}

/// The "clean by construction" gate: a profile annotated through MCF
/// inference — including counts salvaged from drifted sources by stale
/// recovery — must carry zero `PF` findings under `--deny all`.
#[test]
fn mcf_inferred_profiles_are_flow_clean_by_construction() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let profile = collect_probe_profile(&w, &cfg());
    let mut analyzer = Analyzer::new(deny_all());

    let scenarios = [
        ("clean", w.source.clone()),
        ("change_cfg", drift::change_cfg(&w.source)),
        (
            "insert_statement",
            Mutator::InsertStatement(1).apply(&w.source, &[]),
        ),
        (
            "delete_statement",
            Mutator::DeleteStatement(1).apply(&w.source, &[]),
        ),
    ];
    for (name, src) in scenarios {
        let mut module = prepared_module(&src, &w.name, true).unwrap();
        let config = AnnotateConfig {
            inline_budget: 0,
            stale_matching: StaleMatching::Recover,
            inference: InferenceMode::Mcf,
        };
        csspgo_annotate(&mut module, &profile, None, &config);
        analyzer.analyze_flow(&format!("inference/{name}"), &module);
    }
    let report = analyzer.into_report();
    assert!(
        !report.has_denied(),
        "inferred profiles must be flow-clean, found:\n{}",
        report.render_human()
    );
    assert!(
        report.diagnostics.is_empty(),
        "no PF findings of any severity expected post-inference"
    );
}

/// Without inference, the same salvaged drift counts are *not* clean —
/// the gate above is earned by the MCF pass, not vacuous.
#[test]
fn recovered_counts_are_dirty_without_inference() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let profile = collect_probe_profile(&w, &cfg());
    let mut module = prepared_module(&drift::change_cfg(&w.source), &w.name, true).unwrap();
    let config = AnnotateConfig {
        inline_budget: 0,
        stale_matching: StaleMatching::Recover,
        inference: InferenceMode::Off,
    };
    csspgo_annotate(&mut module, &profile, None, &config);
    let mut analyzer = Analyzer::new(deny_all());
    analyzer.analyze_flow("inference/raw-recovered", &module);
    let report = analyzer.into_report();
    assert!(
        !report.diagnostics.is_empty(),
        "salvaged change_cfg counts should violate flow conservation pre-inference"
    );
}

/// The measured fact that makes "a declined function keeps its raw counts"
/// invisible to every golden and figure: on compiled programs the solver
/// never declines — every MiniLang function has a reachable return.
#[test]
fn no_function_of_any_workload_is_declined() {
    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    let mut recover = cfg();
    recover.annotate.stale_matching = StaleMatching::Recover;
    for w in workloads {
        let w = w.scaled(0.05);
        let drifted = drift::change_cfg(&w.source);
        let outcomes = [
            ("AutoFDO", run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg())),
            (
                "probe-only",
                run_pgo_cycle(&w, PgoVariant::CsspgoProbeOnly, &cfg()),
            ),
            ("full", run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg())),
            (
                "full, change_cfg + recover",
                run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &recover, &drifted),
            ),
        ];
        for (row, outcome) in outcomes {
            let inf = outcome.unwrap().annotate_stats.inference;
            assert!(inf.functions > 0, "{} / {row}: inference must run", w.name);
            assert_eq!(inf.declined, 0, "{} / {row}", w.name);
        }
    }
}

/// On a drifted profile salvaged by stale recovery, MCF inference must
/// retain at least as much of the profile's value (fewer eval cycles) as
/// annotating the salvaged counts raw — which is also what a declined
/// function gets.
#[test]
fn mcf_retains_at_least_as_much_as_raw_counts_under_drift() {
    let w = csspgo::workloads::ad_retriever().scaled(0.25);
    let drifted = drift::change_cfg(&w.source);
    let mut outcomes = Vec::new();
    for mode in [InferenceMode::Mcf, InferenceMode::Off] {
        let mut config = cfg();
        config.annotate.stale_matching = StaleMatching::Recover;
        config.annotate.inference = mode;
        outcomes
            .push(run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &config, &drifted).unwrap());
    }
    let (mcf, raw) = (&outcomes[0], &outcomes[1]);
    assert!(
        mcf.eval.cycles <= raw.eval.cycles,
        "MCF inference must not lose to raw counts: {} vs {} cycles",
        mcf.eval.cycles,
        raw.eval.cycles
    );
    // Inference steers optimization; it must never change semantics.
    assert_eq!(mcf.eval_result_hash, raw.eval_result_hash);
}

/// Stale recovery → inference, end to end through the pipeline: the
/// drifted cycle must actually salvage counts AND run inference over
/// them, with the stats threaded into the outcome.
#[test]
fn stale_recovery_feeds_inference_end_to_end() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let drifted = drift::change_cfg(&w.source);
    let mut config = cfg();
    config.annotate.stale_matching = StaleMatching::Recover;
    config.annotate.inference = InferenceMode::Mcf;
    let o = run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &config, &drifted).unwrap();
    assert!(
        o.annotate_stats.stale_recovered > 0,
        "change_cfg drift must trigger recovery"
    );
    let inf = &o.annotate_stats.inference;
    assert!(inf.functions > 0, "inference must run over hot functions");
    assert!(
        inf.counts_adjusted > 0,
        "salvaged counts are inconsistent; MCF must adjust some"
    );
    assert!(inf.flow_moved > 0, "adjustments must move flow");
}
