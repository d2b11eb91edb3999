//! Bit-identity oracle for the PGO cycle: every [`PgoOutcome`] field of all
//! five variants (the instrumented one under both counter
//! placements), on a fresh build and on a `change_cfg`-drifted one with
//! stale recovery and MCF inference, pinned in
//! `tests/golden/pgo_outcomes.json` (`BLESS=1 cargo test --test pgo_outcomes`).

use csspgo::core::inference::InferenceMode;
use csspgo::core::pipeline::{
    run_pgo_cycle, run_pgo_cycle_drifted, PgoOutcome, PgoVariant, PipelineConfig,
};
use csspgo::core::stalematch::StaleMatching;
use csspgo::opt::instrument::Placement;
use csspgo::workloads::drift;

mod common;
#[path = "common/golden.rs"]
mod golden;

fn config(placement: Placement, drifted: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        sample_period: 101,
        ..PipelineConfig::default()
    };
    cfg.instrument.placement = placement;
    if drifted {
        cfg.annotate.stale_matching = StaleMatching::Recover;
        cfg.annotate.inference = InferenceMode::Mcf;
    }
    cfg.validate().expect("valid test config");
    cfg
}

/// One JSON object holding every field of `o`.
fn outcome_json(label: &str, o: &PgoOutcome) -> String {
    let sections = |s: &csspgo::codegen::SectionSizes| {
        format!(
            "{{\"text\": {}, \"debug_line\": {}, \"pseudo_probe\": {}}}",
            s.text, s.debug_line, s.pseudo_probe
        )
    };
    let mut quality: Vec<(u64, u32, u64)> = o
        .quality_counts
        .iter()
        .flat_map(|(guid, blocks)| blocks.iter().map(move |(b, c)| (*guid, b.0, *c)))
        .collect();
    quality.sort_unstable();
    let quality: Vec<String> = quality
        .iter()
        .map(|(g, b, c)| format!("[{g}, {b}, {c}]"))
        .collect();
    let a = &o.annotate_stats;
    golden::object(&[
        ("case", format!("\"{label}\"")),
        ("variant", format!("\"{}\"", o.variant)),
        ("profiling", common::run_stats_json(&o.profiling)),
        ("eval", common::run_stats_json(&o.eval)),
        ("eval_result_hash", o.eval_result_hash.to_string()),
        ("sections", sections(&o.sections)),
        ("profiling_sections", sections(&o.profiling_sections)),
        (
            "annotate_stats",
            format!(
                "{{\"annotated\": {}, \"stale_dropped\": {}, \"stale_recovered\": {}, \
                 \"replayed_inlines\": {}, \"inference\": {{\"functions\": {}, \
                 \"counts_adjusted\": {}, \"flow_moved\": {}, \"residual_cost\": {}}}, \
                 \"provenance\": {{\"sampled\": {}, \"stale_matched\": {}, \"inferred\": {}, \
                 \"reconstructed\": {}}}}}",
                a.annotated,
                a.stale_dropped,
                a.stale_recovered,
                a.replayed_inlines,
                a.inference.functions,
                a.inference.counts_adjusted,
                a.inference.flow_moved,
                a.inference.residual_cost,
                a.provenance.sampled,
                a.provenance.stale_matched,
                a.provenance.inferred,
                a.provenance.reconstructed
            ),
        ),
        (
            "context_nodes_before_trim",
            o.context_nodes_before_trim.to_string(),
        ),
        (
            "context_nodes_after_trim",
            o.context_nodes_after_trim.to_string(),
        ),
        ("plan_len", o.plan_len.to_string()),
        ("counter_sites", o.counter_sites.to_string()),
        (
            "infer_stats",
            format!(
                "{{\"recovered\": {}, \"failed\": {}}}",
                o.infer_stats.recovered, o.infer_stats.failed
            ),
        ),
        ("quality_counts", format!("[{}]", quality.join(", "))),
    ])
}

#[test]
fn every_variant_outcome_matches_golden() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let drifted_source = drift::change_cfg(&w.source);

    let mut rows = Vec::new();
    for drifted in [false, true] {
        let mut cases: Vec<(PgoVariant, Placement)> = PgoVariant::ALL
            .iter()
            .map(|&v| (v, Placement::Full))
            .collect();
        cases.push((PgoVariant::Instr, Placement::SpanningTree));
        for (variant, placement) in cases {
            let cfg = config(placement, drifted);
            let outcome = if drifted {
                run_pgo_cycle_drifted(&w, variant, &cfg, &drifted_source)
            } else {
                run_pgo_cycle(&w, variant, &cfg)
            }
            .unwrap_or_else(|e| panic!("{variant} ({placement:?}, drifted={drifted}): {e}"));
            let label = format!(
                "{}/{:?}/{}",
                if drifted { "change_cfg" } else { "fresh" },
                variant,
                if placement == Placement::SpanningTree {
                    "spanning_tree"
                } else {
                    "full"
                }
            );
            rows.push(outcome_json(&label, &outcome));
        }
    }
    golden::check(
        "tests/golden/pgo_outcomes.json",
        golden::array(&rows),
        "a PgoOutcome drifted from the golden; re-bless only for an intended change",
    );
}

/// A [`PgoOutcome`] is a pure function of the cycle's inputs: it holds no
/// wall-clock field, so two runs compare equal as whole values.
#[test]
fn back_to_back_cycles_are_equal() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let drifted_source = drift::change_cfg(&w.source);
    let cfg = config(Placement::Full, true);
    for variant in PgoVariant::ALL {
        let run = || run_pgo_cycle_drifted(&w, variant, &cfg, &drifted_source).unwrap();
        assert_eq!(run(), run(), "{variant}");
    }
}

/// `change_cfg` moves the probe indices of the calls the pre-inliner chose
/// to inline. The decisions travel in the profile's nested call sites,
/// which the stale matcher re-keys onto the new probes, so the drifted full
/// build still inlines them: as many replays and as few calls as the fresh
/// full build.
#[test]
fn a_drifted_full_build_inlines_what_the_pre_inliner_chose() {
    let w = csspgo::workloads::ad_retriever().scaled(0.1);
    let full = PgoVariant::CsspgoFull;
    let fresh = run_pgo_cycle(&w, full, &config(Placement::Full, false)).unwrap();
    let drifted_source = drift::change_cfg(&w.source);
    let cfg = config(Placement::Full, true);
    let drifted = run_pgo_cycle_drifted(&w, full, &cfg, &drifted_source).unwrap();
    assert!(fresh.annotate_stats.replayed_inlines > 0);
    assert_eq!(
        drifted.annotate_stats.replayed_inlines,
        fresh.annotate_stats.replayed_inlines
    );
    assert_eq!(drifted.eval.calls, fresh.eval.calls);
}
