//! Bit-identity oracle for the PGO cycle: every [`PgoOutcome`] field of all
//! five variants (the instrumented one under both counter
//! placements), on a fresh build and on a `change_cfg`-drifted one with
//! stale recovery and MCF inference, pinned in
//! `tests/golden/pgo_outcomes.json` (re-bless with `BLESS=1 cargo test`).

use csspgo::core::inference::InferenceMode;
use csspgo::core::pipeline::{
    run_pgo_cycle, run_pgo_cycle_drifted, PgoOutcome, PgoVariant, PipelineConfig,
};
use csspgo::core::stalematch::StaleMatching;
use csspgo::opt::instrument::Placement;
use csspgo::workloads::drift;
use std::fmt::Write as _;
use std::path::PathBuf;

fn config(placement: Placement, drifted: bool) -> PipelineConfig {
    let mut b = PipelineConfig::builder()
        .sample_period(101)
        .placement(placement);
    if drifted {
        b = b
            .stale_matching(StaleMatching::Recover)
            .inference(InferenceMode::Mcf);
    }
    b.build().expect("valid test config")
}

/// One JSON object holding every field of `o`.
fn outcome_json(label: &str, o: &PgoOutcome) -> String {
    let run = |s: &csspgo::sim::RunStats| {
        format!(
            "{{\"cycles\": {}, \"instructions\": {}, \"taken_branches\": {}, \"mispredicts\": {}, \
             \"icache_misses\": {}, \"calls\": {}, \"samples\": {}}}",
            s.cycles,
            s.instructions,
            s.taken_branches,
            s.mispredicts,
            s.icache_misses,
            s.calls,
            s.samples
        )
    };
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
    let mut out = String::new();
    writeln!(out, "  {{").unwrap();
    writeln!(out, "    \"case\": \"{label}\",").unwrap();
    writeln!(out, "    \"variant\": \"{}\",", o.variant).unwrap();
    writeln!(out, "    \"profiling\": {},", run(&o.profiling)).unwrap();
    writeln!(out, "    \"eval\": {},", run(&o.eval)).unwrap();
    writeln!(out, "    \"eval_result_hash\": {},", o.eval_result_hash).unwrap();
    writeln!(out, "    \"sections\": {},", sections(&o.sections)).unwrap();
    writeln!(
        out,
        "    \"profiling_sections\": {},",
        sections(&o.profiling_sections)
    )
    .unwrap();
    writeln!(
        out,
        "    \"annotate_stats\": {{\"annotated\": {}, \"stale_dropped\": {}, \"stale_recovered\": {}, \
         \"replayed_inlines\": {}, \"inference\": {{\"functions\": {}, \"counts_adjusted\": {}, \
         \"flow_moved\": {}, \"residual_cost\": {}}}, \"provenance\": {{\"sampled\": {}, \
         \"stale_matched\": {}, \"inferred\": {}, \"reconstructed\": {}}}}},",
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
    )
    .unwrap();
    writeln!(
        out,
        "    \"context_nodes_before_trim\": {},",
        o.context_nodes_before_trim
    )
    .unwrap();
    writeln!(
        out,
        "    \"context_nodes_after_trim\": {},",
        o.context_nodes_after_trim
    )
    .unwrap();
    writeln!(out, "    \"plan_len\": {},", o.plan_len).unwrap();
    writeln!(out, "    \"counter_sites\": {},", o.counter_sites).unwrap();
    writeln!(
        out,
        "    \"infer_stats\": {{\"recovered\": {}, \"failed\": {}}},",
        o.infer_stats.recovered, o.infer_stats.failed
    )
    .unwrap();
    writeln!(out, "    \"quality_counts\": [{}]", quality.join(", ")).unwrap();
    write!(out, "  }}").unwrap();
    out
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
    let json = format!("[\n{}\n]\n", rows.join(",\n"));

    let golden: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "pgo_outcomes.json",
    ]
    .iter()
    .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &json).expect("bless golden");
        return;
    }
    let pinned = std::fs::read_to_string(&golden)
        .expect("golden missing — run `BLESS=1 cargo test` to create it");
    assert_eq!(
        json, pinned,
        "a PgoOutcome drifted from the golden; if intentional, re-bless \
         with `BLESS=1 cargo test`"
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
