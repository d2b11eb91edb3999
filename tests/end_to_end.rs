//! End-to-end integration tests: every PGO variant, one small service,
//! cross-checked for behavioural equivalence and the paper's quality
//! ordering.

use csspgo::core::overlap::program_overlap;
use csspgo::core::pipeline::{
    optimized_build, prepared_module, run_pgo_cycle, BuildProfile, PgoOutcome, PgoVariant,
    PipelineConfig,
};
use csspgo::core::profile::{FlatProfile, ProbeProfile};
use csspgo::core::Workload;
use csspgo::workloads::{client_compiler, server_workloads};
use std::collections::HashMap;

fn service() -> Workload {
    let src = r#"
global table[512];
fn weigh(x, mode) {
    if (mode == 1) {
        if (x > 0) { return x * 3; }
        return 1;
    }
    if (x > 40) { return x - 40; }
    return 2;
}
fn pass_a(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weigh(table[i % 512], 1);
        i = i + 1;
    }
    return s;
}
fn pass_b(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weigh(table[i % 512], 2);
        i = i + 1;
    }
    return s;
}
fn main(n) {
    if (n % 13 == 0) {
        // rare bulky path
        let a = pass_a(n) * 3;
        let b = pass_b(n) * 5;
        let c = a + b + n * 7;
        return c % 1000003;
    }
    return pass_a(n) + pass_b(n);
}
"#;
    let mut w = Workload::new(
        "service",
        src,
        "main",
        (0..20).map(|i| vec![200 + i]).collect(),
        (0..20).map(|i| vec![210 + i]).collect(),
    );
    w.setup = vec![(
        "table".into(),
        (0..512).map(|i| (i * 31 + 7) % 120 - 20).collect(),
    )];
    w
}

fn run_all() -> HashMap<PgoVariant, PgoOutcome> {
    let w = service();
    let cfg = PipelineConfig {
        sample_period: 67,
        ..PipelineConfig::default()
    };
    cfg.validate().expect("valid test config");
    PgoVariant::ALL
        .iter()
        .map(|&v| (v, run_pgo_cycle(&w, v, &cfg).expect("cycle runs")))
        .collect()
}

#[test]
fn all_variants_agree_on_program_behaviour() {
    let o = run_all();
    let h = o[&PgoVariant::O2].eval_result_hash;
    for v in PgoVariant::ALL {
        assert_eq!(o[&v].eval_result_hash, h, "{v} changed behaviour");
    }
}

#[test]
fn sampling_variants_produce_profiles_and_annotations() {
    let o = run_all();
    for v in [
        PgoVariant::AutoFdo,
        PgoVariant::CsspgoProbeOnly,
        PgoVariant::CsspgoFull,
    ] {
        assert!(o[&v].profiling.samples > 0, "{v} sampled nothing");
        assert!(o[&v].annotate_stats.annotated > 0, "{v} annotated nothing");
        assert_eq!(
            o[&v].annotate_stats.stale_total(),
            0,
            "{v} spuriously stale"
        );
    }
}

#[test]
fn every_pgo_variant_beats_plain_o2() {
    let o = run_all();
    let base = o[&PgoVariant::O2].eval.cycles;
    for v in [
        PgoVariant::Instr,
        PgoVariant::AutoFdo,
        PgoVariant::CsspgoProbeOnly,
        PgoVariant::CsspgoFull,
    ] {
        assert!(
            o[&v].eval.cycles < base,
            "{v} ({}) should beat O2 ({base})",
            o[&v].eval.cycles
        );
    }
}

#[test]
fn probe_metadata_only_in_probed_builds() {
    let o = run_all();
    assert!(o[&PgoVariant::CsspgoFull].profiling_sections.pseudo_probe > 0);
    assert!(
        o[&PgoVariant::CsspgoProbeOnly]
            .profiling_sections
            .pseudo_probe
            > 0
    );
    assert_eq!(o[&PgoVariant::AutoFdo].profiling_sections.pseudo_probe, 0);
    assert_eq!(o[&PgoVariant::Instr].profiling_sections.pseudo_probe, 0);
}

#[test]
fn quality_ordering_matches_table1() {
    let o = run_all();
    let gt = &o[&PgoVariant::Instr].quality_counts;
    let overlap = |v: PgoVariant| program_overlap(&o[&v].quality_counts, gt);
    let instr = overlap(PgoVariant::Instr);
    let full = overlap(PgoVariant::CsspgoFull);
    let auto = overlap(PgoVariant::AutoFdo);
    assert!((instr - 1.0).abs() < 1e-9, "ground truth overlaps itself");
    assert!(full > auto, "CSSPGO {full:.3} must beat AutoFDO {auto:.3}");
    assert!(auto > 0.5, "AutoFDO must still be a usable profile");
}

#[test]
fn instrumented_profiling_run_is_much_slower() {
    let o = run_all();
    let instr = o[&PgoVariant::Instr].profiling.cycles as f64;
    let auto = o[&PgoVariant::AutoFdo].profiling.cycles as f64;
    let probe = o[&PgoVariant::CsspgoFull].profiling.cycles as f64;
    assert!(
        instr / auto > 1.3,
        "instrumentation overhead {:.2}x",
        instr / auto
    );
    assert!(
        (probe / auto - 1.0).abs() < 0.05,
        "pseudo-instrumentation must be near-zero overhead: {:.3}x",
        probe / auto
    );
}

#[test]
fn deterministic_outcomes() {
    let w = service();
    let cfg = PipelineConfig {
        sample_period: 67,
        ..PipelineConfig::default()
    };
    cfg.validate().expect("valid test config");
    let a = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg).unwrap();
    let b = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg).unwrap();
    assert_eq!(a.eval.cycles, b.eval.cycles);
    assert_eq!(a.eval_result_hash, b.eval_result_hash);
    assert_eq!(a.plan_len, b.plan_len);
    assert_eq!(a.sections.text, b.sections.text);
}

/// An empty profile builds exactly `-O2`: on all six workloads, the
/// AutoFDO, probe-only and full-CSSPGO builds from an empty profile are
/// byte-identical to the `-O2` build with the same probe setting. So every
/// loss to `-O2` comes from a decision taken on profile data.
#[test]
fn an_empty_profile_builds_exactly_o2() {
    let cfg = PipelineConfig::default();
    let empty = [
        (
            PgoVariant::AutoFdo,
            BuildProfile::Flat(FlatProfile::default()),
        ),
        (
            PgoVariant::CsspgoProbeOnly,
            BuildProfile::Probe(ProbeProfile::default()),
        ),
        (
            PgoVariant::CsspgoFull,
            BuildProfile::Probe(ProbeProfile::default()),
        ),
    ];
    for w in server_workloads().iter().chain([&client_compiler()]) {
        for (variant, profile) in &empty {
            let probes = variant.uses_probes();
            let build = |variant, profile: &BuildProfile| {
                let module = prepared_module(&w.source, &w.name, probes).unwrap();
                let (binary, _) = optimized_build(module, variant, profile, &w.entry, &cfg);
                serde_json::to_string(&binary).unwrap()
            };
            let o2 = build(PgoVariant::O2, &BuildProfile::None);
            assert!(build(*variant, profile) == o2, "{} {variant}", w.name);
        }
    }
}
