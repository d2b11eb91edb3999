//! Bit-identity oracle for the compiler: the FNV-1a of the `Debug`
//! rendering of every optimised [`Module`] and every lowered [`Binary`] of
//! the six `csspgo_workloads` programs — each base source and the five
//! releases `drift::release_chain` derives from it, built at `-O2`, with
//! pseudo-probes, and with pseudo-probes under the full probe barrier (the
//! only builds whose loops reach the unroller while-shaped) — plus the profile-guided CSSPGO and AutoFDO rebuilds of
//! each base source, pinned in `tests/golden/compile_outputs.json`. The same
//! golden pins the front end: the module `lang::compile` returns for a fixed
//! set of generated programs (and their `-O2`, probed and barrier builds), and the
//! `CompileError` it returns for each program cut short at three points,
//! with a variable undeclared, a helper renamed and a stray character.
//! Last come the sample loader's own outputs: each program's base source
//! and its `drift::change_cfg` rebuild annotated, before any optimisation,
//! from its AutoFDO, probe-only and full-CSSPGO profiles at two inline
//! budgets, under stale-profile recovery. After them, the profiles
//! themselves: the FNV-1a of each one's binprof bytes and text, plus the
//! debug-info profile of the probed build, the merge of two hosts'
//! AutoFDO profiles, the untrimmed context profile and its flattening, and
//! the merge of two hosts' context tries.
//!
//! The golden was written before the optimiser and code generator moved to
//! dense per-function tables and must never be re-blessed for a change that
//! only means to make compilation faster (`BLESS=1 cargo test --test
//! compile_outputs` is for an intended change to what the compiler emits).
//! Module rows hash a `Debug` rendering, so a change to how the IR is
//! represented moves them without changing what the compiler emits. Such a
//! change may re-bless module rows only, and only with proof that the rows
//! changed in representation alone: in scratch copies of the parent and of
//! the change, hash every module row over a normal form that reads each
//! moved datum the way its own side stores it, and the two row sets must be
//! identical. Every `binary_fnv`, `insts`, profile and error row must pass
//! unchanged.

use csspgo::codegen::{lower_module, Binary};
use csspgo::core::annotate::{autofdo_annotate, csspgo_annotate, AnnotateConfig};
use csspgo::core::binprof::{encode_context, encode_flat, encode_probe};
use csspgo::core::merge::{merge_flat, merge_tries};
use csspgo::core::pipeline::{
    autofdo_profile, context_profile, finish_probe_profile, optimized_build, prepared_module,
    probe_only_profile, profiling_build, profiling_run, wire_handoff, BuildProfile, PgoVariant,
    PipelineConfig,
};
use csspgo::core::preinline::run_preinliner;
use csspgo::core::stalematch::StaleMatching;
use csspgo::core::textprof::{write_context, write_profile};
use csspgo::core::Workload;
use csspgo::ir::probe::ProbeBarrier;
use csspgo::ir::{InlinePlan, Module};
use csspgo::workloads::drift;
use proptest::{Strategy, TestRng};

#[path = "common/golden.rs"]
mod golden;
use golden::Fnv;

#[allow(dead_code)] // `build` is for the semantics tests
#[path = "common/program_gen.rs"]
mod program_gen;
use program_gen::{program_strategy, render_program};

/// Generated programs whose front-end output the golden pins.
const GENERATED: u64 = 48;

/// Traffic scale of the profiling runs behind the PGO rows.
const SCALE: f64 = 0.05;

/// FNV-1a, 64 bit, over the `Debug` rendering of `value`.
fn fnv_debug(value: &impl std::fmt::Debug) -> u64 {
    Fnv::new().bytes(format!("{value:?}").as_bytes()).0
}

/// A golden row for one profile: the FNV-1a of its binprof bytes and, for
/// the kinds `textprof` writes as text, of its text.
fn profile_row(case: String, bytes: &[u8], text: Option<&str>) -> String {
    let text = text.map_or(String::new(), |t| {
        format!(", \"text_fnv\": {}", Fnv::new().bytes(t.as_bytes()).0)
    });
    format!(
        "  {{\"case\": \"{case}\", \"binprof_fnv\": {}, \"binprof_len\": {}{text}}}",
        Fnv::new().bytes(bytes).0,
        bytes.len()
    )
}

fn workloads() -> Vec<Workload> {
    let mut out = csspgo::workloads::server_workloads();
    out.push(csspgo::workloads::client_compiler());
    out
}

/// The base source, then the five releases derived from it.
fn sources(w: &Workload) -> Vec<(String, String)> {
    let mut out = vec![("base".to_string(), w.source.clone())];
    for (i, (mutator, src)) in drift::release_chain(&w.source, 5, &[w.entry.as_str()])
        .into_iter()
        .enumerate()
    {
        out.push((format!("r{}-{mutator}", i + 1), src));
    }
    out
}

/// The unprofiled builds each source is pinned at: `-O2`, probed, and
/// probed under the full probe barrier, where tail duplication no longer
/// rotates while loops, so the unroller sees them while-shaped.
fn builds(config: &PipelineConfig) -> [(&'static str, bool, PipelineConfig); 3] {
    let mut barrier = config.clone();
    barrier.opt.probe = ProbeBarrier::Duplication;
    [
        ("o2", false, config.clone()),
        ("probes", true, config.clone()),
        ("barrier", true, barrier),
    ]
}

/// Optimises and lowers `source` without a profile.
fn unprofiled(source: &str, name: &str, probes: bool, config: &PipelineConfig) -> (Module, Binary) {
    let mut module = prepared_module(source, name, probes).expect("workload compiles");
    csspgo::opt::run_pipeline(&mut module, &config.opt);
    let binary = lower_module(&module, &config.codegen);
    (module, binary)
}

/// The profile-guided rebuild of `w`'s base source under `variant`, from a
/// profiling run of its own profiling build.
fn profiled(w: &Workload, variant: PgoVariant, config: &PipelineConfig) -> Binary {
    let w = w.scaled(SCALE);
    let built = profiling_build(&w.source, &w.name, variant, config)
        .expect("workload compiles")
        .binary;
    let run = profiling_run(&built, &w, config.sim_config(config.sample_period))
        .expect("training traffic completes");
    let profile = match variant {
        PgoVariant::AutoFdo => {
            BuildProfile::Flat(autofdo_profile(&built, &run.samples, config.ingest_shards))
        }
        _ => {
            let generated = context_profile(&built, &run.samples, config.ingest_shards);
            BuildProfile::Probe(finish_probe_profile(
                &generated.profile,
                &generated.range_counts,
                &built,
            ))
        }
    };
    let module = prepared_module(&w.source, &w.name, variant.uses_probes()).expect("compiles");
    optimized_build(module, variant, &profile, &w.entry, config).0
}

/// The three profiles of `w`'s base source that the compiler is handed —
/// AutoFDO, probe-only and full CSSPGO — each through the wire hand-off.
/// Pushes each one's profile row to `rows`, with the debug-info profile of
/// the probed build and the merge of two halves of the AutoFDO samples, and
/// with the untrimmed context profile, its flattening (the zero-body-stub
/// path `csspgo_lint` judges) and the merge of two halves' context tries.
fn loader_profiles(
    w: &Workload,
    config: &PipelineConfig,
    rows: &mut Vec<String>,
) -> Vec<(&'static str, BuildProfile)> {
    let w = w.scaled(SCALE);
    let shards = config.ingest_shards;
    let mut out = Vec::new();
    for variant in [PgoVariant::AutoFdo, PgoVariant::CsspgoFull] {
        let built = profiling_build(&w.source, &w.name, variant, config)
            .expect("workload compiles")
            .binary;
        let samples = profiling_run(&built, &w, config.sim_config(config.sample_period))
            .expect("training traffic completes")
            .samples;
        let case = |label: &str| format!("{}/profile/{label}", w.name);
        if variant == PgoVariant::AutoFdo {
            let flat = autofdo_profile(&built, &samples, shards);
            rows.push(profile_row(
                case("autofdo"),
                &encode_flat(&flat),
                Some(&write_profile(&flat)),
            ));
            let (first, second) = samples.split_at(samples.len() / 2);
            let mut merged = autofdo_profile(&built, first, shards);
            merge_flat(&mut merged, &autofdo_profile(&built, second, shards));
            rows.push(profile_row(
                case("merge"),
                &encode_flat(&merged),
                Some(&write_profile(&merged)),
            ));
            out.push(("autofdo", BuildProfile::Flat(flat)));
            continue;
        }
        let on_probes = autofdo_profile(&built, &samples, shards);
        rows.push(profile_row(
            case("dwarf_on_probes"),
            &encode_flat(&on_probes),
            Some(&write_profile(&on_probes)),
        ));
        let probe_only = probe_only_profile(&built, &samples, shards);
        rows.push(profile_row(
            case("probe_only"),
            &encode_probe(&probe_only),
            None,
        ));
        out.push(("probe_only", BuildProfile::Probe(probe_only)));
        let mut generated = context_profile(&built, &samples, shards);
        rows.push(profile_row(
            case("context_untrimmed"),
            &encode_context(&generated.profile),
            Some(&write_context(&generated.profile)),
        ));
        let untrimmed = finish_probe_profile(&generated.profile, &generated.range_counts, &built);
        rows.push(profile_row(
            case("csspgo_untrimmed"),
            &encode_probe(&untrimmed),
            Some(&write_profile(&untrimmed)),
        ));
        let (first, second) = samples.split_at(samples.len() / 2);
        let merged = merge_tries([
            &context_profile(&built, first, shards).profile,
            &context_profile(&built, second, shards).profile,
        ]);
        rows.push(profile_row(
            case("merge_context"),
            &encode_context(&merged),
            Some(&write_context(&merged)),
        ));
        generated.profile.trim_cold(config.trim_threshold);
        run_preinliner(&mut generated.profile, &built, &config.preinline);
        let text = write_context(&generated.profile);
        rows.push(profile_row(
            case("context"),
            &encode_context(&generated.profile),
            Some(&text),
        ));
        let full = finish_probe_profile(&generated.profile, &generated.range_counts, &built);
        rows.push(profile_row(case("csspgo"), &encode_probe(&full), None));
        out.push(("csspgo", BuildProfile::Probe(full)));
    }
    out.into_iter()
        .map(|(label, p)| (label, wire_handoff(p).expect("hand-off decodes")))
        .collect()
}

/// The golden's rows for the sample loader: every annotated module (block
/// and entry counts, provenance tags and the replayed inlines) before
/// optimisation, and its `AnnotateStats`; then the profile rows.
fn loader_rows(config: &PipelineConfig) -> Vec<String> {
    let mut rows = Vec::new();
    let mut profile_rows = Vec::new();
    for w in workloads() {
        let profiles = loader_profiles(&w, config, &mut profile_rows);
        let drifted = drift::change_cfg(&w.source);
        for (release, source) in [("base", &w.source), ("change_cfg", &drifted)] {
            for (label, profile) in &profiles {
                for inline_budget in [0, 64] {
                    let annotate = AnnotateConfig {
                        inline_budget,
                        stale_matching: StaleMatching::Recover,
                        ..config.annotate
                    };
                    let probes = !matches!(profile, BuildProfile::Flat(_));
                    let mut module = prepared_module(source, &w.name, probes).expect("compiles");
                    let stats = match profile {
                        BuildProfile::Flat(p) => autofdo_annotate(&mut module, p, &annotate),
                        BuildProfile::Probe(p) => {
                            let plan = (*label == "csspgo").then_some(&InlinePlan);
                            csspgo_annotate(&mut module, p, plan, &annotate)
                        }
                        _ => unreachable!("a sampled profile"),
                    };
                    rows.push(format!(
                        "  {{\"case\": \"{}/{release}/{label}/inline{inline_budget}\", \"module_fnv\": {}, \"stats_fnv\": {}, \"annotated\": {}, \"replayed\": {}, \"stale_recovered\": {}, \"stale_dropped\": {}}}",
                        w.name,
                        fnv_debug(&module),
                        fnv_debug(&stats),
                        stats.annotated,
                        stats.replayed_inlines,
                        stats.stale_recovered,
                        stats.stale_dropped
                    ));
                }
            }
        }
    }
    rows.extend(profile_rows);
    rows
}

/// The golden's rows for the generated programs: the front end's module,
/// the `-O2`, probed and barrier builds of it, and the error of each
/// truncation.
fn front_end_rows(config: &PipelineConfig) -> Vec<String> {
    let mut rows = Vec::new();
    for case in 0..GENERATED {
        let program = program_strategy().pick(&mut TestRng::for_case("compile_outputs", case));
        let source = render_program(&program);
        let front = csspgo::lang::compile(&source, "gen").expect("generated program compiles");
        let mut row = format!(
            "  {{\"case\": \"gen{case}/front\", \"module_fnv\": {}}}",
            fnv_debug(&front)
        );
        for (label, probes, config) in builds(config) {
            let (module, binary) = unprofiled(&source, "gen", probes, &config);
            row.push_str(&format!(
                ",\n  {{\"case\": \"gen{case}/{label}\", \"module_fnv\": {}, \"binary_fnv\": {}, \"insts\": {}}}",
                fnv_debug(&module),
                fnv_debug(&binary),
                binary.len()
            ));
        }
        rows.push(row);
        let mut broken: Vec<(String, String)> = (1..4)
            .map(|quarter| {
                let mut cut = source.len() * quarter / 4;
                while !source.is_char_boundary(cut) {
                    cut -= 1;
                }
                (format!("cut{quarter}"), source[..cut].to_string())
            })
            .collect();
        broken.push((
            "undeclared".into(),
            source.replacen("let v3 = ", "v3 = ", 1),
        ));
        broken.push(("renamed".into(), source.replacen("helper1(", "helper9(", 2)));
        let mut stray = source.clone();
        stray.insert(source.len() * 2 / 3, '#');
        broken.push(("stray".into(), stray));
        for (label, text) in broken {
            let error = match csspgo::lang::compile(&text, "gen") {
                Ok(_) => "none".to_string(),
                Err(e) => e.to_string().replace('\\', "\\\\").replace('"', "\\\""),
            };
            rows.push(format!(
                "  {{\"case\": \"gen{case}/{label}\", \"error\": \"{error}\"}}"
            ));
        }
    }
    rows
}

#[test]
fn every_compile_matches_golden() {
    let config = PipelineConfig::default();
    let mut rows = Vec::new();
    for w in workloads() {
        for (release, source) in sources(&w) {
            for (label, probes, config) in builds(&config) {
                let (module, binary) = unprofiled(&source, &w.name, probes, &config);
                rows.push(format!(
                    "  {{\"case\": \"{}/{release}/{label}\", \"module_fnv\": {}, \"binary_fnv\": {}, \"insts\": {}}}",
                    w.name,
                    fnv_debug(&module),
                    fnv_debug(&binary),
                    binary.len()
                ));
            }
        }
        for (label, variant) in [
            ("autofdo", PgoVariant::AutoFdo),
            ("csspgo", PgoVariant::CsspgoFull),
        ] {
            let binary = profiled(&w, variant, &config);
            rows.push(format!(
                "  {{\"case\": \"{}/base/{label}\", \"binary_fnv\": {}, \"insts\": {}}}",
                w.name,
                fnv_debug(&binary),
                binary.len()
            ));
        }
    }
    rows.extend(front_end_rows(&config));
    rows.extend(loader_rows(&config));
    golden::check(
        "tests/golden/compile_outputs.json",
        golden::array(&rows),
        "a compile output drifted from the golden; re-bless only for an \
         intended change to what the compiler emits",
    );
}
