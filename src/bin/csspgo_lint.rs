//! `csspgo_lint` — the probe-invariant and profile-integrity analyzer,
//! driven over every shipped workload.
//!
//! For each workload the tool rebuilds the full CSSPGO cycle and lints every
//! stage:
//!
//! 1. the **fresh** probed module (IR verifier, probe invariants,
//!    discriminator discipline),
//! 2. the **optimized** module after the whole pass pipeline (IR verifier,
//!    probe invariants — cloned probes must carry duplication factors),
//! 3. the collected **context profile** (context-tree consistency) and the
//!    flattened **probe profile** (checksum staleness, probe ranges) —
//!    additionally round-tripped through both the text and the binary
//!    (`binprof`) wire formats, which must produce identical findings,
//! 4. the **stale matcher** run over the collected profile (`SM` lints: on
//!    an undrifted build every function must pass through bit-identical,
//!    with no anchor drift and no matcher-invariant violations),
//! 5. the profile-**annotated** module (flow conservation, dominance, and
//!    edge/block reconciliation over the inference-attached edge counts),
//! 6. with `--post-inference`, **drifted** rebuilds of every workload
//!    annotated through stale recovery plus min-cost-flow inference — the
//!    "clean by construction" gate: inferred profiles, including ones
//!    salvaged from drifted sources, must carry zero `PF` findings.
//!
//! ```text
//! csspgo_lint --deny all --post-inference --json report.json
//! csspgo_lint --workload ad_ranker --allow PF001
//! csspgo_lint --list
//! csspgo_lint --explain PP001
//! ```
//!
//! Exits nonzero iff any diagnostic reaches `Deny` severity — `--deny all`
//! over the shipped workloads is the repo's CI gate.

use csspgo::analysis::{explain, render_lint_list, Analyzer, Policy};
use csspgo::codegen::lower_module;
use csspgo::core::annotate::{csspgo_annotate, AnnotateConfig};
use csspgo::core::binprof;
use csspgo::core::pipeline::{
    context_profile, finish_probe_profile, prepared_module, profiling_run, PipelineConfig,
};
use csspgo::core::stalematch::{MatchConfig, StaleMatching};
use csspgo::core::textprof::{parse_probe_json, write_probe_json};
use csspgo::core::Workload;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("csspgo_lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        r#"csspgo_lint — probe-invariant & profile-integrity analyzer

USAGE:
  csspgo_lint [--deny <lint,...|all>] [--allow <lint,...|all>]
              [--workload <name>] [--scale <f>] [--json <file>] [--list]
              [--explain <lint>] [--post-inference]

Lints the full PGO cycle (fresh module, optimized module, counter
placement, collected profiles, annotated module) of every shipped
workload. Lints are named by stable id (PI001) or name
(probe-duplicate-id); `--deny all` escalates every lint to an error.
`--list` prints the registry grouped by family; `--explain <lint>` prints
one lint's extended documentation. `--post-inference` additionally lints
drifted rebuilds annotated through stale recovery + min-cost-flow
inference (inferred profiles must be flow-clean by construction, and
their weight provenance is linted too). Exits 1 if any denied lint
fires, 2 on usage errors."#
    );
}

fn run(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return Ok(true);
    }
    if args.iter().any(|a| a == "--list") {
        print!("{}", render_lint_list());
        return Ok(true);
    }
    if let Some(key) = opt_value(args, "--explain")? {
        let text = explain(&key)
            .ok_or_else(|| format!("unknown lint `{key}` (try --list for the registry)"))?;
        print!("{text}");
        return Ok(true);
    }

    let mut policy = Policy::default();
    for v in multi_value(args, "--deny")? {
        policy.deny.extend(v.split(',').map(str::to_string));
    }
    for v in multi_value(args, "--allow")? {
        policy.allow.extend(v.split(',').map(str::to_string));
    }
    policy.validate()?;

    let only = opt_value(args, "--workload")?;
    let scale: f64 = match opt_value(args, "--scale")? {
        Some(s) => s.parse().map_err(|_| format!("bad --scale `{s}`"))?,
        None => 0.05,
    };
    let json_out = opt_value(args, "--json")?;
    let post_inference = args.iter().any(|a| a == "--post-inference");

    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    if let Some(name) = &only {
        workloads.retain(|w| &w.name == name);
        if workloads.is_empty() {
            return Err(format!("unknown workload `{name}`"));
        }
    }

    let mut analyzer = Analyzer::new(policy);
    for workload in &workloads {
        let scaled = workload.scaled(scale);
        lint_workload(&scaled, post_inference, &mut analyzer)
            .map_err(|e| format!("{}: {e}", workload.name))?;
    }
    let report = analyzer.into_report();

    print!("{}", report.render_human());
    if let Some(path) = json_out {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote JSON report to {path}");
    }
    Ok(!report.has_denied())
}

/// Reruns the CSSPGO cycle for one workload, linting each stage.
fn lint_workload(
    workload: &Workload,
    post_inference: bool,
    analyzer: &mut Analyzer,
) -> Result<(), String> {
    let config = PipelineConfig::default();

    // Stage 1: the fresh probed module.
    let mut module =
        prepared_module(&workload.source, &workload.name, true).map_err(|e| e.to_string())?;
    analyzer.analyze_module(&format!("{}/fresh", workload.name), &module, true);

    // Stage 1b: the spanning-tree counter placement the instrumented
    // variant would emit for this module, certified by the static
    // Kirchhoff prover (`PP` lints) — no execution involved.
    analyzer.analyze_placement(&format!("{}/placement", workload.name), &module);

    // Stage 2: the optimized module, with the optimizer's own inter-pass
    // verifier engaged on top of the final lint sweep.
    let mut optimized = module.clone();
    let opt_cfg = csspgo::opt::OptConfig {
        interpass_verify: true,
        ..config.opt.clone()
    };
    csspgo::opt::run_pipeline(&mut optimized, &opt_cfg);
    analyzer.analyze_module(&format!("{}/optimized", workload.name), &optimized, false);

    // Stage 3: profile collection on the optimized binary, as in production.
    let binary = lower_module(&optimized, &config.codegen);
    let run = profiling_run(&binary, workload, config.sim_config(config.sample_period))
        .map_err(|e| e.to_string())?;
    let mut generated = context_profile(&binary, &run.samples, config.ingest_shards);
    generated.profile.trim_cold(config.trim_threshold);
    analyzer.analyze_context_profile(
        &format!("{}/context-profile", workload.name),
        &generated.profile,
    );

    let probe_prof = finish_probe_profile(&generated.profile, &generated.range_counts, &binary);
    analyzer.analyze_probe_profile(
        &format!("{}/probe-profile", workload.name),
        &module,
        &probe_prof,
    );

    // Wire-format equivalence: the same profile loaded back through the
    // text and the binary format must lint identically — a decoder bug
    // that perturbs counts or structure shows up as diverging reports.
    let from_text = parse_probe_json(&write_probe_json(&probe_prof))
        .map_err(|e| format!("text probe round-trip: {e}"))?;
    let from_bin = binprof::decode_probe(&binprof::encode_probe(&probe_prof))
        .map_err(|e| format!("binary probe round-trip: {e}"))?;
    if from_bin != probe_prof {
        return Err("binary probe round-trip is not lossless".into());
    }
    let mut reports = Vec::new();
    for prof in [&from_text, &from_bin] {
        let mut scratch = Analyzer::new(Policy::default());
        scratch.analyze_probe_profile(&format!("{}/probe-profile", workload.name), &module, prof);
        reports.push(scratch.into_report().to_json());
    }
    if reports[0] != reports[1] {
        return Err("text-loaded and binary-loaded profiles lint differently".into());
    }

    // Stage 4: the stale matcher over the just-collected profile. The
    // build has not drifted, so every function must pass through
    // bit-identical with no SM diagnostics — anchor drift or an invariant
    // violation here means the matcher or the probe metadata is broken.
    analyzer.analyze_stale_match(
        &format!("{}/stale-match", workload.name),
        &module,
        &probe_prof,
        &MatchConfig::default(),
    );

    // Stage 5: annotate a fresh module (no inline replay, so block counts
    // stay on the common CFG) and check flow conservation.
    let no_replay = AnnotateConfig {
        inline_budget: 0,
        ..config.annotate
    };
    csspgo_annotate(&mut module, &probe_prof, None, &no_replay);
    analyzer.analyze_flow(&format!("{}/annotated", workload.name), &module);
    analyzer.analyze_provenance(&format!("{}/annotated", workload.name), &module);

    // Stage 6 (--post-inference): annotate drifted rebuilds through stale
    // recovery + inference. Salvaged counts are partial and internally
    // inconsistent before inference; afterwards they must be flow-clean —
    // this is the "clean by construction" acceptance gate.
    if post_inference {
        let scenarios: [(&str, String); 4] = [
            (
                "insert_body_comments",
                csspgo::workloads::drift::insert_body_comments(&workload.source),
            ),
            (
                "change_cfg",
                csspgo::workloads::drift::change_cfg(&workload.source),
            ),
            (
                "insert_statement",
                csspgo::workloads::drift::insert_statement(&workload.source, 1),
            ),
            (
                "delete_statement",
                csspgo::workloads::drift::delete_statement(&workload.source, 1),
            ),
        ];
        for (name, src) in scenarios {
            let mut drifted =
                prepared_module(&src, &workload.name, true).map_err(|e| e.to_string())?;
            let recover = AnnotateConfig {
                inline_budget: 0,
                stale_matching: StaleMatching::Recover,
                ..config.annotate
            };
            csspgo_annotate(&mut drifted, &probe_prof, None, &recover);
            let unit = format!("{}/post-inference/{name}", workload.name);
            analyzer.analyze_flow(&unit, &drifted);
            // Drift-appropriate provenance thresholds: these rebuilds
            // deliberately invalidate much of the profile, so salvage
            // dominating the module and inference carrying hot functions
            // are expected; only pathological shares (and any structural
            // WP002 source mixing) stay deniable.
            analyzer.analyze_provenance_with(
                &unit,
                &drifted,
                csspgo::analysis::WpTolerance {
                    inferred_majority: 0.75,
                    max_salvaged_share: 0.95,
                    ..csspgo::analysis::WpTolerance::default()
                },
            );
        }
    }
    Ok(())
}

/// Pulls the (optional, single) value of `--flag`.
fn opt_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
        None => Ok(None),
    }
}

/// Pulls every value of a repeatable `--flag`.
fn multi_value(args: &[String], flag: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            out.push(
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))?,
            );
        }
    }
    Ok(out)
}
