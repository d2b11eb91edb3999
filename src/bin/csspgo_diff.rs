//! `csspgo_diff` — the stale-profile matcher and cross-build differential
//! analyzer.
//!
//! Two modes:
//!
//! * **Scenario mode** (default): for each shipped workload, collect a
//!   probe profile on the clean build, then replay every drift scenario
//!   from [`csspgo::workloads::drift`] (comment drift, CFG-changing drift,
//!   function renames) against it. Each scenario runs the anchor-based
//!   matcher ([`csspgo::core::stalematch`]), emits the `SM` lints, and is
//!   summarized in a match-quality report: matched/fuzzy/dropped probes,
//!   recovered-weight fractions, rename adoptions, and an
//!   inference-quality section (repair effort plus `PF` flow findings
//!   before/after min-cost-flow inference).
//! * **Train mode** (`--train N`): chain N cumulative releases through
//!   [`drift::release_chain`] (split/merge refactors, feature flags,
//!   dependency bumps, renames, comment and CFG churn) and match each
//!   release against the *release-0* profile — the match-quality decay
//!   curve a never-refreshed profile suffers across a release train
//!   (the static-analysis companion to the `release_train` bench).
//! * **File mode** (`--profile` + `--source`): match a saved profile — a
//!   probe-profile JSON or a `csspgo-stream-snapshot` text — against a
//!   freshly compiled source file.
//!
//! ```text
//! csspgo_diff --json diff-report.json
//! csspgo_diff --workload ad_ranker --scenario change_cfg
//! csspgo_diff --train 5 --workload ad_finder
//! csspgo_diff --profile probe.json --source new_version.src
//! ```
//!
//! Exits nonzero iff any diagnostic reaches `Deny` severity; with the
//! default policy that is the matcher-invariant lints (`SM002`/`SM003`),
//! which must never fire.

use csspgo::analysis::{
    inference_quality, provenance_breakdown, Analyzer, DiffReport, Policy, ScenarioReport,
};
use csspgo::core::pipeline::{
    context_profile, finish_probe_profile, name_entered_functions, prepared_module,
    profiling_build, profiling_run, PgoVariant, PipelineConfig,
};
use csspgo::core::profile::ProbeProfile;
use csspgo::core::stalematch::MatchConfig;
use csspgo::core::{textprof, Workload};
use csspgo::workloads::drift;
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
            eprintln!("csspgo_diff: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        r#"csspgo_diff — stale-profile matcher & differential profile analyzer

USAGE:
  csspgo_diff [--workload <name>] [--scenario <name,...>] [--scale <f>]
              [--deny <lint,...|all>] [--allow <lint,...|all>] [--json <file>]
  csspgo_diff --train <n> [--workload <name>] [--scale <f>] [--json <file>]
  csspgo_diff --profile <probe.json|snapshot.txt> --source <file> [--json <file>]

Scenarios: insert_comments, insert_body_comments, change_cfg, rename.
Default runs every scenario over every shipped workload at --scale 0.05.
--train chains <n> cumulative releases (drift::release_chain) and matches
each against the release-0 profile: the decay curve of a never-refreshed
profile across a release train.
Exits 1 if any denied lint fires (default policy: the SM002/SM003 matcher
invariants), 2 on usage errors."#
    );
}

/// A named source mutator: one shipped drift scenario.
type Scenario = (&'static str, fn(&Workload) -> String);

/// The shipped drift scenarios: name → source mutator.
fn scenarios() -> Vec<Scenario> {
    vec![
        ("insert_comments", |w| drift::insert_comments(&w.source)),
        ("insert_body_comments", |w| {
            drift::insert_body_comments(&w.source)
        }),
        ("change_cfg", |w| drift::change_cfg(&w.source)),
        // Rename ONE non-entry function (the realistic refactor): its GUID
        // vanishes and must be rename-matched by anchor similarity, while
        // its callers keep their CFG shape but drift their call anchors
        // (`SM004`).
        ("rename", rename_one),
    ]
}

/// Renames one non-entry function of the workload, keeping the rest. The
/// target is the function with the most calls to other defined functions:
/// rename matching needs call anchors as evidence, so renaming a leaf
/// would be undetectable by construction.
fn rename_one(w: &Workload) -> String {
    let names: Vec<&str> = w
        .source
        .lines()
        .filter_map(|l| l.strip_prefix("fn "))
        .filter_map(|rest| rest.split('(').next())
        .map(str::trim)
        .collect();
    let mut calls: Vec<(usize, &str)> = Vec::new();
    let mut current: Option<&str> = None;
    for line in w.source.lines() {
        if let Some(rest) = line.strip_prefix("fn ") {
            current = rest.split('(').next().map(str::trim);
            calls.push((0, current.unwrap_or("")));
            continue;
        }
        if let (Some(cur), Some(slot)) = (current, calls.last_mut()) {
            slot.0 += names
                .iter()
                .filter(|n| **n != cur)
                .map(|n| line.matches(&format!("{n}(")).count())
                .sum::<usize>();
        }
    }
    let target = calls
        .iter()
        .filter(|(_, n)| *n != w.entry)
        .max_by_key(|(c, _)| *c)
        .map(|&(_, n)| n);
    let keep: Vec<&str> = names
        .iter()
        .filter(|n| Some(**n) != target)
        .copied()
        .collect();
    drift::rename_functions(&w.source, &keep)
}

fn run(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
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
    let json_out = opt_value(args, "--json")?;
    let match_cfg = MatchConfig::default();

    let mut analyzer = Analyzer::new(policy);
    let mut report = DiffReport::new();

    let profile_file = opt_value(args, "--profile")?;
    let source_file = opt_value(args, "--source")?;
    match (profile_file, source_file) {
        (Some(pf), Some(sf)) => {
            let profile = load_profile(&pf)?;
            let src = std::fs::read_to_string(&sf).map_err(|e| format!("reading {sf}: {e}"))?;
            let module = prepared_module(&src, &sf, true).map_err(|e| e.to_string())?;
            let before = analyzer.report().diagnostics.len();
            let outcome = analyzer.analyze_stale_match(&sf, &module, &profile, &match_cfg);
            let diags = analyzer.report().diagnostics[before..].to_vec();
            report.scenarios.push(
                ScenarioReport::from_outcome("file", &sf, &outcome, diags)
                    .with_inference_quality(inference_quality(&module, &profile))
                    .with_provenance(provenance_breakdown(&module, &profile)),
            );
        }
        (None, None) => {
            let only = opt_value(args, "--workload")?;
            let scale: f64 = match opt_value(args, "--scale")? {
                Some(s) => s.parse().map_err(|_| format!("bad --scale `{s}`"))?,
                None => 0.05,
            };
            let wanted = match opt_value(args, "--scenario")? {
                Some(s) => s.split(',').map(str::to_string).collect(),
                None => Vec::new(),
            };
            for (name, _) in wanted.iter().map(|s| (s.as_str(), ())) {
                if !scenarios().iter().any(|(n, _)| *n == name) {
                    return Err(format!("unknown scenario `{name}`"));
                }
            }

            let train: Option<usize> = match opt_value(args, "--train")? {
                Some(n) => Some(n.parse().map_err(|_| format!("bad --train `{n}`"))?),
                None => None,
            };
            if train.is_some() && !wanted.is_empty() {
                return Err("--train and --scenario are mutually exclusive".into());
            }

            let mut workloads = csspgo::workloads::server_workloads();
            if let Some(name) = &only {
                workloads.retain(|w| &w.name == name);
                if workloads.is_empty() {
                    return Err(format!("unknown workload `{name}`"));
                }
            }
            for workload in &workloads {
                let scaled = workload.scaled(scale);
                match train {
                    Some(n) => train_workload(&scaled, n, &match_cfg, &mut analyzer, &mut report)
                        .map_err(|e| format!("{}: {e}", workload.name))?,
                    None => diff_workload(&scaled, &wanted, &match_cfg, &mut analyzer, &mut report)
                        .map_err(|e| format!("{}: {e}", workload.name))?,
                }
            }
        }
        _ => return Err("--profile and --source must be given together".into()),
    }

    print_summary(&report);
    let lint_report = analyzer.into_report();
    print!("{}", lint_report.render_human());
    if let Some(path) = json_out {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote JSON report to {path}");
    }
    Ok(!lint_report.has_denied())
}

/// Collects a probe profile on the clean build of `workload`, then matches
/// it against each drifted rebuild.
fn diff_workload(
    workload: &Workload,
    wanted: &[String],
    match_cfg: &MatchConfig,
    analyzer: &mut Analyzer,
    report: &mut DiffReport,
) -> Result<(), String> {
    let profile = collect_probe_profile(workload)?;
    for (name, mutate) in scenarios() {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let drifted_src = mutate(workload);
        let module =
            prepared_module(&drifted_src, &workload.name, true).map_err(|e| e.to_string())?;
        let unit = format!("{}/{}", workload.name, name);
        let before = analyzer.report().diagnostics.len();
        let outcome = analyzer.analyze_stale_match(&unit, &module, &profile, match_cfg);
        let diags = analyzer.report().diagnostics[before..].to_vec();
        report.scenarios.push(
            ScenarioReport::from_outcome(name, &workload.name, &outcome, diags)
                .with_inference_quality(inference_quality(&module, &profile))
                .with_provenance(provenance_breakdown(&module, &profile)),
        );
    }
    Ok(())
}

/// Collects the release-0 probe profile, then matches every cumulative
/// release of an `n`-release train against it — each row is one more
/// release of accumulated churn the matcher must absorb without a
/// refresh.
fn train_workload(
    workload: &Workload,
    n: usize,
    match_cfg: &MatchConfig,
    analyzer: &mut Analyzer,
    report: &mut DiffReport,
) -> Result<(), String> {
    let profile = collect_probe_profile(workload)?;
    let keep = [workload.entry.as_str()];
    for (i, (mutator, source)) in drift::release_chain(&workload.source, n, &keep)
        .into_iter()
        .enumerate()
    {
        let scenario = format!("train-r{}-{mutator}", i + 1);
        let module = prepared_module(&source, &workload.name, true).map_err(|e| e.to_string())?;
        let unit = format!("{}/{scenario}", workload.name);
        let before = analyzer.report().diagnostics.len();
        let outcome = analyzer.analyze_stale_match(&unit, &module, &profile, match_cfg);
        let diags = analyzer.report().diagnostics[before..].to_vec();
        report.scenarios.push(
            ScenarioReport::from_outcome(&scenario, &workload.name, &outcome, diags)
                .with_inference_quality(inference_quality(&module, &profile))
                .with_provenance(provenance_breakdown(&module, &profile)),
        );
    }
    Ok(())
}

/// Runs the full CSSPGO collection pipeline on the clean build — like
/// `csspgo_lint`'s stage 3, except cold contexts are *not* trimmed: the
/// differential analyzer wants maximum call-edge fidelity (trimming merges
/// cold contexts into base profiles, discarding exactly the call anchors
/// that rename matching aligns on), and it runs offline where profile size
/// does not matter.
fn collect_probe_profile(workload: &Workload) -> Result<ProbeProfile, String> {
    let config = PipelineConfig::default();
    let binary = profiling_build(
        &workload.source,
        &workload.name,
        PgoVariant::CsspgoFull,
        &config,
    )
    .map_err(|e| e.to_string())?
    .binary;
    let run = profiling_run(&binary, workload, config.sim_config(config.sample_period))
        .map_err(|e| e.to_string())?;
    let generated = context_profile(&binary, &run.samples, config.ingest_shards);
    let mut probe_prof = finish_probe_profile(&generated.profile, &generated.range_counts, &binary);
    name_entered_functions(&mut probe_prof, &generated.range_counts, &binary);
    Ok(probe_prof)
}

/// Loads a saved profile: probe-profile JSON, or the context section of a
/// stream snapshot.
fn load_profile(path: &str) -> Result<ProbeProfile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if text.starts_with("# csspgo-stream-snapshot") {
        let (_, ctx) = textprof::split_snapshot_context(&text)
            .ok_or_else(|| format!("{path}: snapshot has no !context section"))?;
        let ctx_profile = textprof::parse_context(ctx).map_err(|e| e.to_string())?;
        Ok(ctx_profile.to_probe_profile())
    } else {
        textprof::parse_probe_json(&text).map_err(|e| e.to_string())
    }
}

/// One line per scenario: the quality headline plus where the recovered
/// weight came from (sampled/stale-matched/inferred shares).
fn print_summary(report: &DiffReport) {
    println!("| scenario | workload | funcs | matched | recovered | renamed | dropped | stale weight recovered | PF raw→inferred | provenance (smp/stale/inf) |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for s in &report.scenarios {
        let pf = s
            .inference_quality
            .as_ref()
            .map(|q| format!("{}→{}", q.pf_findings_raw, q.pf_findings_inferred))
            .unwrap_or_else(|| "-".into());
        let prov = s
            .provenance
            .as_ref()
            .map(|p| {
                format!(
                    "{:.0}%/{:.0}%/{:.0}%",
                    p.sampled_share * 100.0,
                    p.stale_matched_share * 100.0,
                    p.inferred_share * 100.0
                )
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.1}% | {pf} | {prov} |",
            s.scenario,
            s.workload,
            s.funcs_total,
            s.checksum_matched,
            s.recovered,
            s.renamed,
            s.dropped,
            s.stale_recovered_fraction * 100.0
        );
    }
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
