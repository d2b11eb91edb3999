//! `csspgo_lint` — does a profile still fit the build it is about to feed?
//!
//! Every mode ends in the same place: one `(module, profile)` pair handed
//! to [`Analyzer::judge`], which runs the stale matcher, annotates the
//! module raw and through min-cost-flow inference, and lints what it sees
//! (`SM`, `WP` and, for files, `PF`). The modes differ only in where the
//! pairs come from:
//!
//! * **Scenario mode** (default): for each shipped workload, collect a probe
//!   profile on the clean build, then judge it against every rebuild in
//!   [`SCENARIOS`] — the clean source itself, comment drift, CFG-changing
//!   drift, a function rename, a statement inserted, a statement deleted.
//! * **Train mode** (`--train N`): judge the clean-build profile against N
//!   cumulative releases of [`drift::release_chain`] — the decay curve a
//!   never-refreshed profile suffers across a release train.
//! * **File mode** (`--profile` + `--source`): judge a saved profile — a
//!   binprof probe or context document, as `csspgo profgen -o` writes
//!   them — against a source file; the profile comes from outside the
//!   process, so the `PF` lints written for files run on it first.
//!
//! ```text
//! csspgo_lint > results/csspgo_lint.txt
//! csspgo_lint --workload ad_ranker --scenario change_cfg --json pair.json
//! csspgo_lint --train 5 --workload ad_finder
//! csspgo_lint --profile service.prof --source new_version.mini
//! csspgo_lint --list
//! csspgo_lint --explain WP003
//! ```
//!
//! No lint denies by default, so the exit code is nonzero only under
//! `--deny`. The CI gate is the output itself: stdout at the default scale
//! is committed as `results/csspgo_lint.txt`, regenerated and `git diff`ed,
//! so a finding that appears *or disappears* is a reviewed diff.

use csspgo::analysis::{explain, render_lint_list, Analyzer, DiffReport, Policy};
use csspgo::core::pipeline::{prepared_module, untrimmed_probe_profile};
use csspgo::workloads::drift::{self, SCENARIOS};
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = run(&args, &mut out);
    print!("{out}");
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("csspgo_lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn write_usage(out: &mut String) {
    let _ = writeln!(
        out,
        r#"csspgo_lint — does a profile still fit the build it is about to feed?

USAGE:
  csspgo_lint [--workload <name>] [--scenario <name,...>] [--scale <f>]
              [--deny <lint,...|all>] [--allow <lint,...|all>] [--json <file>]
  csspgo_lint --train <n> [--workload <name>] [--scale <f>] [--json <file>]
  csspgo_lint --profile <binprof> --source <file> [--json <file>]
  csspgo_lint --list | --explain <lint>

Scenarios: {}.
Default judges the clean-build profile of every shipped workload against
every scenario's rebuild at --scale 0.05. --train chains <n> cumulative
releases (drift::release_chain) instead. --profile/--source judge a saved
binprof probe or context profile against a source file, running the PF
lints on the file first.
Lints are named by stable id (PF004) or name (profile-checksum-stale);
--list prints the registry, --explain one lint's documentation. --json
writes the per-pair report (csspgo-diff-v1). Exits 1 if a lint escalated
by --deny fires, 2 on usage errors."#,
        SCENARIOS.map(|(name, _)| name).join(", ")
    );
}

/// One invocation. What it prints goes to `out` (with no flag: one summary
/// row per judged pair, then every finding); `Ok(false)` is a denied lint.
pub(crate) fn run(args: &[String], out: &mut String) -> Result<bool, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        write_usage(out);
        return Ok(true);
    }
    if args.iter().any(|a| a == "--list") {
        out.push_str(&render_lint_list());
        return Ok(true);
    }
    let single = |flag| Ok::<_, String>(flag_values(args, flag)?.into_iter().next());
    if let Some(key) = single("--explain")? {
        let text = explain(&key)
            .ok_or_else(|| format!("unknown lint `{key}` (try --list for the registry)"))?;
        out.push_str(&text);
        return Ok(true);
    }

    let list = |flag| -> Result<Vec<String>, String> {
        Ok(flag_values(args, flag)?
            .iter()
            .flat_map(|v| v.split(','))
            .map(str::to_string)
            .collect())
    };
    let policy = Policy {
        deny: list("--deny")?,
        allow: list("--allow")?,
    };
    policy.validate()?;

    let mut analyzer = Analyzer::new(policy);
    let mut report = DiffReport::new();
    match (single("--profile")?, single("--source")?) {
        (Some(pf), Some(sf)) => {
            let source = std::fs::read_to_string(&sf).map_err(|e| format!("reading {sf}: {e}"))?;
            let profile = std::fs::read(&pf).map_err(|e| format!("reading {pf}: {e}"))?;
            report
                .scenarios
                .push(analyzer.judge_file(&sf, &source, &profile)?);
        }
        (None, None) => {
            let only = single("--workload")?;
            let scale: f64 = match single("--scale")? {
                Some(s) => s.parse().map_err(|_| format!("bad --scale `{s}`"))?,
                None => 0.05,
            };
            let wanted = list("--scenario")?;
            if let Some(name) = wanted
                .iter()
                .find(|s| !SCENARIOS.iter().any(|(n, _)| n == s))
            {
                return Err(format!("unknown scenario `{name}`"));
            }
            let train: Option<usize> = match single("--train")? {
                Some(n) => Some(n.parse().map_err(|_| format!("bad --train `{n}`"))?),
                None => None,
            };
            if train.is_some() && !wanted.is_empty() {
                return Err("--train and --scenario are mutually exclusive".into());
            }

            let mut workloads = csspgo::workloads::server_workloads();
            workloads.push(csspgo::workloads::client_compiler());
            if let Some(name) = &only {
                workloads.retain(|w| &w.name == name);
                if workloads.is_empty() {
                    return Err(format!("unknown workload `{name}`"));
                }
            }
            for workload in &workloads {
                let w = workload.scaled(scale);
                let rebuilds: Vec<(String, String)> = match train {
                    Some(n) => drift::release_chain(&w.source, n, &[w.entry.as_str()])
                        .into_iter()
                        .enumerate()
                        .map(|(i, (mutator, src))| (format!("train-r{}-{mutator}", i + 1), src))
                        .collect(),
                    None => SCENARIOS
                        .iter()
                        .filter(|(name, _)| wanted.is_empty() || wanted.iter().any(|s| s == name))
                        .map(|(name, rebuild)| (name.to_string(), rebuild(&w)))
                        .collect(),
                };
                let err = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
                let profile = untrimmed_probe_profile(&w).map_err(|e| err(&e))?;
                for (scenario, source) in rebuilds {
                    let module = prepared_module(&source, &w.name, true).map_err(|e| err(&e))?;
                    report
                        .scenarios
                        .push(analyzer.judge(&scenario, &w.name, &module, &profile));
                }
            }
        }
        _ => return Err("--profile and --source must be given together".into()),
    }

    write_summary(&report, out);
    let lint_report = analyzer.into_report();
    out.push_str(&lint_report.render_human());
    if let Some(path) = single("--json")? {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote JSON report to {path}");
    }
    Ok(!lint_report.has_denied())
}

/// One line per judged pair: the quality headline plus where the annotated
/// weight came from (sampled/stale-matched/inferred shares).
fn write_summary(report: &DiffReport, out: &mut String) {
    let _ = writeln!(out, "| scenario | workload | funcs | matched | recovered | renamed | dropped | stale weight recovered | PF raw→inferred | provenance (smp/stale/inf) |");
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for s in &report.scenarios {
        let (q, p) = (&s.inference_quality, &s.provenance);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.1}% | {}→{} | {:.0}%/{:.0}%/{:.0}% |",
            s.scenario,
            s.workload,
            s.funcs_total,
            s.checksum_matched,
            s.recovered,
            s.renamed,
            s.dropped,
            s.stale_recovered_fraction * 100.0,
            q.pf_findings_raw,
            q.pf_findings_inferred,
            p.sampled_share * 100.0,
            p.stale_matched_share * 100.0,
            p.inferred_share * 100.0
        );
    }
}

/// Every value of `--flag` (none when it is absent).
fn flag_values(args: &[String], flag: &str) -> Result<Vec<String>, String> {
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
