//! `csspgo-analysis` — does this profile still fit the build it is about to
//! feed?
//!
//! A clippy-style lint layer over the CSSPGO reproduction: every check is a
//! registered [`Lint`] with a stable id, lints are escalated or silenced by a
//! [`Policy`] (`--deny` / `--allow`), and findings accumulate in a [`Report`].
//! A lint is in the registry only if it can fire on input that reaches it —
//! a profile from outside the process, or a real source drift (DESIGN.md
//! §14 says what became of every id there has ever been).
//! Checks on what an internal producer emits are assertions at that
//! producer (`opt::verify_after_pass`, `debug_assert!`s in the matcher and
//! the discriminator pass) or oracles under `tests/`, not lints.
//!
//! Three lint families:
//!
//! * **`PF…` profile flow & integrity** — a profile against the module it
//!   claims to describe: checksum staleness and unallocated probe indices
//!   (`PF004`/`PF005`), context-tree consistency (`PF003`), and Kirchhoff /
//!   dominance bounds over the block counts it annotates (`PF001`/`PF002`).
//! * **`SM…` stale-profile matching** — what the anchor-based matcher
//!   ([`csspgo_core::stalematch`]) could not be sure of: positional
//!   alignment between repeated anchors, checksum-invisible call retargets,
//!   low-confidence renames.
//! * **`WP…` weight provenance** — every annotated block count carries a
//!   [`csspgo_ir::Provenance`] tag, and these lints flag hot functions
//!   dominated by solver-invented weight and modules living off stale
//!   salvage.
//!
//! One function judges a `(module, profile)` pair — [`Analyzer::judge`] —
//! and `csspgo_lint`'s scenario, train and file modes and the golden test
//! all call it.
//!
//! # Example
//!
//! ```
//! use csspgo_analysis::{Analyzer, Policy};
//! use csspgo_core::{binprof, profile::ProbeProfile};
//!
//! let source = "fn f(x) { if (x > 0) { return x + 1; } return 0; }";
//! let profile = binprof::encode_probe(&ProbeProfile::default());
//! let mut analyzer = Analyzer::new(Policy::default());
//! let pair = analyzer.judge_file("demo", source, &profile).unwrap();
//! assert_eq!(pair.funcs_total, 0);
//! assert!(analyzer.into_report().diagnostics.is_empty());
//! ```

mod diag;
mod diffreport;
mod flow_lints;
mod matching;
mod profile_lints;
mod provenance;

pub use diag::{
    explain, render_lint_list, Diagnostic, Lint, Policy, Report, Severity, LINTS, LINT_FAMILIES,
};
pub use diffreport::{
    DiffReport, FuncDiffRecord, InferenceQuality, ProvenanceBreakdown, ScenarioReport,
};

use csspgo_core::annotate::{csspgo_annotate, AnnotateConfig, AnnotateStats};
use csspgo_core::binprof::{self, DecodeError};
use csspgo_core::context::ContextProfile;
use csspgo_core::inference::InferenceMode;
use csspgo_core::pipeline::prepared_module;
use csspgo_core::profile::ProbeProfile;
use csspgo_core::stalematch::{match_stale_profile, MatchConfig, StaleMatching};
use csspgo_ir::Module;

/// A clone of `module` annotated from `profile` with no inline replay, so it
/// keeps `module`'s CFG, and what annotation reported doing.
fn annotated(
    module: &Module,
    profile: &ProbeProfile,
    stale_matching: StaleMatching,
    inference: InferenceMode,
) -> (Module, AnnotateStats) {
    let mut m = module.clone();
    let cfg = AnnotateConfig {
        inline_budget: 0,
        stale_matching,
        inference,
    };
    let stats = csspgo_annotate(&mut m, profile, None, &cfg);
    (m, stats)
}

/// The analysis driver: applies the lints to modules and profiles,
/// accumulating one [`Report`] across units.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    policy: Policy,
    report: Report,
}

impl Analyzer {
    /// Creates an analyzer reporting under `policy`.
    pub fn new(policy: Policy) -> Self {
        Analyzer {
            policy,
            report: Report::new(),
        }
    }

    /// Judges one `(module, profile)` pair: how well `profile` still fits
    /// the freshly probed `module`, and what annotating from it would hand
    /// the optimizer.
    ///
    /// Runs the stale matcher once (`SM` lints), then annotates two clones
    /// of `module` through stale recovery with no inline replay (so both
    /// keep `module`'s CFG) — one with the counts as recovered, one
    /// repaired by min-cost-flow inference — counts the `PF` flow findings
    /// on each, and lints the provenance of the repaired one (`WP` lints).
    /// Findings land in the analyzer's report under the unit
    /// `<workload>/<scenario>`; the returned report carries the per-function
    /// match records and the measurements.
    pub fn judge(
        &mut self,
        scenario: &str,
        workload: &str,
        module: &Module,
        profile: &ProbeProfile,
    ) -> ScenarioReport {
        let unit = format!("{workload}/{scenario}");
        let outcome = match_stale_profile(module, profile, &MatchConfig::default());
        let before = self.report.diagnostics.len();
        matching::emit_match_lints(&self.policy, &unit, &outcome, &mut self.report);
        let diagnostics = self.report.diagnostics[before..].to_vec();

        let (raw, _) = annotated(module, profile, StaleMatching::Recover, InferenceMode::Off);
        let (inferred, stats) =
            annotated(module, profile, StaleMatching::Recover, InferenceMode::Mcf);
        let weights =
            provenance::analyze_provenance(&self.policy, &unit, &inferred, &mut self.report);
        ScenarioReport::new(
            scenario,
            workload,
            &outcome,
            diagnostics,
            InferenceQuality {
                mode: "mcf".to_string(),
                functions: stats.inference.functions,
                counts_adjusted: stats.inference.counts_adjusted,
                flow_moved: stats.inference.flow_moved,
                residual_cost: stats.inference.residual_cost,
                pf_findings_raw: flow_lints::count_flow_findings(&raw),
                pf_findings_inferred: flow_lints::count_flow_findings(&inferred),
            },
            weights.into(),
        )
    }

    /// Judges a profile *file* against a source *file* — where a profile
    /// from outside the process enters, so the lints written for files run
    /// here, on the profile as loaded and before the matcher touches it:
    /// `PF003` when `profile` is a binprof context document (it is then
    /// flattened to the probe profile that gets matched), `PF004`/`PF005`
    /// against the compiled source, and `PF001`/`PF002` on the block counts
    /// exactly as the file states them (no salvage, no inference). Then
    /// [`Analyzer::judge`], as scenario `file` of workload `unit`.
    ///
    /// # Errors
    ///
    /// A source that does not compile, or a profile that is not a binprof
    /// probe or context document the decoders accept, as a message naming
    /// which.
    pub fn judge_file(
        &mut self,
        unit: &str,
        source: &str,
        profile: &[u8],
    ) -> Result<ScenarioReport, String> {
        let module = prepared_module(source, unit, true).map_err(|e| format!("source: {e}"))?;
        let lint_unit = format!("{unit}/file");
        let refuse = |e: DecodeError| format!("profile: {e}");
        let profile = match binprof::decode_probe(profile) {
            Err(DecodeError::Kind { .. }) => {
                let context = binprof::decode_context(profile).map_err(refuse)?;
                self.analyze_context_profile(&lint_unit, &context);
                context.to_probe_profile()
            }
            probe => probe.map_err(refuse)?,
        };
        self.analyze_probe_profile(&lint_unit, &module, &profile);
        let (as_written, _) = annotated(&module, &profile, StaleMatching::Off, InferenceMode::Off);
        self.analyze_flow(&lint_unit, &as_written);
        Ok(self.judge("file", unit, &module, &profile))
    }

    /// Flow-conservation and dominance lints (`PF001`/`PF002`) over a
    /// profile-annotated module.
    pub fn analyze_flow(&mut self, unit: &str, module: &Module) {
        flow_lints::analyze_flow(&self.policy, unit, module, &mut self.report);
    }

    /// Staleness and probe-range lints (`PF004`/`PF005`) over a flattened
    /// probe profile, checked against the module it claims to describe.
    pub fn analyze_probe_profile(&mut self, unit: &str, module: &Module, profile: &ProbeProfile) {
        profile_lints::analyze_probe_profile(&self.policy, unit, module, profile, &mut self.report);
    }

    /// Context-tree consistency lint (`PF003`) over a context trie.
    pub fn analyze_context_profile(&mut self, unit: &str, profile: &ContextProfile) {
        profile_lints::analyze_context_profile(&self.policy, unit, profile, &mut self.report);
    }

    /// Consumes the analyzer, returning the findings.
    pub fn into_report(self) -> Report {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judged_pair_counts_reconcile_and_serialize() {
        let mut m = csspgo_lang::compile(
            "fn g(x) { return x; } fn f(x) { if (x > 0) { return g(x); } return 0; }",
            "t",
        )
        .unwrap();
        csspgo_opt::probes::run(&mut m);
        let mut p = ProbeProfile::default();
        for f in &m.functions {
            let fp = p.funcs.entry(f.guid).or_default();
            fp.checksum = f.probe_checksum.unwrap();
            fp.record_sum(1, 5);
            p.names.insert(f.guid, f.name.clone());
        }
        let sr = Analyzer::new(Policy::default()).judge("s", "w", &m, &p);
        assert_eq!(sr.funcs_total, 2);
        assert_eq!(sr.checksum_matched, 2);
        assert_eq!(
            sr.funcs_total,
            sr.checksum_matched + sr.recovered + sr.renamed + sr.dropped
        );
        let mut report = DiffReport::new();
        report.scenarios.push(sr);
        let json = report.to_json();
        assert!(json.contains("csspgo-diff-v1"), "{json}");
        assert!(json.contains("\"checksum_matched\": 2"), "{json}");
    }
}
