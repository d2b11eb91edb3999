//! What judging one `(module, profile)` pair returns, and the report that
//! collects the pairs: per-function match quality and per-pair recovery
//! summaries, serialized to JSON (`csspgo_lint --json`) and pinned by a
//! golden test.
//!
//! Fractions are rounded to four decimals at construction time so the JSON
//! is stable across floating-point noise.

use crate::diag::Diagnostic;
use csspgo_core::annotate::ProvenanceTotals;
use csspgo_core::stalematch::{FuncMatchStatus, MatchOutcome};
use serde::Serialize;

/// Rounds to four decimals for byte-stable JSON.
fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// Match quality for one profiled function.
#[derive(Clone, Debug, Serialize)]
pub struct FuncDiffRecord {
    /// Function name (fresh module's name; the profile's for drops).
    pub name: String,
    /// GUID the counts landed under.
    pub guid: u64,
    /// `checksum-match` | `recovered` | `renamed` | `dropped`.
    pub status: String,
    /// For renames: the profiled (old) name.
    pub renamed_from: Option<String>,
    /// For renames: anchor-sequence similarity, rounded.
    pub similarity: Option<f64>,
    /// Probes mapped through exact anchors.
    pub matched_probes: usize,
    /// Probes mapped positionally between anchors.
    pub fuzzy_probes: usize,
    /// Profiled probes with no mapping.
    pub dropped_probes: usize,
    /// Repeated call-anchor labels (positional alignment there).
    pub ambiguous_anchors: usize,
    /// Checksum matched while call targets changed (`SM004`).
    pub anchor_drift: bool,
    /// Source profile weight.
    pub old_weight: u64,
    /// Weight present in the recovered profile.
    pub recovered_weight: u64,
    /// `recovered_weight / old_weight`, rounded.
    pub recovered_fraction: f64,
}

/// How much repair profile inference had to do on a pair's recovered
/// counts, and what the flow lints say before and after it ran.
#[derive(Clone, Debug, Serialize)]
pub struct InferenceQuality {
    /// Inference algorithm measured (`mcf`).
    pub mode: String,
    /// Functions that went through inference.
    pub functions: u64,
    /// Blocks whose count inference changed.
    pub counts_adjusted: u64,
    /// Total absolute count change, Σ|final − raw|.
    pub flow_moved: u64,
    /// Total min-cost-flow routing cost.
    pub residual_cost: u64,
    /// `PF` flow findings on the raw (uninferred) annotation.
    pub pf_findings_raw: usize,
    /// `PF` flow findings after inference (0 = clean by construction).
    pub pf_findings_inferred: usize,
}

/// Where a pair's annotated weight came from: per-provenance-tag totals
/// and shares over the MCF-annotated module.
#[derive(Clone, Debug, Serialize)]
pub struct ProvenanceBreakdown {
    /// Weight under raw-sample counts.
    pub sampled: u64,
    /// Weight transferred by the stale matcher.
    pub stale_matched: u64,
    /// Weight invented or materially adjusted by inference.
    pub inferred: u64,
    /// Weight recovered from sparse counters.
    pub reconstructed: u64,
    /// `sampled / total`, rounded.
    pub sampled_share: f64,
    /// `stale_matched / total`, rounded.
    pub stale_matched_share: f64,
    /// `inferred / total`, rounded.
    pub inferred_share: f64,
    /// `reconstructed / total`, rounded.
    pub reconstructed_share: f64,
}

impl From<ProvenanceTotals> for ProvenanceBreakdown {
    fn from(w: ProvenanceTotals) -> Self {
        let total = w.total().max(1) as f64;
        ProvenanceBreakdown {
            sampled: w.sampled,
            stale_matched: w.stale_matched,
            inferred: w.inferred,
            reconstructed: w.reconstructed,
            sampled_share: round4(w.sampled as f64 / total),
            stale_matched_share: round4(w.stale_matched as f64 / total),
            inferred_share: round4(w.inferred as f64 / total),
            reconstructed_share: round4(w.reconstructed as f64 / total),
        }
    }
}

/// One judged `(module, profile)` pair: what
/// [`Analyzer::judge`](crate::Analyzer::judge) returns.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioReport {
    /// Scenario name (e.g. `change_cfg`).
    pub scenario: String,
    /// Workload the profile was collected on.
    pub workload: String,
    /// Profiled functions examined.
    pub funcs_total: usize,
    /// Functions whose checksum still matched (passthrough).
    pub checksum_matched: usize,
    /// Functions salvaged by anchor alignment.
    pub recovered: usize,
    /// Functions transplanted under a new name.
    pub renamed: usize,
    /// Functions with nothing recoverable.
    pub dropped: usize,
    /// Source weight held by checksum-mismatched functions.
    pub stale_old_weight: u64,
    /// Weight recovered for them.
    pub stale_recovered_weight: u64,
    /// `stale_recovered_weight / stale_old_weight`, rounded.
    pub stale_recovered_fraction: f64,
    /// Per-function records, sorted by name.
    pub functions: Vec<FuncDiffRecord>,
    /// `SM` diagnostics emitted for this pair (every other finding is in
    /// the analyzer's [`Report`](crate::Report) only).
    pub diagnostics: Vec<Diagnostic>,
    /// Inference repair effort and before/after flow-lint findings.
    pub inference_quality: InferenceQuality,
    /// Per-tag provenance of the annotated weight.
    pub provenance: ProvenanceBreakdown,
}

impl ScenarioReport {
    /// Shapes a match outcome, the `SM` diagnostics its lint pass produced
    /// and the two annotation measurements into a report.
    pub(crate) fn new(
        scenario: &str,
        workload: &str,
        outcome: &MatchOutcome,
        diagnostics: Vec<Diagnostic>,
        inference_quality: InferenceQuality,
        provenance: ProvenanceBreakdown,
    ) -> Self {
        let functions: Vec<FuncDiffRecord> = outcome
            .funcs
            .iter()
            .map(|f| {
                let (renamed_from, similarity) = match &f.status {
                    FuncMatchStatus::Renamed {
                        from, similarity, ..
                    } => (Some(from.clone()), Some(round4(*similarity))),
                    _ => (None, None),
                };
                FuncDiffRecord {
                    name: f.name.clone(),
                    guid: f.guid,
                    status: f.status.tag().to_string(),
                    renamed_from,
                    similarity,
                    matched_probes: f.matched_probes,
                    fuzzy_probes: f.fuzzy_probes,
                    dropped_probes: f.dropped_probes,
                    ambiguous_anchors: f.ambiguous_anchors,
                    anchor_drift: f.anchor_drift,
                    old_weight: f.old_weight,
                    recovered_weight: f.recovered_weight,
                    recovered_fraction: round4(f.recovered_fraction()),
                }
            })
            .collect();
        ScenarioReport {
            scenario: scenario.to_string(),
            workload: workload.to_string(),
            funcs_total: outcome.funcs.len(),
            checksum_matched: outcome.count("checksum-match"),
            recovered: outcome.count("recovered"),
            renamed: outcome.count("renamed"),
            dropped: outcome.count("dropped"),
            stale_old_weight: outcome.stale_old_weight(),
            stale_recovered_weight: outcome.stale_recovered_weight(),
            stale_recovered_fraction: round4(outcome.stale_recovered_fraction()),
            functions,
            diagnostics,
            inference_quality,
            provenance,
        }
    }
}

/// Every pair one `csspgo_lint` run judged.
#[derive(Clone, Debug, Serialize)]
pub struct DiffReport {
    /// Format tag for downstream consumers.
    pub schema: &'static str,
    /// One entry per judged (scenario, workload) pair.
    pub scenarios: Vec<ScenarioReport>,
}

impl DiffReport {
    /// An empty report with the current schema tag.
    pub fn new() -> Self {
        DiffReport {
            schema: "csspgo-diff-v1",
            scenarios: Vec::new(),
        }
    }

    /// Pretty JSON (the `--json` file and golden-test payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("diff reports are serializable")
    }
}

impl Default for DiffReport {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_is_stable() {
        assert_eq!(round4(0.123_449_99), 0.1234);
        assert_eq!(round4(1.0), 1.0);
        assert_eq!(round4(2.0 / 3.0), 0.6667);
    }
}
