//! `csspgo-analysis` — probe-invariant and profile-integrity diagnostics.
//!
//! A clippy-style lint layer over the CSSPGO reproduction: every check is a
//! registered [`Lint`] with a stable id, lints are escalated or silenced by a
//! [`Policy`] (`--deny` / `--allow`), and findings accumulate in a [`Report`]
//! that renders for humans or serializes to JSON for CI artifacts.
//!
//! Three lint families:
//!
//! * **`IV…` IR verifier** — structural well-formedness, wrapping
//!   [`csspgo_ir::verify`] (which now collects *all* findings).
//! * **`PI…` probe invariants** — pseudo-probe metadata health after any
//!   pass: unique probe ids per inline context, duplication-factor weights
//!   summing to ≤ 1 across clones, index watermarks, inline-stack shape, and
//!   (on fresh IR) discriminator discipline. Wraps
//!   [`csspgo_ir::probe_verify`].
//! * **`PF…` profile flow & integrity** — Kirchhoff-style conservation and
//!   dominance bounds over annotated block counts, edge/block-count
//!   reconciliation over inference-attached edge counts, context-tree
//!   consistency, checksum staleness, and probe-range checks over collected
//!   profiles.
//! * **`SM…` stale-profile matching** — lints over the anchor-based
//!   stale-profile matcher ([`csspgo_core::stalematch`]): alignment
//!   ambiguity, matcher invariants (injectivity, weight conservation),
//!   checksum-invisible call retargets, low-confidence renames. The
//!   [`diffreport`] module turns match outcomes into the `csspgo_diff`
//!   JSON report.
//! * **`PP…` placement prover** — the static recoverability prover for
//!   sparse counter placements ([`dataflow`]): certifies *before any
//!   execution* that a Ball–Larus spanning-tree placement determines every
//!   block/edge count by Kirchhoff elimination, and flags unrecoverable
//!   edges, redundant counters, unsplit critical edges, and underivable
//!   entry counts.
//! * **`WP…` weight provenance** — pedigree lints over annotated counts
//!   ([`provenance`]): every block count carries a
//!   [`csspgo_ir::Provenance`] tag (sampled / stale-matched / inferred /
//!   reconstructed), and these lints flag hot functions dominated by
//!   invented weight, measurement-source mixing inside loops, and
//!   excessive stale-salvage shares.
//!
//! The raw `IV`/`PI` checks deliberately live in `csspgo_ir` so the opt
//! pipeline's inter-pass checkpoints ([`csspgo_opt::verify_after_pass`])
//! can run them without a dependency cycle; this crate adds identity,
//! policy, and reporting on top, plus the profile-side analyses.
//!
//! [`csspgo_opt::verify_after_pass`]: https://docs.rs/csspgo-opt
//!
//! # Example
//!
//! ```
//! use csspgo_analysis::{Analyzer, Policy};
//!
//! let module = csspgo_ir::Module::new("demo");
//! let mut analyzer = Analyzer::new(Policy::deny_all());
//! analyzer.analyze_module("demo", &module, true);
//! assert!(!analyzer.report().has_denied());
//! ```

pub mod dataflow;
pub mod diag;
pub mod diffreport;
pub mod matching;
pub mod module_lints;
pub mod profile_lints;
pub mod provenance;

pub use dataflow::{classify_cfg_edges, prove_plan, CfgEdgeKind, FlowProof};
pub use diag::{
    explain, find_lint, render_lint_list, Diagnostic, Lint, Policy, Report, Severity, LINTS,
    LINT_FAMILIES,
};
pub use diffreport::{
    inference_quality, provenance_breakdown, DiffReport, FuncDiffRecord, InferenceQuality,
    ProvenanceBreakdown, ScenarioReport,
};
pub use module_lints::FlowTolerance;
pub use profile_lints::ContextTolerance;
pub use provenance::{ProvenanceWeights, WpTolerance};

use csspgo_core::context::ContextProfile;
use csspgo_core::profile::ProbeProfile;
use csspgo_core::stalematch::{MatchConfig, MatchOutcome};
use csspgo_ir::Module;

/// The analysis driver: applies every lint family to modules and profiles,
/// accumulating one [`Report`] across units.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    policy: Policy,
    report: Report,
}

impl Analyzer {
    /// Creates an analyzer with default tolerances.
    pub fn new(policy: Policy) -> Self {
        Analyzer {
            policy,
            report: Report::new(),
        }
    }

    /// IR verifier + probe invariants (`IV001`, `PI001`–`PI004`; with
    /// `fresh`, also `PI005`/`PI006`). `fresh` means the module has not been
    /// through cloning passes yet — discriminator discipline only holds
    /// there.
    pub fn analyze_module(&mut self, unit: &str, module: &Module, fresh: bool) {
        module_lints::analyze_module(&self.policy, unit, module, fresh, &mut self.report);
    }

    /// Flow-conservation, dominance, and edge-reconciliation lints
    /// (`PF001`/`PF002`/`PF006`) over a profile-annotated module.
    pub fn analyze_flow(&mut self, unit: &str, module: &Module) {
        module_lints::analyze_flow(
            &self.policy,
            unit,
            module,
            FlowTolerance::default(),
            &mut self.report,
        );
    }

    /// Staleness and probe-range lints (`PF004`/`PF005`) over a flattened
    /// probe profile, checked against the module it claims to describe.
    pub fn analyze_probe_profile(&mut self, unit: &str, module: &Module, profile: &ProbeProfile) {
        profile_lints::analyze_probe_profile(&self.policy, unit, module, profile, &mut self.report);
    }

    /// Stale-profile matching lints (`SM001`–`SM005`): runs the anchor
    /// matcher over `profile` against `module` and lints the outcome,
    /// returning it for report building or count recovery.
    pub fn analyze_stale_match(
        &mut self,
        unit: &str,
        module: &Module,
        profile: &ProbeProfile,
        cfg: &MatchConfig,
    ) -> MatchOutcome {
        matching::analyze_stale_match(&self.policy, unit, module, profile, cfg, &mut self.report)
    }

    /// Counter-placement recoverability lints (`PP001`–`PP004`): plans the
    /// spanning-tree placement for every function of `module` and runs the
    /// static Kirchhoff prover over it. Returns the number of functions
    /// proven (exit-free full-fallback functions are trivially recoverable
    /// and skipped).
    pub fn analyze_placement(&mut self, unit: &str, module: &Module) -> usize {
        dataflow::analyze_placement(&self.policy, unit, module, &mut self.report)
    }

    /// Weight-provenance lints (`WP001`–`WP003`) over an annotated module;
    /// returns the module's per-tag weight totals.
    pub fn analyze_provenance(&mut self, unit: &str, module: &Module) -> ProvenanceWeights {
        self.analyze_provenance_with(unit, module, WpTolerance::default())
    }

    /// [`Analyzer::analyze_provenance`] with per-call tolerances, for
    /// stages whose expected provenance mix differs from production (e.g.
    /// a deliberate drift replay, where salvaged weight dominating the
    /// module is the point of the exercise, not a defect).
    pub fn analyze_provenance_with(
        &mut self,
        unit: &str,
        module: &Module,
        tol: WpTolerance,
    ) -> ProvenanceWeights {
        provenance::analyze_provenance(&self.policy, unit, module, tol, &mut self.report)
    }

    /// Context-tree consistency lint (`PF003`) over a context trie.
    pub fn analyze_context_profile(&mut self, unit: &str, profile: &ContextProfile) {
        profile_lints::analyze_context_profile(
            &self.policy,
            unit,
            profile,
            ContextTolerance::default(),
            &mut self.report,
        );
    }

    /// The accumulated findings.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Consumes the analyzer, returning the findings.
    pub fn into_report(self) -> Report {
        self.report
    }
}
