//! The optimizer pipeline.
//!
//! Passes are ordinary functions over [`csspgo_ir::Module`] (or single
//! functions). They fall into three groups:
//!
//! * **Anchoring passes**, run on fresh IR before anything else:
//!   [`discriminators`] (DWARF-style duplicate-line discriminators),
//!   [`probes`] (pseudo-probe insertion, paper §III.A) and [`instrument`]
//!   (traditional counter instrumentation).
//! * **Mid-level transformations** that both consume and *maintain* profile
//!   annotation (paper §II.B): [`simplify`], [`tail_dup`], [`licm`],
//!   [`inliner`], [`unroll`], [`tailmerge`], [`ifconvert`].
//! * **Late layout passes** driven purely by profile: [`layout`] (ext-TSP
//!   block ordering + hot/cold function splitting).
//!
//! Profile-quality damage is *deliberately realistic*: tail merge destroys
//! per-block counts for debug-info correlation but is blocked by distinct
//! probes; tail duplication and unrolling duplicate debug lines (the MAX
//! heuristic then under-counts) while duplicated probes are summed
//! correctly.

pub mod callgraph;
pub mod discriminators;
pub mod ifconvert;
pub mod inliner;
pub mod instrument;
pub mod layout;
pub mod licm;
pub mod probes;
pub mod simplify;
pub mod sink;
pub mod strip;
pub mod tail_dup;
pub mod tailmerge;
pub mod unroll;

use csspgo_ir::probe::ProbeConfig;
use csspgo_ir::Module;
use serde::{Deserialize, Serialize};

/// Tuning knobs for the whole pipeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OptConfig {
    /// How strongly probes block optimizations.
    pub probe: ProbeConfig,
    /// Callee size (instructions) below which calls are always inlined.
    pub inline_small_size: usize,
    /// Callee size limit for hot call sites.
    pub inline_hot_size: usize,
    /// Loop unroll factor.
    pub unroll_factor: u32,
    /// Maximum loop body size (instructions) eligible for unrolling.
    pub unroll_max_body: usize,
    /// Maximum block size (instructions) eligible for tail duplication.
    pub tail_dup_max_insts: usize,
    /// Run the IR verifier and probe-invariant checker after every pass in
    /// [`run_pipeline`], panicking (with every finding) on the first pass
    /// that breaks an invariant. Defaults to on in debug builds, off in
    /// release; release users opt in via `PipelineConfig`.
    pub interpass_verify: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            probe: ProbeConfig::default(),
            inline_small_size: 14,
            inline_hot_size: 80,
            unroll_factor: 4,
            unroll_max_body: 14,
            tail_dup_max_insts: 4,
            interpass_verify: cfg!(debug_assertions),
        }
    }
}

/// Checks IR well-formedness and probe invariants after a pipeline pass,
/// panicking with *all* findings if anything is broken. `stage` names the
/// pass that just ran so the report points at the culprit.
///
/// This is the pipeline's safety net against silent probe corruption — the
/// failure mode the paper attributes to stale debug info, recreated here any
/// time a cloning pass forgets to raise duplication factors or an inliner
/// change mangles probe inline stacks.
fn verify_after_pass(module: &Module, stage: &str) {
    let ir_errors = csspgo_ir::verify::verify_module(module);
    let probe_issues = csspgo_ir::probe_verify::check_module(module);
    if ir_errors.is_empty() && probe_issues.is_empty() {
        return;
    }
    let mut report = format!(
        "inter-pass verification failed after `{stage}` ({} IR error(s), {} probe issue(s))",
        ir_errors.len(),
        probe_issues.len()
    );
    for e in &ir_errors {
        report.push_str("\n  ");
        report.push_str(&e.to_string());
    }
    for i in &probe_issues {
        report.push_str("\n  ");
        report.push_str(&i.to_string());
    }
    panic!("{report}");
}

/// Runs the mid-level + late pipeline on an (optionally annotated) module.
///
/// Anchoring passes (probes/discriminators/instrumentation) and the
/// top-down sample-loader inliner are *not* included: the PGO driver in
/// `csspgo-core` sequences those explicitly around profile annotation.
pub fn run_pipeline(module: &mut Module, config: &OptConfig) {
    let checkpoint = |module: &Module, stage: &str| {
        if config.interpass_verify {
            verify_after_pass(module, stage);
        }
    };
    checkpoint(module, "input");
    // Passes maintain block counts ("profile maintenance") but not the
    // edge-count annotation inference attaches, nor the per-block
    // provenance tags — drop both rather than let a transformed CFG carry
    // stale annotations.
    for f in &mut module.functions {
        f.edge_counts = None;
        f.count_provenance = None;
    }
    simplify::run(module);
    checkpoint(module, "simplify");
    tail_dup::run(module, config);
    simplify::run(module);
    checkpoint(module, "tail_dup");
    licm::run(module, config);
    checkpoint(module, "licm");
    sink::run(module, config);
    checkpoint(module, "sink");
    inliner::run_bottom_up(module, config);
    simplify::run(module);
    checkpoint(module, "inline");
    unroll::run(module, config);
    simplify::run(module);
    checkpoint(module, "unroll");
    tailmerge::run(module);
    checkpoint(module, "tailmerge");
    ifconvert::run(module, config);
    simplify::run(module);
    checkpoint(module, "ifconvert");
    layout::run(module);
    checkpoint(module, "layout");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_inline_limits_are_ordered() {
        let c = OptConfig::default();
        assert!(c.inline_small_size < c.inline_hot_size);
    }

    #[test]
    fn pipeline_preserves_validity_on_real_program() {
        let src = r#"
global acc[4];
fn helper(x) {
    if (x > 10) { return x - 10; }
    return x;
}
fn work(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i);
        i = i + 1;
    }
    acc[0] = s;
    return s;
}
fn main(n) {
    return work(n);
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        run_pipeline(&mut m, &OptConfig::default());
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
    }

    #[test]
    fn interpass_verify_accepts_probed_modules() {
        let src = "fn g(x) { return x + 1; } fn f(n) { let i = 0; while (i < n) { i = i + g(i); } return i; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        discriminators::run(&mut m);
        probes::run(&mut m);
        let cfg = OptConfig {
            interpass_verify: true,
            ..OptConfig::default()
        };
        run_pipeline(&mut m, &cfg);
        assert_eq!(csspgo_ir::probe_verify::check_module(&m), vec![]);
    }

    #[test]
    #[should_panic(expected = "inter-pass verification failed")]
    fn verify_after_pass_reports_corruption() {
        let mut m = csspgo_lang::compile("fn f(x) { return x; }", "t").unwrap();
        probes::run(&mut m);
        // Corrupt: duplicate the entry block probe without a factor.
        let probe = m.functions[0].blocks[0].insts[0].clone();
        m.functions[0].blocks[0].insts.insert(0, probe);
        verify_after_pass(&m, "test");
    }
}
