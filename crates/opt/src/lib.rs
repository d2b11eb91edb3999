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
//! The mid-level and late passes run in one order, written once as data (a
//! private table of named entries, each `simplify` repeat its own entry).
//! [`run_passes`] walks it and shows the module to an observer on the input
//! and after every entry; [`run_pipeline`] is that walk with the inter-pass
//! verifier as the observer when [`OptConfig::interpass_verify`] is set.
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

use csspgo_ir::inst::InstKind;
use csspgo_ir::probe::ProbeBarrier;
use csspgo_ir::{Function, Inst, Module};

/// No block yet, in a single-block table.
pub(crate) const NO_BLOCK: u32 = u32::MAX;
/// More than one block, in a single-block table.
pub(crate) const MANY_BLOCKS: u32 = u32::MAX - 1;

/// Records `block` in a single-block slot: the one block seen so far,
/// [`NO_BLOCK`] or [`MANY_BLOCKS`].
pub(crate) fn note_block(slot: &mut u32, block: u32) {
    if *slot == NO_BLOCK {
        *slot = block;
    } else if *slot != block {
        *slot = MANY_BLOCKS;
    }
}

/// Fills `table` with each block's one predecessor among the live blocks,
/// by block index: a block reached twice from one block has one.
pub(crate) fn single_predecessors(func: &Function, table: &mut Vec<u32>) {
    table.clear();
    table.resize(func.blocks.len(), NO_BLOCK);
    for (bid, block) in func.iter_blocks() {
        for s in block.targets() {
            note_block(&mut table[s.index()], bid.index() as u32);
        }
    }
}

/// The instructions of `insts` that are not pseudo-probes: a block's size
/// to the duplicating passes.
pub(crate) fn real_len(insts: &[Inst]) -> usize {
    insts
        .iter()
        .filter(|i| !matches!(i.kind, InstKind::PseudoProbe { .. }))
        .count()
}

/// Multiplies the duplication factor of every probe in `insts` by `k`: each
/// probe now co-exists with `k` times as many copies of itself. Applied to
/// the original *and* every clone, keeping probe counts summable.
pub(crate) fn scale_probe_factors(insts: &mut [Inst], k: u32) {
    for inst in insts {
        if let InstKind::PseudoProbe { factor, .. } = &mut inst.kind {
            *factor = factor.saturating_mul(k);
        }
    }
}

/// Tuning knobs for the whole pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct OptConfig {
    /// How strongly probes block optimizations.
    pub probe: ProbeBarrier,
    /// Callee size (instructions) below which calls are always inlined.
    pub inline_small_size: usize,
    /// Callee size limit for hot call sites.
    pub inline_hot_size: usize,
    /// Run the IR verifier and probe-invariant checker on the input and
    /// after every entry of [`run_pipeline`], panicking (with every finding)
    /// on the first entry that breaks an invariant. Defaults to on in debug
    /// builds, off in release; release users opt in via `PipelineConfig`.
    pub interpass_verify: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            probe: ProbeBarrier::default(),
            inline_small_size: 14,
            inline_hot_size: 80,
            interpass_verify: cfg!(debug_assertions),
        }
    }
}

/// Checks IR well-formedness and probe invariants after a pipeline entry,
/// panicking with *all* findings if anything is broken. `stage` names the
/// entry that just ran and `step` its place in the walk (0 for `input`), so
/// the report points at the culprit.
///
/// This is the pipeline's safety net against silent probe corruption — the
/// failure mode the paper attributes to stale debug info, recreated here any
/// time a cloning pass forgets to raise duplication factors or an inliner
/// change mangles probe inline stacks.
fn verify_after_pass(module: &Module, stage: &str, step: usize) {
    let ir_errors = csspgo_ir::verify::verify_module(module);
    let probe_issues = csspgo_ir::probe_verify::check_module(module);
    let findings: Vec<String> = (ir_errors.iter().map(ToString::to_string))
        .chain(probe_issues.iter().map(ToString::to_string))
        .collect();
    assert!(
        findings.is_empty(),
        "inter-pass verification failed after `{stage}`, step {step} of {} ({} IR error(s), {} probe issue(s))\n  {}",
        PASSES.len(),
        ir_errors.len(),
        probe_issues.len(),
        findings.join("\n  ")
    );
}

/// An entry's pass; every entry takes the config, read or not.
type Pass = fn(&mut Module, &OptConfig);

/// The mid-level and late passes in pipeline order, each `simplify` repeat
/// an entry of its own: the one statement of the order.
const PASSES: [(&str, Pass); 13] = [
    ("simplify", |m, _| simplify::run(m)),
    ("tail_dup", tail_dup::run),
    ("simplify", |m, _| simplify::run(m)),
    ("licm", licm::run),
    ("sink", sink::run),
    ("inliner", inliner::run_bottom_up),
    ("simplify", |m, _| simplify::run(m)),
    ("unroll", |m, _| unroll::run(m)),
    ("simplify", |m, _| simplify::run(m)),
    ("tailmerge", |m, _| tailmerge::run(m)),
    ("ifconvert", ifconvert::run),
    ("simplify", |m, _| simplify::run(m)),
    ("layout", |m, _| layout::run(m)),
];

/// Walks the pass list over `module`, calling `observe` with the module and a
/// name first on the input (`"input"`), then after every entry with the
/// entry's name.
pub fn run_passes(
    module: &mut Module,
    config: &OptConfig,
    mut observe: impl FnMut(&Module, &'static str),
) {
    observe(module, "input");
    // Passes maintain block counts ("profile maintenance") but not their
    // provenance tags: drop the tags rather than let a transformed CFG
    // carry stale ones.
    for block in module.functions.iter_mut().flat_map(|f| &mut f.blocks) {
        block.provenance = None;
    }
    for (name, pass) in PASSES {
        pass(module, config);
        observe(module, name);
    }
}

/// Runs the mid-level + late pipeline on an (optionally annotated) module:
/// [`run_passes`], verified on the input and after every entry when
/// [`OptConfig::interpass_verify`] is set.
///
/// Anchoring passes (probes/discriminators/instrumentation) and the
/// top-down sample-loader inliner are *not* included: the PGO driver in
/// `csspgo-core` sequences those explicitly around profile annotation.
pub fn run_pipeline(module: &mut Module, config: &OptConfig) {
    let mut step = 0;
    run_passes(module, config, |module, stage| {
        if config.interpass_verify {
            verify_after_pass(module, stage, step);
        }
        step += 1;
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use csspgo_ir::BlockId;

    /// What a pass can change in `f`: the entry count, the probe checksum,
    /// and each block in emission order (the layout, else live blocks by
    /// id) with its count and instructions, locations included.
    pub(crate) type LinearView = (
        Option<u64>,
        Option<u64>,
        Vec<(BlockId, Option<u64>, Vec<Inst>)>,
    );

    /// `f`'s [`LinearView`]; dead blocks and register counters are left out.
    pub(crate) fn linear_view(f: &Function) -> LinearView {
        let order: Vec<BlockId> = match &f.layout {
            Some(l) => l.hot.iter().chain(&l.cold).copied().collect(),
            None => f.iter_blocks().map(|(b, _)| b).collect(),
        };
        let blocks = order.into_iter().map(|b| {
            let block = f.block(b);
            (b, block.count, block.insts.clone())
        });
        (f.entry_count, f.probe_checksum, blocks.collect())
    }

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
        verify_after_pass(&m, "test", 0);
    }
}
