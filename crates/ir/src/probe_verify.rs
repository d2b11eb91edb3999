//! Pseudo-probe invariant checks.
//!
//! The pseudo-probe design (paper §III.A) only yields trustworthy profiles if
//! every optimization pass preserves a handful of structural invariants:
//!
//! 1. **Identity** — a probe id `(owner, index, inline_stack)` appears at most
//!    once per function, *unless* its copies carry duplication `factor`s
//!    accounting for the cloning: each copy represents `1/factor` of the
//!    probe's weight, so the copies' weights must sum to at most 1. Cloning
//!    passes (`unroll`, `tail_dup`) multiply the factor of every copy they
//!    create; merges and DCE may drop copies (the sum only shrinks, the
//!    factors stay valid).
//! 2. **Index range** — probe indices are dense per owner: `1 ..
//!    next_probe_index`. Index 0 or an index past the owner's allocation
//!    watermark means the probe was corrupted or fabricated.
//! 3. **Inline-stack well-formedness** — every frame names a real function
//!    and a probe index inside that function's range, the outermost frame
//!    belongs to the function physically containing the probe, and depth is
//!    bounded (a cycle in replayed inlining would otherwise grow it without
//!    limit).
//! 4. **Discriminator hygiene** (fresh IR only) — within a block each source
//!    line carries one discriminator, and across blocks a line's
//!    discriminators grow monotonically in block order, exactly as the
//!    discriminator-assignment pass produces them. Later duplication passes
//!    legitimately break this (that is the paper's argument for probes), so
//!    [`check_discriminators`] is *not* part of [`check_module`].
//!
//! [`check_module`] (invariants 1–3) is safe to run after **every** opt pass;
//! the optimizer's inter-pass checkpoint does exactly that and panics on a
//! finding, and the discriminator pass `debug_assert!`s
//! [`check_discriminators`] on what it produced. Both are assertions at the
//! producer: no lint wraps them, since no input from outside the process
//! reaches them.

use crate::function::Function;
use crate::ids::{BlockId, FuncId};
use crate::inst::InstKind;
use crate::module::Module;
use crate::probe::{ProbeKind, ProbeSite};
use std::collections::HashMap;
use std::fmt;

/// Maximum tolerated probe inline-stack depth. Real inlining depth in this
/// repo is single digits; anything deeper indicates a replay cycle.
const MAX_INLINE_DEPTH: usize = 64;

/// Classification of a probe-invariant violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeIssueKind {
    /// Multiple copies of one probe id with a unit duplication factor.
    DuplicateId,
    /// Multiple copies whose declared factors leave a combined weight
    /// (`Σ 1/factor`) above 1 — some cloning pass forgot to raise them.
    MissingDupFactor,
    /// Probe index 0, past the owner's allocation watermark, or unknown owner.
    IndexOutOfRange,
    /// Inline stack with an invalid frame, wrong root, or excessive depth.
    MalformedInlineStack,
    /// One source line with several discriminators inside a single block.
    DiscriminatorConflict,
    /// A line's discriminators do not grow monotonically across blocks.
    DiscriminatorNonMonotone,
}

impl fmt::Display for ProbeIssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeIssueKind::DuplicateId => "duplicate-probe-id",
            ProbeIssueKind::MissingDupFactor => "missing-dup-factor",
            ProbeIssueKind::IndexOutOfRange => "probe-index-out-of-range",
            ProbeIssueKind::MalformedInlineStack => "malformed-inline-stack",
            ProbeIssueKind::DiscriminatorConflict => "discriminator-conflict",
            ProbeIssueKind::DiscriminatorNonMonotone => "discriminator-non-monotone",
        };
        f.write_str(s)
    }
}

/// One probe-invariant violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProbeIssue {
    /// Function the offending probe physically lives in.
    pub func: FuncId,
    /// Block of (the first copy of) the offending probe, when applicable.
    pub block: Option<BlockId>,
    /// Violation class.
    pub kind: ProbeIssueKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ProbeIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe invariant [{}] in {}", self.kind, self.func)?;
        if let Some(b) = self.block {
            write!(f, " at {b}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Checks invariants 1–3 (identity, index range, inline stacks) on every
/// function. Safe after any pass; an empty vector means all probes are sound.
#[must_use = "an empty vector means probe invariants hold"]
pub fn check_module(module: &Module) -> Vec<ProbeIssue> {
    let mut issues = Vec::new();
    for func in &module.functions {
        check_function_into(module, func, &mut issues);
    }
    issues
}

type ProbeId = (FuncId, u32, Vec<ProbeSite>);

struct ProbeGroup {
    first_block: BlockId,
    copies: usize,
    min_factor: u32,
    /// Combined weight of the copies: `Σ 1/factor`. Must stay ≤ 1.
    weight: f64,
}

fn check_function_into(module: &Module, func: &Function, issues: &mut Vec<ProbeIssue>) {
    let mut groups: HashMap<ProbeId, ProbeGroup> = HashMap::new();
    let mut order: Vec<ProbeId> = Vec::new();

    for (bid, block) in func.iter_blocks() {
        for inst in &block.insts {
            let InstKind::PseudoProbe {
                owner,
                index,
                kind,
                inline_stack,
                factor,
            } = &inst.kind
            else {
                continue;
            };

            check_index(module, func, bid, *owner, *index, issues);
            check_stack(module, func, bid, *kind, inline_stack, issues);

            let w = 1.0 / (*factor).max(1) as f64;
            let key: ProbeId = (*owner, *index, inline_stack.clone());
            match groups.get_mut(&key) {
                Some(g) => {
                    g.copies += 1;
                    g.min_factor = g.min_factor.min(*factor);
                    g.weight += w;
                }
                None => {
                    groups.insert(
                        key.clone(),
                        ProbeGroup {
                            first_block: bid,
                            copies: 1,
                            min_factor: *factor,
                            weight: w,
                        },
                    );
                    order.push(key);
                }
            }
        }
    }

    for key in &order {
        let g = &groups[key];
        // A lone copy is always fine; multiple copies must declare factors
        // whose weights sum to at most 1 (rounding slack for deep
        // compositions of cloning passes).
        if g.copies <= 1 || g.weight <= 1.0 + 1e-9 {
            continue;
        }
        let (owner, index, _) = key;
        let kind = if g.min_factor <= 1 {
            ProbeIssueKind::DuplicateId
        } else {
            ProbeIssueKind::MissingDupFactor
        };
        issues.push(ProbeIssue {
            func: func.id,
            block: Some(g.first_block),
            kind,
            message: format!(
                "probe {owner}:{index} has {} copies with combined weight {:.3} (min factor {})",
                g.copies, g.weight, g.min_factor
            ),
        });
    }
}

fn check_index(
    module: &Module,
    func: &Function,
    bid: BlockId,
    owner: FuncId,
    index: u32,
    issues: &mut Vec<ProbeIssue>,
) {
    let push = |issues: &mut Vec<ProbeIssue>, message: String| {
        issues.push(ProbeIssue {
            func: func.id,
            block: Some(bid),
            kind: ProbeIssueKind::IndexOutOfRange,
            message,
        });
    };
    if owner.index() >= module.functions.len() {
        push(issues, format!("probe owned by unknown function {owner}"));
        return;
    }
    if index == 0 {
        push(
            issues,
            format!("probe {owner}:{index} has reserved index 0"),
        );
        return;
    }
    let owner_f = module.func(owner);
    // The watermark is only meaningful once probes were inserted (signalled
    // by the recorded CFG checksum).
    if owner_f.probe_checksum.is_some() && index >= owner_f.next_probe_index {
        push(
            issues,
            format!(
                "probe {owner}:{index} past owner watermark {}",
                owner_f.next_probe_index
            ),
        );
    }
}

fn check_stack(
    module: &Module,
    func: &Function,
    bid: BlockId,
    _kind: ProbeKind,
    stack: &[ProbeSite],
    issues: &mut Vec<ProbeIssue>,
) {
    let push = |issues: &mut Vec<ProbeIssue>, message: String| {
        issues.push(ProbeIssue {
            func: func.id,
            block: Some(bid),
            kind: ProbeIssueKind::MalformedInlineStack,
            message,
        });
    };
    if stack.is_empty() {
        return;
    }
    if stack.len() > MAX_INLINE_DEPTH {
        push(
            issues,
            format!(
                "inline stack depth {} exceeds {MAX_INLINE_DEPTH}",
                stack.len()
            ),
        );
        return;
    }
    // The outermost frame's call-site probe must belong to the function the
    // probe physically lives in — the inliner always roots cloned stacks at
    // a call-site probe of the (transitive) caller.
    let root = stack[0];
    if root.func != func.id {
        push(
            issues,
            format!(
                "inline stack rooted at {} but probe lives in {}",
                root.func, func.id
            ),
        );
    }
    for frame in stack {
        if frame.func.index() >= module.functions.len() {
            push(
                issues,
                format!("inline frame names unknown function {}", frame.func),
            );
            continue;
        }
        let ff = module.func(frame.func);
        if frame.probe_index == 0
            || (ff.probe_checksum.is_some() && frame.probe_index >= ff.next_probe_index)
        {
            push(
                issues,
                format!(
                    "inline frame {}#{} outside probe range of {}",
                    frame.func, frame.probe_index, ff.name
                ),
            );
        }
    }
}

/// Checks discriminator hygiene (invariant 4) on one function.
///
/// Only meaningful on **fresh** IR, right after discriminator assignment and
/// probe insertion: later duplication passes (unroll, tail duplication)
/// legitimately clone discriminators, and if-conversion legitimately mixes
/// them in a merged block. Do not run this between passes.
#[must_use = "an empty vector means discriminators are sound"]
pub fn check_discriminators(func: &Function) -> Vec<ProbeIssue> {
    let mut issues = Vec::new();
    // line -> last (block, discriminator) seen, in block order.
    let mut last: HashMap<u32, (BlockId, u32)> = HashMap::new();
    for (bid, block) in func.iter_blocks() {
        // line -> discriminator within this block.
        let mut local: HashMap<u32, u32> = HashMap::new();
        for inst in &block.insts {
            let line = inst.loc.line;
            if line == 0 {
                continue;
            }
            let disc = inst.loc.discriminator;
            match local.get(&line) {
                Some(&prev) if prev != disc => {
                    issues.push(ProbeIssue {
                        func: func.id,
                        block: Some(bid),
                        kind: ProbeIssueKind::DiscriminatorConflict,
                        message: format!(
                            "line {line} has discriminators {prev} and {disc} in one block"
                        ),
                    });
                }
                Some(_) => {}
                None => {
                    local.insert(line, disc);
                }
            }
        }
        for (&line, &disc) in &local {
            match last.get(&line) {
                Some(&(pb, pd)) if disc <= pd => {
                    issues.push(ProbeIssue {
                        func: func.id,
                        block: Some(bid),
                        kind: ProbeIssueKind::DiscriminatorNonMonotone,
                        message: format!(
                            "line {line} discriminator {disc} in {bid} not above {pd} in {pb}"
                        ),
                    });
                }
                _ => {
                    last.insert(line, (bid, disc));
                }
            }
        }
    }
    // HashMap iteration above is unordered within a block's line set; sort
    // for deterministic output.
    issues.sort_by(|a, b| (a.block, &a.message).cmp(&(b.block, &b.message)));
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    fn probed_module() -> Module {
        // Hand-build: f with two blocks, probes 1 and 2.
        let mut mb = crate::builder::ModuleBuilder::new("m");
        let f = mb.declare_function("f", 0);
        {
            let mut fb = mb.function_builder(f);
            let e = fb.entry_block();
            let b = fb.add_block();
            fb.switch_to(e);
            fb.br(b);
            fb.switch_to(b);
            fb.ret(None);
        }
        let mut m = mb.finish();
        let func = &mut m.functions[0];
        func.probe_checksum = Some(1);
        for bid in [BlockId(0), BlockId(1)] {
            let index = func.alloc_probe_index();
            func.block_mut(bid).insts.insert(
                0,
                Inst::synthetic(InstKind::PseudoProbe {
                    owner: f,
                    index,
                    kind: ProbeKind::Block,
                    inline_stack: Vec::new(),
                    factor: 1,
                }),
            );
        }
        m
    }

    fn clone_probe_into(m: &mut Module, from: BlockId, to: BlockId) {
        let probe = m.functions[0].block(from).insts[0].clone();
        m.functions[0].block_mut(to).insts.insert(0, probe);
    }

    #[test]
    fn clean_probes_pass() {
        let m = probed_module();
        assert_eq!(check_module(&m), vec![]);
    }

    #[test]
    fn duplicate_without_factor_flagged() {
        let mut m = probed_module();
        clone_probe_into(&mut m, BlockId(0), BlockId(1));
        let issues = check_module(&m);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert_eq!(issues[0].kind, ProbeIssueKind::DuplicateId);
    }

    #[test]
    fn duplicate_with_sufficient_factor_passes() {
        let mut m = probed_module();
        clone_probe_into(&mut m, BlockId(0), BlockId(1));
        for b in &mut m.functions[0].blocks {
            for i in &mut b.insts {
                if let InstKind::PseudoProbe { factor, .. } = &mut i.kind {
                    *factor = 2;
                }
            }
        }
        assert_eq!(check_module(&m), vec![]);
    }

    #[test]
    fn underdeclared_factor_flagged() {
        let mut m = probed_module();
        // Three copies of probe 1 declaring factor 2.
        clone_probe_into(&mut m, BlockId(0), BlockId(1));
        clone_probe_into(&mut m, BlockId(0), BlockId(1));
        for b in &mut m.functions[0].blocks {
            for i in &mut b.insts {
                if let InstKind::PseudoProbe {
                    index: 1, factor, ..
                } = &mut i.kind
                {
                    *factor = 2;
                }
            }
        }
        let issues = check_module(&m);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert_eq!(issues[0].kind, ProbeIssueKind::MissingDupFactor);
    }

    #[test]
    fn out_of_range_index_flagged() {
        let mut m = probed_module();
        if let InstKind::PseudoProbe { index, .. } =
            &mut m.functions[0].block_mut(BlockId(0)).insts[0].kind
        {
            *index = 99;
        }
        let issues = check_module(&m);
        assert!(issues
            .iter()
            .any(|i| i.kind == ProbeIssueKind::IndexOutOfRange));
    }

    #[test]
    fn bad_inline_stack_root_flagged() {
        let mut m = probed_module();
        let g = FuncId(5); // not f, and out of module range too
        if let InstKind::PseudoProbe { inline_stack, .. } =
            &mut m.functions[0].block_mut(BlockId(0)).insts[0].kind
        {
            inline_stack.push(ProbeSite {
                func: g,
                probe_index: 1,
            });
        }
        let issues = check_module(&m);
        assert!(issues
            .iter()
            .any(|i| i.kind == ProbeIssueKind::MalformedInlineStack));
    }

    #[test]
    fn discriminator_conflict_flagged() {
        let mut m = probed_module();
        let b = &mut m.functions[0].block_mut(BlockId(0)).insts;
        // Two insts on line 3 with different discriminators in one block.
        let mut i1 = Inst::synthetic(InstKind::Br { target: BlockId(1) });
        i1.loc.line = 3;
        i1.loc.discriminator = 0;
        let mut i2 = i1.clone();
        i2.loc.discriminator = 1;
        b.pop();
        b.push(i2);
        b.push(i1);
        let issues = check_discriminators(&m.functions[0]);
        assert!(issues
            .iter()
            .any(|i| i.kind == ProbeIssueKind::DiscriminatorConflict));
    }

    #[test]
    fn non_monotone_discriminators_flagged() {
        let mut m = probed_module();
        // Same line in both blocks, same discriminator: not strictly rising.
        for bid in [BlockId(0), BlockId(1)] {
            let term = m.functions[0].block_mut(bid).insts.last_mut().unwrap();
            term.loc.line = 7;
            term.loc.discriminator = 2;
        }
        let issues = check_discriminators(&m.functions[0]);
        assert!(issues
            .iter()
            .any(|i| i.kind == ProbeIssueKind::DiscriminatorNonMonotone));
    }
}
