//! Pseudo-probe support types: probe kinds, inline-stack frames, CFG
//! checksums and the optimization-barrier level.
//!
//! Pseudo-instrumentation (paper §III.A) inserts one *block probe* into every
//! basic block and one *call probe* before every call site, early in the
//! pipeline, on stable IR. Probes behave like instructions during
//! optimization (so code *merge* across distinct probes is blocked and
//! duplicated probes can be *summed*) but lower to metadata, not machine
//! code.

use crate::function::Function;
use crate::ids::FuncId;
use crate::inst::InstKind;
use crate::module::Module;
use serde::{Deserialize, Serialize};

/// What a probe anchors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum ProbeKind {
    /// Anchors a basic block: its count is the block's execution count.
    Block,
    /// Anchors a call site: attributes callee samples to this site.
    Call,
}

/// One frame of a probe inline stack: "inlined through call-site probe
/// `probe_index` of `func`". The probe-based analogue of
/// [`crate::debuginfo::InlineSite`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ProbeSite {
    /// The (original) function containing the call-site probe.
    pub func: FuncId,
    /// The call-site probe's index within `func`.
    pub probe_index: u32,
}

/// How strongly pseudo-probes block optimizations (paper §III.A: "a flexible
/// framework ... a desired balance between overhead and accuracy"): one
/// ordered dial, where each level blocks everything the level below it
/// blocks plus one more class of transform. A pass gated by a level skips
/// probed code when the configured barrier is at or above that level.
///
/// Code *merge* is always blocked — distinct probes must never merge, that is
/// the point of the mechanism. The default, [`ProbeBarrier::None`], blocks
/// nothing else: the paper's production tuning ("we fine-tune a few critical
/// optimizations, including if-convert, machine sink and instruction
/// scheduling, to be unblocked by pseudo-probe").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum ProbeBarrier {
    /// Probes block only code merge: near-zero overhead (production).
    #[default]
    None,
    /// Probes also block if-conversion of the guarded blocks.
    IfConvert,
    /// Probes also block sinking and hoisting code motion (sink, LICM).
    CodeMotion,
    /// Probes also block tail duplication (jump threading): maximum
    /// accuracy, probes behave like full instrumentation barriers.
    Duplication,
}

/// The exact word stream [`cfg_checksum`] hashes: per live block, the block
/// id, a terminator tag (1 = ret, 2 = br, 3 = cond-br, 4 = switch, 0 =
/// other/incomplete) and the successor ids, followed by the live-block
/// count.
///
/// This is the single definition of "CFG shape" shared by the annotate-side
/// checksum and the stale-profile matcher ([`cfg_checksum`] is nothing but
/// an FNV fold of this stream), so the two can never diverge on what a
/// shape is.
fn cfg_shape_words(func: &Function) -> Vec<u64> {
    let mut words = Vec::new();
    let mut nblocks = 0u64;
    for (bid, block) in func.iter_blocks() {
        nblocks += 1;
        words.push(bid.0 as u64);
        if let Some(term) = block.terminator() {
            // The shape of the terminator and its targets.
            let tag = match &term.kind {
                InstKind::Ret { .. } => 1u64,
                InstKind::Br { .. } => 2,
                InstKind::CondBr { .. } => 3,
                InstKind::Switch { .. } => 4,
                _ => 0,
            };
            words.push(tag);
            for succ in term.kind.targets() {
                words.push(succ.0 as u64);
            }
        }
    }
    words.push(nblocks);
    words
}

/// Computes the function's CFG-shape checksum (paper §III.A): an FNV-1a
/// fold of the function's shape words (`cfg_shape_words`).
///
/// The checksum hashes the block structure — per-block successor lists and
/// instruction *counts per kind class* are deliberately excluded so that
/// source edits which do not alter the CFG (comments, renames, constant
/// tweaks) keep the checksum stable, while any CFG change (added branch,
/// removed loop) is detected as a profile/IR mismatch.
///
/// Must be computed at probe-insertion time, on early IR.
pub fn cfg_checksum(func: &Function) -> u64 {
    let mut h = Fnv64::new();
    for w in cfg_shape_words(func) {
        h.write_u64(w);
    }
    h.finish()
}

/// One pseudo-probe of a function, in program order, labeled with the
/// guarded call's callee GUID when it anchors a call site.
///
/// Anchor sequences are the static backbone of stale-profile matching
/// (LLVM's anchor-based matcher): call probes carry a *stable label* (the
/// callee's name GUID) that survives CFG drift, so two builds' anchor
/// sequences can be aligned without executing anything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Anchor {
    /// The probe's index within its owner function.
    pub index: u32,
    /// Block or call probe.
    pub kind: ProbeKind,
    /// For call probes: the GUID of the called function, when the call is
    /// direct and resolvable. `None` for block probes.
    pub callee: Option<u64>,
}

/// Extracts the top-level anchor sequence of `fid`: every probe owned by
/// the function itself (inlined-in probes are skipped), in probe-index
/// order — which on fresh IR is program order, since
/// [`Function::alloc_probe_index`] hands indices out in insertion order.
///
/// A call probe's label is the GUID of the callee of the instruction it
/// guards (the instruction immediately after the probe).
pub fn anchor_sequence(module: &Module, fid: FuncId) -> Vec<Anchor> {
    let func = module.func(fid);
    let mut anchors = Vec::new();
    for (_, block) in func.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let InstKind::PseudoProbe {
                owner,
                index,
                kind,
                inline_stack,
                ..
            } = &inst.kind
            else {
                continue;
            };
            if *owner != fid || !inline_stack.is_empty() {
                continue;
            }
            let callee = match kind {
                ProbeKind::Block => None,
                ProbeKind::Call => block.insts.get(i + 1).and_then(|next| match &next.kind {
                    InstKind::Call { callee, .. } => Some(module.func(*callee).guid),
                    _ => None,
                }),
            };
            anchors.push(Anchor {
                index: *index,
                kind: *kind,
                callee,
            });
        }
    }
    anchors.sort_by_key(|a| a.index);
    anchors
}

/// Stable function GUID: a hash of the (mangled) function name, used to match
/// profiles across builds the way LLVM's pseudo-probe descriptors use an MD5
/// of the function name.
pub fn function_guid(name: &str) -> u64 {
    let mut h = Fnv64::new();
    for b in name.as_bytes() {
        h.write_u8(*b);
    }
    h.finish()
}

/// Minimal FNV-1a hasher; we avoid `DefaultHasher` because its output is not
/// guaranteed stable across Rust releases, and checksums are persisted in
/// profiles.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::Operand;

    #[test]
    fn guid_is_stable_and_distinct() {
        assert_eq!(function_guid("foo"), function_guid("foo"));
        assert_ne!(function_guid("foo"), function_guid("bar"));
    }

    #[test]
    fn checksum_detects_cfg_change_but_not_content_change() {
        // f1: entry -> ret            f2: same CFG, different constant
        // f3: entry -> (b1|b2) -> ret (different CFG)
        let build = |branchy: bool, constant: i64| {
            let mut mb = ModuleBuilder::new("m");
            let f = mb.declare_function("f", 0);
            {
                let mut fb = mb.function_builder(f);
                let entry = fb.entry_block();
                fb.switch_to(entry);
                if branchy {
                    let t = fb.add_block();
                    let e = fb.add_block();
                    let c = fb.cmp(
                        crate::inst::CmpPred::Eq,
                        Operand::Imm(constant),
                        Operand::Imm(0),
                    );
                    fb.cond_br(Operand::Reg(c), t, e);
                    fb.switch_to(t);
                    fb.ret(Some(Operand::Imm(1)));
                    fb.switch_to(e);
                    fb.ret(Some(Operand::Imm(2)));
                } else {
                    fb.ret(Some(Operand::Imm(constant)));
                }
            }
            let m = mb.finish();
            cfg_checksum(&m.functions[0])
        };
        assert_eq!(build(false, 1), build(false, 99)); // content change: same checksum
        assert_ne!(build(false, 1), build(true, 1)); // CFG change: detected
    }

    #[test]
    fn anchor_sequence_labels_call_probes_and_orders_by_index() {
        // g() exists to be called; f carries a block probe, then a call
        // probe guarding `call g`, hand-inserted the way `opt::probes` does.
        let mut mb = ModuleBuilder::new("m");
        let g = mb.declare_function("g", 0);
        let f = mb.declare_function("f", 0);
        {
            let mut fb = mb.function_builder(g);
            let entry = fb.entry_block();
            fb.switch_to(entry);
            fb.ret(Some(Operand::Imm(0)));
        }
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            fb.switch_to(entry);
            fb.emit(InstKind::PseudoProbe {
                owner: f,
                index: 1,
                kind: ProbeKind::Block,
                inline_stack: Vec::new(),
                factor: 1,
            });
            fb.emit(InstKind::PseudoProbe {
                owner: f,
                index: 2,
                kind: ProbeKind::Call,
                inline_stack: Vec::new(),
                factor: 1,
            });
            let r = fb.call(g, Vec::new());
            fb.ret(Some(Operand::Reg(r)));
        }
        let m = mb.finish();
        let anchors = anchor_sequence(&m, f);
        assert_eq!(anchors.len(), 2);
        assert_eq!(anchors[0].index, 1);
        assert_eq!(anchors[0].kind, ProbeKind::Block);
        assert_eq!(anchors[0].callee, None);
        assert_eq!(anchors[1].index, 2);
        assert_eq!(anchors[1].kind, ProbeKind::Call);
        assert_eq!(anchors[1].callee, Some(function_guid("g")));
        // Probes inlined from elsewhere are not part of f's own sequence.
        assert!(anchor_sequence(&m, g).is_empty());
    }

    #[test]
    fn checksum_is_exactly_the_fnv_fold_of_the_shape_words() {
        // The matcher consumes `cfg_shape_words`, annotation consumes
        // `cfg_checksum`; this pins that the two can never diverge.
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 1);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            fb.switch_to(entry);
            let t = fb.add_block();
            let e = fb.add_block();
            let c = fb.cmp(
                crate::inst::CmpPred::Gt,
                Operand::Reg(crate::ids::VReg(0)),
                Operand::Imm(0),
            );
            fb.cond_br(Operand::Reg(c), t, e);
            fb.switch_to(t);
            fb.ret(Some(Operand::Imm(1)));
            fb.switch_to(e);
            fb.ret(Some(Operand::Imm(2)));
        }
        let m = mb.finish();
        let func = &m.functions[0];
        let mut h = Fnv64::new();
        for w in cfg_shape_words(func) {
            h.write_u64(w);
        }
        assert_eq!(h.finish(), cfg_checksum(func));
        // Shape words are non-trivial and deterministic.
        assert!(!cfg_shape_words(func).is_empty());
        assert_eq!(cfg_shape_words(func), cfg_shape_words(func));
    }

    #[test]
    fn probe_barrier_levels_are_ordered_from_the_default() {
        use ProbeBarrier as B;
        assert_eq!(B::default(), B::None);
        assert!(B::None < B::IfConvert && B::IfConvert < B::CodeMotion);
        assert!(B::CodeMotion < B::Duplication);
    }
}
