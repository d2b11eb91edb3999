//! IR → machine lowering and binary assembly.
//!
//! Placement: every function's hot part in module order, then a far "cold
//! section" holding every function's cold part (function splitting).
//! Branch polarity is chosen at emission: the conditional jump always
//! targets the non-fall-through successor, which is the layout pass's
//! branch inversion made concrete.

use crate::binary::{AddrIndex, BinFunc, Binary, SectionSizes};
use crate::minst::{MInst, MInstKind, ProbeNote};
use crate::spill::{plan_spills, SpillPlan};
use crate::CodegenConfig;
use csspgo_ir::inst::{InstKind, Operand};
use csspgo_ir::{BlockId, Function, Module, VReg};
use std::collections::HashMap;

/// Bytes of alignment padding between functions.
const FUNC_ALIGN: u64 = 16;
/// Byte offset separating the cold section from the hot section.
const COLD_SECTION_GAP: u64 = 1 << 20;

/// Lowers a whole module to a laid-out [`Binary`].
pub fn lower_module(module: &Module, _: &CodegenConfig) -> Binary {
    let lowerings: Vec<FuncLowering> = module
        .functions
        .iter()
        .map(|f| lower_function(module, f))
        .collect();

    // ----- placement: hot parts, then cold parts -----
    let mut hot_start = vec![0usize; lowerings.len()];
    let mut cold_start = vec![0usize; lowerings.len()];
    let mut cursor = 0usize;
    for (i, l) in lowerings.iter().enumerate() {
        hot_start[i] = cursor;
        cursor += l.hot.len();
    }
    for (i, l) in lowerings.iter().enumerate() {
        cold_start[i] = cursor;
        cursor += l.cold.len();
    }
    let total = cursor;

    // Flat start index for every block.
    let mut block_flat: Vec<HashMap<BlockId, usize>> = Vec::with_capacity(lowerings.len());
    for (i, l) in lowerings.iter().enumerate() {
        let mut map = HashMap::new();
        for &(b, pos) in &l.hot_blocks {
            map.insert(b, hot_start[i] + pos);
        }
        for &(b, pos) in &l.cold_blocks {
            map.insert(b, cold_start[i] + pos);
        }
        block_flat.push(map);
    }

    // ----- assemble + fixups -----
    let mut insts: Vec<MInst> = Vec::with_capacity(total);
    let mut func_of: Vec<u32> = Vec::with_capacity(total);
    for (i, l) in lowerings.iter().enumerate() {
        let mut stream = l.hot.clone();
        apply_fixups(&mut stream, &l.hot_fixups, &block_flat[i]);
        insts.extend(stream);
        func_of.extend(std::iter::repeat_n(i as u32, l.hot.len()));
    }
    for (i, l) in lowerings.iter().enumerate() {
        let mut stream = l.cold.clone();
        apply_fixups(&mut stream, &l.cold_fixups, &block_flat[i]);
        insts.extend(stream);
        func_of.extend(std::iter::repeat_n(i as u32, l.cold.len()));
    }

    // ----- addresses -----
    let mut addrs = Vec::with_capacity(total);
    let mut addr = 0u64;
    let mut prev_func = u32::MAX;
    let hot_insts: usize = lowerings.iter().map(|l| l.hot.len()).sum();
    for (idx, inst) in insts.iter().enumerate() {
        if idx == hot_insts && idx != 0 {
            addr += COLD_SECTION_GAP; // cold section starts far away
        }
        if func_of[idx] != prev_func {
            addr = addr.div_ceil(FUNC_ALIGN) * FUNC_ALIGN;
            prev_func = func_of[idx];
        }
        addrs.push(addr);
        addr += inst.size as u64;
    }

    // ----- symbols -----
    let mut funcs = Vec::with_capacity(lowerings.len());
    for (i, (l, f)) in lowerings.iter().zip(&module.functions).enumerate() {
        let entry = *block_flat[i]
            .get(&f.entry)
            .expect("entry block placed in hot part");
        funcs.push(BinFunc {
            id: f.id,
            guid: f.guid,
            name: f.name.clone(),
            start_line: f.start_line,
            num_vregs: f.num_vregs(),
            probe_checksum: f.probe_checksum,
            entry,
            hot_range: (hot_start[i], hot_start[i] + l.hot.len()),
            cold_range: (cold_start[i], cold_start[i] + l.cold.len()),
        });
    }

    let sections = measure_sections(&insts, &funcs);
    let (frame_table, frame_spans) = Binary::compute_frame_table(&insts, &func_of, &funcs);
    let addr_index = AddrIndex::build(&insts, &addrs);

    Binary {
        insts,
        addrs,
        func_of,
        funcs,
        sections,
        num_counters: module.num_counters,
        globals: module.globals.clone(),
        frame_table,
        frame_spans,
        addr_index,
    }
}

/// Encoded-size model for the metadata sections.
fn measure_sections(insts: &[MInst], funcs: &[BinFunc]) -> SectionSizes {
    let text: u64 = insts.iter().map(|i| i.size as u64).sum();

    // Debug line: one row whenever (line, disc, stack) changes, 3 bytes per
    // row plus 6 bytes per inline frame of the row; 24-byte unit header per
    // function.
    let mut debug_line: u64 = funcs.len() as u64 * 24;
    let mut prev: Option<(&csspgo_ir::DebugLoc,)> = None;
    for inst in insts {
        let changed = match prev {
            Some((p,)) => p != &inst.loc,
            None => true,
        };
        if changed && !inst.loc.is_none() {
            debug_line += 3 + 6 * inst.loc.inline_stack.len() as u64;
        }
        prev = Some((&inst.loc,));
    }

    // Pseudo-probe section: per-function descriptor (guid + checksum + name)
    // and per-probe entries (index/type/addr-delta ULEBs + inline frames).
    let probed = funcs.iter().any(|f| f.probe_checksum.is_some());
    let mut pseudo_probe: u64 = 0;
    if probed {
        for f in funcs {
            pseudo_probe += 16 + f.name.len() as u64;
        }
        for inst in insts {
            for p in &inst.probes {
                pseudo_probe += 3 + 2 * p.inline_stack.len() as u64;
            }
        }
    }

    SectionSizes {
        text,
        debug_line,
        pseudo_probe,
    }
}

/// How one pending branch target must be written back.
#[derive(Clone, Debug)]
enum Slot {
    Jmp,
    JmpIf,
    TableCase(usize),
    TableDefault,
}

#[derive(Clone, Debug)]
struct Fixup {
    pos: usize,
    slot: Slot,
    block: BlockId,
}

fn apply_fixups(stream: &mut [MInst], fixups: &[Fixup], block_flat: &HashMap<BlockId, usize>) {
    for f in fixups {
        let target = *block_flat
            .get(&f.block)
            .expect("branch target block was placed");
        match (&mut stream[f.pos].kind, &f.slot) {
            (MInstKind::Jmp { target: t }, Slot::Jmp) => *t = target,
            (MInstKind::JmpIf { target: t, .. }, Slot::JmpIf) => *t = target,
            (MInstKind::JmpTable { targets, .. }, Slot::TableCase(i)) => targets[*i].1 = target,
            (MInstKind::JmpTable { default, .. }, Slot::TableDefault) => *default = target,
            (k, s) => unreachable!("fixup mismatch: {k:?} vs {s:?}"),
        }
    }
}

struct FuncLowering {
    hot: Vec<MInst>,
    cold: Vec<MInst>,
    hot_fixups: Vec<Fixup>,
    cold_fixups: Vec<Fixup>,
    /// (block, start position in stream) — empty blocks naturally share the
    /// next block's start.
    hot_blocks: Vec<(BlockId, usize)>,
    cold_blocks: Vec<(BlockId, usize)>,
}

fn lower_function(module: &Module, func: &Function) -> FuncLowering {
    let spills = plan_spills(func);

    let (hot_order, cold_order): (Vec<BlockId>, Vec<BlockId>) = match &func.layout {
        Some(l) => (l.hot.clone(), l.cold.clone()),
        None => (func.iter_blocks().map(|(b, _)| b).collect(), vec![]),
    };

    let (hot, hot_fixups, hot_blocks) = lower_stream(module, func, &hot_order, &spills);
    let (cold, cold_fixups, cold_blocks) = lower_stream(module, func, &cold_order, &spills);

    FuncLowering {
        hot,
        cold,
        hot_fixups,
        cold_fixups,
        hot_blocks,
        cold_blocks,
    }
}

fn lower_stream(
    module: &Module,
    func: &Function,
    order: &[BlockId],
    spills: &SpillPlan,
) -> (Vec<MInst>, Vec<Fixup>, Vec<(BlockId, usize)>) {
    let mut out: Vec<MInst> = Vec::new();
    let mut fixups: Vec<Fixup> = Vec::new();
    let mut blocks: Vec<(BlockId, usize)> = Vec::new();
    let mut pending_probes: Vec<ProbeNote> = Vec::new();

    let emit = |out: &mut Vec<MInst>, pending: &mut Vec<ProbeNote>, mut inst: MInst| {
        inst.probes.append(pending);
        out.push(inst);
    };

    for (pos, &bid) in order.iter().enumerate() {
        blocks.push((bid, out.len()));
        let next = order.get(pos + 1).copied();
        let block = func.block(bid);
        let n = block.insts.len();

        let mut i = 0usize;
        while i < n {
            let inst = &block.insts[i];
            let loc = inst.loc.clone();

            // Spill reloads for the instruction's uses.
            let mut reloaded: Vec<u32> = Vec::new();
            for op in inst.kind.uses() {
                if let Operand::Reg(r) = op {
                    if let Some(&slot) = spills.slots.get(&r) {
                        if !reloaded.contains(&slot) {
                            reloaded.push(slot);
                            emit(
                                &mut out,
                                &mut pending_probes,
                                MInst::new(MInstKind::SpillLoad { slot }, loc.clone()),
                            );
                        }
                    }
                }
            }

            match &inst.kind {
                InstKind::PseudoProbe {
                    owner,
                    index,
                    kind,
                    inline_stack,
                    ..
                } => {
                    pending_probes.push(ProbeNote {
                        owner: *owner,
                        owner_guid: module.func(*owner).guid,
                        index: *index,
                        kind: *kind,
                        inline_stack: inline_stack.clone(),
                    });
                }
                InstKind::CounterIncr { counter } => {
                    emit(
                        &mut out,
                        &mut pending_probes,
                        MInst::new(MInstKind::CounterIncr { counter: *counter }, loc),
                    );
                }
                InstKind::Copy { dst, src } => {
                    lower_simple(
                        &mut out,
                        &mut pending_probes,
                        MInstKind::Copy {
                            dst: *dst,
                            src: *src,
                        },
                        loc,
                        inst.kind.def(),
                        spills,
                    );
                }
                InstKind::Bin { op, dst, lhs, rhs } => {
                    lower_simple(
                        &mut out,
                        &mut pending_probes,
                        MInstKind::Bin {
                            op: *op,
                            dst: *dst,
                            lhs: *lhs,
                            rhs: *rhs,
                        },
                        loc,
                        inst.kind.def(),
                        spills,
                    );
                }
                InstKind::Cmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    lower_simple(
                        &mut out,
                        &mut pending_probes,
                        MInstKind::Cmp {
                            pred: *pred,
                            dst: *dst,
                            lhs: *lhs,
                            rhs: *rhs,
                        },
                        loc,
                        inst.kind.def(),
                        spills,
                    );
                }
                InstKind::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    lower_simple(
                        &mut out,
                        &mut pending_probes,
                        MInstKind::Select {
                            dst: *dst,
                            cond: *cond,
                            on_true: *on_true,
                            on_false: *on_false,
                        },
                        loc,
                        inst.kind.def(),
                        spills,
                    );
                }
                InstKind::Load { dst, global, index } => {
                    lower_simple(
                        &mut out,
                        &mut pending_probes,
                        MInstKind::Load {
                            dst: *dst,
                            global: *global,
                            index: *index,
                        },
                        loc,
                        inst.kind.def(),
                        spills,
                    );
                }
                InstKind::Store {
                    global,
                    index,
                    value,
                } => {
                    emit(
                        &mut out,
                        &mut pending_probes,
                        MInst::new(
                            MInstKind::Store {
                                global: *global,
                                index: *index,
                                value: *value,
                            },
                            loc,
                        ),
                    );
                }
                InstKind::Call { dst, callee, args } => {
                    // Tail-call elimination: `x = call f(...); ret x` (with
                    // only probes in between) becomes a tail jump.
                    if is_tail_position(block, i, *dst) {
                        emit(
                            &mut out,
                            &mut pending_probes,
                            MInst::new(
                                MInstKind::TailCall {
                                    callee: callee.0,
                                    args: args.clone(),
                                },
                                loc,
                            ),
                        );
                        // Skip the remaining probes + ret: consumed.
                        break;
                    }
                    lower_simple(
                        &mut out,
                        &mut pending_probes,
                        MInstKind::Call {
                            dst: *dst,
                            callee: callee.0,
                            args: args.clone(),
                        },
                        loc,
                        *dst,
                        spills,
                    );
                }
                InstKind::Ret { value } => {
                    emit(
                        &mut out,
                        &mut pending_probes,
                        MInst::new(MInstKind::Ret { value: *value }, loc),
                    );
                }
                InstKind::Br { target } => {
                    if next != Some(*target) {
                        fixups.push(Fixup {
                            pos: out.len(),
                            slot: Slot::Jmp,
                            block: *target,
                        });
                        emit(
                            &mut out,
                            &mut pending_probes,
                            MInst::new(MInstKind::Jmp { target: usize::MAX }, loc),
                        );
                    }
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    // Branch inversion: jump to the non-fall-through side.
                    let (jump_to, negate, also_jmp) = if next == Some(*else_bb) {
                        (*then_bb, false, None)
                    } else if next == Some(*then_bb) {
                        (*else_bb, true, None)
                    } else {
                        (*then_bb, false, Some(*else_bb))
                    };
                    fixups.push(Fixup {
                        pos: out.len(),
                        slot: Slot::JmpIf,
                        block: jump_to,
                    });
                    emit(
                        &mut out,
                        &mut pending_probes,
                        MInst::new(
                            MInstKind::JmpIf {
                                cond: *cond,
                                negate,
                                target: usize::MAX,
                            },
                            loc.clone(),
                        ),
                    );
                    if let Some(e) = also_jmp {
                        fixups.push(Fixup {
                            pos: out.len(),
                            slot: Slot::Jmp,
                            block: e,
                        });
                        emit(
                            &mut out,
                            &mut pending_probes,
                            MInst::new(MInstKind::Jmp { target: usize::MAX }, loc),
                        );
                    }
                }
                InstKind::Switch {
                    value,
                    cases,
                    default,
                } => {
                    for (ci, (_, b)) in cases.iter().enumerate() {
                        fixups.push(Fixup {
                            pos: out.len(),
                            slot: Slot::TableCase(ci),
                            block: *b,
                        });
                    }
                    fixups.push(Fixup {
                        pos: out.len(),
                        slot: Slot::TableDefault,
                        block: *default,
                    });
                    emit(
                        &mut out,
                        &mut pending_probes,
                        MInst::new(
                            MInstKind::JmpTable {
                                value: *value,
                                targets: cases.iter().map(|&(k, _)| (k, usize::MAX)).collect(),
                                default: usize::MAX,
                            },
                            loc,
                        ),
                    );
                }
            }
            i += 1;
        }
    }

    // Leftover probes (e.g. a trailing probe in a fully-elided block at the
    // end of the stream) attach to the last instruction.
    if !pending_probes.is_empty() {
        if let Some(last) = out.last_mut() {
            last.probes.append(&mut pending_probes);
        }
    }

    (out, fixups, blocks)
}

/// Emits a register-writing instruction plus its spill store.
fn lower_simple(
    out: &mut Vec<MInst>,
    pending: &mut Vec<ProbeNote>,
    kind: MInstKind,
    loc: csspgo_ir::DebugLoc,
    def: Option<VReg>,
    spills: &SpillPlan,
) {
    let mut inst = MInst::new(kind, loc.clone());
    inst.probes.append(pending);
    out.push(inst);
    if let Some(d) = def {
        if let Some(&slot) = spills.slots.get(&d) {
            out.push(MInst::new(MInstKind::SpillStore { slot }, loc));
        }
    }
}

/// Whether the call at `idx` is in tail position: everything after it (bar
/// probes) is a `ret` of exactly the call's result (or a bare `ret` for a
/// result-less call).
fn is_tail_position(block: &csspgo_ir::BasicBlock, idx: usize, dst: Option<VReg>) -> bool {
    let mut j = idx + 1;
    while j < block.insts.len() {
        match &block.insts[j].kind {
            InstKind::PseudoProbe { .. } => j += 1,
            InstKind::Ret { value } => {
                return match (value, dst) {
                    (Some(Operand::Reg(r)), Some(d)) => *r == d,
                    (None, _) => true,
                    _ => false,
                }
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_opt::OptConfig;

    fn build(src: &str, probes: bool, pipeline: bool) -> Binary {
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        if probes {
            csspgo_opt::probes::run(&mut m);
        }
        if pipeline {
            csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
        }
        lower_module(&m, &CodegenConfig::default())
    }

    const SRC: &str = r#"
global t[8];
fn helper(x) {
    if (x > 3) { return x * 2; }
    return x + 1;
}
fn tailer(x) {
    return helper(x + 1);
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i);
        i = i + 1;
    }
    t[0] = s;
    return s;
}
"#;

    #[test]
    fn addresses_are_monotonic_and_sized() {
        let b = build(SRC, false, false);
        assert!(!b.is_empty());
        for w in b.addrs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(b.addrs.len(), b.insts.len());
        // index_of_addr roundtrips.
        for idx in 0..b.len() {
            assert_eq!(b.index_of_addr(b.addrs[idx]), Some(idx));
            assert_eq!(b.index_of_addr(b.addrs[idx] + 1), {
                if b.insts[idx].size > 1 {
                    Some(idx)
                } else {
                    b.index_of_addr(b.addrs[idx] + 1)
                }
            });
        }
    }

    #[test]
    fn branch_targets_resolved() {
        let b = build(SRC, false, false);
        for inst in &b.insts {
            match &inst.kind {
                MInstKind::Jmp { target } => assert!(*target < b.len()),
                MInstKind::JmpIf { target, .. } => assert!(*target < b.len()),
                MInstKind::JmpTable {
                    targets, default, ..
                } => {
                    assert!(*default < b.len());
                    for (_, t) in targets {
                        assert!(*t < b.len());
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn tail_call_emitted() {
        let b = build(SRC, false, false);
        let has_tail = b
            .insts
            .iter()
            .any(|i| matches!(i.kind, MInstKind::TailCall { .. }));
        assert!(has_tail, "`tailer` should lower to a tail call");
    }

    #[test]
    fn calls_outside_return_position_stay_calls() {
        // `main` calls `helper` inside its loop: a plain call, whose frame
        // the unwinder sees, never a tail jump.
        let b = build(SRC, false, false);
        let main = b.func_by_name("main").unwrap();
        let kinds = || (main.hot_range.0..main.hot_range.1).map(|i| &b.insts[i].kind);
        assert!(kinds().any(|k| matches!(k, MInstKind::Call { .. })));
        assert!(!kinds().any(|k| matches!(k, MInstKind::TailCall { .. })));
    }

    #[test]
    fn probes_attach_to_next_physical_inst() {
        let b = build(SRC, true, false);
        let total_probes: usize = b.insts.iter().map(|i| i.probes.len()).sum();
        assert!(total_probes > 0, "probe notes must be materialized");
        // Probes add no text bytes: a probe-built binary has the same text
        // size as a probe-free one (modulo none here since no opt ran).
        let plain = build(SRC, false, false);
        assert_eq!(
            b.sections.text, plain.sections.text,
            "probes are metadata-only"
        );
        assert!(b.sections.pseudo_probe > 0);
        assert_eq!(plain.sections.pseudo_probe, 0);
    }

    #[test]
    fn entry_points_into_own_hot_range() {
        let b = build(SRC, false, true);
        for f in &b.funcs {
            assert!(f.entry >= f.hot_range.0 && f.entry < f.hot_range.1, "{f:?}");
        }
    }

    #[test]
    fn debug_frames_present_after_inlining() {
        let b = build(SRC, false, true);
        // After the pipeline, helper is inlined into main somewhere: some
        // instruction must carry a 2-deep frame stack.
        let deep = (0..b.len()).any(|i| b.debug_frames(i).len() >= 2);
        assert!(deep, "expected inlined debug frames");
    }

    #[test]
    fn counters_lower_to_real_code() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        csspgo_opt::instrument::run(&mut m);
        let instr = lower_module(&m, &CodegenConfig::default());
        let plain = build(SRC, false, false);
        assert!(
            instr.sections.text > plain.sections.text,
            "instrumentation must grow the text section"
        );
    }

    #[test]
    fn cold_section_is_far_away() {
        let src = r#"
fn f(a) {
    if (a > 0) { return 1; }
    return 2;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        // Annotate: else-arm cold.
        let ids: Vec<BlockId> = m.functions[0].iter_blocks().map(|(b, _)| b).collect();
        for bid in ids {
            m.functions[0].block_mut(bid).count = Some(100);
        }
        // find the `return 2` block: mark cold
        let cold_bid = m.functions[0]
            .iter_blocks()
            .filter(|(b, _)| *b != m.functions[0].entry)
            .map(|(b, _)| b)
            .last()
            .unwrap();
        m.functions[0].block_mut(cold_bid).count = Some(0);
        csspgo_opt::layout::run(&mut m);
        let b = lower_module(&m, &CodegenConfig::default());
        let f = &b.funcs[0];
        assert!(f.cold_range.1 > f.cold_range.0, "function must be split");
        let hot_end_addr = b.addrs[f.hot_range.1 - 1];
        let cold_start_addr = b.addrs[f.cold_range.0];
        assert!(cold_start_addr > hot_end_addr + COLD_SECTION_GAP / 2);
    }
}
