//! Loop-invariant code motion.
//!
//! Hoists pure, loop-invariant computations (and loads from globals not
//! written inside the loop) into a preheader. Hoisted instructions keep
//! their source lines, so after hoisting a line's copies run at *different*
//! frequencies — the debug-info correlation then takes the MAX (paper
//! §III.A, "Code Duplication" discussion of moved instructions).
//!
//! When the probe barrier is at [`ProbeBarrier::CodeMotion`] or above,
//! probed functions are left untouched (probes behave like stronger
//! barriers, trading run-time overhead for profile accuracy).

use crate::OptConfig;
use csspgo_ir::inst::{Inst, InstKind, Operand};
use csspgo_ir::loops::{Loop, LoopInfo};
use csspgo_ir::probe::ProbeBarrier;
use csspgo_ir::{BlockId, Function, GlobalId, Module};
use std::collections::HashSet;

/// Runs LICM on every function.
pub fn run(module: &mut Module, config: &OptConfig) {
    for func in &mut module.functions {
        if config.probe >= ProbeBarrier::CodeMotion && func.probe_checksum.is_some() {
            continue;
        }
        run_function(func);
    }
}

/// Hoists invariant code in all loops of `func`; returns the number of
/// hoisted instructions.
fn run_function(func: &mut Function) -> usize {
    let mut hoisted_total = 0;
    // Writes of each register inside the current loop, by register index.
    let mut defs_in_loop: Vec<u32> = Vec::new();
    let mut stored_globals: Vec<GlobalId> = Vec::new();
    let mut to_hoist: Vec<(BlockId, usize)> = Vec::new();
    // Recompute loops after each change batch (preheader insertion mutates
    // the CFG); bound iterations for safety.
    for _ in 0..4 {
        let info = LoopInfo::compute(func);
        if info.loops.is_empty() {
            return hoisted_total;
        }
        let mut hoisted_this_round = 0;

        // Innermost-ish first: loops with fewer blocks first.
        let mut loops: Vec<&Loop> = info.loops.iter().collect();
        loops.sort_by_key(|l| l.blocks.len());

        for l in loops {
            // Facts about the loop body.
            defs_in_loop.clear();
            defs_in_loop.resize(func.num_vregs(), 0);
            stored_globals.clear();
            let mut has_call = false;
            for &b in &l.blocks {
                for inst in &func.block(b).insts {
                    if let Some(d) = inst.kind.def() {
                        defs_in_loop[d.index()] += 1;
                    }
                    match inst.kind {
                        InstKind::Store { global, .. } if !stored_globals.contains(&global) => {
                            stored_globals.push(global);
                        }
                        InstKind::Call { .. } => has_call = true,
                        _ => {}
                    }
                }
            }

            let defs = &defs_in_loop;
            let invariant_op = |op: Operand| match op {
                Operand::Imm(_) => true,
                Operand::Reg(r) => defs[r.index()] == 0,
            };

            // Collect hoistable instructions (single static def of their
            // register inside the loop, invariant operands, pure — or an
            // invariant load when the loop has no stores to that global and
            // no calls).
            to_hoist.clear();
            for &b in &l.blocks {
                for (i, inst) in func.block(b).insts.iter().enumerate() {
                    let hoistable = match &inst.kind {
                        InstKind::Bin { dst, lhs, rhs, .. }
                        | InstKind::Cmp { dst, lhs, rhs, .. } => {
                            defs[dst.index()] == 1 && invariant_op(*lhs) && invariant_op(*rhs)
                        }
                        InstKind::Load { dst, global, index } => {
                            !has_call
                                && !stored_globals.contains(global)
                                && defs[dst.index()] == 1
                                && invariant_op(*index)
                        }
                        _ => false,
                    };
                    if hoistable {
                        to_hoist.push((b, i));
                    }
                }
            }
            if to_hoist.is_empty() {
                continue;
            }

            let preheader = ensure_preheader(func, l.header, &l.blocks);
            let Some(ph) = preheader else { continue };

            // Remove (in reverse index order per block) and append to the
            // preheader, in block order and original order within a block.
            to_hoist.sort_unstable();
            let mut moved: Vec<Inst> = Vec::with_capacity(to_hoist.len());
            for group in to_hoist.chunk_by(|a, b| a.0 == b.0) {
                let b = group[0].0;
                let start = moved.len();
                for &(_, i) in group.iter().rev() {
                    moved.push(func.block_mut(b).insts.remove(i));
                }
                moved[start..].reverse();
            }
            hoisted_this_round += moved.len();
            let phb = func.block_mut(ph);
            let term = phb.insts.pop().expect("preheader has terminator");
            phb.insts.extend(moved);
            phb.insts.push(term);
        }

        hoisted_total += hoisted_this_round;
        if hoisted_this_round == 0 {
            break;
        }
    }
    hoisted_total
}

/// Returns the loop preheader, creating one if needed: the unique edge
/// source into `header` from outside the loop. Returns `None` if the header
/// is the function entry (no predecessor to hoist into).
fn ensure_preheader(
    func: &mut Function,
    header: BlockId,
    loop_blocks: &HashSet<BlockId>,
) -> Option<BlockId> {
    if header == func.entry {
        return None;
    }
    // The header's predecessor blocks from outside the loop, in block order.
    let outside: Vec<BlockId> = func
        .iter_blocks()
        .filter(|(p, block)| !loop_blocks.contains(p) && block.targets().any(|s| s == header))
        .map(|(p, _)| p)
        .collect();
    if outside.is_empty() {
        return None;
    }
    // An existing preheader: single outside pred whose only successor is the
    // header.
    if let [p] = outside[..] {
        if func.block(p).targets().all(|s| s == header) {
            return Some(p);
        }
    }
    // Create one.
    let ph = func.add_block();
    let header_count = func.block(header).count;
    let back_count: u64 = func
        .iter_blocks()
        .filter(|(p, block)| loop_blocks.contains(p) && block.targets().any(|s| s == header))
        .map(|(_, block)| block.count.unwrap_or(0))
        .sum();
    func.block_mut(ph)
        .insts
        .push(Inst::synthetic(InstKind::Br { target: header }));
    func.block_mut(ph).count = header_count.map(|h| h.saturating_sub(back_count));
    for p in outside {
        if let Some(t) = func.block_mut(p).terminator_mut() {
            t.kind.map_successors(|s| if s == header { ph } else { s });
        }
    }
    Some(ph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::linear_view;
    use csspgo_ir::verify::verify_module;

    const SRC: &str = r#"
global cfgv[4];
fn f(n, k) {
    let i = 0;
    let s = 0;
    while (i < n) {
        let c = k * 7;
        let limit = cfgv[0];
        s = s + c + limit;
        i = i + 1;
    }
    return s;
}
"#;

    #[test]
    fn hoists_invariant_mul_and_load() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let n = run_function(&mut m.functions[0]);
        assert!(n >= 2, "expected k*7 and cfgv[0] hoisted, got {n}");
        assert_eq!(verify_module(&m), vec![]);
        // The loop body must no longer contain the multiplication.
        let info = LoopInfo::compute(&m.functions[0]);
        let l = &info.loops[0];
        for &b in &l.blocks {
            for i in &m.functions[0].block(b).insts {
                assert!(
                    !matches!(
                        i.kind,
                        InstKind::Bin {
                            op: csspgo_ir::BinOp::Mul,
                            ..
                        }
                    ),
                    "mul must be hoisted out of the loop"
                );
            }
        }
    }

    #[test]
    fn loads_not_hoisted_past_stores() {
        let src = r#"
global t[4];
fn f(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + t[0];
        t[0] = s;
        i = i + 1;
    }
    return s;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        run_function(&mut m.functions[0]);
        assert_eq!(verify_module(&m), vec![]);
        // The load must still be inside the loop.
        let info = LoopInfo::compute(&m.functions[0]);
        let l = &info.loops[0];
        let in_loop_load = l.blocks.iter().any(|&b| {
            m.functions[0]
                .block(b)
                .insts
                .iter()
                .any(|i| matches!(i.kind, InstKind::Load { .. }))
        });
        assert!(in_loop_load, "load from stored global must not move");
    }

    #[test]
    fn semantics_preserved() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let before = linear_view(&m.functions[0]);
        run_function(&mut m.functions[0]);
        let after = linear_view(&m.functions[0]);
        assert_ne!(before, after, "licm should change the IR");
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn probe_blocking_respected() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        let config = OptConfig {
            probe: ProbeBarrier::CodeMotion,
            ..OptConfig::default()
        };
        let before = linear_view(&m.functions[0]);
        run(&mut m, &config);
        assert_eq!(
            before,
            linear_view(&m.functions[0]),
            "motion must be blocked"
        );
    }
}
