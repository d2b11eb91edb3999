//! The reference `simplify`: the optimiser's scalar and CFG cleanup as it
//! stood before it moved to dense per-function tables — a SipHash map per
//! block for copy propagation, a fresh used-register set per DCE sweep,
//! edge retargeting by scanning every block, and a predecessor table rebuilt
//! after every single merge. Kept verbatim as the oracle
//! `tests/simplify_differential.rs` holds `csspgo::opt::simplify::run` to;
//! the CFG queries and operand lists it read from `csspgo-ir` at the time
//! are restated below so that the oracle depends on the IR's data types
//! only.

use csspgo::ir::inst::{InstKind, Operand};
use csspgo::ir::{BlockId, Function, Module};
use std::collections::{HashMap, HashSet};

/// Runs the full cleanup to fixpoint on every function.
pub fn run(module: &mut Module) {
    for func in &mut module.functions {
        run_function(func);
    }
}

/// Runs the cleanup on one function.
fn run_function(func: &mut Function) {
    // Bounded fixpoint; each constituent either changes something or not.
    for _ in 0..16 {
        let mut changed = false;
        changed |= const_fold(func);
        changed |= copy_prop(func);
        changed |= dce(func);
        changed |= cfg_simplify(func);
        if !changed {
            break;
        }
    }
}

/// Folds constant computations and branches. Returns whether anything
/// changed.
fn const_fold(func: &mut Function) -> bool {
    let mut changed = false;
    for block in func.blocks.iter_mut().filter(|b| !b.dead) {
        for inst in &mut block.insts {
            let new_kind = match &inst.kind {
                InstKind::Bin { op, dst, lhs, rhs } => match (lhs.as_imm(), rhs.as_imm()) {
                    (Some(a), Some(b)) => Some(InstKind::Copy {
                        dst: *dst,
                        src: Operand::Imm(op.eval(a, b)),
                    }),
                    _ => algebraic_identity(*op, *dst, *lhs, *rhs),
                },
                InstKind::Cmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => match (lhs.as_imm(), rhs.as_imm()) {
                    (Some(a), Some(b)) => Some(InstKind::Copy {
                        dst: *dst,
                        src: Operand::Imm(pred.eval(a, b)),
                    }),
                    _ => None,
                },
                InstKind::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => cond.as_imm().map(|c| InstKind::Copy {
                    dst: *dst,
                    src: if c != 0 { *on_true } else { *on_false },
                }),
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    if then_bb == else_bb {
                        Some(InstKind::Br { target: *then_bb })
                    } else {
                        cond.as_imm().map(|c| InstKind::Br {
                            target: if c != 0 { *then_bb } else { *else_bb },
                        })
                    }
                }
                InstKind::Switch {
                    value,
                    cases,
                    default,
                } => value.as_imm().map(|v| InstKind::Br {
                    target: cases
                        .iter()
                        .find(|&&(k, _)| k == v)
                        .map(|&(_, b)| b)
                        .unwrap_or(*default),
                }),
                _ => None,
            };
            if let Some(k) = new_kind {
                inst.kind = k;
                changed = true;
            }
        }
    }
    changed
}

/// `x+0`, `x*1`, `x*0`, `x-0`, … → copies.
fn algebraic_identity(
    op: csspgo::ir::BinOp,
    dst: csspgo::ir::VReg,
    lhs: Operand,
    rhs: Operand,
) -> Option<InstKind> {
    use csspgo::ir::BinOp::*;
    let copy = |src| Some(InstKind::Copy { dst, src });
    match (op, lhs.as_imm(), rhs.as_imm()) {
        (Add, Some(0), _) => copy(rhs),
        (Add | Sub | Shl | Shr | Or | Xor, _, Some(0)) => copy(lhs),
        (Mul, _, Some(1)) | (Div, _, Some(1)) => copy(lhs),
        (Mul, Some(1), _) => copy(rhs),
        (Mul | And, _, Some(0)) => copy(Operand::Imm(0)),
        (Mul | And, Some(0), _) => copy(Operand::Imm(0)),
        _ => None,
    }
}

/// Local (per-block) copy propagation. Returns whether anything changed.
fn copy_prop(func: &mut Function) -> bool {
    let mut changed = false;
    for block in func.blocks.iter_mut().filter(|b| !b.dead) {
        let mut map: HashMap<csspgo::ir::VReg, Operand> = HashMap::new();
        for inst in &mut block.insts {
            // Substitute uses through the current map.
            let before = inst.kind.clone();
            inst.kind.map_uses(|r| {
                let mut cur = Operand::Reg(r);
                let mut fuel = 8;
                while let Operand::Reg(x) = cur {
                    match map.get(&x) {
                        Some(&next) if fuel > 0 => {
                            cur = next;
                            fuel -= 1;
                        }
                        _ => break,
                    }
                }
                cur
            });
            if inst.kind != before {
                changed = true;
            }
            // Update the map with this instruction's def.
            if let Some(d) = inst.kind.def() {
                // Any mapping reading d is now stale.
                map.retain(|_, v| *v != Operand::Reg(d));
                map.remove(&d);
                if let InstKind::Copy { dst, src } = inst.kind {
                    if src != Operand::Reg(dst) {
                        map.insert(dst, src);
                    }
                }
            }
        }
    }
    changed
}

/// Global dead-code elimination of pure instructions whose results are never
/// used. Returns whether anything changed.
fn dce(func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut used: HashSet<csspgo::ir::VReg> = HashSet::new();
        for block in func.blocks.iter().filter(|b| !b.dead) {
            for inst in &block.insts {
                for op in uses(&inst.kind) {
                    if let Operand::Reg(r) = op {
                        used.insert(r);
                    }
                }
            }
        }
        let mut removed = false;
        for block in func.blocks.iter_mut().filter(|b| !b.dead) {
            let before = block.insts.len();
            block.insts.retain(|inst| {
                inst.kind.has_side_effects()
                    || match inst.kind.def() {
                        Some(d) => used.contains(&d),
                        None => true,
                    }
            });
            if block.insts.len() != before {
                removed = true;
            }
        }
        if !removed {
            break;
        }
        changed = true;
    }
    changed
}

/// CFG cleanup: unreachable-block removal, empty-block forwarding and
/// straight-line merging. Returns whether anything changed.
fn cfg_simplify(func: &mut Function) -> bool {
    let mut changed = false;
    changed |= remove_unreachable(func) > 0;

    // Forward branches through blocks that contain only `br target`.
    // Blocks holding probes or counters are kept (their execution frequency
    // is meaningful).
    loop {
        let mut forwarded = false;
        let ids: Vec<BlockId> = func.iter_blocks().map(|(id, _)| id).collect();
        for bid in ids {
            if bid == func.entry {
                continue;
            }
            let target = {
                let b = func.block(bid);
                if b.insts.len() != 1 {
                    continue;
                }
                match b.insts[0].kind {
                    InstKind::Br { target } if target != bid => target,
                    _ => continue,
                }
            };
            // Retarget every edge pointing at bid.
            let mut any = false;
            for other in func.blocks.iter_mut().filter(|b| !b.dead) {
                if let Some(term) = other.terminator_mut() {
                    let before = term.kind.clone();
                    term.kind
                        .map_successors(|s| if s == bid { target } else { s });
                    if term.kind != before {
                        any = true;
                    }
                }
            }
            if any {
                forwarded = true;
            }
        }
        changed |= forwarded;
        changed |= remove_unreachable(func) > 0;
        if !forwarded {
            break;
        }
    }

    // Merge straight-line pairs: B -> C where C's only predecessor is B.
    loop {
        let preds = predecessors(func);
        let mut merged = false;
        let ids: Vec<BlockId> = func.iter_blocks().map(|(id, _)| id).collect();
        for bid in ids {
            let target = match func.block(bid).terminator() {
                Some(t) => match t.kind {
                    InstKind::Br { target } => target,
                    _ => continue,
                },
                None => continue,
            };
            if target == bid || target == func.entry {
                continue;
            }
            if preds[target.index()].as_slice() != [bid] {
                continue;
            }
            // Splice C into B.
            let mut c_insts = std::mem::take(&mut func.block_mut(target).insts);
            let c_count = func.block_mut(target).count;
            func.block_mut(target).dead = true;
            let b = func.block_mut(bid);
            b.insts.pop(); // drop `br target`
            b.insts.append(&mut c_insts);
            if b.count.is_none() {
                b.count = c_count;
            }
            merged = true;
            break; // predecessor table is stale; recompute
        }
        changed |= merged;
        if !merged {
            break;
        }
    }

    changed
}

/// The operands an instruction reads (the IR's former `InstKind::uses`).
fn uses(kind: &InstKind) -> Vec<Operand> {
    match kind {
        InstKind::Copy { src, .. } => vec![*src],
        InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
        InstKind::Select {
            cond,
            on_true,
            on_false,
            ..
        } => vec![*cond, *on_true, *on_false],
        InstKind::Load { index, .. } => vec![*index],
        InstKind::Store { index, value, .. } => vec![*index, *value],
        InstKind::Call { args, .. } => args.clone(),
        InstKind::Ret { value } => value.iter().copied().collect(),
        InstKind::CondBr { cond, .. } => vec![*cond],
        InstKind::Switch { value, .. } => vec![*value],
        InstKind::Br { .. } | InstKind::PseudoProbe { .. } | InstKind::CounterIncr { .. } => {
            Vec::new()
        }
    }
}

/// A block's successors in edge order, with repeats.
fn block_successors(func: &Function, bb: BlockId) -> Vec<BlockId> {
    match func.block(bb).terminator().map(|t| &t.kind) {
        Some(InstKind::Br { target }) => vec![*target],
        Some(InstKind::CondBr {
            then_bb, else_bb, ..
        }) => vec![*then_bb, *else_bb],
        Some(InstKind::Switch { cases, default, .. }) => {
            let mut out: Vec<BlockId> = cases.iter().map(|&(_, b)| b).collect();
            out.push(*default);
            out
        }
        _ => Vec::new(),
    }
}

/// Successors of `bb` (deduplicated, preserving first-seen order).
fn successors(func: &Function, bb: BlockId) -> Vec<BlockId> {
    let mut out = block_successors(func, bb);
    let mut seen = Vec::new();
    out.retain(|b| {
        if seen.contains(b) {
            false
        } else {
            seen.push(*b);
            true
        }
    });
    out
}

/// Predecessor lists for every block, indexed by block id.
fn predecessors(func: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); func.blocks.len()];
    for (bid, _) in func.iter_blocks() {
        for succ in successors(func, bid) {
            let list: &mut Vec<BlockId> = &mut preds[succ.index()];
            if !list.contains(&bid) {
                list.push(bid);
            }
        }
    }
    preds
}

/// Marks blocks unreachable from the entry dead and clears them.
fn remove_unreachable(func: &mut Function) -> usize {
    let mut live = vec![false; func.blocks.len()];
    let mut stack = vec![func.entry];
    live[func.entry.index()] = true;
    while let Some(bb) = stack.pop() {
        for succ in successors(func, bb) {
            if !live[succ.index()] {
                live[succ.index()] = true;
                stack.push(succ);
            }
        }
    }
    let mut n = 0;
    for (i, block) in func.blocks.iter_mut().enumerate() {
        if !block.dead && !live[i] {
            block.dead = true;
            block.insts.clear();
            n += 1;
        }
    }
    n
}
