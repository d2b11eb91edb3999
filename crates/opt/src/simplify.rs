//! Scalar and CFG cleanup: constant folding, local copy propagation, dead
//! code elimination, and CFG simplification (constant branches, empty-block
//! forwarding, straight-line block merging).
//!
//! Runs to a fixpoint. Profile counts are maintained: merged blocks keep
//! their (equal) counts, forwarded empty blocks are absorbed, and branch
//! folding never changes surviving block counts.

use csspgo_ir::cfg;
use csspgo_ir::inst::{InstKind, Operand};
use csspgo_ir::{BlockId, Function, Module};
use std::collections::{HashMap, HashSet};

/// Runs the full cleanup to fixpoint on every function.
pub fn run(module: &mut Module) {
    for func in &mut module.functions {
        run_function(func);
    }
}

/// Runs the cleanup on one function.
pub fn run_function(func: &mut Function) {
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
    op: csspgo_ir::BinOp,
    dst: csspgo_ir::VReg,
    lhs: Operand,
    rhs: Operand,
) -> Option<InstKind> {
    use csspgo_ir::BinOp::*;
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
        let mut map: HashMap<csspgo_ir::VReg, Operand> = HashMap::new();
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
        let mut used: HashSet<csspgo_ir::VReg> = HashSet::new();
        for block in func.blocks.iter().filter(|b| !b.dead) {
            for inst in &block.insts {
                for op in inst.kind.uses() {
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
    changed |= cfg::remove_unreachable(func) > 0;

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
        changed |= cfg::remove_unreachable(func) > 0;
        if !forwarded {
            break;
        }
    }

    // Merge straight-line pairs: B -> C where C's only predecessor is B.
    loop {
        let preds = cfg::predecessors(func);
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

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::verify::verify_module;

    fn compile(src: &str) -> Module {
        csspgo_lang::compile(src, "t").unwrap()
    }

    #[test]
    fn folds_constant_arithmetic_to_constant_return() {
        let mut m = compile("fn f() { let x = 2 + 3; let y = x * 4; return y; }");
        run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
        let f = &m.functions[0];
        let term = f.block(f.entry).terminator().unwrap();
        assert!(
            matches!(
                term.kind,
                InstKind::Ret {
                    value: Some(Operand::Imm(20))
                }
            ),
            "got {}",
            term.kind
        );
    }

    #[test]
    fn folds_constant_branch_and_removes_dead_arm() {
        let mut m = compile("fn f() { if (1 < 2) { return 10; } return 20; }");
        run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
        let f = &m.functions[0];
        // Everything should collapse into the entry returning 10.
        let term = f.block(f.entry).terminator().unwrap();
        assert!(
            matches!(
                term.kind,
                InstKind::Ret {
                    value: Some(Operand::Imm(10))
                }
            ),
            "got {}",
            term.kind
        );
        assert_eq!(f.num_live_blocks(), 1);
    }

    #[test]
    fn dce_removes_unused_pure_code_but_keeps_calls() {
        let mut m =
            compile("fn g() { return 1; } fn f(a) { let x = a * 3; let y = g(); return a; }");
        run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
        let f = &m.functions[1];
        let kinds: Vec<_> = f
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .map(|i| i.kind.clone())
            .collect();
        assert!(
            !kinds.iter().any(|k| matches!(k, InstKind::Bin { .. })),
            "x computation should be dead: {kinds:?}"
        );
        assert!(
            kinds.iter().any(|k| matches!(k, InstKind::Call { .. })),
            "call has side effects and must stay"
        );
    }

    #[test]
    fn merges_straight_line_blocks() {
        let mut m = compile("fn f(a) { let x = a + 1; if (1) { x = x + 2; } return x; }");
        run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
        assert_eq!(m.functions[0].num_live_blocks(), 1);
    }

    #[test]
    fn probes_block_empty_block_forwarding() {
        let mut m = compile("fn f(a) { if (a > 0) { return 1; } return 2; }");
        crate::probes::run(&mut m);
        let before = m.functions[0].num_live_blocks();
        run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
        // Blocks hold probes, so nothing can be forwarded away or merged
        // into a straight line that drops a probe.
        let probes: usize = m.functions[0]
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::PseudoProbe { .. }))
            .count();
        assert!(probes >= before, "probes must survive simplification");
    }

    #[test]
    fn switch_on_constant_folds() {
        let mut m = compile("fn f() { switch (2) { case 1 { return 10; } case 2 { return 20; } default { return 0; } } }");
        run(&mut m);
        let f = &m.functions[0];
        let term = f.block(f.entry).terminator().unwrap();
        assert!(matches!(
            term.kind,
            InstKind::Ret {
                value: Some(Operand::Imm(20))
            }
        ));
    }

    #[test]
    fn algebraic_identities_fold() {
        let mut m =
            compile("fn f(a) { let x = a + 0; let y = x * 1; let z = y * 0; return y + z; }");
        run(&mut m);
        let f = &m.functions[0];
        let term = f.block(f.entry).terminator().unwrap();
        // y + 0 == a; so `ret a`.
        assert!(
            matches!(
                term.kind,
                InstKind::Ret {
                    value: Some(Operand::Reg(csspgo_ir::VReg(0)))
                }
            ),
            "got {}",
            term.kind
        );
    }

    #[test]
    fn copy_prop_respects_redefinition() {
        // x = a; a = 5; return x  => must return the old a, not 5.
        let mut m = compile("fn f(a) { let x = a; a = 5; return x; }");
        run(&mut m);
        let f = &m.functions[0];
        let term = f.block(f.entry).terminator().unwrap();
        // Correctness check: must NOT be Imm(5).
        assert!(
            !matches!(
                term.kind,
                InstKind::Ret {
                    value: Some(Operand::Imm(5))
                }
            ),
            "copy propagation across redefinition is wrong: {}",
            term.kind
        );
    }
}
