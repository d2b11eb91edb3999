//! Scalar and CFG cleanup: constant folding, local copy propagation, dead
//! code elimination, and CFG simplification (constant branches, empty-block
//! forwarding, straight-line block merging).
//!
//! Runs to a fixpoint of at most 16 sweeps. Profile counts are maintained:
//! merged blocks keep their (equal) counts, forwarded empty blocks are
//! absorbed, and branch folding never changes surviving block counts.
//!
//! Every table is dense, indexed by [`VReg`] or [`BlockId`], and reused
//! from function to function; no sweep hashes, and operands and successors
//! are walked without allocating. Forwarding and merging visit blocks
//! lowest id first. Forwarding an empty block retargets the edges its
//! predecessor lists name, and the lists follow the edges they moved;
//! merging checks a predecessor count that no merge changes, since the block
//! that absorbs its successor takes over that successor's edges — which
//! also makes the absorbing block the only one a merge can turn into a new
//! candidate.

use csspgo_ir::cfg;
use csspgo_ir::inst::{InstKind, Operand};
use csspgo_ir::{BlockId, Function, Module, VReg};

/// Runs the full cleanup to fixpoint on every function.
pub fn run(module: &mut Module) {
    let mut tables = Tables::default();
    for func in &mut module.functions {
        tables.run_function(func);
    }
}

/// End of a list in [`Tables`]' arenas.
const NIL: u32 = u32::MAX;

/// The dense working tables of one [`run`], sized to the largest function
/// seen so far.
#[derive(Default)]
struct Tables {
    /// copy-prop: the operand each register is currently a copy of.
    copy_of: Vec<Option<Operand>>,
    /// copy-prop: per register, the head of its list in `readers` — the
    /// registers whose recorded copy reads it (an entry may be stale).
    reader_head: Vec<u32>,
    /// copy-prop: `(reader, next)` links of the reader lists.
    readers: Vec<(VReg, u32)>,
    /// copy-prop: registers whose `copy_of` or `reader_head` entry the
    /// current block set.
    dirty: Vec<VReg>,
    /// DCE: how many live instructions read each register.
    use_count: Vec<u32>,
    /// Forwarding: per block, the first and last edge of its predecessor
    /// list in `pred_edges`.
    pred_head: Vec<u32>,
    pred_tail: Vec<u32>,
    /// Forwarding: `(predecessor, next)` links, one per CFG edge.
    pred_edges: Vec<(BlockId, u32)>,
    /// Merging: per block, its number of distinct predecessor blocks.
    pred_count: Vec<u32>,
    /// Merging: per block, 1 + the last predecessor counted for it.
    counted_from: Vec<u32>,
}

impl Tables {
    /// Runs the cleanup on one function.
    fn run_function(&mut self, func: &mut Function) {
        let regs = func.num_vregs();
        if self.copy_of.len() < regs {
            self.copy_of.resize(regs, None);
            self.reader_head.resize(regs, NIL);
            self.use_count.resize(regs, 0);
        }
        // Bounded fixpoint; each constituent either changes something or not.
        // A sweep's CFG cleanup leaves every live block reachable and no
        // straight-line pair to merge; only moved edges undo that, and
        // before the first sweep nothing is known.
        let mut edges_moved = true;
        for _ in 0..16 {
            let (mut changed, branch_folded) = const_fold(func);
            changed |= self.copy_prop(func);
            changed |= self.dce(func);
            changed |= self.cfg_simplify(func, edges_moved || branch_folded);
            edges_moved = false;
            if !changed {
                break;
            }
        }
    }

    /// Local (per-block) copy propagation. Returns whether anything changed.
    fn copy_prop(&mut self, func: &mut Function) -> bool {
        let Tables {
            copy_of,
            reader_head,
            readers,
            dirty,
            ..
        } = self;
        let mut changed = false;
        for block in func.blocks.iter_mut().filter(|b| !b.dead) {
            for inst in &mut block.insts {
                // Substitute uses through the current copies.
                if !dirty.is_empty() {
                    inst.kind.map_uses(|r| {
                        let mut cur = Operand::Reg(r);
                        let mut fuel = 8;
                        while let Operand::Reg(x) = cur {
                            match copy_of[x.index()] {
                                Some(next) if fuel > 0 => {
                                    cur = next;
                                    fuel -= 1;
                                }
                                _ => break,
                            }
                        }
                        changed |= cur != Operand::Reg(r);
                        cur
                    });
                }
                // Update the copies with this instruction's def.
                if let Some(d) = inst.kind.def() {
                    // Any copy reading d is now stale.
                    let mut link = std::mem::replace(&mut reader_head[d.index()], NIL);
                    while link != NIL {
                        let (reader, next) = readers[link as usize];
                        if copy_of[reader.index()] == Some(Operand::Reg(d)) {
                            copy_of[reader.index()] = None;
                        }
                        link = next;
                    }
                    copy_of[d.index()] = None;
                    if let InstKind::Copy { dst, src } = inst.kind {
                        if src != Operand::Reg(dst) {
                            copy_of[dst.index()] = Some(src);
                            dirty.push(dst);
                            if let Operand::Reg(s) = src {
                                let head = &mut reader_head[s.index()];
                                readers.push((dst, *head));
                                *head = (readers.len() - 1) as u32;
                                dirty.push(s);
                            }
                        }
                    }
                }
            }
            for r in dirty.drain(..) {
                copy_of[r.index()] = None;
                reader_head[r.index()] = NIL;
            }
            readers.clear();
        }
        changed
    }

    /// Global dead-code elimination of pure instructions whose results are
    /// never used, to a fixpoint: uses are counted once, and deleting an
    /// instruction uncounts its operands, so a chain of dead definitions
    /// dies without a recount. Returns whether anything changed.
    fn dce(&mut self, func: &mut Function) -> bool {
        let uses = &mut self.use_count[..func.num_vregs()];
        uses.fill(0);
        for block in func.blocks.iter().filter(|b| !b.dead) {
            for inst in &block.insts {
                inst.kind.for_each_use(|r| uses[r.index()] += 1);
            }
        }
        let unused = |kind: &InstKind, uses: &[u32]| {
            !kind.has_side_effects() && kind.def().is_some_and(|d| uses[d.index()] == 0)
        };
        let mut changed = false;
        loop {
            let mut removed = false;
            for block in func.blocks.iter_mut().filter(|b| !b.dead) {
                if !block.insts.iter().any(|inst| unused(&inst.kind, uses)) {
                    continue;
                }
                block.insts.retain(|inst| {
                    if !unused(&inst.kind, uses) {
                        return true;
                    }
                    inst.kind.for_each_use(|r| uses[r.index()] -= 1);
                    false
                });
                removed = true;
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
    ///
    /// Unless `edges_moved`, no block is unreachable and no pair can merge
    /// until forwarding moves an edge. Forwarding itself is checked every
    /// time: DCE can leave a block holding only its branch.
    fn cfg_simplify(&mut self, func: &mut Function, mut edges_moved: bool) -> bool {
        let mut changed = false;
        if edges_moved {
            changed |= cfg::remove_unreachable(func) > 0;
        }

        // Forward branches through blocks that contain only `br target`,
        // lowest id first. Blocks holding probes or counters are kept
        // (their execution frequency is meaningful).
        // The predecessor index is built at the first candidate.
        let mut indexed = false;
        loop {
            let mut forwarded = false;
            for i in 0..func.blocks.len() {
                let bid = BlockId::from_index(i);
                let b = &func.blocks[i];
                if b.dead || bid == func.entry || b.insts.len() != 1 {
                    continue;
                }
                let target = match b.insts[0].kind {
                    InstKind::Br { target } if target != bid => target,
                    _ => continue,
                };
                if !indexed {
                    self.index_predecessors(func);
                    indexed = true;
                }
                forwarded |= self.forward(func, bid, target);
            }
            // No edge moved: nothing became unreachable since the last sweep.
            if !forwarded {
                break;
            }
            changed = true;
            edges_moved = true;
            cfg::remove_unreachable(func);
        }
        if !edges_moved {
            return changed;
        }

        // Merge straight-line pairs: B -> C where C's only predecessor is B,
        // lowest B first; only B itself can become a new candidate.
        self.count_predecessors(func);
        for i in 0..func.blocks.len() {
            let bid = BlockId::from_index(i);
            while !func.blocks[i].dead {
                let target = match func.blocks[i].terminator() {
                    Some(t) => match t.kind {
                        InstKind::Br { target } => target,
                        _ => break,
                    },
                    None => break,
                };
                if target == bid || target == func.entry || self.pred_count[target.index()] != 1 {
                    break;
                }
                // Splice C into B; B takes over C's edges, so no count moves.
                let mut c_insts = std::mem::take(&mut func.block_mut(target).insts);
                let c_count = func.block_mut(target).count;
                func.block_mut(target).dead = true;
                let b = func.block_mut(bid);
                b.insts.pop(); // drop `br target`
                b.insts.append(&mut c_insts);
                if b.count.is_none() {
                    b.count = c_count;
                }
                changed = true;
            }
        }

        changed
    }

    /// Indexes every live block's terminator edges by target, one list entry
    /// per edge.
    fn index_predecessors(&mut self, func: &Function) {
        let n = func.blocks.len();
        self.pred_head.clear();
        self.pred_head.resize(n, NIL);
        self.pred_tail.clear();
        self.pred_tail.resize(n, NIL);
        self.pred_edges.clear();
        for (bid, block) in func.iter_blocks() {
            for succ in block.targets() {
                let e = self.pred_edges.len() as u32;
                self.pred_edges.push((bid, NIL));
                match self.pred_tail[succ.index()] {
                    NIL => self.pred_head[succ.index()] = e,
                    tail => self.pred_edges[tail as usize].1 = e,
                }
                self.pred_tail[succ.index()] = e;
            }
        }
    }

    /// Retargets every live edge into `bid` at `target` and moves `bid`'s
    /// predecessor list onto `target`'s. Returns whether an edge moved.
    fn forward(&mut self, func: &mut Function, bid: BlockId, target: BlockId) -> bool {
        let mut any = false;
        let mut link = self.pred_head[bid.index()];
        while link != NIL {
            let (pred, next) = self.pred_edges[link as usize];
            let block = &mut func.blocks[pred.index()];
            if !block.dead {
                if let Some(term) = block.terminator_mut() {
                    if term.kind.targets().any(|s| s == bid) {
                        term.kind
                            .map_successors(|s| if s == bid { target } else { s });
                        any = true;
                    }
                }
            }
            link = next;
        }
        let (head, tail) = (self.pred_head[bid.index()], self.pred_tail[bid.index()]);
        if head != NIL {
            match self.pred_tail[target.index()] {
                NIL => self.pred_head[target.index()] = head,
                t => self.pred_edges[t as usize].1 = head,
            }
            self.pred_tail[target.index()] = tail;
            self.pred_head[bid.index()] = NIL;
            self.pred_tail[bid.index()] = NIL;
        }
        any
    }

    /// Counts every block's distinct live predecessor blocks.
    fn count_predecessors(&mut self, func: &Function) {
        let n = func.blocks.len();
        self.pred_count.clear();
        self.pred_count.resize(n, 0);
        self.counted_from.clear();
        self.counted_from.resize(n, 0);
        for (bid, block) in func.iter_blocks() {
            for succ in block.targets() {
                let seen = &mut self.counted_from[succ.index()];
                if *seen != bid.0 + 1 {
                    *seen = bid.0 + 1;
                    self.pred_count[succ.index()] += 1;
                }
            }
        }
    }
}

/// Folds constant computations and branches. Returns whether anything
/// changed, and whether a branch did (moving the CFG's edges).
fn const_fold(func: &mut Function) -> (bool, bool) {
    let mut changed = false;
    let mut branch_folded = false;
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
                branch_folded |= inst.kind.is_terminator();
                inst.kind = k;
                changed = true;
            }
        }
    }
    (changed, branch_folded)
}

/// `x+0`, `x*1`, `x*0`, `x-0`, … → copies.
fn algebraic_identity(
    op: csspgo_ir::BinOp,
    dst: VReg,
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
            "got {:?}",
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
            "got {:?}",
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
            "got {:?}",
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
            "copy propagation across redefinition is wrong: {:?}",
            term.kind
        );
    }
}
