//! Control-flow-graph queries: successors, predecessors, orderings,
//! reachability.

use crate::function::Function;
use crate::ids::BlockId;

/// Successors of `bb` (deduplicated, preserving first-seen order).
pub fn successors(func: &Function, bb: BlockId) -> Vec<BlockId> {
    let mut out = Vec::new();
    for t in func.block(bb).targets() {
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// Predecessor lists for every block, held in compressed rows: one flat
/// array of blocks and one start offset per block. A block appears once per
/// predecessor *block* (parallel edges deduplicated), in block-id order.
pub struct Predecessors {
    start: Vec<u32>,
    preds: Vec<BlockId>,
}

impl Predecessors {
    /// The predecessor blocks of `b`.
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }
}

/// The [`Predecessors`] of every block of `func`.
pub fn predecessors(func: &Function) -> Predecessors {
    let n = func.blocks.len();
    let mut start = vec![0u32; n + 1];
    // The last block counted into each row: a repeated edge counts once.
    let mut last = vec![u32::MAX; n];
    for (bid, block) in func.iter_blocks() {
        for succ in block.targets() {
            if last[succ.index()] != bid.index() as u32 {
                last[succ.index()] = bid.index() as u32;
                start[succ.index() + 1] += 1;
            }
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut preds = vec![BlockId::from_index(0); start[n] as usize];
    // The next free slot of each row.
    let mut next: Vec<u32> = start[..n].to_vec();
    last.fill(u32::MAX);
    for (bid, block) in func.iter_blocks() {
        for succ in block.targets() {
            if last[succ.index()] != bid.index() as u32 {
                last[succ.index()] = bid.index() as u32;
                preds[next[succ.index()] as usize] = bid;
                next[succ.index()] += 1;
            }
        }
    }
    Predecessors { start, preds }
}

/// Blocks reachable from the entry, as a dense bitmap.
pub fn reachable(func: &Function) -> Vec<bool> {
    let mut seen = vec![false; func.blocks.len()];
    let mut stack = vec![func.entry];
    seen[func.entry.index()] = true;
    while let Some(bb) = stack.pop() {
        for succ in func.block(bb).targets() {
            if !seen[succ.index()] {
                seen[succ.index()] = true;
                stack.push(succ);
            }
        }
    }
    seen
}

/// Reverse post-order starting at the entry (only reachable blocks).
///
/// A repeated edge meets an already-seen block, so walking a terminator's
/// targets with repeats visits blocks in the order of its deduplicated
/// successors.
pub fn reverse_post_order(func: &Function) -> Vec<BlockId> {
    let mut post = Vec::with_capacity(func.blocks.len());
    let mut seen = vec![false; func.blocks.len()];
    // Iterative DFS computing postorder; each frame resumes its block's
    // target walk.
    let mut stack = vec![(func.entry, func.block(func.entry).targets())];
    seen[func.entry.index()] = true;
    while let Some((bb, targets)) = stack.last_mut() {
        match targets.next() {
            Some(s) => {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push((s, func.block(s).targets()));
                }
            }
            None => {
                post.push(*bb);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

/// Marks blocks unreachable from the entry as dead and strips references to
/// them are not needed (no live block can branch to an unreachable block by
/// definition). Returns how many blocks were newly marked dead.
pub fn remove_unreachable(func: &mut Function) -> usize {
    let live = reachable(func);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{CmpPred, Operand};
    use crate::module::Module;

    /// entry -> (a | b); a -> join; b -> join; join -> ret; plus one orphan.
    fn diamond_with_orphan() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 1);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            let a = fb.add_block();
            let b = fb.add_block();
            let join = fb.add_block();
            let orphan = fb.add_block();
            fb.switch_to(entry);
            let c = fb.cmp(
                CmpPred::Eq,
                Operand::Reg(crate::ids::VReg(0)),
                Operand::Imm(0),
            );
            fb.cond_br(Operand::Reg(c), a, b);
            fb.switch_to(a);
            fb.br(join);
            fb.switch_to(b);
            fb.br(join);
            fb.switch_to(join);
            fb.ret(None);
            fb.switch_to(orphan);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn preds_and_succs() {
        let m = diamond_with_orphan();
        let f = &m.functions[0];
        assert_eq!(successors(f, BlockId(0)), vec![BlockId(1), BlockId(2)]);
        let preds = predecessors(f);
        assert_eq!(preds.of(BlockId(3)), [BlockId(1), BlockId(2)]);
        assert!(preds.of(BlockId(0)).is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let m = diamond_with_orphan();
        let f = &m.functions[0];
        let rpo = reverse_post_order(f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4); // orphan excluded
                                  // join must come after both a and b.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn remove_unreachable_kills_orphan() {
        let mut m = diamond_with_orphan();
        let f = &mut m.functions[0];
        assert_eq!(remove_unreachable(f), 1);
        assert!(f.block(BlockId(4)).dead);
        assert_eq!(remove_unreachable(f), 0); // idempotent
    }

    #[test]
    fn parallel_edges_deduplicated() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 0);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            let t = fb.add_block();
            fb.switch_to(entry);
            fb.cond_br(Operand::Imm(1), t, t);
            fb.switch_to(t);
            fb.ret(None);
        }
        let m = mb.finish();
        let f = &m.functions[0];
        assert_eq!(successors(f, BlockId(0)), vec![BlockId(1)]);
        assert_eq!(predecessors(f).of(BlockId(1)), [BlockId(0)]);
    }
}
