//! Natural-loop detection from back edges.

use crate::cfg;
use crate::dom::Dominators;
use crate::function::Function;
use crate::ids::BlockId;
use std::collections::HashSet;

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge(s)).
    pub header: BlockId,
    /// Sources of back edges into the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, including the header.
    pub blocks: HashSet<BlockId>,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// Loop forest for a function (loops sharing a header are merged).
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// All loops, innermost-last is *not* guaranteed; use
    /// [`LoopInfo::depth`] for nesting queries.
    pub loops: Vec<Loop>,
    depth: Vec<u32>,
}

impl LoopInfo {
    /// Detects natural loops in `func`.
    pub fn compute(func: &Function) -> Self {
        let dom = Dominators::compute(func);
        let preds = cfg::predecessors(func);
        let reachable = cfg::reachable(func);
        let mut loops: Vec<Loop> = Vec::new();

        for (bid, _) in func.iter_blocks() {
            for succ in cfg::successors(func, bid) {
                if dom.is_reachable(bid) && dom.dominates(succ, bid) {
                    // bid -> succ is a back edge; succ is a header.
                    let header = succ;
                    let body = collect_loop(header, bid, &preds, &reachable);
                    if let Some(l) = loops.iter_mut().find(|l| l.header == header) {
                        l.latches.push(bid);
                        l.blocks.extend(body);
                    } else {
                        loops.push(Loop {
                            header,
                            latches: vec![bid],
                            blocks: body,
                        });
                    }
                }
            }
        }

        let mut depth = vec![0u32; func.blocks.len()];
        for l in &loops {
            for &b in &l.blocks {
                depth[b.index()] += 1;
            }
        }
        LoopInfo { loops, depth }
    }

    /// Loop-nesting depth of `b` (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }
}

/// Collects the natural loop of back edge `latch -> header`: header plus all
/// *reachable* blocks that reach `latch` without passing through `header`
/// (edges from unreachable blocks must not leak into the loop body).
fn collect_loop(
    header: BlockId,
    latch: BlockId,
    preds: &[Vec<BlockId>],
    reachable: &[bool],
) -> HashSet<BlockId> {
    let mut blocks: HashSet<BlockId> = HashSet::new();
    blocks.insert(header);
    let mut stack = vec![latch];
    while let Some(b) = stack.pop() {
        if !reachable[b.index()] {
            continue;
        }
        if blocks.insert(b) {
            for &p in &preds[b.index()] {
                stack.push(p);
            }
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::VReg;
    use crate::inst::{BinOp, CmpPred, Operand};
    use crate::module::Module;

    /// Nested loops:
    /// entry(0) -> outer header(1); 1 -> inner header(2) | exit(5);
    /// 2 -> body(3) | outer latch(4); 3 -> 2; 4 -> 1; 5: ret.
    fn nested() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 1);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            let oh = fb.add_block();
            let ih = fb.add_block();
            let body = fb.add_block();
            let ol = fb.add_block();
            let exit = fb.add_block();
            fb.switch_to(entry);
            fb.br(oh);
            fb.switch_to(oh);
            let c = fb.cmp(CmpPred::Lt, Operand::Reg(VReg(0)), Operand::Imm(10));
            fb.cond_br(Operand::Reg(c), ih, exit);
            fb.switch_to(ih);
            let c2 = fb.cmp(CmpPred::Lt, Operand::Reg(VReg(0)), Operand::Imm(5));
            fb.cond_br(Operand::Reg(c2), body, ol);
            fb.switch_to(body);
            let _ = fb.bin(BinOp::Add, Operand::Reg(VReg(0)), Operand::Imm(1));
            fb.br(ih);
            fb.switch_to(ol);
            fb.br(oh);
            fb.switch_to(exit);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn detects_nested_loops() {
        let m = nested();
        let li = LoopInfo::compute(&m.functions[0]);
        assert_eq!(li.loops.len(), 2);
        let at = |header| li.loops.iter().find(|l| l.header == header);
        let outer = at(BlockId(1)).expect("outer loop");
        let inner = at(BlockId(2)).expect("inner loop");
        assert!(outer.contains(BlockId(2)));
        assert!(outer.contains(BlockId(4)));
        assert!(!outer.contains(BlockId(5)));
        assert!(inner.contains(BlockId(3)));
        assert!(!inner.contains(BlockId(4)));
    }

    #[test]
    fn depth_reflects_nesting() {
        let m = nested();
        let li = LoopInfo::compute(&m.functions[0]);
        assert_eq!(li.depth(BlockId(0)), 0);
        assert_eq!(li.depth(BlockId(1)), 1);
        assert_eq!(li.depth(BlockId(2)), 2);
        assert_eq!(li.depth(BlockId(3)), 2);
        assert_eq!(li.depth(BlockId(4)), 1);
        assert_eq!(li.depth(BlockId(5)), 0);
    }
}
