//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg;
use crate::function::Function;
use crate::ids::BlockId;

/// Immediate-dominator table for one function.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of `b`; the entry's idom is itself.
    /// Unreachable blocks have `None`.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators for `func`.
    pub fn compute(func: &Function) -> Self {
        let rpo = cfg::reverse_post_order(func);
        let mut rpo_num = vec![usize::MAX; func.blocks.len()];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }
        let preds = cfg::predecessors(func);
        let mut idom: Vec<Option<BlockId>> = vec![None; func.blocks.len()];
        idom[func.entry.index()] = Some(func.entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_num[a.index()] > rpo_num[b.index()] {
                    a = idom[a.index()].expect("processed block has idom");
                }
                while rpo_num[b.index()] > rpo_num[a.index()] {
                    b = idom[b.index()].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.of(b) {
                    if idom[p.index()].is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators {
            idom,
            entry: func.entry,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            None
        } else {
            self.idom[b.index()]
        }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.index()].is_none() {
            return false; // b unreachable: nothing dominates it
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            match self.idom[cur.index()] {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// Whether `b` is reachable (has dominator information).
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::VReg;
    use crate::inst::{CmpPred, Operand};

    /// entry(0) -> a(1) | b(2); a,b -> join(3); join -> loop header(4);
    /// 4 -> body(5) | exit(6); body -> 4.
    fn build() -> crate::module::Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 1);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            let a = fb.add_block();
            let b = fb.add_block();
            let join = fb.add_block();
            let header = fb.add_block();
            let body = fb.add_block();
            let exit = fb.add_block();
            fb.switch_to(entry);
            let c = fb.cmp(CmpPred::Eq, Operand::Reg(VReg(0)), Operand::Imm(0));
            fb.cond_br(Operand::Reg(c), a, b);
            fb.switch_to(a);
            fb.br(join);
            fb.switch_to(b);
            fb.br(join);
            fb.switch_to(join);
            fb.br(header);
            fb.switch_to(header);
            let c2 = fb.cmp(CmpPred::Lt, Operand::Reg(VReg(0)), Operand::Imm(10));
            fb.cond_br(Operand::Reg(c2), body, exit);
            fb.switch_to(body);
            fb.br(header);
            fb.switch_to(exit);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn idoms_of_diamond_and_loop() {
        let m = build();
        let d = Dominators::compute(&m.functions[0]);
        assert_eq!(d.idom(BlockId(0)), None);
        assert_eq!(d.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(3)), Some(BlockId(0))); // join dominated by entry, not a/b
        assert_eq!(d.idom(BlockId(4)), Some(BlockId(3)));
        assert_eq!(d.idom(BlockId(5)), Some(BlockId(4)));
        assert_eq!(d.idom(BlockId(6)), Some(BlockId(4)));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let m = build();
        let d = Dominators::compute(&m.functions[0]);
        assert!(d.dominates(BlockId(3), BlockId(3)));
        assert!(d.dominates(BlockId(0), BlockId(5)));
        assert!(d.dominates(BlockId(4), BlockId(5)));
        assert!(!d.dominates(BlockId(1), BlockId(3)));
        assert!(!d.dominates(BlockId(5), BlockId(6)));
    }
}
