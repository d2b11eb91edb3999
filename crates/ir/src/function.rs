//! Functions and basic blocks.

use crate::ids::{BlockId, FuncId, VReg};
use crate::inst::Inst;

/// A basic block: a straight-line instruction sequence ending in a
/// terminator.
#[derive(Clone, Debug, Default)]
pub struct BasicBlock {
    /// Instructions; the last one must be a terminator once the function is
    /// complete.
    pub insts: Vec<Inst>,
    /// Annotated profile count (execution frequency), if a profile has been
    /// applied. Maintained by every transformation (paper §II.B "profile
    /// maintenance").
    pub count: Option<u64>,
    /// Where `count` came from, set beside it by annotation; `None` for a
    /// block annotation did not count. The optimizer pipeline clears it.
    pub provenance: Option<Provenance>,
    /// Dead blocks are kept in place (ids are stable) but ignored.
    pub dead: bool,
}

impl BasicBlock {
    /// The block's terminator, if the block is complete.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }

    /// Mutable access to the terminator.
    pub fn terminator_mut(&mut self) -> Option<&mut Inst> {
        self.insts.last_mut().filter(|i| i.is_terminator())
    }

    /// Successor blocks in edge order, with repeats (empty if the block is
    /// incomplete or returns). Allocates nothing.
    pub fn targets(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.terminator().into_iter().flat_map(|t| t.kind.targets())
    }
}

/// Where an annotated block count came from, kept on the block beside the
/// count so downstream consumers (the WP lint family, `csspgo_lint`, bench
/// records) can tell raw measurements from salvaged or solver-invented
/// weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Provenance {
    /// Count comes straight from correlated samples (or exact counters) on a
    /// checksum-matching build.
    Sampled,
    /// Count was transferred from a stale profile by the static matcher.
    StaleMatched,
    /// Count was invented or materially adjusted by flow inference.
    Inferred,
    /// Count was recovered from a sparse spanning-tree counter placement by
    /// Kirchhoff elimination.
    Reconstructed,
}

/// The block layout decided by the layout pass: hot blocks in order, then
/// (optionally, with function splitting) cold blocks placed in a separate
/// cold region of the binary.
#[derive(Clone, Debug, Default)]
pub struct BlockLayout {
    /// Hot-part order; must start with the entry block.
    pub hot: Vec<BlockId>,
    /// Cold-part order (empty when the function is not split).
    pub cold: Vec<BlockId>,
}

/// A function: parameters, virtual registers, and a CFG of basic blocks.
#[derive(Clone, Debug)]
pub struct Function {
    /// This function's id within its module.
    pub id: FuncId,
    /// Source-level name.
    pub name: String,
    /// Stable GUID derived from the name ([`crate::probe::function_guid`]).
    pub guid: u64,
    /// Number of parameters; parameters occupy `VReg(0)..VReg(num_params)`.
    pub num_params: usize,
    /// Basic blocks, indexed by [`BlockId`]. Ids are stable; dead blocks are
    /// flagged rather than removed.
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
    /// Source line of the function header (AutoFDO correlates on offsets from
    /// this line).
    pub start_line: u32,
    /// CFG checksum captured when pseudo-probes were inserted.
    pub probe_checksum: Option<u64>,
    /// Next probe index to hand out (probe indices are 1-based; 0 reserved).
    pub next_probe_index: u32,
    /// Block layout decided by the layout pass; `None` means id order.
    pub layout: Option<BlockLayout>,
    /// Annotated entry count, if a profile has been applied.
    pub entry_count: Option<u64>,
    next_vreg: u32,
}

impl Function {
    /// Creates an empty function with one (empty) entry block.
    pub fn new(id: FuncId, name: impl Into<String>, num_params: usize) -> Self {
        let name = name.into();
        let guid = crate::probe::function_guid(&name);
        Function {
            id,
            guid,
            name,
            num_params,
            blocks: vec![BasicBlock::default()],
            entry: BlockId(0),
            start_line: 0,
            probe_checksum: None,
            next_probe_index: 1,
            layout: None,
            entry_count: None,
            next_vreg: num_params as u32,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let r = VReg(self.next_vreg);
        self.next_vreg += 1;
        r
    }

    /// Number of virtual registers allocated so far.
    pub fn num_vregs(&self) -> usize {
        self.next_vreg as usize
    }

    /// Reserves register numbers up to `n` (used when merging functions
    /// during inlining).
    pub fn reserve_vregs(&mut self, n: u32) {
        self.next_vreg = self.next_vreg.max(n);
    }

    /// Appends a new, empty, live block.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(BasicBlock::default());
        id
    }

    /// Shared access to a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Iterates live blocks in id order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.dead)
            .map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// Number of live blocks.
    pub fn num_live_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.dead).count()
    }

    /// Allocates the next probe index (1-based, dense per function).
    pub fn alloc_probe_index(&mut self) -> u32 {
        let i = self.next_probe_index;
        self.next_probe_index += 1;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{InstKind, Operand};

    fn ret(v: i64) -> Inst {
        Inst::synthetic(InstKind::Ret {
            value: Some(Operand::Imm(v)),
        })
    }

    #[test]
    fn new_function_has_entry_block() {
        let f = Function::new(FuncId(0), "f", 2);
        assert_eq!(f.entry, BlockId(0));
        assert_eq!(f.num_live_blocks(), 1);
        assert_eq!(f.num_vregs(), 2); // params
    }

    #[test]
    fn vreg_allocation_is_dense() {
        let mut f = Function::new(FuncId(0), "f", 1);
        assert_eq!(f.new_vreg(), VReg(1));
        assert_eq!(f.new_vreg(), VReg(2));
        f.reserve_vregs(10);
        assert_eq!(f.new_vreg(), VReg(10));
    }

    #[test]
    fn terminator_is_the_last_instruction_when_it_ends_the_block() {
        let mut f = Function::new(FuncId(0), "f", 0);
        let b = f.block_mut(BlockId(0));
        b.insts.push(Inst::synthetic(InstKind::Copy {
            dst: VReg(0),
            src: Operand::Imm(1),
        }));
        assert!(b.terminator().is_none());
        b.insts.push(ret(0));
        assert!(b.terminator().is_some());
    }

    #[test]
    fn dead_blocks_are_skipped() {
        let mut f = Function::new(FuncId(0), "f", 0);
        let b1 = f.add_block();
        f.block_mut(b1).dead = true;
        assert_eq!(f.num_live_blocks(), 1);
        assert_eq!(
            f.iter_blocks().map(|(b, _)| b).collect::<Vec<_>>(),
            [BlockId(0)]
        );
    }

    #[test]
    fn probe_indices_are_one_based() {
        let mut f = Function::new(FuncId(0), "f", 0);
        assert_eq!(f.alloc_probe_index(), 1);
        assert_eq!(f.alloc_probe_index(), 2);
    }
}
