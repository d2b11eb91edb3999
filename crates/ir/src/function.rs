//! Functions and basic blocks.

use crate::ids::{BlockId, FuncId, VReg};
use crate::inst::Inst;
use serde::{Deserialize, Serialize};

/// A basic block: a straight-line instruction sequence ending in a
/// terminator.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Instructions; the last one must be a terminator once the function is
    /// complete.
    pub insts: Vec<Inst>,
    /// Annotated profile count (execution frequency), if a profile has been
    /// applied. Maintained by every transformation (paper §II.B "profile
    /// maintenance").
    pub count: Option<u64>,
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

    /// Successor blocks (empty if the block is incomplete or returns).
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator()
            .map(|t| t.kind.successors())
            .unwrap_or_default()
    }

    /// Instructions excluding the terminator.
    pub fn body(&self) -> &[Inst] {
        match self.terminator() {
            Some(_) => &self.insts[..self.insts.len() - 1],
            None => &self.insts,
        }
    }
}

/// Annotated CFG edge counts, produced by flow inference
/// (`csspgo_core::inference` in its min-cost-flow mode) alongside the block
/// counts. Stored sparsely as a sorted `(from, to, count)` list so the
/// structure serializes cleanly and lookups stay deterministic.
///
/// Edge counts describe the CFG *at annotation time*; transformation passes
/// maintain block counts but not edge counts, so the optimizer pipeline
/// clears this annotation on entry rather than letting it go stale.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeCounts {
    edges: Vec<(BlockId, BlockId, u64)>,
}

impl EdgeCounts {
    /// Builds the annotation from `(from, to, count)` triples. Duplicate
    /// `(from, to)` pairs are summed; the result is sorted for
    /// deterministic iteration and binary-search lookup.
    pub fn new(mut edges: Vec<(BlockId, BlockId, u64)>) -> Self {
        edges.sort_by_key(|&(f, t, _)| (f, t));
        edges.dedup_by(|next, kept| {
            if kept.0 == next.0 && kept.1 == next.1 {
                kept.2 += next.2;
                true
            } else {
                false
            }
        });
        EdgeCounts { edges }
    }

    /// The count recorded for edge `from → to`, if any.
    pub fn get(&self, from: BlockId, to: BlockId) -> Option<u64> {
        self.edges
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
            .ok()
            .map(|i| self.edges[i].2)
    }

    /// All recorded edges in `(from, to)` order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, BlockId, u64)> + '_ {
        self.edges.iter().copied()
    }

    /// Combined count of recorded edges leaving `from`.
    pub fn out_total(&self, from: BlockId) -> u64 {
        self.edges
            .iter()
            .filter(|&&(f, _, _)| f == from)
            .map(|&(_, _, c)| c)
            .sum()
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges are recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Where an annotated block count came from. Threaded through the annotation
/// path so downstream consumers (the WP lint family, `csspgo_lint`, bench
/// records) can tell raw measurements from salvaged or solver-invented
/// weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

impl Provenance {
    /// Stable lowercase tag for reports and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            Provenance::Sampled => "sampled",
            Provenance::StaleMatched => "stale_matched",
            Provenance::Inferred => "inferred",
            Provenance::Reconstructed => "reconstructed",
        }
    }
}

/// Per-block provenance tags, stored sparsely like [`EdgeCounts`]: a sorted
/// `(block, tag)` list. Blocks without an entry have no annotated count (or
/// the annotation predates provenance tracking).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceMap {
    tags: Vec<(BlockId, Provenance)>,
}

impl ProvenanceMap {
    /// Builds the map from `(block, tag)` pairs. Duplicates keep the first
    /// tag after a stable sort; the result is sorted for binary search.
    pub fn new(mut tags: Vec<(BlockId, Provenance)>) -> Self {
        tags.sort_by_key(|&(b, _)| b);
        tags.dedup_by_key(|&mut (b, _)| b);
        ProvenanceMap { tags }
    }

    /// The tag recorded for `block`, if any.
    pub fn get(&self, block: BlockId) -> Option<Provenance> {
        self.tags
            .binary_search_by_key(&block, |&(b, _)| b)
            .ok()
            .map(|i| self.tags[i].1)
    }

    /// All recorded tags in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, Provenance)> + '_ {
        self.tags.iter().copied()
    }

    /// Number of tagged blocks.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether no blocks are tagged.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// The block layout decided by the layout pass: hot blocks in order, then
/// (optionally, with function splitting) cold blocks placed in a separate
/// cold region of the binary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BlockLayout {
    /// Hot-part order; must start with the entry block.
    pub hot: Vec<BlockId>,
    /// Cold-part order (empty when the function is not split).
    pub cold: Vec<BlockId>,
}

impl BlockLayout {
    /// All placed blocks in emission order (hot then cold).
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.hot.iter().chain(self.cold.iter()).copied()
    }
}

/// A function: parameters, virtual registers, and a CFG of basic blocks.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// Annotated CFG edge counts, if flow inference produced them. Cleared
    /// by the optimizer pipeline (passes maintain block counts only).
    /// Absent in serialized modules from before edge inference existed
    /// (the vendored serde treats a missing `Option` field as `None`).
    pub edge_counts: Option<EdgeCounts>,
    /// Per-block weight provenance, written alongside block counts by the
    /// annotation path. Cleared by the optimizer pipeline together with
    /// `edge_counts` (cloning passes would leave it stale). Absent in
    /// serialized modules from before provenance tracking existed.
    pub count_provenance: Option<ProvenanceMap>,
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
            edge_counts: None,
            count_provenance: None,
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

    /// The parameter registers.
    pub fn params(&self) -> impl Iterator<Item = VReg> {
        (0..self.num_params as u32).map(VReg)
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

    /// Emission order: the decided layout, or live blocks in id order.
    pub fn linear_order(&self) -> Vec<BlockId> {
        match &self.layout {
            Some(l) => l.iter().collect(),
            None => self.iter_blocks().map(|(id, _)| id).collect(),
        }
    }

    /// Allocates the next probe index (1-based, dense per function).
    pub fn alloc_probe_index(&mut self) -> u32 {
        let i = self.next_probe_index;
        self.next_probe_index += 1;
        i
    }

    /// Total number of instructions in live blocks (a cheap size proxy).
    pub fn size(&self) -> usize {
        self.iter_blocks().map(|(_, b)| b.insts.len()).sum()
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
        assert_eq!(f.params().collect::<Vec<_>>(), vec![VReg(0), VReg(1)]);
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
    fn terminator_and_body() {
        let mut f = Function::new(FuncId(0), "f", 0);
        let b = f.block_mut(BlockId(0));
        b.insts.push(Inst::synthetic(InstKind::Copy {
            dst: VReg(0),
            src: Operand::Imm(1),
        }));
        assert!(b.terminator().is_none());
        b.insts.push(ret(0));
        assert!(b.terminator().is_some());
        assert_eq!(b.body().len(), 1);
    }

    #[test]
    fn dead_blocks_are_skipped() {
        let mut f = Function::new(FuncId(0), "f", 0);
        let b1 = f.add_block();
        f.block_mut(b1).dead = true;
        assert_eq!(f.num_live_blocks(), 1);
        assert_eq!(f.linear_order(), vec![BlockId(0)]);
    }

    #[test]
    fn layout_overrides_linear_order() {
        let mut f = Function::new(FuncId(0), "f", 0);
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.layout = Some(BlockLayout {
            hot: vec![BlockId(0), b2],
            cold: vec![b1],
        });
        assert_eq!(f.linear_order(), vec![BlockId(0), b2, b1]);
    }

    #[test]
    fn edge_counts_sort_sum_and_lookup() {
        let e = EdgeCounts::new(vec![
            (BlockId(1), BlockId(2), 5),
            (BlockId(0), BlockId(1), 7),
            (BlockId(1), BlockId(2), 3),
            (BlockId(0), BlockId(2), 2),
        ]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.get(BlockId(1), BlockId(2)), Some(8));
        assert_eq!(e.get(BlockId(2), BlockId(0)), None);
        assert_eq!(e.out_total(BlockId(0)), 9);
        let order: Vec<_> = e.iter().map(|(f, t, _)| (f.0, t.0)).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn probe_indices_are_one_based() {
        let mut f = Function::new(FuncId(0), "f", 0);
        assert_eq!(f.alloc_probe_index(), 1);
        assert_eq!(f.alloc_probe_index(), 2);
    }
}
