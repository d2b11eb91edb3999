//! Flow-recoverability machinery: the augmented flow graph, Ball–Larus/
//! Knuth minimal counter placement, and Kirchhoff elimination recovering
//! full block/edge counts from sparse measurements.
//!
//! The classic observation (Knuth; Ball & Larus) is that execution counts
//! form a *circulation* once the CFG is augmented with a virtual exit node
//! `X`: every returning block gets an edge to `X`, and `X` closes the loop
//! back to the entry (one traversal per function invocation). Kirchhoff's
//! law — flow in equals flow out at every node — then determines all edge
//! counts from any set that leaves the *unmeasured* edges acyclic as an
//! undirected graph. The cheapest such set is the co-tree of a spanning
//! tree, and putting the spanning tree on the highest-frequency edges
//! (loop-nested edges here) pushes the counters onto the coldest ones.
//!
//! This module is deliberately placed in `csspgo_ir` rather than the
//! analysis crate so `csspgo_opt::instrument` can plan placements without a
//! dependency cycle — the same precedent as `probe_verify`. The *prover*
//! that certifies a placement is a test oracle for [`plan_function`]:
//! `tests/common/flow_prover.rs`, driven by `tests/placement.rs`.

use crate::cfg;
use crate::function::Function;
use crate::ids::BlockId;
use crate::inst::InstKind;
use crate::loops::LoopInfo;
use std::collections::HashMap;

/// An edge of the augmented flow graph. Parallel CFG edges (e.g. a
/// conditional branch with both arms on the same target) are collapsed into
/// one flow edge carrying their combined traversal count, matching
/// [`cfg::successors`]' deduplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowEdge {
    /// A real CFG edge `from → to`.
    Cfg { from: BlockId, to: BlockId },
    /// The virtual edge from a returning block to the exit node.
    ToExit { from: BlockId },
    /// The virtual back edge from the exit node to the entry, traversed
    /// once per function invocation.
    FromExit,
}

impl std::fmt::Display for FlowEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowEdge::Cfg { from, to } => write!(f, "bb{} -> bb{}", from.0, to.0),
            FlowEdge::ToExit { from } => write!(f, "bb{} -> exit", from.0),
            FlowEdge::FromExit => write!(f, "exit -> entry"),
        }
    }
}

/// Where a counter for an edge physically lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterHost {
    /// An existing block whose execution count equals the edge's traversal
    /// count (the block uniquely witnesses the edge).
    Block(BlockId),
    /// No existing block witnesses the edge (it is critical): the
    /// instrumentation pass must split it with a fresh counter-only block.
    Split,
}

/// One planned counter: the co-tree edge it measures and where it lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSite {
    /// The augmented-graph edge this counter measures.
    pub edge: FlowEdge,
    /// The physical placement.
    pub host: CounterHost,
}

/// A minimal counter placement for one function.
#[derive(Clone, Debug, Default)]
pub struct MeasurementPlan {
    /// Counter sites, one per co-tree edge, in deterministic order.
    pub counters: Vec<CounterSite>,
    /// Total number of augmented-graph edges (tree + counted).
    pub num_edges: usize,
    /// Number of augmented-graph nodes (reachable blocks + the exit node).
    pub num_nodes: usize,
    /// True when the function has no reachable return: the circulation
    /// cannot be closed, so callers should fall back to per-block counters.
    pub full_fallback: bool,
}

/// Enumerates the augmented flow graph's edges in deterministic order:
/// reverse post-order over reachable blocks, each block's real successors
/// first (in terminator order), returning blocks contributing their
/// `ToExit` edge in place, and the virtual `FromExit` edge last.
pub fn flow_edges(func: &Function) -> Vec<FlowEdge> {
    let mut edges = Vec::new();
    let mut has_exit = false;
    for from in cfg::reverse_post_order(func) {
        let block = func.block(from);
        if matches!(
            block.terminator().map(|t| &t.kind),
            Some(InstKind::Ret { .. })
        ) {
            edges.push(FlowEdge::ToExit { from });
            has_exit = true;
        } else {
            for to in cfg::successors(func, from) {
                edges.push(FlowEdge::Cfg { from, to });
            }
        }
    }
    if has_exit {
        edges.push(FlowEdge::FromExit);
    }
    edges
}

/// The undirected endpoints of `edge` as augmented-graph node indices,
/// where the virtual exit node is `num_blocks` and blocks use their id
/// index.
pub fn endpoints(edge: FlowEdge, func: &Function, exit_node: usize) -> (usize, usize) {
    match edge {
        FlowEdge::Cfg { from, to } => (from.index(), to.index()),
        FlowEdge::ToExit { from } => (from.index(), exit_node),
        FlowEdge::FromExit => (exit_node, func.entry.index()),
    }
}

/// Decides which existing block (if any) uniquely witnesses `edge`:
///
/// * a real edge `a → b` is witnessed by `a` when `b` is `a`'s only
///   successor, else by `b` when `a` is `b`'s only predecessor and `b` is
///   not the entry (the entry also absorbs the virtual `FromExit` inflow);
/// * a `ToExit` edge is always witnessed by the returning block itself;
/// * the `FromExit` edge is witnessed by the entry only when the entry has
///   no real predecessors.
///
/// `preds` must be restricted to reachable blocks. Returns `None` when no
/// block witnesses the edge — for a real edge that means it is *critical*
/// and needs a split block; for `FromExit` it means the edge cannot host a
/// counter at all and must be kept on the spanning tree.
pub fn counter_host(
    func: &Function,
    preds: &[Vec<BlockId>],
    edge: FlowEdge,
) -> Option<CounterHost> {
    match edge {
        FlowEdge::Cfg { from, to } => {
            if cfg::successors(func, from).len() == 1 {
                Some(CounterHost::Block(from))
            } else if to != func.entry && preds[to.index()].len() == 1 {
                Some(CounterHost::Block(to))
            } else {
                Some(CounterHost::Split)
            }
        }
        FlowEdge::ToExit { from } => Some(CounterHost::Block(from)),
        FlowEdge::FromExit => {
            if preds[func.entry.index()].is_empty() {
                Some(CounterHost::Block(func.entry))
            } else {
                None
            }
        }
    }
}

/// Predecessor lists restricted to reachable blocks (the augmented graph
/// only spans reachable blocks; a live-but-unreachable predecessor would
/// otherwise distort the hosting rules).
pub fn reachable_predecessors(func: &Function) -> Vec<Vec<BlockId>> {
    let reach = cfg::reachable(func);
    let mut preds = vec![Vec::new(); func.blocks.len()];
    for (bid, _) in func.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        for succ in cfg::successors(func, bid) {
            let list = &mut preds[succ.index()];
            if !list.contains(&bid) {
                list.push(bid);
            }
        }
    }
    preds
}

/// A small union–find over augmented-graph nodes (used by Kruskal here and
/// by the redundancy check of the prover in `tests/common/flow_prover.rs`).
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s component (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the components of `a` and `b`; false if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

/// Plans a minimal counter placement for `func`: a max-weight spanning tree
/// of the augmented flow graph keeps the (estimated) hottest edges
/// uninstrumented, and every co-tree edge gets a counter site. Edge weight
/// is the loop-nesting depth shared by its endpoints, so loop back edges
/// and loop bodies land on the tree and counters land on the cold edges —
/// the Ball–Larus placement with a static frequency estimate.
///
/// Functions whose circulation cannot be closed (no reachable `ret`) fall
/// back to full per-block instrumentation (`full_fallback`).
pub fn plan_function(func: &Function) -> MeasurementPlan {
    let edges = flow_edges(func);
    let exit_node = func.blocks.len();
    let reach = cfg::reachable(func);
    let num_nodes = reach.iter().filter(|&&r| r).count() + 1;
    if !edges.iter().any(|e| matches!(e, FlowEdge::ToExit { .. })) {
        return MeasurementPlan {
            counters: Vec::new(),
            num_edges: edges.len(),
            num_nodes,
            full_fallback: true,
        };
    }
    let preds = reachable_predecessors(func);
    let loops = LoopInfo::compute(func);
    let dom = crate::dom::Dominators::compute(func);
    // Static frequency estimate: deeper loop nesting dominates, and at
    // equal depth a back edge (target dominates source) runs once per
    // iteration while the loop-entry edge runs once per entry — so back
    // edges get a tie-breaking bonus toward the tree.
    let weight = |e: &FlowEdge| match *e {
        FlowEdge::Cfg { from, to } => {
            2 * loops.depth(from).min(loops.depth(to)) + u32::from(dom.dominates(to, from))
        }
        FlowEdge::ToExit { .. } | FlowEdge::FromExit => 0,
    };

    // Kruskal over the undirected augmented graph. Edges that cannot host a
    // counter at all (an unhostable FromExit) are forced onto the tree
    // first; the rest join by descending weight, ties broken by enumeration
    // order for determinism.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| {
        let forced = counter_host(func, &preds, edges[i]).is_none();
        (!forced, std::cmp::Reverse(weight(&edges[i])), i)
    });
    let mut uf = UnionFind::new(func.blocks.len() + 1);
    let mut in_tree = vec![false; edges.len()];
    for &i in &order {
        let (u, v) = endpoints(edges[i], func, exit_node);
        if uf.union(u, v) {
            in_tree[i] = true;
        }
    }

    let mut counters = Vec::new();
    for (i, &edge) in edges.iter().enumerate() {
        if in_tree[i] {
            continue;
        }
        match counter_host(func, &preds, edge) {
            Some(host) => counters.push(CounterSite { edge, host }),
            // Only FromExit can be unhostable, and forced edges always make
            // the (initially empty) tree — but degrade safely if not.
            None => {
                return MeasurementPlan {
                    counters: Vec::new(),
                    num_edges: edges.len(),
                    num_nodes,
                    full_fallback: true,
                }
            }
        }
    }
    MeasurementPlan {
        counters,
        num_edges: edges.len(),
        num_nodes,
        full_fallback: false,
    }
}

/// Full flow recovered from sparse measurements.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveredFlow {
    /// Execution count for every live block (unreachable live blocks get 0,
    /// matching what full instrumentation would have measured).
    pub block_counts: HashMap<BlockId, u64>,
    /// Traversal count for every real CFG edge, in `(from, to)` order.
    pub edge_counts: Vec<(BlockId, BlockId, u64)>,
    /// Function invocation count (the `FromExit` circulation value).
    pub entry_count: u64,
}

/// Solves the full circulation from measured co-tree edges by Kirchhoff
/// elimination: repeatedly pick a node with exactly one unknown incident
/// edge and solve it from flow conservation. Returns `None` if any edge
/// stays unknown — i.e. the measured set was not recoverable (the static
/// prover exists to rule this out before execution).
pub fn reconstruct(func: &Function, measured: &HashMap<FlowEdge, u64>) -> Option<RecoveredFlow> {
    let edges = flow_edges(func);
    let exit_node = func.blocks.len();
    let num_nodes = func.blocks.len() + 1;
    let mut value: Vec<Option<u64>> = edges.iter().map(|e| measured.get(e).copied()).collect();

    // Incidence lists. Self-loop CFG edges contribute equally to a node's
    // inflow and outflow, so conservation can never solve them — they are
    // excluded from the unknown bookkeeping and must be measured directly
    // (any self-loop is a cycle by itself, hence always co-tree).
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    let mut unknown_at = vec![0usize; num_nodes];
    for (i, &e) in edges.iter().enumerate() {
        let (u, v) = endpoints(e, func, exit_node);
        if u == v {
            value[i]?;
            continue;
        }
        incident[u].push(i);
        incident[v].push(i);
        if value[i].is_none() {
            unknown_at[u] += 1;
            unknown_at[v] += 1;
        }
    }

    let mut worklist: Vec<usize> = (0..num_nodes).filter(|&n| unknown_at[n] == 1).collect();
    while let Some(node) = worklist.pop() {
        if unknown_at[node] != 1 {
            continue; // solved transitively since being queued
        }
        let mut in_known: i128 = 0;
        let mut out_known: i128 = 0;
        let mut missing = None;
        for &i in &incident[node] {
            let (u, v) = endpoints(edges[i], func, exit_node);
            match value[i] {
                Some(c) => {
                    if v == node {
                        in_known += c as i128;
                    }
                    if u == node {
                        out_known += c as i128;
                    }
                }
                None => missing = Some((i, u == node)),
            }
        }
        let (i, outgoing) = missing?;
        let solved = if outgoing {
            in_known - out_known
        } else {
            out_known - in_known
        };
        // Exact counter data never goes negative; clamp defensively so a
        // corrupted input degrades rather than wrapping.
        value[i] = Some(solved.max(0) as u64);
        let (u, v) = endpoints(edges[i], func, exit_node);
        for n in [u, v] {
            unknown_at[n] -= 1;
            if unknown_at[n] == 1 {
                worklist.push(n);
            }
        }
    }
    if value.iter().any(|v| v.is_none()) {
        return None;
    }

    let mut out_total: HashMap<BlockId, u64> = HashMap::new();
    let mut edge_counts = Vec::new();
    let mut entry_count = 0;
    for (i, &e) in edges.iter().enumerate() {
        let c = value[i].unwrap();
        match e {
            FlowEdge::Cfg { from, to } => {
                *out_total.entry(from).or_insert(0) += c;
                edge_counts.push((from, to, c));
            }
            FlowEdge::ToExit { from } => {
                *out_total.entry(from).or_insert(0) += c;
            }
            FlowEdge::FromExit => entry_count = c,
        }
    }
    edge_counts.sort_by_key(|&(f, t, _)| (f, t));
    // Every execution of a block leaves it exactly once (returning blocks
    // through ToExit), so a block's count is the sum of its outgoing flow.
    // Live blocks outside the augmented graph (unreachable) measured 0.
    let block_counts = func
        .iter_blocks()
        .map(|(bid, _)| (bid, out_total.get(&bid).copied().unwrap_or(0)))
        .collect();
    Some(RecoveredFlow {
        block_counts,
        edge_counts,
        entry_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::FuncId;
    use crate::inst::Operand;
    use crate::module::Module;

    /// diamond: entry -> (a|b) -> join -> ret
    fn diamond() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 0);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            let a = fb.add_block();
            let b = fb.add_block();
            let join = fb.add_block();
            fb.switch_to(entry);
            fb.cond_br(Operand::Imm(1), a, b);
            fb.switch_to(a);
            fb.br(join);
            fb.switch_to(b);
            fb.br(join);
            fb.switch_to(join);
            fb.ret(Some(Operand::Imm(0)));
        }
        mb.finish()
    }

    /// loop: entry -> head; head -> (body | exit); body -> head; exit ret
    fn looped() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 0);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            let head = fb.add_block();
            let body = fb.add_block();
            let exit = fb.add_block();
            fb.switch_to(entry);
            fb.br(head);
            fb.switch_to(head);
            fb.cond_br(Operand::Imm(1), body, exit);
            fb.switch_to(body);
            fb.br(head);
            fb.switch_to(exit);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn diamond_needs_one_counter() {
        let m = diamond();
        let f = &m.functions[0];
        let plan = plan_function(f);
        assert!(!plan.full_fallback);
        // 6 edges (4 cfg + ToExit + FromExit), 5 nodes incl. exit:
        // cyclomatic number 6 - 5 + 1 = 2, vs 4 full-mode counters.
        assert_eq!(plan.num_edges, 6);
        assert_eq!(plan.num_nodes, 5);
        assert_eq!(plan.counters.len(), 2);
    }

    #[test]
    fn loop_back_edge_stays_on_tree() {
        let m = looped();
        let f = &m.functions[0];
        let plan = plan_function(f);
        assert!(!plan.full_fallback);
        // 6 edges, 5 nodes (4 blocks + exit): two counters, and the hot
        // body->head back edge must not be one of them.
        assert_eq!(plan.counters.len(), 2);
        for site in &plan.counters {
            if let FlowEdge::Cfg { from, to } = site.edge {
                assert!(
                    !(from == BlockId(2) && to == BlockId(1)),
                    "back edge got a counter"
                );
            }
        }
    }

    #[test]
    fn no_exit_falls_back_to_full() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("spin", 0);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            fb.switch_to(entry);
            fb.br(entry);
        }
        let m = mb.finish();
        let plan = plan_function(&m.functions[0]);
        assert!(plan.full_fallback);
        assert!(plan.counters.is_empty());
    }

    #[test]
    fn reconstruct_diamond_from_one_counter() {
        let m = diamond();
        let f = &m.functions[0];
        let plan = plan_function(f);
        // Ground truth: 10 invocations, 7 through a, 3 through b.
        let truth: HashMap<FlowEdge, u64> = [
            (
                FlowEdge::Cfg {
                    from: BlockId(0),
                    to: BlockId(1),
                },
                7,
            ),
            (
                FlowEdge::Cfg {
                    from: BlockId(0),
                    to: BlockId(2),
                },
                3,
            ),
            (
                FlowEdge::Cfg {
                    from: BlockId(1),
                    to: BlockId(3),
                },
                7,
            ),
            (
                FlowEdge::Cfg {
                    from: BlockId(2),
                    to: BlockId(3),
                },
                3,
            ),
            (FlowEdge::ToExit { from: BlockId(3) }, 10),
            (FlowEdge::FromExit, 10),
        ]
        .into_iter()
        .collect();
        let measured: HashMap<FlowEdge, u64> = plan
            .counters
            .iter()
            .map(|s| (s.edge, truth[&s.edge]))
            .collect();
        let rec = reconstruct(f, &measured).expect("recoverable");
        assert_eq!(rec.entry_count, 10);
        assert_eq!(rec.block_counts[&BlockId(0)], 10);
        assert_eq!(rec.block_counts[&BlockId(1)], 7);
        assert_eq!(rec.block_counts[&BlockId(2)], 3);
        assert_eq!(rec.block_counts[&BlockId(3)], 10);
        for (from, to, c) in rec.edge_counts {
            assert_eq!(c, truth[&FlowEdge::Cfg { from, to }], "{from:?}->{to:?}");
        }
    }

    #[test]
    fn reconstruct_rejects_insufficient_measurements() {
        let m = diamond();
        let f = &m.functions[0];
        // Measuring nothing cannot recover a diamond.
        assert!(reconstruct(f, &HashMap::new()).is_none());
    }

    #[test]
    fn self_loop_must_be_measured() {
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare_function("f", 0);
        {
            let mut fb = mb.function_builder(fid);
            let entry = fb.entry_block();
            let spin = fb.add_block();
            let done = fb.add_block();
            fb.switch_to(entry);
            fb.br(spin);
            fb.switch_to(spin);
            fb.cond_br(Operand::Imm(1), spin, done);
            fb.switch_to(done);
            fb.ret(None);
        }
        let m = mb.finish();
        let f = &m.functions[0];
        let plan = plan_function(f);
        assert!(!plan.full_fallback);
        let self_edge = FlowEdge::Cfg {
            from: BlockId(1),
            to: BlockId(1),
        };
        assert!(
            plan.counters.iter().any(|s| s.edge == self_edge),
            "self-loop must be in the co-tree: {:?}",
            plan.counters
        );
        // 4 invocations, 9 extra spins.
        let measured: HashMap<FlowEdge, u64> = plan
            .counters
            .iter()
            .map(|s| {
                let c = match s.edge {
                    e if e == self_edge => 9,
                    FlowEdge::Cfg { .. } => 4,
                    FlowEdge::ToExit { .. } | FlowEdge::FromExit => 4,
                };
                (s.edge, c)
            })
            .collect();
        let rec = reconstruct(f, &measured).expect("recoverable");
        assert_eq!(rec.block_counts[&BlockId(1)], 13);
        assert_eq!(rec.block_counts[&BlockId(2)], 4);
        assert_eq!(rec.entry_count, 4);
    }

    #[test]
    fn unreachable_live_blocks_count_zero() {
        let mut m = diamond();
        let f = &mut m.functions[0];
        let orphan = f.add_block();
        f.block_mut(orphan)
            .insts
            .push(crate::inst::Inst::synthetic(crate::inst::InstKind::Ret {
                value: None,
            }));
        let plan = plan_function(f);
        let measured: HashMap<FlowEdge, u64> = plan.counters.iter().map(|s| (s.edge, 0)).collect();
        let rec = reconstruct(f, &measured).expect("recoverable");
        assert_eq!(rec.block_counts[&orphan], 0);
        assert_eq!(rec.block_counts.len(), f.num_live_blocks());
    }

    #[test]
    fn hosting_rules() {
        let m = diamond();
        let f = &m.functions[0];
        let preds = reachable_predecessors(f);
        // entry -> a: a has a single pred, hosted in a.
        assert_eq!(
            counter_host(
                f,
                &preds,
                FlowEdge::Cfg {
                    from: BlockId(0),
                    to: BlockId(1)
                }
            ),
            Some(CounterHost::Block(BlockId(1)))
        );
        // a -> join: a has a single successor, hosted in a.
        assert_eq!(
            counter_host(
                f,
                &preds,
                FlowEdge::Cfg {
                    from: BlockId(1),
                    to: BlockId(3)
                }
            ),
            Some(CounterHost::Block(BlockId(1)))
        );
        // ToExit hosts in the returning block.
        assert_eq!(
            counter_host(f, &preds, FlowEdge::ToExit { from: BlockId(3) }),
            Some(CounterHost::Block(BlockId(3)))
        );
        // Entry has no real preds: FromExit hosts in the entry.
        assert_eq!(
            counter_host(f, &preds, FlowEdge::FromExit),
            Some(CounterHost::Block(BlockId(0)))
        );
        let _ = FuncId(0);
    }
}
