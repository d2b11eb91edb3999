//! Property tests for the flow-recoverability machinery: on arbitrary CFGs
//! the Ball–Larus placement must be minimal (exactly the cyclomatic number
//! of counters) and the Kirchhoff reconstruction must recover the *exact*
//! block and edge counts of any simulated execution from only the co-tree
//! measurements — the bit-identity guarantee the sparse instrumentation
//! mode rests on. The static prover (`tests/common/flow_prover.rs`, shared
//! with the root package's `tests/placement.rs`) must certify every planned
//! placement without executing anything: these CFGs, unlike any compiled
//! program, have critical edges off the spanning tree and entry blocks
//! inside loops.

use csspgo_ir::builder::ModuleBuilder;
use csspgo_ir::flow::{self, FlowEdge};
use csspgo_ir::inst::{CmpPred, InstKind, Operand};
use csspgo_ir::{cfg, BlockId, Function, Module, VReg};
use proptest::prelude::*;
use std::collections::HashMap;

#[path = "../../../tests/common/flow_prover.rs"]
mod flow_prover;

/// Builds a function with `n` blocks and pseudo-random branch structure
/// derived from `edges` (same generator as `proptest_analyses`): block i
/// terminates with a return, a jump, or a conditional branch.
fn build_cfg(n: usize, edges: &[(u8, u8, u8)]) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let f = mb.declare_function("f", 1);
    {
        let mut fb = mb.function_builder(f);
        let entry = fb.entry_block();
        let mut blocks = vec![entry];
        for _ in 1..n {
            blocks.push(fb.add_block());
        }
        for (i, &(kind, a, b)) in edges.iter().enumerate().take(n) {
            fb.switch_to(blocks[i]);
            let t1 = blocks[a as usize % n];
            let t2 = blocks[b as usize % n];
            match kind % 3 {
                0 => fb.ret(Some(Operand::Reg(VReg(0)))),
                1 => fb.br(t1),
                _ => {
                    let c = fb.cmp(CmpPred::Gt, Operand::Reg(VReg(0)), Operand::Imm(i as i64));
                    fb.cond_br(Operand::Reg(c), t1, t2);
                }
            }
        }
    }
    mb.finish()
}

fn cfg_strategy() -> impl Strategy<Value = (usize, Vec<(u8, u8, u8)>)> {
    (2usize..12).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), n..=n),
        )
    })
}

fn is_ret(f: &Function, b: BlockId) -> bool {
    matches!(
        f.block(b).terminator().map(|t| &t.kind),
        Some(InstKind::Ret { .. })
    )
}

/// BFS distance (in edges) from every block to the nearest reachable
/// returning block, walking predecessors backwards. `None` means the block
/// cannot reach an exit (e.g. it feeds an infinite loop).
fn exit_distance(f: &Function) -> Vec<Option<usize>> {
    let reach = cfg::reachable(f);
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for (bid, _) in f.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        for s in cfg::successors(f, bid) {
            preds[s.index()].push(bid);
        }
    }
    let mut dist = vec![None; f.blocks.len()];
    let mut queue = std::collections::VecDeque::new();
    for (bid, _) in f.iter_blocks() {
        if reach[bid.index()] && is_ret(f, bid) {
            dist[bid.index()] = Some(0);
            queue.push_back(bid);
        }
    }
    while let Some(b) = queue.pop_front() {
        let d = dist[b.index()].unwrap();
        for &p in &preds[b.index()] {
            if dist[p.index()].is_none() {
                dist[p.index()] = Some(d + 1);
                queue.push_back(p);
            }
        }
    }
    dist
}

/// Deterministic xorshift64 so failures replay exactly from the proptest
/// seed value.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Simulates `walks` entry-to-exit executions, recording ground-truth
/// traversal counts for every augmented-graph edge. Successor choice is
/// restricted to blocks that can still reach an exit; after a step budget
/// the walk descends the exit-distance gradient, which strictly decreases
/// and guarantees termination on any CFG.
fn simulate(f: &Function, walks: u64, seed: u64, dist: &[Option<usize>]) -> HashMap<FlowEdge, u64> {
    let mut rng = XorShift(seed | 1);
    let mut truth: HashMap<FlowEdge, u64> = HashMap::new();
    for _ in 0..walks {
        let mut cur = f.entry;
        let mut budget = 64u32;
        loop {
            if is_ret(f, cur) {
                *truth.entry(FlowEdge::ToExit { from: cur }).or_insert(0) += 1;
                break;
            }
            let succs: Vec<BlockId> = cfg::successors(f, cur)
                .into_iter()
                .filter(|s| dist[s.index()].is_some())
                .collect();
            assert!(!succs.is_empty(), "exit-reaching block lost the exit");
            let next = if budget > 0 {
                budget -= 1;
                succs[(rng.next() % succs.len() as u64) as usize]
            } else {
                *succs
                    .iter()
                    .min_by_key(|s| dist[s.index()].unwrap())
                    .unwrap()
            };
            *truth
                .entry(FlowEdge::Cfg {
                    from: cur,
                    to: next,
                })
                .or_insert(0) += 1;
            cur = next;
        }
    }
    truth.insert(FlowEdge::FromExit, walks);
    truth
}

/// Block execution counts implied by the ground-truth edge traversals:
/// every visit leaves the block through exactly one outgoing edge (returns
/// through `ToExit`), so the block count is its outgoing flow.
fn truth_block_counts(f: &Function, truth: &HashMap<FlowEdge, u64>) -> HashMap<BlockId, u64> {
    let mut counts: HashMap<BlockId, u64> = HashMap::new();
    for (&e, &c) in truth {
        match e {
            FlowEdge::Cfg { from, .. } | FlowEdge::ToExit { from } => {
                *counts.entry(from).or_insert(0) += c;
            }
            FlowEdge::FromExit => {}
        }
    }
    for (bid, _) in f.iter_blocks() {
        counts.entry(bid).or_insert(0);
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The co-tree size is forced: a spanning tree of a connected graph on
    /// V nodes has V-1 edges, so exactly E - (V-1) counters remain.
    #[test]
    fn placement_is_minimal((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let plan = flow::plan_function(f);
        if plan.full_fallback {
            prop_assert!(plan.counters.is_empty());
            return Ok(());
        }
        prop_assert_eq!(
            plan.counters.len(),
            plan.num_edges - (plan.num_nodes - 1),
            "counters must equal the cyclomatic number"
        );
        // Every planned counter measures a distinct edge.
        let mut seen = std::collections::HashSet::new();
        for site in &plan.counters {
            prop_assert!(seen.insert(site.edge), "duplicate counter for {}", site.edge);
        }
        let proof = flow_prover::prove_plan(f, &plan);
        prop_assert!(proof.certified(), "{:#?}", proof);
        prop_assert_eq!(proof.counted + proof.derived, plan.num_edges);
    }

    /// Round trip: simulate executions, keep only the planned co-tree
    /// measurements, reconstruct — block counts, edge counts and the entry
    /// count must all match the ground truth exactly.
    #[test]
    fn reconstruction_round_trips(
        (n, edges) in cfg_strategy(),
        walks in 1u64..24,
        seed in any::<u64>(),
    ) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let plan = flow::plan_function(f);
        if plan.full_fallback {
            return Ok(());
        }
        let dist = exit_distance(f);
        // full_fallback is false, so some reachable ret exists and the
        // entry can reach it (reachability is from the entry).
        prop_assert!(dist[f.entry.index()].is_some());
        let truth = simulate(f, walks, seed, &dist);

        let measured: HashMap<FlowEdge, u64> = plan
            .counters
            .iter()
            .map(|s| (s.edge, truth.get(&s.edge).copied().unwrap_or(0)))
            .collect();
        let rec = flow::reconstruct(f, &measured);
        prop_assert!(rec.is_some(), "certified placement must reconstruct");
        let rec = rec.unwrap();

        prop_assert_eq!(rec.entry_count, walks, "entry count is the walk count");
        let want_blocks = truth_block_counts(f, &truth);
        for (bid, want) in &want_blocks {
            prop_assert_eq!(
                rec.block_counts.get(bid).copied().unwrap_or(0),
                *want,
                "block {} count drifted",
                bid
            );
        }
        for &(from, to, got) in &rec.edge_counts {
            let want = truth
                .get(&FlowEdge::Cfg { from, to })
                .copied()
                .unwrap_or(0);
            prop_assert_eq!(got, want, "edge {} -> {} count drifted", from, to);
        }
    }
}
