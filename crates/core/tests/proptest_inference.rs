//! Property tests for min-cost-flow profile inference: Kirchhoff
//! conservation on arbitrary corrupted inputs, entry-flow conservation,
//! bit-determinism, raw pass-through of declined (exit-free) functions, and
//! exactness on already-consistent profiles.

use csspgo_core::inference::{infer_counts, InferenceMode};
use csspgo_ir::builder::ModuleBuilder;
use csspgo_ir::inst::{CmpPred, Operand};
use csspgo_ir::{cfg, BlockId, Module, VReg};
use proptest::prelude::*;
use std::collections::HashMap;

/// Random CFG of any shape (cycles, unreachable blocks, multiple or zero
/// exits) — the same generator family as `proptest_core`.
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

fn cfg_strategy() -> impl Strategy<Value = (usize, Vec<(u8, u8, u8)>, Vec<u16>)> {
    (2usize..10).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), n..=n),
            prop::collection::vec(any::<u16>(), n..=n),
        )
    })
}

/// Tree-shaped CFG (every block has exactly one predecessor) plus exactly
/// flow-consistent counts derived by splitting the entry flow at each
/// conditional.
fn build_consistent_tree(shapes: &[(u8, u8)], entry_flow: u64) -> (Module, HashMap<BlockId, u64>) {
    let budget = shapes.len();
    let mut mb = ModuleBuilder::new("prop");
    let f = mb.declare_function("f", 1);
    let mut flows: Vec<(BlockId, u64)> = Vec::new();
    {
        let mut fb = mb.function_builder(f);
        let entry = fb.entry_block();
        let mut queue = std::collections::VecDeque::from([(entry, entry_flow)]);
        let mut created = 1usize;
        let mut shape_iter = shapes.iter();
        while let Some((b, flow)) = queue.pop_front() {
            flows.push((b, flow));
            fb.switch_to(b);
            let &(kind, frac) = shape_iter.next().unwrap_or(&(0, 0));
            match kind % 3 {
                _ if created >= budget => fb.ret(Some(Operand::Reg(VReg(0)))),
                0 => fb.ret(Some(Operand::Reg(VReg(0)))),
                1 => {
                    let t = fb.add_block();
                    created += 1;
                    fb.br(t);
                    queue.push_back((t, flow));
                }
                _ => {
                    let t1 = fb.add_block();
                    let t2 = fb.add_block();
                    created += 2;
                    let c = fb.cmp(CmpPred::Gt, Operand::Reg(VReg(0)), Operand::Imm(3));
                    fb.cond_br(Operand::Reg(c), t1, t2);
                    let k = flow * u64::from(frac % 101) / 100;
                    queue.push_back((t1, k));
                    queue.push_back((t2, flow - k));
                }
            }
        }
    }
    (mb.finish(), flows.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// On arbitrary CFGs with arbitrary (corrupted) raw counts, whenever
    /// the MCF solver runs it must produce counts and edges that satisfy
    /// Kirchhoff at every reachable block and conserve the entry flow —
    /// and it must be bit-deterministic.
    #[test]
    fn mcf_satisfies_kirchhoff_on_corrupted_inputs((n, edges, raws) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let mut raw = HashMap::new();
        for (i, &r) in raws.iter().enumerate() {
            raw.insert(BlockId::from_index(i), r as u64);
        }
        let entry_count = 1000u64;
        let res = infer_counts(f, &raw, entry_count, InferenceMode::Mcf);

        let order = cfg::reverse_post_order(f);
        let has_exit = order.iter().any(|&b| cfg::successors(f, b).is_empty());
        prop_assert_eq!(
            res.edges.is_some(),
            has_exit,
            "mcf solves iff a reachable exit exists (else it declines)"
        );
        prop_assert_eq!(res.stats.declined, u64::from(!has_exit));
        if !has_exit {
            prop_assert_eq!(&res.counts, &raw, "a declined function keeps its measured counts");
        }

        if let Some(edge_counts) = &res.edges {
            let out_sum = |b: BlockId| -> u64 {
                edge_counts.iter().filter(|e| e.0 == b).map(|e| e.2).sum()
            };
            let in_sum = |b: BlockId| -> u64 {
                edge_counts.iter().filter(|e| e.1 == b).map(|e| e.2).sum()
            };
            for &(from, to, _) in edge_counts {
                prop_assert!(
                    cfg::successors(f, from).contains(&to),
                    "recorded edge {:?} -> {:?} is not a CFG edge", from, to
                );
            }
            for &b in &order {
                let c = res.counts[&b];
                if b == f.entry {
                    prop_assert_eq!(
                        c, entry_count + in_sum(b),
                        "entry = head count + loop back-in flow"
                    );
                } else {
                    prop_assert_eq!(c, in_sum(b), "in-flow at {b:?}");
                }
                if !cfg::successors(f, b).is_empty() {
                    prop_assert_eq!(c, out_sum(b), "out-flow at {b:?}");
                }
            }
        }

        // Bit-deterministic, counts and edges both.
        let res2 = infer_counts(f, &raw, entry_count, InferenceMode::Mcf);
        prop_assert_eq!(res.counts, res2.counts);
        prop_assert_eq!(res.edges, res2.edges);
    }

    /// On already-consistent profiles MCF is a zero-cost no-op: it must
    /// reproduce the input exactly.
    #[test]
    fn mcf_is_exact_on_consistent_inputs(
        shapes in prop::collection::vec((any::<u8>(), any::<u8>()), 1..12),
        entry_flow in 1u64..50_000,
    ) {
        let (m, consistent) = build_consistent_tree(&shapes, entry_flow);
        let f = &m.functions[0];

        let mcf = infer_counts(f, &consistent, entry_flow, InferenceMode::Mcf);
        prop_assert!(mcf.edges.is_some(), "trees always have exits");
        prop_assert_eq!(mcf.stats.counts_adjusted, 0, "consistent input untouched");
        prop_assert_eq!(mcf.stats.residual_cost, 0);
        for (b, &c) in &consistent {
            prop_assert_eq!(mcf.counts[b], c, "exact at {b:?}");
        }
    }
}
