//! Profile-guided block layout (ext-TSP style chain merging) and hot/cold
//! function splitting.
//!
//! The paper enables Ext-TSP block layout [Newell & Pupyrev] and function
//! splitting for *every* PGO variant, so layout quality is a pure function
//! of profile quality — which is exactly what the evaluation measures.
//!
//! The algorithm here is the greedy chain-merging core of ext-TSP: blocks
//! start as singleton chains; chains merge along the heaviest CFG edges when
//! the edge connects a chain tail to a chain head (creating fall-through);
//! remaining chains order by hotness density. Branch *inversion* is then
//! implicit: the code generator emits the conditional jump toward whichever
//! successor is not the fall-through.

use csspgo_ir::function::BlockLayout;
use csspgo_ir::{cfg, BlockId, Function, Module};
use std::collections::HashMap;

/// Computes layout and hot/cold splitting for every function.
pub fn run(module: &mut Module) {
    for func in &mut module.functions {
        let layout = compute_layout(func);
        func.layout = Some(layout);
    }
}

/// Estimated CFG edge weights from block counts: each block's count is
/// distributed over its successors proportionally to the successors' own
/// counts (uniform when the successors are uncounted).
fn edge_weights(func: &Function) -> HashMap<(BlockId, BlockId), u64> {
    let mut weights = HashMap::new();
    for (bid, block) in func.iter_blocks() {
        let succs = cfg::successors(func, bid);
        if succs.is_empty() {
            continue;
        }
        let b_count = block.count.unwrap_or(0);
        let succ_counts: Vec<u64> = succs
            .iter()
            .map(|s| func.block(*s).count.unwrap_or(0))
            .collect();
        let total: u64 = succ_counts.iter().sum();
        for (i, &s) in succs.iter().enumerate() {
            let w = if total > 0 {
                (b_count as u128 * succ_counts[i] as u128 / total as u128) as u64
            } else {
                b_count / succs.len() as u64
            };
            weights.insert((bid, s), w);
        }
    }
    weights
}

/// Greedy chain merging + hot/cold splitting for one function.
fn compute_layout(func: &Function) -> BlockLayout {
    let live: Vec<BlockId> = cfg::reverse_post_order(func);
    let has_profile = live.iter().any(|b| func.block(*b).count.is_some());

    // Without a profile: RPO order, no splitting (the -O2 baseline).
    if !has_profile {
        let mut all: Vec<BlockId> = live;
        // RPO misses nothing live (unreachable were removed by simplify),
        // but be safe and append stragglers in id order.
        for (b, _) in func.iter_blocks() {
            if !all.contains(&b) {
                all.push(b);
            }
        }
        return BlockLayout {
            hot: all,
            cold: vec![],
        };
    }

    // Chain merging on edge weights.
    let weights = edge_weights(func);
    let mut edges: Vec<(u64, BlockId, BlockId)> = weights
        .iter()
        .filter(|((f, t), _)| f != t)
        .map(|(&(f, t), &w)| (w, f, t))
        .collect();
    // Heaviest first; deterministic tiebreak.
    edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut all_blocks: Vec<BlockId> = func.iter_blocks().map(|(b, _)| b).collect();
    // Keep RPO-ish determinism: order as in `live`, stragglers after.
    all_blocks.sort_by_key(|b| live.iter().position(|x| x == b).unwrap_or(usize::MAX));

    let mut chain_of: HashMap<BlockId, usize> = HashMap::new();
    let mut chains: Vec<Vec<BlockId>> = Vec::new();
    for &b in &all_blocks {
        chain_of.insert(b, chains.len());
        chains.push(vec![b]);
    }
    for (w, from, to) in edges {
        if w == 0 {
            break;
        }
        let cf = chain_of[&from];
        let ct = chain_of[&to];
        if cf == ct {
            continue;
        }
        // Merge only tail(cf) -> head(ct), and never place a block before
        // the entry's chain head.
        if *chains[cf].last().expect("non-empty chain") != from
            || *chains[ct].first().expect("non-empty chain") != to
        {
            continue;
        }
        if chains[ct].first() == Some(&func.entry) {
            continue;
        }
        // Do not glue a chain onto the head of a much hotter chain: a cold
        // predecessor in front of a hot loop head lands inside the cycle
        // and breaks its fall-through (classic ext-TSP avoids this via its
        // gain function).
        let max_internal = |c: &[BlockId]| -> u64 {
            c.windows(2)
                .map(|p| weights.get(&(p[0], p[1])).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
        };
        if w.saturating_mul(16) < max_internal(&chains[ct]) {
            continue;
        }
        let moved = std::mem::take(&mut chains[ct]);
        for &b in &moved {
            chain_of.insert(b, cf);
        }
        chains[cf].extend(moved);
    }

    // Rotate chains that close a cycle so the chain ends in a block whose
    // loop-closing branch is *conditional* (the instruction exists anyway):
    // ending a cycle with an unconditional `br` wastes the fall-through
    // elision on the hottest edge. The rotation score is the fall-through
    // weight gained minus the weight of a trailing unconditional jump.
    for chain in chains.iter_mut() {
        if chain.len() < 2 || chain.contains(&func.entry) {
            continue;
        }
        let edge_w = |a: BlockId, b: BlockId| weights.get(&(a, b)).copied().unwrap_or(0) as i128;
        // Executed-cost of an ordering: an unconditional branch to a
        // non-adjacent block costs an executed jump plus a front-end bubble
        // (2·w); a conditional branch costs a bubble for whichever side is
        // not the fall-through, plus an extra jump instruction when
        // *neither* side falls through.
        let cost_of = |order: &[BlockId]| -> i128 {
            let mut cost: i128 = 0;
            for (i, &b) in order.iter().enumerate() {
                let next = order.get(i + 1).copied();
                match func.block(b).terminator().map(|t| &t.kind) {
                    Some(csspgo_ir::inst::InstKind::Br { target }) if next != Some(*target) => {
                        cost += 2 * edge_w(b, *target);
                    }
                    Some(csspgo_ir::inst::InstKind::CondBr {
                        then_bb, else_bb, ..
                    }) => {
                        if next != Some(*then_bb) {
                            cost += edge_w(b, *then_bb);
                        }
                        if next != Some(*else_bb) {
                            cost += edge_w(b, *else_bb);
                        }
                        if next != Some(*then_bb) && next != Some(*else_bb) {
                            cost += edge_w(b, *else_bb); // the extra Jmp
                        }
                    }
                    _ => {}
                }
            }
            cost
        };
        let len = chain.len();
        let mut best = 0usize;
        let mut best_cost = cost_of(chain);
        for r in 1..len {
            let rotated: Vec<BlockId> = chain[r..]
                .iter()
                .chain(chain[..r].iter())
                .copied()
                .collect();
            let c = cost_of(&rotated);
            if c < best_cost {
                best_cost = c;
                best = r;
            }
        }
        if best != 0 {
            chain.rotate_left(best);
        }
    }

    // Order chains: entry chain first, then by hotness density.
    let mut chain_ids: Vec<usize> = (0..chains.len())
        .filter(|&i| !chains[i].is_empty())
        .collect();
    let density = |i: usize| -> u64 {
        let total: u64 = chains[i]
            .iter()
            .map(|b| func.block(*b).count.unwrap_or(0))
            .sum();
        total / chains[i].len() as u64
    };
    chain_ids.sort_by(|&a, &b| {
        let a_entry = chains[a].first() == Some(&func.entry);
        let b_entry = chains[b].first() == Some(&func.entry);
        b_entry
            .cmp(&a_entry)
            .then(density(b).cmp(&density(a)))
            .then(chains[a][0].cmp(&chains[b][0]))
    });

    let order: Vec<BlockId> = chain_ids.iter().flat_map(|&i| chains[i].clone()).collect();

    // Hot/cold splitting: a counted block that never ran goes to the cold
    // section (the entry stays hot whatever its count).
    let (cold, hot) = order
        .into_iter()
        .partition(|&b| b != func.entry && func.block(b).count == Some(0));
    BlockLayout { hot, cold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::verify::verify_module;

    const SRC: &str = r#"
fn f(a) {
    let r = 0;
    if (a > 0) {
        r = a * 3;
    } else {
        r = a - 100;
    }
    return r;
}
"#;

    /// entry(0), then(1), else(2), join(3) after compile; annotate the hot
    /// path entry->then->join.
    fn annotated() -> Module {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        let counts = [1000u64, 990, 10, 1000];
        for (bid, c) in ids.iter().zip(counts) {
            f.block_mut(*bid).count = Some(c);
        }
        m
    }

    #[test]
    fn hot_successor_becomes_fallthrough() {
        let mut m = annotated();
        run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
        let f = &m.functions[0];
        let layout = f.layout.as_ref().unwrap();
        assert_eq!(layout.hot[0], f.entry);
        // The hot arm (bb1) must directly follow the entry.
        assert_eq!(layout.hot[1], BlockId(1), "layout: {:?}", layout);
    }

    #[test]
    fn splitting_moves_cold_blocks() {
        let mut m = annotated();
        // Make the cold arm count 0 so it is split out.
        m.functions[0].block_mut(BlockId(2)).count = Some(0);
        run(&mut m);
        let layout = m.functions[0].layout.as_ref().unwrap();
        assert!(layout.cold.contains(&BlockId(2)), "layout: {layout:?}");
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn no_profile_keeps_rpo_without_split() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        run(&mut m);
        let layout = m.functions[0].layout.as_ref().unwrap();
        assert!(layout.cold.is_empty());
        assert_eq!(layout.hot[0], m.functions[0].entry);
        assert_eq!(layout.hot.len(), m.functions[0].num_live_blocks());
    }

    #[test]
    fn entry_is_always_first() {
        let mut m = annotated();
        // Invert counts so entry would look cold.
        let ids: Vec<BlockId> = m.functions[0].iter_blocks().map(|(b, _)| b).collect();
        for bid in ids {
            m.functions[0].block_mut(bid).count = Some(5);
        }
        m.functions[0].block_mut(BlockId(0)).count = Some(0);
        run(&mut m);
        let layout = m.functions[0].layout.as_ref().unwrap();
        assert_eq!(layout.hot[0], BlockId(0));
        assert_eq!(verify_module(&m), vec![]);
    }
}
