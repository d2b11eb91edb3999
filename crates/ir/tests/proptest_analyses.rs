//! Property tests over random CFGs: dominators, loops, reachability and the
//! CFG checksum must uphold their defining invariants on arbitrary shapes.

use csspgo_ir::dom::Dominators;
use csspgo_ir::loops::LoopInfo;
use csspgo_ir::probe::cfg_checksum;
use csspgo_ir::{cfg, BlockId, Function};
use proptest::prelude::*;

#[path = "../../../tests/common/random_cfg.rs"]
mod random_cfg;
use random_cfg::{build_cfg, cfg_strategy};

/// Which blocks stay reachable from entry when every path through `avoid`
/// is cut — the naive oracle for dominance: `a` dominates `b` exactly when
/// removing `a` disconnects `b` from the entry.
fn reachable_avoiding(f: &Function, avoid: BlockId) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    if f.entry == avoid {
        return seen;
    }
    seen[f.entry.index()] = true;
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        for s in cfg::successors(f, b) {
            if s != avoid && !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn module_always_verifies((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        prop_assert!(csspgo_ir::verify::verify_module(&m).is_empty());
    }

    #[test]
    fn entry_dominates_every_reachable_block((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let dom = Dominators::compute(f);
        let reach = cfg::reachable(f);
        for (i, &r) in reach.iter().enumerate() {
            let b = BlockId::from_index(i);
            if r {
                prop_assert!(dom.dominates(f.entry, b), "entry must dominate {b}");
                prop_assert!(dom.dominates(b, b), "dominance is reflexive");
            } else {
                prop_assert!(!dom.is_reachable(b));
            }
        }
    }

    #[test]
    fn idom_is_a_strict_dominator((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let dom = Dominators::compute(f);
        for (b, _) in f.iter_blocks() {
            if let Some(idom) = dom.idom(b) {
                prop_assert!(dom.dominates(idom, b));
                prop_assert_ne!(idom, b);
            }
        }
    }

    #[test]
    fn rpo_is_a_permutation_of_reachable_blocks((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let rpo = cfg::reverse_post_order(f);
        let reach = cfg::reachable(f);
        let reach_count = reach.iter().filter(|&&r| r).count();
        prop_assert_eq!(rpo.len(), reach_count);
        let mut seen = std::collections::HashSet::new();
        for b in &rpo {
            prop_assert!(seen.insert(*b), "duplicate {b} in RPO");
            prop_assert!(reach[b.index()]);
        }
        prop_assert_eq!(rpo.first(), Some(&f.entry));
    }

    #[test]
    fn loop_headers_dominate_their_latches((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let dom = Dominators::compute(f);
        let li = LoopInfo::compute(f);
        for l in &li.loops {
            for &latch in &l.latches {
                prop_assert!(dom.dominates(l.header, latch));
                prop_assert!(l.blocks.contains(&latch));
            }
            prop_assert!(l.blocks.contains(&l.header));
            // Every loop block reaches the header without leaving the loop
            // (by construction of natural loops, the header dominates all).
            for &b in &l.blocks {
                prop_assert!(dom.dominates(l.header, b), "{} !dom {}", l.header, b);
            }
        }
    }

    #[test]
    fn dominance_matches_cut_vertex_oracle((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let dom = Dominators::compute(f);
        let reach = cfg::reachable(f);
        for (ai, &ar) in reach.iter().enumerate() {
            if !ar {
                continue;
            }
            let a = BlockId::from_index(ai);
            let without_a = reachable_avoiding(f, a);
            for (bi, &br) in reach.iter().enumerate() {
                if !br {
                    continue;
                }
                let b = BlockId::from_index(bi);
                let oracle = a == b || !without_a[bi];
                prop_assert_eq!(
                    dom.dominates(a, b),
                    oracle,
                    "dominates({}, {}) disagrees with the cut-vertex oracle",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn checksum_is_stable_and_shape_sensitive((n, edges) in cfg_strategy()) {
        let m1 = build_cfg(n, &edges);
        let m2 = build_cfg(n, &edges);
        prop_assert_eq!(
            cfg_checksum(&m1.functions[0]),
            cfg_checksum(&m2.functions[0]),
            "checksum must be deterministic"
        );
    }

    #[test]
    fn predecessors_and_successors_agree((n, edges) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let preds = cfg::predecessors(f);
        for (b, _) in f.iter_blocks() {
            for s in cfg::successors(f, b) {
                prop_assert!(preds.of(s).contains(&b), "{b} -> {s} missing in preds");
            }
        }
        for i in 0..f.blocks.len() {
            let b = BlockId::from_index(i);
            for &p in preds.of(b) {
                prop_assert!(cfg::successors(f, p).contains(&b));
            }
        }
    }

    #[test]
    fn remove_unreachable_is_idempotent((n, edges) in cfg_strategy()) {
        let mut m = build_cfg(n, &edges);
        let f = &mut m.functions[0];
        cfg::remove_unreachable(f);
        prop_assert_eq!(cfg::remove_unreachable(f), 0);
        prop_assert!(csspgo_ir::verify::verify_module(&m).is_empty());
    }
}
