//! Tail merge: deduplicates identical basic blocks.
//!
//! The pipeline's representative **code merge** transform (paper §III.A,
//! "Code Merge"). Blocks are compared by instruction *kinds only* — source
//! locations are ignored, exactly like machine-level tail merging — so two
//! blocks from different source lines can merge, after which debug-info
//! correlation cannot split the merged execution count back apart.
//!
//! Pseudo-probes and instrumentation counters block merging *automatically*:
//! distinct probe indices / counter ids make the blocks' instruction kinds
//! unequal ("blocks with probes incrementing different counters cannot be
//! merged").

use csspgo_ir::{BlockId, Function, Module};
use std::cmp::Ordering;

/// Runs tail merging on every function.
pub fn run(module: &mut Module) {
    for func in &mut module.functions {
        run_function(func);
    }
}

/// Merges identical blocks in `func`; returns how many blocks were merged
/// away.
///
/// Each merge takes the first block, in block order, whose shape an
/// earlier block already has, and merges it into that earlier block (the
/// first with the shape). The candidates stay sorted by shape (length, then
/// instruction kinds) and block id, so blocks of one shape lie together in
/// block order and no shape is copied or hashed; a merge re-places only
/// the blocks whose branches it rewrote.
fn run_function(func: &mut Function) -> usize {
    // A block branching to itself cannot merge safely with another
    // self-looping block (targets differ once remapped); skip loops.
    let eligible =
        |func: &Function, b: BlockId| b != func.entry && !func.block(b).targets().any(|s| s == b);
    let mut candidates: Vec<BlockId> = Vec::with_capacity(func.blocks.len());
    candidates.extend(
        func.iter_blocks()
            .map(|(b, _)| b)
            .filter(|&b| eligible(func, b)),
    );
    candidates.sort_unstable_by(|&a, &b| shape_order(func, a, b));
    // Blocks whose branches the last merge rewrote, in block order.
    let mut rewritten: Vec<BlockId> = Vec::new();
    let mut merged = 0;
    loop {
        // Each run of one shape starts with its first block; the run whose
        // second block comes first holds the merge.
        let victim = candidates
            .chunk_by(|&a, &b| same_shape(func, a, b))
            .filter(|run| run.len() > 1)
            .map(|run| (run[0], run[1]))
            .min_by_key(|&(_, dup)| dup);
        let Some((survivor, dup)) = victim else { break };
        // Retarget all edges into `dup` to `survivor`.
        rewritten.clear();
        for (i, block) in func.blocks.iter_mut().enumerate() {
            if block.dead {
                continue;
            }
            if let Some(t) = block.terminator_mut() {
                let mut hit = false;
                t.kind.map_successors(|s| {
                    if s == dup {
                        hit = true;
                        survivor
                    } else {
                        s
                    }
                });
                if hit {
                    rewritten.push(BlockId::from_index(i));
                }
            }
        }
        // Profile maintenance: the survivor now executes both flows.
        let dup_count = func.block(dup).count;
        let b = func.block_mut(survivor);
        b.count = match (b.count, dup_count) {
            (Some(a), Some(d)) => Some(a + d),
            (a, None) => a,
            (None, d) => d,
        };
        let d = func.block_mut(dup);
        d.dead = true;
        d.insts.clear();
        merged += 1;

        // Only `dup` and the rewritten blocks changed shape or eligibility.
        candidates.retain(|&b| b != dup && rewritten.binary_search(&b).is_err());
        for &b in &rewritten {
            if eligible(func, b) {
                let at = candidates
                    .binary_search_by(|&c| shape_order(func, c, b))
                    .expect_err("a re-placed block is not among the candidates");
                candidates.insert(at, b);
            }
        }
    }
    merged
}

/// Orders blocks by length, then instruction kinds, then id.
fn shape_order(func: &Function, a: BlockId, b: BlockId) -> Ordering {
    let (x, y) = (&func.block(a).insts, &func.block(b).insts);
    x.len()
        .cmp(&y.len())
        .then_with(|| x.iter().map(|i| &i.kind).cmp(y.iter().map(|i| &i.kind)))
        .then(a.cmp(&b))
}

/// Whether `a` and `b` have the same instruction kinds.
fn same_shape(func: &Function, a: BlockId, b: BlockId) -> bool {
    let (x, y) = (&func.block(a).insts, &func.block(b).insts);
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.kind == q.kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::verify::verify_module;

    /// Both arms store the same constant pattern and return — identical
    /// shapes once lowered (distinct lines!).
    const SRC: &str = r#"
global t[4];
fn f(a) {
    if (a > 0) {
        t[0] = 7;
        return 1;
    } else {
        t[0] = 7;
        return 1;
    }
}
"#;

    #[test]
    fn merges_identical_arms() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::simplify::run(&mut m);
        let before = m.functions[0].num_live_blocks();
        let n = run_function(&mut m.functions[0]);
        assert!(n >= 1, "identical arms should merge (had {before} blocks)");
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn merged_counts_are_summed() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::simplify::run(&mut m);
        // Find the two identical arms and annotate.
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        for bid in &ids {
            f.block_mut(*bid).count = Some(30);
        }
        run_function(f);
        let max = f.iter_blocks().filter_map(|(_, b)| b.count).max().unwrap();
        assert_eq!(max, 60, "survivor should hold 30+30");
    }

    #[test]
    fn probes_block_merging() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        crate::simplify::run(&mut m);
        let n = run_function(&mut m.functions[0]);
        assert_eq!(n, 0, "distinct probes must prevent the merge");
    }

    #[test]
    fn counters_block_merging() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::instrument::run(&mut m);
        crate::simplify::run(&mut m);
        let n = run_function(&mut m.functions[0]);
        assert_eq!(n, 0, "distinct counters must prevent the merge");
    }

    #[test]
    fn different_blocks_do_not_merge() {
        let src = r#"
fn f(a) {
    if (a > 0) { return 1; }
    return 2;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        crate::simplify::run(&mut m);
        let n = run_function(&mut m.functions[0]);
        assert_eq!(n, 0);
    }

    /// The search the sorted candidates replace: after each merge, every
    /// candidate against every earlier one.
    fn pairwise(func: &mut Function) -> usize {
        let mut merged = 0;
        loop {
            let candidates: Vec<BlockId> = func
                .iter_blocks()
                .filter(|&(b, block)| b != func.entry && !block.targets().any(|s| s == b))
                .map(|(b, _)| b)
                .collect();
            let victim = candidates.iter().enumerate().find_map(|(j, &dup)| {
                candidates[..j]
                    .iter()
                    .find(|&&first| same_shape(func, first, dup))
                    .map(|&survivor| (survivor, dup))
            });
            let Some((survivor, dup)) = victim else { break };
            for block in func.blocks.iter_mut().filter(|b| !b.dead) {
                if let Some(t) = block.terminator_mut() {
                    t.kind
                        .map_successors(|s| if s == dup { survivor } else { s });
                }
            }
            let dup_count = func.block(dup).count.unwrap_or(0);
            *func.block_mut(survivor).count.get_or_insert(0) += dup_count;
            let d = func.block_mut(dup);
            d.dead = true;
            d.insts.clear();
            merged += 1;
        }
        merged
    }

    #[test]
    fn merges_what_the_pairwise_search_merged() {
        // 60 arms of 9 shapes, in an order that is not the shapes' order;
        // merging retargets the chain's branches, which makes more shapes
        // equal.
        let mut src = String::from("global t[8];\nfn f(x) {\n");
        for k in 0..60 {
            let v = (k * 7) % 9;
            src += &format!(
                "if (x == {k}) {{ t[{}] = {}; return {}; }} else ",
                v % 4,
                v / 4,
                v % 2
            );
        }
        src += "{ return 0; }\n}\n";
        let mut m = csspgo_lang::compile(&src, "t").unwrap();
        crate::simplify::run(&mut m);
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        for b in ids {
            f.block_mut(b).count = Some(b.index() as u64 + 1);
        }
        let mut want = f.clone();
        let n = run_function(f);
        assert!(n > 50, "{n} merges");
        assert_eq!(n, pairwise(&mut want));
        assert_eq!(format!("{f:?}"), format!("{want:?}"));
    }
}
