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

use csspgo_ir::inst::InstKind;
use csspgo_ir::{BlockId, Function, Module};
use std::collections::HashMap;

/// Runs tail merging on every function.
pub fn run(module: &mut Module) {
    for func in &mut module.functions {
        run_function(func);
    }
}

/// Merges identical blocks in `func`; returns how many blocks were merged
/// away.
pub fn run_function(func: &mut Function) -> usize {
    let mut merged = 0;
    loop {
        let mut by_shape: HashMap<Vec<InstKind>, BlockId> = HashMap::new();
        let mut victim: Option<(BlockId, BlockId)> = None; // (survivor, dup)
        for (bid, block) in func.iter_blocks() {
            if bid == func.entry {
                continue;
            }
            // A block branching to itself cannot merge safely with another
            // self-looping block (targets differ once remapped); skip loops.
            if block.targets().any(|s| s == bid) {
                continue;
            }
            let shape: Vec<InstKind> = block.insts.iter().map(|i| i.kind.clone()).collect();
            match by_shape.get(&shape) {
                Some(&first) => {
                    victim = Some((first, bid));
                    break;
                }
                None => {
                    by_shape.insert(shape, bid);
                }
            }
        }
        let Some((survivor, dup)) = victim else { break };
        // Retarget all edges into `dup` to `survivor`.
        for block in func.blocks.iter_mut().filter(|b| !b.dead) {
            if let Some(t) = block.terminator_mut() {
                t.kind
                    .map_successors(|s| if s == dup { survivor } else { s });
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
    }
    merged
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
}
