//! Tail duplication: copies small join blocks into their unconditional
//! predecessors.
//!
//! This is the pipeline's representative **code duplication** transform
//! (paper §III.A, "Code Duplication"): a source line's instructions now
//! exist at several binary locations with *equal discriminators*, so the
//! debug-info MAX heuristic under-counts them, while duplicated pseudo-probes
//! are summed exactly. At the top probe barrier,
//! [`ProbeBarrier::Duplication`], probed functions are left alone, so their
//! while loops reach the unroller unrotated.

use crate::{real_len, scale_probe_factors, OptConfig};
use csspgo_ir::inst::InstKind;
use csspgo_ir::probe::ProbeBarrier;
use csspgo_ir::{cfg, BasicBlock, BlockId, Function, Module};

/// The largest join block (instructions, probes excluded) that is copied.
const MAX_INSTS: usize = 4;

/// Runs tail duplication on every function.
pub fn run(module: &mut Module, config: &OptConfig) {
    for func in &mut module.functions {
        if config.probe >= ProbeBarrier::Duplication && func.probe_checksum.is_some() {
            continue;
        }
        run_function(func, MAX_INSTS);
    }
}

/// Duplicates eligible join blocks into predecessors ending in an
/// unconditional branch. Returns the number of duplications performed.
pub fn run_function(func: &mut Function, max_insts: usize) -> usize {
    let mut duplicated = 0;
    // Predecessors reaching the current block by unconditional branch.
    let mut targets: Vec<BlockId> = Vec::new();
    for j in 0..func.blocks.len() {
        let j = BlockId::from_index(j);
        if j == func.entry || func.block(j).dead {
            continue;
        }
        {
            let bj = func.block(j);
            if real_len(&bj.insts) > max_insts {
                continue;
            }
            // Don't duplicate call sites or self-loops.
            if bj
                .insts
                .iter()
                .any(|i| matches!(i.kind, InstKind::Call { .. }))
            {
                continue;
            }
            if bj.targets().any(|s| s == j) {
                continue;
            }
        }
        // j's predecessor blocks as the function stands now; duplicate into
        // those that reach j by unconditional branch.
        let mut preds = 0;
        targets.clear();
        for (p, block) in func.iter_blocks() {
            if !block.targets().any(|s| s == j) {
                continue;
            }
            preds += 1;
            if p != j
                && matches!(
                    block.terminator().map(|t| &t.kind),
                    Some(InstKind::Br { target }) if *target == j
                )
            {
                targets.push(p);
            }
        }
        if preds < 2 {
            continue;
        }
        if !targets.is_empty() {
            // j's probes will co-exist in each absorbing predecessor plus
            // (at most) the original block: raise their duplication factors
            // so per-copy profile counts stay summable. The bound is
            // conservative — if j ends up unreachable it is removed below
            // and the factor remains a valid upper bound.
            let copies = targets.len() as u32 + 1;
            scale_probe_factors(&mut func.block_mut(j).insts, copies);
        }
        let mut absorbed = 0u64;
        for &p in &targets {
            let (pb, jb) = two_blocks(func, p, j);
            pb.insts.pop(); // drop `br j`
            pb.insts.extend_from_slice(&jb.insts);
            absorbed += pb.count.unwrap_or(0);
            duplicated += 1;
        }
        if !targets.is_empty() {
            // Profile maintenance: j keeps only the flow still reaching it.
            if let Some(c) = func.block(j).count {
                func.block_mut(j).count = Some(c.saturating_sub(absorbed));
            }
            cfg::remove_unreachable(func);
        }
    }
    duplicated
}

/// Block `p` to change and block `j` to read, `p != j`.
fn two_blocks(func: &mut Function, p: BlockId, j: BlockId) -> (&mut BasicBlock, &BasicBlock) {
    let (p, j) = (p.index(), j.index());
    if p < j {
        let (lo, hi) = func.blocks.split_at_mut(j);
        (&mut lo[p], &hi[0])
    } else {
        let (lo, hi) = func.blocks.split_at_mut(p);
        (&mut hi[0], &lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::verify::verify_module;

    /// Two if-arms joining into a tiny return block (line 9).
    const SRC: &str = r#"
fn f(a) {
    let r = 0;
    if (a > 0) {
        r = a;
    } else {
        r = 0 - a;
    }
    return r + 1;
}
"#;

    #[test]
    fn duplicates_join_into_both_arms() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let f = &mut m.functions[0];
        let n = run_function(f, 4);
        assert!(n >= 2, "both arms should absorb the join, got {n}");
        assert_eq!(verify_module(&m), vec![]);
        let rets = m.functions[0]
            .iter_blocks()
            .filter(|(_, b)| matches!(b.terminator().map(|t| &t.kind), Some(InstKind::Ret { .. })))
            .count();
        assert!(rets >= 2, "return duplicated into both arms");
    }

    #[test]
    fn duplicated_lines_share_discriminators() {
        // This is the deliberate debug-info decay: copies are
        // indistinguishable to line-based correlation.
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::discriminators::run(&mut m);
        run_function(&mut m.functions[0], 4);
        let f = &m.functions[0];
        let mut copies: Vec<(usize, u32)> = Vec::new();
        for (bid, b) in f.iter_blocks() {
            for i in &b.insts {
                if i.loc.line == 9 {
                    copies.push((bid.index(), i.loc.discriminator));
                }
            }
        }
        let blocks: std::collections::HashSet<usize> = copies.iter().map(|&(b, _)| b).collect();
        let discs: std::collections::HashSet<u32> = copies.iter().map(|&(_, d)| d).collect();
        assert!(
            blocks.len() >= 2,
            "line must exist in 2+ blocks: {copies:?}"
        );
        assert_eq!(
            discs.len(),
            1,
            "copies share a discriminator (MAX-heuristic trap)"
        );
    }

    #[test]
    fn counts_maintained() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        for bid in &ids {
            f.block_mut(*bid).count = Some(50);
        }
        let join = ids
            .iter()
            .rev()
            .find(|&&b| {
                matches!(
                    f.block(b).terminator().map(|t| &t.kind),
                    Some(InstKind::Ret { .. })
                )
            })
            .copied()
            .unwrap();
        f.block_mut(join).count = Some(100);
        run_function(f, 4);
        if !f.block(join).dead {
            assert_eq!(f.block(join).count, Some(0));
        }
    }

    #[test]
    fn call_blocks_not_duplicated() {
        let src = r#"
fn g() { return 1; }
fn f(a) {
    let r = 0;
    if (a > 0) { r = 1; } else { r = 2; }
    return g() + r;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        let fid = m.find_function("f").unwrap();
        let n = run_function(&mut m.functions[fid.index()], 8);
        assert_eq!(n, 0, "join containing a call must not be duplicated");
    }

    #[test]
    fn probes_duplicate_along_with_code() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        let before: usize = m.functions[0]
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::PseudoProbe { .. }))
            .count();
        run_function(&mut m.functions[0], 6);
        let after: usize = m.functions[0]
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::PseudoProbe { .. }))
            .count();
        assert!(after >= before, "duplicated probes must persist (summable)");
    }
}
