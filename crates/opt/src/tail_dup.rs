//! Tail duplication: copies small join blocks into their unconditional
//! predecessors.
//!
//! This is the pipeline's representative **code duplication** transform
//! (paper §III.A, "Code Duplication"): a source line's instructions now
//! exist at several binary locations with *equal discriminators*, so the
//! debug-info MAX heuristic under-counts them, while duplicated pseudo-probes
//! are summed exactly.

use crate::OptConfig;
use csspgo_ir::inst::InstKind;
use csspgo_ir::{cfg, BlockId, Module};

/// The largest join block (instructions, probes excluded) that is copied.
const MAX_INSTS: usize = 4;

/// Runs tail duplication on every function.
pub fn run(module: &mut Module, config: &OptConfig) {
    for func in &mut module.functions {
        // Optionally blocked by probes (high-accuracy probe tuning).
        if config.probe.block_jump_threading && func.probe_checksum.is_some() {
            continue;
        }
        run_function(func, MAX_INSTS);
    }
}

fn real_len(insts: &[csspgo_ir::Inst]) -> usize {
    insts
        .iter()
        .filter(|i| !matches!(i.kind, InstKind::PseudoProbe { .. }))
        .count()
}

/// Duplicates eligible join blocks into predecessors ending in an
/// unconditional branch. Returns the number of duplications performed.
pub fn run_function(func: &mut csspgo_ir::Function, max_insts: usize) -> usize {
    let mut duplicated = 0;
    let ids: Vec<BlockId> = func.iter_blocks().map(|(id, _)| id).collect();
    for j in ids {
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
        let preds = cfg::predecessors(func);
        let plist = preds[j.index()].clone();
        if plist.len() < 2 {
            continue;
        }
        // Duplicate into predecessors that reach j by unconditional branch.
        let targets: Vec<BlockId> = plist
            .into_iter()
            .filter(|&p| {
                p != j
                    && matches!(
                        func.block(p).terminator().map(|t| &t.kind),
                        Some(InstKind::Br { target }) if *target == j
                    )
            })
            .collect();
        if !targets.is_empty() {
            // j's probes will co-exist in each absorbing predecessor plus
            // (at most) the original block: raise their duplication factors
            // so per-copy profile counts stay summable. The bound is
            // conservative — if j ends up unreachable it is removed below
            // and the factor remains a valid upper bound.
            let copies = targets.len() as u32 + 1;
            for inst in &mut func.block_mut(j).insts {
                if let InstKind::PseudoProbe { factor, .. } = &mut inst.kind {
                    *factor = factor.saturating_mul(copies);
                }
            }
        }
        let mut absorbed = 0u64;
        let mut any = false;
        for p in targets {
            let j_insts = func.block(j).insts.clone();
            let pb = func.block_mut(p);
            pb.insts.pop(); // drop `br j`
            pb.insts.extend(j_insts);
            absorbed += func.block(p).count.unwrap_or(0);
            any = true;
            duplicated += 1;
        }
        if any {
            // Profile maintenance: j keeps only the flow still reaching it.
            if let Some(c) = func.block(j).count {
                func.block_mut(j).count = Some(c.saturating_sub(absorbed));
            }
            cfg::remove_unreachable(func);
        }
    }
    duplicated
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
