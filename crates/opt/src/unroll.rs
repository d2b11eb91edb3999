//! Loop unrolling of small loops.
//!
//! A loop is unrolled as a *cycle* of one or two blocks, found by one of two
//! shape detectors:
//!
//! * **self-loops** — a single block branching back to itself (do-while);
//! * **while-shaped loops** — a header testing the condition plus a single
//!   body block branching back to the header.
//!
//! One routine unrolls both: it replicates the cycle `factor` times, each
//! copy's back edge entering the next copy and the last copy's the original,
//! and keeps every exit edge, so the exit condition is re-tested between
//! copies and semantics are preserved for any trip count. It is the second
//! **code duplication** transform: copies keep their source lines and
//! discriminators (breaking MAX-heuristic correlation for debug-info-based
//! PGO) while duplicated probes remain summable.
//!
//! Profile maintenance divides each block's count across its copies.

use crate::{real_len, scale_probe_factors};
use csspgo_ir::inst::InstKind;
use csspgo_ir::{cfg, BlockId, Function, Module};

/// The unroll factor.
const FACTOR: u32 = 4;
/// The largest loop body (instructions, probes excluded) that is unrolled.
const MAX_BODY: usize = 14;

/// A shape detector: the cycle of the loop `b` heads, in flow order (the last
/// block branches back to the first), if `b` heads a loop of that shape.
type Shape = fn(&Function, BlockId) -> Option<Vec<BlockId>>;

/// Runs unrolling on every function.
pub fn run(module: &mut Module) {
    for func in &mut module.functions {
        run_function(func, FACTOR, MAX_BODY);
    }
}

fn has_call(func: &Function, b: BlockId) -> bool {
    func.block(b)
        .insts
        .iter()
        .any(|i| matches!(i.kind, InstKind::Call { .. }))
}

/// Unrolls eligible loops; returns the number of loops unrolled. Every
/// self-loop goes first, then every while-shape; each scan visits the blocks
/// that exist when it starts.
pub fn run_function(func: &mut Function, factor: u32, max_body: usize) -> usize {
    if factor < 2 {
        return 0;
    }
    let mut unrolled = 0;
    for shape in [self_loop as Shape, while_loop] {
        let ids: Vec<BlockId> = func.iter_blocks().map(|(id, _)| id).collect();
        for b in ids {
            let Some(cycle) = shape(func, b) else {
                continue;
            };
            let size: usize = cycle.iter().map(|&c| real_len(&func.block(c).insts)).sum();
            if size > max_body || cycle.iter().any(|&c| has_call(func, c)) {
                continue;
            }
            unroll_cycle(func, &cycle, factor);
            unrolled += 1;
        }
    }
    unrolled
}

/// A block branching back to itself on one arm of its `condbr`.
fn self_loop(func: &Function, b: BlockId) -> Option<Vec<BlockId>> {
    match func.block(b).terminator()?.kind {
        InstKind::CondBr {
            then_bb, else_bb, ..
        } if (then_bb == b) != (else_bb == b) => Some(vec![b]),
        _ => None,
    }
}

/// Header `h: condbr c, B, X` (either polarity) and body `B: ...; br h`,
/// where `B`'s only predecessor is `h`.
fn while_loop(func: &Function, h: BlockId) -> Option<Vec<BlockId>> {
    let arms = match func.block(h).terminator()?.kind {
        InstKind::CondBr {
            then_bb, else_bb, ..
        } if then_bb != else_bb => [then_bb, else_bb],
        _ => return None,
    };
    let branches_back = |b: BlockId| {
        matches!(func.block(b).terminator().map(|t| &t.kind),
            Some(InstKind::Br { target }) if *target == h)
    };
    let body = arms.into_iter().find(|&b| b != h && branches_back(b))?;
    (cfg::predecessors(func).of(body) == [h]).then(|| vec![h, body])
}

/// Replicates `cycle` so the loop runs `factor` copies of it per trip
/// around: the original and its copies form one ring, each block's in-cycle
/// edge entering the next block of the ring. Probe factors are scaled on the
/// originals before they are cloned, and every copy takes `count / factor`.
fn unroll_cycle(func: &mut Function, cycle: &[BlockId], factor: u32) {
    for &b in cycle {
        let block = func.block_mut(b);
        scale_probe_factors(&mut block.insts, factor);
        block.count = block.count.map(|c| c / factor as u64);
    }
    let mut ring = Vec::with_capacity(cycle.len() * factor as usize);
    ring.extend_from_slice(cycle);
    for _ in 1..factor {
        for &b in cycle {
            let (insts, count) = (func.block(b).insts.clone(), func.block(b).count);
            let copy = func.add_block();
            func.block_mut(copy).insts = insts;
            func.block_mut(copy).count = count;
            ring.push(copy);
        }
    }
    for (i, &b) in ring.iter().enumerate() {
        let (from, to) = (cycle[(i + 1) % cycle.len()], ring[(i + 1) % ring.len()]);
        let term = func
            .block_mut(b)
            .terminator_mut()
            .expect("loop block has terminator");
        term.kind.map_successors(|t| if t == from { to } else { t });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::verify::verify_module;

    const SRC: &str = r#"
fn f(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"#;

    fn prepared() -> Module {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::simplify::run(&mut m);
        m
    }

    #[test]
    fn unrolls_while_loop_by_factor() {
        let mut m = prepared();
        let before = m.functions[0].num_live_blocks();
        let n = run_function(&mut m.functions[0], 4, 14);
        assert_eq!(n, 1, "{:?}", m.functions[0]);
        // factor-1 copies of header and body each.
        assert_eq!(m.functions[0].num_live_blocks(), before + 6);
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn unrolls_self_loop_by_factor() {
        let mut m = prepared();
        // Tail duplication rotates the while loop into a do-while, the
        // self-loop every production build unrolls: the header test is
        // copied into the entry and into the body.
        assert_eq!(crate::tail_dup::run_function(&mut m.functions[0], 4), 2);
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        for &bid in &ids {
            f.block_mut(bid).count = Some(400);
        }
        let head = ids.iter().copied().find(|&b| self_loop(f, b).is_some());
        let head = head.expect("a self-loop after rotation");
        let before = f.blocks.len();
        assert_eq!(run_function(f, 4, 14), 1, "{f:?}");
        let copies: Vec<BlockId> = (before..f.blocks.len()).map(BlockId::from_index).collect();
        assert_eq!(copies.len(), 3, "three added blocks");
        // The back edge runs copy i -> copy i+1, the last copy's into the
        // original.
        let ring = [head, copies[0], copies[1], copies[2], head];
        for pair in ring.windows(2) {
            let in_loop: Vec<BlockId> = f
                .block(pair[0])
                .targets()
                .filter(|t| ring.contains(t))
                .collect();
            assert_eq!(in_loop, [pair[1]], "{f:?}");
        }
        for &b in &ring[..4] {
            assert_eq!(f.block(b).count, Some(100), "count / 4 on every copy");
        }
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn counts_divided_across_copies() {
        let mut m = prepared();
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        for bid in ids {
            f.block_mut(bid).count = Some(400);
        }
        run_function(f, 4, 14);
        let hundreds = m.functions[0]
            .iter_blocks()
            .filter(|(_, b)| b.count == Some(100))
            .count();
        assert_eq!(hundreds, 8, "4 headers + 4 bodies at 400/4 each");
    }

    #[test]
    fn factor_one_is_a_no_op() {
        let mut m = prepared();
        assert_eq!(run_function(&mut m.functions[0], 1, 14), 0);
    }

    #[test]
    fn big_bodies_skipped() {
        let mut m = prepared();
        assert_eq!(run_function(&mut m.functions[0], 4, 2), 0);
    }

    #[test]
    fn loops_with_calls_skipped() {
        let src = r#"
fn g(x) { return x; }
fn f(n) {
    let i = 0;
    while (i < n) {
        i = i + g(1);
    }
    return i;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        crate::simplify::run(&mut m);
        let fid = m.find_function("f").unwrap();
        assert_eq!(run_function(&mut m.functions[fid.index()], 4, 20), 0);
    }

    #[test]
    fn unrolled_ir_still_verifies_under_full_pipeline() {
        let mut m = prepared();
        run_function(&mut m.functions[0], 3, 14);
        crate::simplify::run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn duplicated_lines_keep_same_discriminator() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::discriminators::run(&mut m);
        crate::simplify::run(&mut m);
        run_function(&mut m.functions[0], 4, 14);
        // Line 5 (`while`) now exists in 4 header copies with equal
        // discriminators — the debug-info correlation trap: some
        // (line, discriminator) key is shared by >= 4 distinct blocks.
        let mut blocks_per_disc: std::collections::HashMap<u32, std::collections::HashSet<_>> =
            std::collections::HashMap::new();
        for (bid, b) in m.functions[0].iter_blocks() {
            for i in &b.insts {
                if i.loc.line == 5 {
                    blocks_per_disc
                        .entry(i.loc.discriminator)
                        .or_default()
                        .insert(bid);
                }
            }
        }
        let max_sharing = blocks_per_disc.values().map(|s| s.len()).max().unwrap();
        assert!(
            max_sharing >= 4,
            "expected ambiguous copies, got {blocks_per_disc:?}"
        );
    }
}
