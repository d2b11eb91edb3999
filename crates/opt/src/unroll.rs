//! Loop unrolling of small loops.
//!
//! Two shapes are handled:
//!
//! * **self-loops** — a single block branching back to itself (do-while);
//! * **while-shaped loops** — a header testing the condition plus a single
//!   body block branching back to the header.
//!
//! Unrolling replicates the body (and, for while-shapes, the header test)
//! `factor` times, re-testing the exit condition between copies, so
//! semantics are preserved for any trip count. It is the second **code
//! duplication** transform: copies keep their source lines and
//! discriminators (breaking MAX-heuristic correlation for debug-info-based
//! PGO) while duplicated probes remain summable.
//!
//! Profile maintenance divides the loop counts across the copies.

use crate::{real_len, scale_probe_factors};
use csspgo_ir::inst::InstKind;
use csspgo_ir::{cfg, BlockId, Function, Module};

/// The unroll factor.
const FACTOR: u32 = 4;
/// The largest loop body (instructions, probes excluded) that is unrolled.
const MAX_BODY: usize = 14;

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

/// Unrolls eligible loops; returns the number of loops unrolled.
pub fn run_function(func: &mut Function, factor: u32, max_body: usize) -> usize {
    if factor < 2 {
        return 0;
    }
    let mut unrolled = 0;
    unrolled += unroll_self_loops(func, factor, max_body);
    unrolled += unroll_while_loops(func, factor, max_body);
    unrolled
}

/// Case A: a block branching back to itself.
fn unroll_self_loops(func: &mut Function, factor: u32, max_body: usize) -> usize {
    let mut unrolled = 0;
    let ids: Vec<BlockId> = func.iter_blocks().map(|(id, _)| id).collect();
    for b in ids {
        if func.block(b).dead {
            continue;
        }
        let loops_on_true = match func.block(b).terminator().map(|t| &t.kind) {
            Some(InstKind::CondBr {
                then_bb, else_bb, ..
            }) => {
                if *then_bb == b && *else_bb != b {
                    true
                } else if *else_bb == b && *then_bb != b {
                    false
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        if real_len(&func.block(b).insts) > max_body || has_call(func, b) {
            continue;
        }

        scale_probe_factors(&mut func.block_mut(b).insts, factor);
        let body = func.block(b).insts.clone();
        let per_copy = func.block(b).count.map(|c| c / factor as u64);
        let mut chain = vec![b];
        for _ in 1..factor {
            let nb = func.add_block();
            func.block_mut(nb).insts = body.clone();
            func.block_mut(nb).count = per_copy;
            chain.push(nb);
        }
        func.block_mut(b).count = per_copy;

        for (i, &cur) in chain.iter().enumerate() {
            let next = chain[(i + 1) % chain.len()];
            let term = func
                .block_mut(cur)
                .terminator_mut()
                .expect("loop block has terminator");
            if let InstKind::CondBr {
                then_bb, else_bb, ..
            } = &mut term.kind
            {
                if loops_on_true {
                    *then_bb = next;
                } else {
                    *else_bb = next;
                }
            }
        }
        unrolled += 1;
    }
    unrolled
}

/// Case B: header `H: condbr c, B, X` (either polarity) + body `B: ...; br H`
/// where `B`'s only predecessor is `H`.
fn unroll_while_loops(func: &mut Function, factor: u32, max_body: usize) -> usize {
    let mut unrolled = 0;
    let ids: Vec<BlockId> = func.iter_blocks().map(|(id, _)| id).collect();
    for h in ids {
        if func.block(h).dead {
            continue;
        }
        let (body, body_on_true) = match func.block(h).terminator().map(|t| &t.kind) {
            Some(InstKind::CondBr {
                then_bb, else_bb, ..
            }) => {
                // The body is whichever successor branches straight back.
                let is_body = |b: BlockId| {
                    b != h
                        && !func.block(b).dead
                        && matches!(
                            func.block(b).terminator().map(|t| &t.kind),
                            Some(InstKind::Br { target }) if *target == h
                        )
                };
                if is_body(*then_bb) && *else_bb != *then_bb {
                    (*then_bb, true)
                } else if is_body(*else_bb) && *else_bb != *then_bb {
                    (*else_bb, false)
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        let preds = cfg::predecessors(func);
        if preds.of(body) != [h] {
            continue;
        }
        let total_size = real_len(&func.block(h).insts) + real_len(&func.block(body).insts);
        if total_size > max_body || has_call(func, h) || has_call(func, body) {
            continue;
        }

        scale_probe_factors(&mut func.block_mut(h).insts, factor);
        scale_probe_factors(&mut func.block_mut(body).insts, factor);
        let h_insts = func.block(h).insts.clone();
        let b_insts = func.block(body).insts.clone();
        let h_per = func.block(h).count.map(|c| c / factor as u64);
        let b_per = func.block(body).count.map(|c| c / factor as u64);

        // Build copies: (H_i, B_i) for i in 1..factor.
        let mut headers = vec![h];
        let mut bodies = vec![body];
        for _ in 1..factor {
            let nh = func.add_block();
            func.block_mut(nh).insts = h_insts.clone();
            func.block_mut(nh).count = h_per;
            let nb = func.add_block();
            func.block_mut(nb).insts = b_insts.clone();
            func.block_mut(nb).count = b_per;
            headers.push(nh);
            bodies.push(nb);
        }
        func.block_mut(h).count = h_per;
        func.block_mut(body).count = b_per;

        let n = factor as usize;
        for i in 0..n {
            // H_i's body edge goes to B_i (exit edge unchanged).
            let term = func
                .block_mut(headers[i])
                .terminator_mut()
                .expect("header has terminator");
            if let InstKind::CondBr {
                then_bb, else_bb, ..
            } = &mut term.kind
            {
                if body_on_true {
                    *then_bb = bodies[i];
                } else {
                    *else_bb = bodies[i];
                }
            }
            // B_i jumps to H_{i+1} (wrapping to the original header).
            let term = func
                .block_mut(bodies[i])
                .terminator_mut()
                .expect("body has terminator");
            if let InstKind::Br { target } = &mut term.kind {
                *target = headers[(i + 1) % n];
            }
        }
        unrolled += 1;
    }
    unrolled
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
        assert_eq!(n, 1, "{}", m.functions[0]);
        // factor-1 copies of header and body each.
        assert_eq!(m.functions[0].num_live_blocks(), before + 6);
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
