//! Inlining: the mechanical transform plus the bottom-up (CGSCC-style)
//! inliner.
//!
//! The mechanical [`inline_call`] maintains everything the paper's profile
//! machinery depends on:
//!
//! * cloned instructions get the call site pushed onto their **debug inline
//!   stack** (DWARF-style; feeds AutoFDO symbolization);
//! * cloned pseudo-probes get the call-site **probe** pushed onto their
//!   probe inline stack (feeds CSSPGO probe symbolization);
//! * cloned block counts are scaled by `callsite count / callee entry count`
//!   — the *context-insensitive* scaling of paper Fig. 3a. The
//!   context-sensitive pipeline overwrites these counts with the exact
//!   context slice (Fig. 3b), found through the cloned probes' inline
//!   stacks.
//!
//! The bottom-up inliner mirrors LLVM's CGSCC inliner: callees are visited
//! before callers, decisions are local and cannot be specialized by calling
//! context (the limitation paper §III.B's pre-inliner exists to fix).

use crate::callgraph::CallGraph;
use crate::OptConfig;
use csspgo_ir::debuginfo::InlineSite;
use csspgo_ir::inst::{Inst, InstKind};
use csspgo_ir::probe::{ProbeKind, ProbeSite};
use csspgo_ir::{BlockId, FuncId, Function, Module, VReg};
use std::collections::HashMap;

/// Counts "real" instructions (probes excluded — they are metadata-only and
/// must not perturb inline decisions between PGO variants).
pub fn real_size(func: &Function) -> usize {
    func.iter_blocks()
        .flat_map(|(_, b)| &b.insts)
        .filter(|i| !matches!(i.kind, InstKind::PseudoProbe { .. }))
        .count()
}

/// Inlines the call at `(block, inst_idx)` of `caller`.
///
/// Returns `false` (leaving the module untouched) when the instruction is
/// not a direct call, or the callee is the caller itself.
pub fn inline_call(module: &mut Module, caller: FuncId, block: BlockId, inst_idx: usize) -> bool {
    let (dst, callee_id, args) = {
        let f = module.func(caller);
        match f.block(block).insts.get(inst_idx).map(|i| i.kind.clone()) {
            Some(InstKind::Call { dst, callee, args }) => (dst, callee, args),
            _ => return false,
        }
    };
    if callee_id == caller {
        return false;
    }
    let callee = module.func(callee_id).clone();
    let call_loc = module.func(caller).block(block).insts[inst_idx].loc.clone();

    // The call-site probe (immediately preceding the call), if present: its
    // identity becomes the new frame on cloned probes' inline stacks.
    let call_probe: Option<(FuncId, u32, Vec<ProbeSite>)> = if inst_idx > 0 {
        match &module.func(caller).block(block).insts[inst_idx - 1].kind {
            InstKind::PseudoProbe {
                owner,
                index,
                kind: ProbeKind::Call,
                inline_stack,
                ..
            } => Some((*owner, *index, inline_stack.clone())),
            _ => None,
        }
    } else {
        None
    };

    // Debug-side frame for the call site.
    let debug_site = InlineSite {
        func: if call_loc.scope == FuncId::INVALID {
            caller
        } else {
            call_loc.scope
        },
        line: call_loc.line,
        discriminator: call_loc.discriminator,
    };

    let site_count = module.func(caller).block(block).count;
    let callee_entry_count = callee.entry_count;

    let caller_f = module.func_mut(caller);

    // 1. Split the call block: everything after the call moves to cont.
    let cont = caller_f.add_block();
    {
        let b = caller_f.block_mut(block);
        let tail: Vec<Inst> = b.insts.split_off(inst_idx + 1);
        b.insts.pop(); // remove the call itself
        let cb = caller_f.block_mut(cont);
        cb.insts = tail;
        cb.count = site_count;
    }

    // 2. Clone callee blocks.
    let vreg_base = caller_f.num_vregs() as u32;
    caller_f.reserve_vregs(vreg_base + callee.num_vregs() as u32);
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    for (cb, _) in callee.iter_blocks() {
        block_map.insert(cb, caller_f.add_block());
    }

    let scale = |c: Option<u64>| -> Option<u64> {
        match (c, site_count, callee_entry_count) {
            (Some(c), Some(s), Some(e)) if e > 0 => {
                Some((c as u128 * s as u128 / e as u128) as u64)
            }
            (Some(_), Some(s), _) => Some(s), // best effort: assume once per call
            _ => None,
        }
    };

    for (cb, cblock) in callee.iter_blocks() {
        let nb = block_map[&cb];
        let mut insts = Vec::with_capacity(cblock.insts.len());
        for inst in &cblock.insts {
            let mut kind = inst.kind.clone();
            // Remap registers.
            kind.map_uses(|r| csspgo_ir::inst::Operand::Reg(VReg(r.0 + vreg_base)));
            remap_def(&mut kind, vreg_base);
            // Remap block references.
            kind.map_successors(|s| block_map[&s]);
            // Rewrite returns.
            if let InstKind::Ret { value } = &kind {
                let mut new_insts = Vec::new();
                if let Some(d) = dst {
                    let src = value.unwrap_or(csspgo_ir::inst::Operand::Imm(0));
                    new_insts.push(Inst::new(
                        InstKind::Copy { dst: d, src },
                        inst.loc.inlined_at(debug_site),
                    ));
                }
                new_insts.push(Inst::new(
                    InstKind::Br { target: cont },
                    inst.loc.inlined_at(debug_site),
                ));
                insts.extend(new_insts);
                continue;
            }
            // Push the probe-side inline frame.
            if let InstKind::PseudoProbe { inline_stack, .. } = &mut kind {
                if let Some((po, pi, pstack)) = &call_probe {
                    let mut stack = pstack.clone();
                    stack.push(ProbeSite {
                        func: *po,
                        probe_index: *pi,
                    });
                    stack.extend(inline_stack.iter().copied());
                    *inline_stack = stack;
                }
            }
            // Push the debug-side inline frame.
            let loc = inst.loc.inlined_at(debug_site);
            insts.push(Inst::new(kind, loc));
        }
        let nb_ref = caller_f.block_mut(nb);
        nb_ref.insts = insts;
        nb_ref.count = scale(cblock.count);
    }

    // 3. Bind parameters and jump into the inlined entry.
    {
        let b = caller_f.block_mut(block);
        for (i, a) in args.iter().enumerate() {
            b.insts.push(Inst::new(
                InstKind::Copy {
                    dst: VReg(vreg_base + i as u32),
                    src: *a,
                },
                call_loc.clone(),
            ));
        }
        b.insts.push(Inst::new(
            InstKind::Br {
                target: block_map[&callee.entry],
            },
            call_loc,
        ));
    }

    true
}

fn remap_def(kind: &mut InstKind, base: u32) {
    match kind {
        InstKind::Copy { dst, .. }
        | InstKind::Bin { dst, .. }
        | InstKind::Cmp { dst, .. }
        | InstKind::Select { dst, .. }
        | InstKind::Load { dst, .. } => *dst = VReg(dst.0 + base),
        InstKind::Call { dst: Some(d), .. } => *d = VReg(d.0 + base),
        _ => {}
    }
}

/// Caller-size cap: inlining stops growing a function past this many real
/// instructions.
const CALLER_SIZE_CAP: usize = 800;

/// ProfileSummary-style hot-count cutoff: the smallest block count such
/// that blocks at or above it cover 99% of the module's total count mass.
/// Sample-based counts are coverage-scaled, so hotness must be *relative* —
/// an absolute threshold would misclassify at different sampling rates.
fn hot_count_cutoff(module: &Module) -> u64 {
    let mut counts: Vec<u64> = module
        .functions
        .iter()
        .flat_map(|f| f.iter_blocks().filter_map(|(_, b)| b.count))
        .filter(|&c| c > 0)
        .collect();
    if counts.is_empty() {
        return u64::MAX; // no profile: nothing is "hot"
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u128 = counts.iter().map(|&c| c as u128).sum();
    let target = total * 99 / 100;
    let mut acc: u128 = 0;
    for &c in &counts {
        acc += c as u128;
        if acc >= target {
            return c.max(1);
        }
    }
    1
}

/// The bottom-up (CGSCC-style) inliner.
///
/// Visits functions callees-first and inlines call sites that are small
/// (always) or hot-and-moderate (with profile). Cannot specialize per
/// calling context — by construction every caller gets the same callee body
/// (paper §III.B's motivating limitation).
pub fn run_bottom_up(module: &mut Module, config: &OptConfig) {
    let cg = CallGraph::build(module);
    let hot_cutoff = hot_count_cutoff(module);
    for caller in cg.bottom_up_order() {
        let mut budget = 64; // bound the number of inlines per function
        'grow: loop {
            if budget == 0 || real_size(module.func(caller)) > CALLER_SIZE_CAP {
                break;
            }
            // Find the next call site worth inlining.
            let mut candidate: Option<(BlockId, usize)> = None;
            {
                let f = module.func(caller);
                'scan: for (bid, b) in f.iter_blocks() {
                    for (i, inst) in b.insts.iter().enumerate() {
                        if let InstKind::Call { callee, .. } = inst.kind {
                            if callee == caller || cg.same_scc(caller, callee) {
                                continue;
                            }
                            let callee_size = real_size(module.func(callee));
                            let site_count = b.count;
                            if should_inline(callee_size, site_count, hot_cutoff, config) {
                                candidate = Some((bid, i));
                                break 'scan;
                            }
                        }
                    }
                }
            }
            match candidate {
                Some((bid, i)) => {
                    inline_call(module, caller, bid, i);
                    budget -= 1;
                }
                None => break 'grow,
            }
        }
    }
}

/// The inline heuristic shared by the bottom-up inliner. A call site is hot
/// when its count reaches the module's relative hot-count cutoff (never
/// below an absolute floor of 2).
fn should_inline(
    callee_size: usize,
    site_count: Option<u64>,
    hot_cutoff: u64,
    config: &OptConfig,
) -> bool {
    if callee_size <= config.inline_small_size {
        return true;
    }
    match site_count {
        Some(c) => c >= hot_cutoff.max(2) && callee_size <= config.inline_hot_size,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::verify::verify_module;

    fn compile(src: &str) -> Module {
        csspgo_lang::compile(src, "t").unwrap()
    }

    /// Interpret the module lightly to check behaviour is preserved.
    /// (A miniature reference interpreter over IR, for tests only.)
    fn eval(module: &Module, func: &str, args: &[i64]) -> i64 {
        fn run(m: &Module, f: FuncId, args: &[i64], depth: usize) -> i64 {
            assert!(depth < 64, "runaway recursion in test interpreter");
            let func = m.func(f);
            let mut regs = vec![0i64; func.num_vregs().max(args.len())];
            regs[..args.len()].copy_from_slice(args);
            let mut globals: Vec<Vec<i64>> = m
                .globals
                .iter()
                .map(|g| {
                    let mut v = g.init.clone();
                    v.resize(g.size, 0);
                    v
                })
                .collect();
            let mut bb = func.entry;
            let mut steps = 0;
            loop {
                steps += 1;
                assert!(steps < 100_000, "test interpreter ran away");
                let block = func.block(bb);
                let mut next: Option<BlockId> = None;
                for inst in &block.insts {
                    use csspgo_ir::inst::Operand as Op;
                    let val = |o: Op, regs: &[i64]| match o {
                        Op::Reg(r) => regs[r.index()],
                        Op::Imm(v) => v,
                    };
                    match &inst.kind {
                        InstKind::Copy { dst, src } => regs[dst.index()] = val(*src, &regs),
                        InstKind::Bin { op, dst, lhs, rhs } => {
                            regs[dst.index()] = op.eval(val(*lhs, &regs), val(*rhs, &regs))
                        }
                        InstKind::Cmp {
                            pred,
                            dst,
                            lhs,
                            rhs,
                        } => regs[dst.index()] = pred.eval(val(*lhs, &regs), val(*rhs, &regs)),
                        InstKind::Select {
                            dst,
                            cond,
                            on_true,
                            on_false,
                        } => {
                            regs[dst.index()] = if val(*cond, &regs) != 0 {
                                val(*on_true, &regs)
                            } else {
                                val(*on_false, &regs)
                            }
                        }
                        InstKind::Load { dst, global, index } => {
                            let g = &globals[global.index()];
                            let i = val(*index, &regs);
                            regs[dst.index()] = if i >= 0 && (i as usize) < g.len() {
                                g[i as usize]
                            } else {
                                0
                            };
                        }
                        InstKind::Store {
                            global,
                            index,
                            value,
                        } => {
                            let i = val(*index, &regs);
                            let v = val(*value, &regs);
                            let g = &mut globals[global.index()];
                            if i >= 0 && (i as usize) < g.len() {
                                g[i as usize] = v;
                            }
                        }
                        InstKind::Call { dst, callee, args } => {
                            let a: Vec<i64> = args.iter().map(|&x| val(x, &regs)).collect();
                            let r = run(m, *callee, &a, depth + 1);
                            if let Some(d) = dst {
                                regs[d.index()] = r;
                            }
                        }
                        InstKind::Ret { value } => {
                            return value.map(|v| val(v, &regs)).unwrap_or(0)
                        }
                        InstKind::Br { target } => next = Some(*target),
                        InstKind::CondBr {
                            cond,
                            then_bb,
                            else_bb,
                        } => {
                            next = Some(if val(*cond, &regs) != 0 {
                                *then_bb
                            } else {
                                *else_bb
                            })
                        }
                        InstKind::Switch {
                            value,
                            cases,
                            default,
                        } => {
                            let v = val(*value, &regs);
                            next = Some(
                                cases
                                    .iter()
                                    .find(|&&(k, _)| k == v)
                                    .map(|&(_, b)| b)
                                    .unwrap_or(*default),
                            );
                        }
                        InstKind::PseudoProbe { .. } | InstKind::CounterIncr { .. } => {}
                    }
                    if next.is_some() {
                        break;
                    }
                }
                bb = next.expect("block fell through without terminator");
            }
        }
        run(module, module.find_function(func).unwrap(), args, 0)
    }

    #[test]
    fn inline_preserves_semantics() {
        let src = r#"
fn helper(x, y) {
    if (x > y) { return x - y; }
    return y - x;
}
fn main(a) {
    let r = helper(a, 10);
    return r * 2;
}
"#;
        let mut m = compile(src);
        let before = eval(&m, "main", &[3]);
        let main = m.find_function("main").unwrap();
        // Find the call.
        let (bid, idx) = {
            let f = m.func(main);
            f.iter_blocks()
                .flat_map(|(b, blk)| {
                    blk.insts
                        .iter()
                        .enumerate()
                        .filter(|(_, i)| matches!(i.kind, InstKind::Call { .. }))
                        .map(move |(i, _)| (b, i))
                })
                .next()
                .unwrap()
        };
        assert!(inline_call(&mut m, main, bid, idx));
        assert_eq!(verify_module(&m), vec![]);
        assert_eq!(eval(&m, "main", &[3]), before);
        assert_eq!(eval(&m, "main", &[42]), 64);
    }

    #[test]
    fn inline_pushes_debug_inline_stack() {
        let src = "fn h(x) { return x + 1; }\nfn main(a) { return h(a); }";
        let mut m = compile(src);
        let main = m.find_function("main").unwrap();
        let entry = m.func(main).entry;
        assert!(inline_call(&mut m, main, entry, 0));
        let f = m.func(main);
        let inlined: Vec<_> = f
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| !i.loc.inline_stack.is_empty())
            .collect();
        assert!(
            !inlined.is_empty(),
            "inlined instructions must carry frames"
        );
        for i in &inlined {
            assert_eq!(i.loc.inline_stack[0].func, main);
            assert_eq!(i.loc.inline_stack[0].line, 2); // call site line
        }
    }

    #[test]
    fn inline_pushes_probe_inline_stack() {
        let src = "fn h(x) { return x + 1; }\nfn main(a) { return h(a); }";
        let mut m = compile(src);
        crate::probes::run(&mut m);
        let main = m.find_function("main").unwrap();
        let h = m.find_function("h").unwrap();
        // The call is now preceded by a call probe; find its index.
        let (bid, idx) = {
            let f = m.func(main);
            f.iter_blocks()
                .flat_map(|(b, blk)| {
                    blk.insts
                        .iter()
                        .enumerate()
                        .filter(|(_, i)| matches!(i.kind, InstKind::Call { .. }))
                        .map(move |(i, _)| (b, i))
                })
                .next()
                .unwrap()
        };
        assert!(inline_call(&mut m, main, bid, idx));
        assert_eq!(verify_module(&m), vec![]);
        let f = m.func(main);
        // h's block probe must now appear with a 1-frame probe stack rooted
        // at main's call-site probe.
        let mut found = false;
        for (_, b) in f.iter_blocks() {
            for i in &b.insts {
                if let InstKind::PseudoProbe {
                    owner,
                    inline_stack,
                    ..
                } = &i.kind
                {
                    if *owner == h {
                        found = true;
                        assert_eq!(inline_stack.len(), 1);
                        assert_eq!(inline_stack[0].func, main);
                    }
                }
            }
        }
        assert!(found, "inlined probes of h must survive");
    }

    #[test]
    fn inline_scales_counts_context_insensitively() {
        // callee entry count 100, two blocks 100/40; callsite count 10
        // => scaled 10 and 4 (paper Fig. 3a behaviour).
        let src = "fn h(x) { if (x > 0) { return 1; } return 0; }\nfn main(a) { return h(a); }";
        let mut m = compile(src);
        let h = m.find_function("h").unwrap();
        let main = m.find_function("main").unwrap();
        m.functions[h.index()].entry_count = Some(100);
        let hids: Vec<BlockId> = m.func(h).iter_blocks().map(|(b, _)| b).collect();
        for (i, bid) in hids.iter().enumerate() {
            m.functions[h.index()].block_mut(*bid).count = Some(if i == 0 { 100 } else { 40 });
        }
        let mids: Vec<BlockId> = m.func(main).iter_blocks().map(|(b, _)| b).collect();
        for bid in mids {
            m.functions[main.index()].block_mut(bid).count = Some(10);
        }
        let entry = m.func(main).entry;
        assert!(inline_call(&mut m, main, entry, 0));
        let f = m.func(main);
        // The call's block now jumps to the clone of `h`'s entry. Every block
        // `main` had, and the continuation, counts 10: a 4 is a clone.
        let entry_clone = match f.block(entry).insts.last().map(|i| &i.kind) {
            Some(InstKind::Br { target }) => *target,
            other => panic!("the call's block ends in {other:?}"),
        };
        assert_eq!(f.block(entry_clone).count, Some(10));
        assert!(
            f.iter_blocks().any(|(_, b)| b.count == Some(4)),
            "a block scaled 40*10/100 = 4 must exist"
        );
    }

    #[test]
    fn bottom_up_inlines_small_chain() {
        let src = r#"
fn leaf(x) { return x * 2; }
fn mid(x) { return leaf(x) + 1; }
fn main(a) { return mid(a); }
"#;
        let mut m = compile(src);
        let before = eval(&m, "main", &[5]);
        run_bottom_up(&mut m, &OptConfig::default());
        crate::simplify::run(&mut m);
        assert_eq!(verify_module(&m), vec![]);
        assert_eq!(eval(&m, "main", &[5]), before);
        // main should no longer contain calls.
        let main = m.find_function("main").unwrap();
        let has_call = m
            .func(main)
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .any(|i| matches!(i.kind, InstKind::Call { .. }));
        assert!(!has_call, "small chain should be fully inlined");
    }

    #[test]
    fn recursion_is_never_inlined() {
        let src = "fn f(x) { if (x > 0) { return f(x - 1) + 1; } return 0; }";
        let mut m = compile(src);
        run_bottom_up(&mut m, &OptConfig::default());
        assert_eq!(verify_module(&m), vec![]);
        assert_eq!(eval(&m, "f", &[5]), 5);
    }

    #[test]
    fn cold_large_callee_not_inlined() {
        // A callee bigger than inline_small_size at a cold call site stays.
        let big_body: String = (0..30).map(|i| format!("    s = s + x * {i};\n")).collect();
        let src = format!(
            "fn big(x) {{ let s = 0;\n{big_body}    return s; }}\nfn main(a) {{ return big(a); }}"
        );
        let mut m = compile(&src);
        // Annotate cold counts.
        let main = m.find_function("main").unwrap();
        let ids: Vec<BlockId> = m.func(main).iter_blocks().map(|(b, _)| b).collect();
        for bid in ids {
            m.functions[main.index()].block_mut(bid).count = Some(1);
        }
        let cfg = OptConfig::default();
        run_bottom_up(&mut m, &cfg);
        let has_call = m
            .func(main)
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .any(|i| matches!(i.kind, InstKind::Call { .. }));
        assert!(has_call, "cold large callee must not be inlined");
    }

    #[test]
    fn hot_count_cutoff_covers_99_percent_of_mass() {
        let mut m = compile("fn f(a) { if (a > 0) { return 1; } return 2; }");
        // Counts: one dominant block and a long cold tail.
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        f.block_mut(ids[0]).count = Some(100_000);
        for bid in &ids[1..] {
            f.block_mut(*bid).count = Some(1);
        }
        let cutoff = hot_count_cutoff(&m);
        // 99% of the mass is in the 100k block, but reaching 99% requires
        // descending into the tail of 1s — the cutoff lands at 1 (everything
        // executed is "hot" when one block dominates).
        assert!(cutoff <= 100_000, "cutoff {cutoff}");
        assert!(cutoff >= 1);

        // Balanced counts: cutoff close to the common value.
        let f = &mut m.functions[0];
        for bid in &ids {
            f.block_mut(*bid).count = Some(500);
        }
        assert_eq!(hot_count_cutoff(&m), 500);
    }

    #[test]
    fn no_profile_means_nothing_is_hot() {
        let m = compile("fn f(a) { return a; }");
        assert_eq!(hot_count_cutoff(&m), u64::MAX);
    }
}
