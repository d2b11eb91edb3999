//! Sinking (LLVM's `MachineSink` analogue): moves pure computations from a
//! block into the *sole successor block that uses them*, so work leaves
//! paths that do not need it.
//!
//! This is one of the three optimizations the paper names in its probe
//! tuning ("we fine-tune a few critical optimizations, including if-convert,
//! machine sink and instruction scheduling, to be unblocked by
//! pseudo-probe"): with [`ProbeConfig::block_code_motion`](csspgo_ir::probe::ProbeConfig::block_code_motion) unset the pass
//! moves code freely past probes; set, probed functions are left alone.
//!
//! Like LICM, sinking is a debug-info decay source: the sunk instruction
//! keeps its line, which now executes at the successor's frequency.

use crate::OptConfig;
use csspgo_ir::inst::InstKind;
use csspgo_ir::{cfg, BlockId, Function, Module, VReg};
use std::collections::{HashMap, HashSet};

/// Runs sinking on every function.
pub fn run(module: &mut Module, config: &OptConfig) {
    for func in &mut module.functions {
        if config.probe.block_code_motion && func.probe_checksum.is_some() {
            continue;
        }
        run_function(func);
    }
}

/// Sinks eligible instructions; returns how many moved.
pub fn run_function(func: &mut Function) -> usize {
    let mut moved_total = 0;
    // A few rounds: sinking can enable further sinking.
    for _ in 0..3 {
        let moved = sink_round(func);
        moved_total += moved;
        if moved == 0 {
            break;
        }
    }
    moved_total
}

fn sink_round(func: &mut Function) -> usize {
    let preds = cfg::predecessors(func);

    // Where is each register used? (block set; terminators count.)
    let mut use_blocks: HashMap<VReg, HashSet<BlockId>> = HashMap::new();
    let mut def_blocks: HashMap<VReg, HashSet<BlockId>> = HashMap::new();
    for (bid, block) in func.iter_blocks() {
        for inst in &block.insts {
            inst.kind.for_each_use(|r| {
                use_blocks.entry(r).or_default().insert(bid);
            });
            if let Some(d) = inst.kind.def() {
                def_blocks.entry(d).or_default().insert(bid);
            }
        }
    }

    let ids: Vec<BlockId> = func.iter_blocks().map(|(b, _)| b).collect();
    let mut moved = 0;
    for bid in ids {
        let succs = cfg::successors(func, bid);
        if succs.len() < 2 {
            continue; // sinking only pays when some successor skips the work
        }
        let mut i = 0;
        while i < func.block(bid).insts.len() {
            let inst = &func.block(bid).insts[i];
            let sinkable = matches!(
                &inst.kind,
                InstKind::Copy { .. }
                    | InstKind::Bin { .. }
                    | InstKind::Cmp { .. }
                    | InstKind::Select { .. }
            );
            let Some(dst) = inst.kind.def() else {
                i += 1;
                continue;
            };
            if !sinkable
                // Defined exactly once (non-SSA safety).
                || def_blocks.get(&dst).map(|s| s.len()).unwrap_or(0) != 1
                // Not used in its own block (including the terminator).
                || use_blocks.get(&dst).map(|s| s.contains(&bid)).unwrap_or(false)
            {
                i += 1;
                continue;
            }
            // All uses in exactly one successor, which must have no other
            // predecessor (otherwise the value could be read on a path that
            // skipped the def).
            let users = use_blocks.get(&dst).cloned().unwrap_or_default();
            if users.len() != 1 {
                i += 1;
                continue;
            }
            let target = *users.iter().next().expect("one user block");
            if !succs.contains(&target) || preds[target.index()].as_slice() != [bid] {
                i += 1;
                continue;
            }
            // The operands must not be redefined between here and the use —
            // conservatively: not defined in the target block before use and
            // not defined later in this block. Cheap approximation: operands
            // must be defined only once in the whole function.
            let mut operands_stable = true;
            inst.kind.for_each_use(|r| {
                operands_stable &= def_blocks.get(&r).map(|s| s.len()).unwrap_or(0) <= 1;
            });
            if !operands_stable {
                i += 1;
                continue;
            }
            let inst = func.block_mut(bid).insts.remove(i);
            func.block_mut(target).insts.insert(0, inst);
            moved += 1;
            // Maps are stale for dst now; conservatively finish the block.
            break;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x * 37` is only needed on the rare path.
    const SRC: &str = r#"
fn f(a) {
    let expensive = a * 37 + 11;
    if (a % 100 == 0) {
        return expensive;
    }
    return a;
}
"#;

    #[test]
    fn sinks_work_onto_the_using_path() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let n = run_function(&mut m.functions[0]);
        assert!(n >= 1, "the multiply chain should sink");
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
        // The entry block must no longer contain the multiply.
        let f = &m.functions[0];
        let entry_has_mul = f.block(f.entry).insts.iter().any(|i| {
            matches!(
                i.kind,
                InstKind::Bin {
                    op: csspgo_ir::BinOp::Mul,
                    ..
                }
            )
        });
        assert!(!entry_has_mul, "{f}");
    }

    #[test]
    fn values_used_on_both_paths_stay() {
        let src = r#"
fn f(a) {
    let v = a * 3;
    if (a > 0) { return v; }
    return v + 1;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        assert_eq!(run_function(&mut m.functions[0]), 0);
    }

    #[test]
    fn semantics_preserved() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let b0 = csspgo_codegen::lower_module(&m, &csspgo_codegen::CodegenConfig::default());
        run_function(&mut m.functions[0]);
        let b1 = csspgo_codegen::lower_module(&m, &csspgo_codegen::CodegenConfig::default());
        for arg in [0i64, 7, 100, 300, -100] {
            let mut m0 = csspgo_sim::Machine::new(&b0, csspgo_sim::SimConfig::default());
            let mut m1 = csspgo_sim::Machine::new(&b1, csspgo_sim::SimConfig::default());
            assert_eq!(
                m0.call("f", &[arg]).unwrap(),
                m1.call("f", &[arg]).unwrap(),
                "arg {arg}"
            );
        }
    }

    #[test]
    fn probe_blocking_respected() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        let mut config = OptConfig::default();
        config.probe.block_code_motion = true;
        let before = format!("{}", m.functions[0]);
        run(&mut m, &config);
        assert_eq!(before, format!("{}", m.functions[0]));
    }

    #[test]
    fn probes_do_not_block_in_low_overhead_mode() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        let config = OptConfig::default();
        run(&mut m, &config);
        // Sinking should still have happened (may need simplify first to
        // expose the pattern; accept either but verify validity).
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
    }
}
