//! Sinking (LLVM's `MachineSink` analogue): moves pure computations from a
//! block into the *sole successor block that uses them*, so work leaves
//! paths that do not need it.
//!
//! This is one of the three optimizations the paper names in its probe
//! tuning ("we fine-tune a few critical optimizations, including if-convert,
//! machine sink and instruction scheduling, to be unblocked by
//! pseudo-probe"): below [`ProbeBarrier::CodeMotion`] the pass moves code
//! freely past probes; at it or above, probed functions are left alone.
//!
//! Like LICM, sinking is a debug-info decay source: the sunk instruction
//! keeps its line, which now executes at the successor's frequency.

use crate::{note_block, single_predecessors, OptConfig, MANY_BLOCKS, NO_BLOCK};
use csspgo_ir::inst::InstKind;
use csspgo_ir::probe::ProbeBarrier;
use csspgo_ir::{BlockId, Function, Module};

/// Runs sinking on every function.
pub fn run(module: &mut Module, config: &OptConfig) {
    let mut tables = Tables::default();
    for func in &mut module.functions {
        if config.probe >= ProbeBarrier::CodeMotion && func.probe_checksum.is_some() {
            continue;
        }
        sink_function(func, &mut tables);
    }
}

/// What a round knows about the function as it stood when the round began,
/// in dense tables: per register the one block reading it (terminators
/// count) and how often it is written, per block its one predecessor block.
#[derive(Default)]
struct Tables {
    user: Vec<u32>,
    defs: Vec<u32>,
    pred: Vec<u32>,
}

impl Tables {
    fn fill(&mut self, func: &Function) {
        self.user.clear();
        self.user.resize(func.num_vregs(), NO_BLOCK);
        self.defs.clear();
        self.defs.resize(func.num_vregs(), 0);
        for (bid, block) in func.iter_blocks() {
            let b = bid.index() as u32;
            for inst in &block.insts {
                inst.kind
                    .for_each_use(|r| note_block(&mut self.user[r.index()], b));
                if let Some(d) = inst.kind.def() {
                    let n = &mut self.defs[d.index()];
                    *n = n.saturating_add(1);
                }
            }
        }
        single_predecessors(func, &mut self.pred);
    }
}

/// Sinks eligible instructions of `func` in `tables`' buffers; returns how
/// many moved.
fn sink_function(func: &mut Function, tables: &mut Tables) -> usize {
    let mut moved_total = 0;
    // A few rounds: sinking can enable further sinking.
    for _ in 0..3 {
        let moved = sink_round(func, tables);
        moved_total += moved;
        if moved == 0 {
            break;
        }
    }
    moved_total
}

/// Whether `bid` has at least two distinct successors.
fn branches(func: &Function, bid: BlockId) -> bool {
    let mut targets = func.block(bid).targets();
    let Some(first) = targets.next() else {
        return false;
    };
    targets.any(|s| s != first)
}

fn sink_round(func: &mut Function, tables: &mut Tables) -> usize {
    // The tables describe the function as the round found it; a move does
    // not update them, and the rest of its block waits for the next round.
    tables.fill(func);
    let mut moved = 0;
    for b in 0..func.blocks.len() {
        let bid = BlockId::from_index(b);
        if func.block(bid).dead || !branches(func, bid) {
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
            // Defined exactly once (non-SSA safety: a register written
            // twice, in one block or two, stays), and every use in one
            // other block.
            let target = tables.user[dst.index()];
            if !sinkable
                || tables.defs[dst.index()] != 1
                || target == NO_BLOCK
                || target == MANY_BLOCKS
                || target == b as u32
            {
                i += 1;
                continue;
            }
            // That block must be a successor with no other predecessor
            // (otherwise the value could be read on a path that skipped the
            // def).
            let target = BlockId::from_index(target as usize);
            if !func.block(bid).targets().any(|s| s == target)
                || tables.pred[target.index()] != b as u32
            {
                i += 1;
                continue;
            }
            // The operands must not be redefined between here and the use —
            // conservatively: each operand is defined at most once in the
            // whole function.
            let mut operands_stable = true;
            inst.kind.for_each_use(|r| {
                operands_stable &= tables.defs[r.index()] <= 1;
            });
            if !operands_stable {
                i += 1;
                continue;
            }
            let inst = func.block_mut(bid).insts.remove(i);
            func.block_mut(target).insts.insert(0, inst);
            moved += 1;
            break;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::linear_view;

    /// Sinks eligible instructions; returns how many moved.
    fn run_function(func: &mut Function) -> usize {
        sink_function(func, &mut Tables::default())
    }

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
        assert!(!entry_has_mul, "{f:?}");
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
        let config = OptConfig {
            probe: ProbeBarrier::CodeMotion,
            ..OptConfig::default()
        };
        let before = linear_view(&m.functions[0]);
        run(&mut m, &config);
        assert_eq!(before, linear_view(&m.functions[0]));
    }

    #[test]
    fn probes_do_not_block_in_low_overhead_mode() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        let config = OptConfig::default();
        assert!(config.probe < ProbeBarrier::CodeMotion);
        run(&mut m, &config);
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
        // The multiply left the entry block past its probe.
        let f = &m.functions[0];
        let entry = &f.block(f.entry).insts;
        assert!(
            entry
                .iter()
                .any(|i| matches!(i.kind, InstKind::PseudoProbe { .. })),
            "{f:?}"
        );
        assert!(
            !entry.iter().any(|i| matches!(
                i.kind,
                InstKind::Bin {
                    op: csspgo_ir::BinOp::Mul,
                    ..
                }
            )),
            "{f:?}"
        );
    }

    /// `x = a` and `x = 47` are two definitions of `x` in one block: the
    /// first must not sink below the second into the return block.
    #[test]
    fn a_register_written_twice_in_one_block_stays() {
        let src = r#"
global mem[8];
fn f(a) {
    let x = a;
    x = 47;
    if (mem[5]) { return 1; }
    return x;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        assert_eq!(run_function(&mut m.functions[0]), 0, "{:?}", m.functions[0]);
    }
}
