//! Pseudo-probe insertion (paper §III.A).
//!
//! Inserts one *block probe* at the top of every basic block and one *call
//! probe* immediately before every call instruction, on fresh IR "before any
//! aggressive transformations ... so instrumentation can be done on a stable
//! IR". Also computes and records the function's CFG checksum, used later to
//! detect source drift that changed the CFG.

use csspgo_ir::inst::{Inst, InstKind};
use csspgo_ir::probe::{cfg_checksum, ProbeKind};
use csspgo_ir::{Function, Module};

/// Inserts pseudo-probes into every function of `module`.
pub fn run(module: &mut Module) {
    for func in &mut module.functions {
        insert_into_function(func);
    }
}

/// Inserts pseudo-probes into one function and records its CFG checksum.
fn insert_into_function(func: &mut Function) {
    debug_assert!(
        func.probe_checksum.is_none(),
        "probes already inserted into {}",
        func.name
    );
    func.probe_checksum = Some(cfg_checksum(func));
    let owner = func.id;
    let block_ids: Vec<_> = func.iter_blocks().map(|(id, _)| id).collect();
    for bid in block_ids {
        // Block probe first.
        let index = func.alloc_probe_index();
        let probe = Inst::synthetic(InstKind::PseudoProbe {
            owner,
            index,
            kind: ProbeKind::Block,
            inline_stack: Vec::new(),
            factor: 1,
        });
        func.block_mut(bid).insts.insert(0, probe);

        // Call probes: scan and insert before each call. Indices must be
        // allocated in program order for determinism.
        let mut i = 0;
        while i < func.block(bid).insts.len() {
            if matches!(func.block(bid).insts[i].kind, InstKind::Call { .. }) {
                let index = func.alloc_probe_index();
                let loc = func.block(bid).insts[i].loc.clone();
                let probe = Inst::new(
                    InstKind::PseudoProbe {
                        owner,
                        index,
                        kind: ProbeKind::Call,
                        inline_stack: Vec::new(),
                        factor: 1,
                    },
                    loc,
                );
                func.block_mut(bid).insts.insert(i, probe);
                i += 2;
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::probe::ProbeKind;

    /// Finds the call-site probe index guarding the call at `inst_idx` in
    /// `block`, if probes are present (the probe immediately preceding the call).
    fn call_probe_before(
        func: &Function,
        block: csspgo_ir::BlockId,
        inst_idx: usize,
    ) -> Option<u32> {
        if inst_idx == 0 {
            return None;
        }
        match &func.block(block).insts[inst_idx - 1].kind {
            InstKind::PseudoProbe {
                index,
                kind: ProbeKind::Call,
                ..
            } => Some(*index),
            _ => None,
        }
    }

    fn probed(src: &str) -> Module {
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        run(&mut m);
        m
    }

    #[test]
    fn every_block_gets_a_block_probe() {
        let m = probed("fn f(x) { if (x > 0) { return 1; } return 2; }");
        let f = &m.functions[0];
        for (_, b) in f.iter_blocks() {
            let first = &b.insts[0];
            assert!(
                matches!(
                    first.kind,
                    InstKind::PseudoProbe {
                        kind: ProbeKind::Block,
                        ..
                    }
                ),
                "block must start with a block probe, got {}",
                first.kind
            );
        }
    }

    #[test]
    fn every_call_gets_a_call_probe() {
        let m = probed("fn g() { return 1; } fn f() { return g() + g(); }");
        let f = &m.functions[1];
        for (bid, b) in f.iter_blocks() {
            for (i, inst) in b.insts.iter().enumerate() {
                if matches!(inst.kind, InstKind::Call { .. }) {
                    assert!(
                        call_probe_before(f, bid, i).is_some(),
                        "call without preceding call probe"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_indices_are_unique_per_function() {
        let m = probed("fn g() { return 1; } fn f(x) { if (x > 0) { return g(); } return g(); }");
        for f in &m.functions {
            let mut seen = std::collections::HashSet::new();
            for (_, b) in f.iter_blocks() {
                for inst in &b.insts {
                    if let InstKind::PseudoProbe { index, .. } = inst.kind {
                        assert!(seen.insert(index), "duplicate probe index {index}");
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_recorded() {
        let m = probed("fn f() { return 0; }");
        assert!(m.functions[0].probe_checksum.is_some());
    }

    #[test]
    fn module_still_verifies() {
        let m = probed("fn g(a) { return a; } fn f(x) { return g(x); }");
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
    }
}
