//! Dead-function elimination (the linker/LTO's `--gc-sections` analogue).
//!
//! After aggressive inlining, fully-inlined functions keep no callers; a
//! real toolchain drops their standalone bodies at link time. Function ids
//! must stay stable, so dead bodies are replaced with a single `ret 0` stub
//! (zero probes, essentially zero text).
//!
//! This is where selective inlining turns into *binary size*: the paper's
//! Fig. 7 size reductions come from hot-path copies replacing standalone
//! bodies, not from smaller hot code.

use csspgo_ir::inst::{Inst, InstKind, Operand};
use csspgo_ir::{FuncId, Module};
use std::collections::HashSet;

/// Strips functions unreachable from `roots`; returns how many were
/// stripped.
pub fn run(module: &mut Module, roots: &[FuncId]) -> usize {
    let mut live: HashSet<FuncId> = HashSet::new();
    let mut stack: Vec<FuncId> = roots.to_vec();
    for r in roots {
        live.insert(*r);
    }
    while let Some(f) = stack.pop() {
        for (_, block) in module.func(f).iter_blocks() {
            for inst in &block.insts {
                if let InstKind::Call { callee, .. } = inst.kind {
                    if live.insert(callee) {
                        stack.push(callee);
                    }
                }
            }
        }
    }

    let mut stripped = 0;
    for func in &mut module.functions {
        if live.contains(&func.id) {
            continue;
        }
        // Replace the body with a stub.
        for block in &mut func.blocks {
            block.insts.clear();
            block.dead = true;
        }
        let entry = func.entry;
        let b = &mut func.blocks[entry.index()];
        b.dead = false;
        b.count = Some(0);
        b.insts.push(Inst::synthetic(InstKind::Ret {
            value: Some(Operand::Imm(0)),
        }));
        func.layout = None;
        stripped += 1;
    }
    stripped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_functions_become_stubs() {
        let src = r#"
fn used(x) { return x + 1; }
fn unused(x) { return x * 2; }
fn main(a) { return used(a); }
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        let main = m.find_function("main").unwrap();
        let n = run(&mut m, &[main]);
        assert_eq!(n, 1);
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
        let size = |name| {
            let f = m.func(m.find_function(name).unwrap());
            f.iter_blocks().map(|(_, b)| b.insts.len()).sum::<usize>()
        };
        assert_eq!(size("unused"), 1, "stubbed to a lone ret");
        assert!(size("used") > 1, "live function untouched");
    }

    #[test]
    fn recursion_keeps_functions_alive() {
        let src = r#"
fn rec(x) { if (x > 0) { return rec(x - 1); } return 0; }
fn main(a) { return rec(a); }
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        let main = m.find_function("main").unwrap();
        assert_eq!(run(&mut m, &[main]), 0);
    }

    #[test]
    fn stub_still_runs() {
        // Stripping must never break an indirect path that we missed; since
        // MiniLang has no indirect calls, stubs are unreachable — but they
        // must still be valid IR.
        let src = "fn dead() { return 9; } fn main(a) { return a; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        let main = m.find_function("main").unwrap();
        run(&mut m, &[main]);
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
    }
}
