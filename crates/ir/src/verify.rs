//! IR well-formedness checks: assertions at the producers. The frontend
//! runs [`verify_module`] on every module it lowers (a finding is an
//! internal lowering error), and the optimizer's inter-pass checkpoint runs
//! it after every pass (always in debug builds, opt-in in release via
//! `OptConfig::interpass_verify`) and panics on a finding. No lint wraps
//! it: a malformed module is a bug in the pass that made it, not a property
//! of an input.
//!
//! Unlike a fail-fast verifier, [`verify_module`] collects *every* finding
//! in deterministic order (functions by id, blocks by id, instructions by
//! position), so a single broken pass surfaces all of its damage at once —
//! the same design as LLVM's IR verifier.

use crate::function::Function;
use crate::ids::{BlockId, FuncId};
use crate::inst::InstKind;
use crate::module::Module;
use std::error::Error;
use std::fmt;

/// A verifier failure: where and what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Offending function.
    pub func: FuncId,
    /// Offending block, when applicable.
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify failed in {}", self.func)?;
        if let Some(b) = self.block {
            write!(f, " at {b}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Error for VerifyError {}

/// Verifies every function in `module`, returning *all* findings.
///
/// An empty vector means the module is well-formed. Findings are ordered
/// deterministically: functions in id order, blocks in id order,
/// instructions in program order.
#[must_use = "an empty vector means the module verified clean"]
pub fn verify_module(module: &Module) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for func in &module.functions {
        verify_function_into(module, func, &mut errors);
    }
    errors
}

/// Checks one function, appending to `errors`: a live block without a
/// terminator, a terminator mid-block, an edge to a dead or out-of-range
/// block, an out-of-range register, callee or global, a dead entry block,
/// and layout consistency.
fn verify_function_into(module: &Module, func: &Function, errors: &mut Vec<VerifyError>) {
    let err = |block: Option<BlockId>, message: String| VerifyError {
        func: func.id,
        block,
        message,
    };

    if func.entry.index() >= func.blocks.len() || func.block(func.entry).dead {
        errors.push(err(None, "entry block is dead or out of range".into()));
    }

    for (bid, block) in func.iter_blocks() {
        let Some(last) = block.insts.last() else {
            errors.push(err(Some(bid), "live block is empty".into()));
            continue;
        };
        if !last.is_terminator() {
            errors.push(err(Some(bid), "live block lacks a terminator".into()));
        }
        for (i, inst) in block.insts.iter().enumerate() {
            if inst.is_terminator() && i + 1 != block.insts.len() {
                errors.push(err(Some(bid), "terminator in the middle of a block".into()));
            }
            inst.kind.for_each_use(|r| {
                if r.index() >= func.num_vregs() {
                    errors.push(err(Some(bid), format!("use of unallocated register {r}")));
                }
            });
            if let Some(d) = inst.kind.def() {
                if d.index() >= func.num_vregs() {
                    errors.push(err(Some(bid), format!("def of unallocated register {d}")));
                }
            }
            if let InstKind::Call { callee, .. } = &inst.kind {
                if callee.index() >= module.functions.len() {
                    errors.push(err(Some(bid), format!("call to unknown function {callee}")));
                }
            }
            if let InstKind::Load { global, .. } | InstKind::Store { global, .. } = &inst.kind {
                if global.index() >= module.globals.len() {
                    errors.push(err(Some(bid), format!("access to unknown global {global}")));
                }
            }
        }
        for succ in block.targets() {
            if succ.index() >= func.blocks.len() {
                errors.push(err(Some(bid), format!("edge to out-of-range block {succ}")));
            } else if func.block(succ).dead {
                errors.push(err(Some(bid), format!("edge to dead block {succ}")));
            }
        }
    }

    if let Some(layout) = &func.layout {
        if layout.hot.first() != Some(&func.entry) {
            errors.push(err(
                None,
                "layout does not start with the entry block".into(),
            ));
        }
        let placed: usize = layout.hot.len() + layout.cold.len();
        if placed != func.num_live_blocks() {
            errors.push(err(
                None,
                format!(
                    "layout places {placed} blocks but function has {} live blocks",
                    func.num_live_blocks()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::VReg;
    use crate::inst::Operand;

    fn tiny() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 0);
        {
            let mut fb = mb.function_builder(f);
            let e = fb.entry_block();
            fb.switch_to(e);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn valid_module_passes() {
        assert_eq!(verify_module(&tiny()), vec![]);
    }

    #[test]
    fn missing_terminator_detected() {
        let mut m = tiny();
        m.functions[0].block_mut(BlockId(0)).insts.pop();
        m.functions[0]
            .block_mut(BlockId(0))
            .insts
            .push(crate::inst::Inst::synthetic(InstKind::Copy {
                dst: VReg(0),
                src: Operand::Imm(1),
            }));
        m.functions[0].reserve_vregs(1);
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("terminator"), "{}", errs[0]);
    }

    #[test]
    fn unallocated_register_detected() {
        let mut m = tiny();
        m.functions[0].block_mut(BlockId(0)).insts.insert(
            0,
            crate::inst::Inst::synthetic(InstKind::Copy {
                dst: VReg(99),
                src: Operand::Imm(1),
            }),
        );
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("unallocated")));
    }

    #[test]
    fn edge_to_dead_block_detected() {
        let mut m = tiny();
        let f = &mut m.functions[0];
        let b = f.add_block();
        f.block_mut(b).dead = true;
        f.block_mut(BlockId(0)).insts.pop();
        f.block_mut(BlockId(0))
            .insts
            .push(crate::inst::Inst::synthetic(InstKind::Br { target: b }));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("dead block")));
    }

    #[test]
    fn call_to_unknown_function_detected() {
        let mut m = tiny();
        m.functions[0].block_mut(BlockId(0)).insts.insert(
            0,
            crate::inst::Inst::synthetic(InstKind::Call {
                dst: None,
                callee: FuncId(42),
                args: vec![],
            }),
        );
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("unknown function")));
    }

    #[test]
    fn all_findings_collected_not_just_the_first() {
        // Seed two independent corruptions in two functions: both must be
        // reported, in function order.
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 0);
        let g = mb.declare_function("g", 0);
        for id in [f, g] {
            let mut fb = mb.function_builder(id);
            let e = fb.entry_block();
            fb.switch_to(e);
            fb.ret(None);
        }
        let mut m = mb.finish();
        m.functions[0].block_mut(BlockId(0)).insts.insert(
            0,
            crate::inst::Inst::synthetic(InstKind::Copy {
                dst: VReg(7),
                src: Operand::Imm(1),
            }),
        );
        m.functions[1].block_mut(BlockId(0)).insts.insert(
            0,
            crate::inst::Inst::synthetic(InstKind::Call {
                dst: None,
                callee: FuncId(42),
                args: vec![],
            }),
        );
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 2, "both corruptions reported: {errs:?}");
        assert_eq!(errs[0].func, f, "deterministic function order");
        assert_eq!(errs[1].func, g);
        assert!(errs[0].message.contains("unallocated"));
        assert!(errs[1].message.contains("unknown function"));
    }

    #[test]
    fn error_display_mentions_location() {
        let e = VerifyError {
            func: FuncId(1),
            block: Some(BlockId(2)),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "verify failed in fn1 at bb2: boom");
    }
}
