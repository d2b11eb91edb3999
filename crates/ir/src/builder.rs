//! Ergonomic IR construction.
//!
//! [`ModuleBuilder`] owns a module under construction; [`FunctionBuilder`]
//! appends instructions to one function, tracking a current block and a
//! current source line (so lowering from the frontend produces line-accurate
//! [`DebugLoc`]s).

use crate::debuginfo::DebugLoc;
use crate::function::Function;
use crate::ids::{BlockId, FuncId, GlobalId, VReg};
use crate::inst::{BinOp, CmpPred, Inst, InstKind, Operand};
use crate::module::Module;

/// Builds a [`Module`].
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Starts a new module.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Declares a function and returns its id. The body is filled in through
    /// [`ModuleBuilder::function_builder`].
    pub fn declare_function(&mut self, name: impl Into<String>, num_params: usize) -> FuncId {
        let id = FuncId::from_index(self.module.functions.len());
        self.module
            .functions
            .push(Function::new(id, name, num_params));
        id
    }

    /// Declares a global array.
    pub fn add_global(&mut self, name: impl Into<String>, size: usize, init: Vec<i64>) -> GlobalId {
        self.module.add_global(name, size, init)
    }

    /// Returns a builder appending to `func`'s body.
    pub fn function_builder(&mut self, func: FuncId) -> FunctionBuilder<'_> {
        FunctionBuilder {
            func: self.module.func_mut(func),
            current: None,
            line: 0,
        }
    }

    /// Mutable access to a declared function.
    pub fn func_mut(&mut self, func: FuncId) -> &mut Function {
        self.module.func_mut(func)
    }

    /// Finishes construction.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// Appends instructions to one function.
#[derive(Debug)]
pub struct FunctionBuilder<'m> {
    func: &'m mut Function,
    current: Option<BlockId>,
    line: u32,
}

impl<'m> FunctionBuilder<'m> {
    /// The function's entry block.
    pub fn entry_block(&self) -> BlockId {
        self.func.entry
    }

    /// Adds a fresh block.
    pub fn add_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Makes `bb` the block subsequent instructions are appended to.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.current = Some(bb);
    }

    /// The block currently being appended to.
    ///
    /// # Panics
    ///
    /// Panics if no block has been selected with [`switch_to`].
    ///
    /// [`switch_to`]: FunctionBuilder::switch_to
    fn current_block(&self) -> BlockId {
        self.current
            .expect("no current block; call switch_to first")
    }

    /// Sets the source line attached to subsequent instructions.
    pub fn set_line(&mut self, line: u32) {
        self.line = line;
    }

    /// Whether the current block already ends in a terminator.
    pub fn current_is_terminated(&self) -> bool {
        self.current
            .map(|bb| self.func.block(bb).terminator().is_some())
            .unwrap_or(false)
    }

    /// Sets the function's header line (AutoFDO offsets are relative to it).
    pub fn set_start_line(&mut self, line: u32) {
        self.func.start_line = line;
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        self.func.new_vreg()
    }

    /// Appends `kind` at the current line.
    pub fn emit(&mut self, kind: InstKind) {
        let bb = self.current_block();
        let loc = if self.line == 0 {
            DebugLoc::none()
        } else {
            DebugLoc::line_in(self.line, self.func.id)
        };
        self.func.block_mut(bb).insts.push(Inst::new(kind, loc));
    }

    /// `dst = lhs <op> rhs`; returns `dst`.
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> VReg {
        let dst = self.new_vreg();
        self.emit(InstKind::Bin { op, dst, lhs, rhs });
        dst
    }

    /// `dst = lhs <pred> rhs`; returns `dst`.
    pub fn cmp(&mut self, pred: CmpPred, lhs: Operand, rhs: Operand) -> VReg {
        let dst = self.new_vreg();
        self.emit(InstKind::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// `dst = global[index]`; returns `dst`.
    pub fn load(&mut self, global: GlobalId, index: Operand) -> VReg {
        let dst = self.new_vreg();
        self.emit(InstKind::Load { dst, global, index });
        dst
    }

    /// `global[index] = value`.
    pub fn store(&mut self, global: GlobalId, index: Operand, value: Operand) {
        self.emit(InstKind::Store {
            global,
            index,
            value,
        });
    }

    /// Calls `callee`, returning the register holding its result.
    pub fn call(&mut self, callee: FuncId, args: Vec<Operand>) -> VReg {
        let dst = self.new_vreg();
        self.emit(InstKind::Call {
            dst: Some(dst),
            callee,
            args,
        });
        dst
    }

    /// Returns `value` (or nothing).
    pub fn ret(&mut self, value: Option<Operand>) {
        self.emit(InstKind::Ret { value });
    }

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.emit(InstKind::Br { target });
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: Operand, then_bb: BlockId, else_bb: BlockId) {
        self.emit(InstKind::CondBr {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Multi-way dispatch.
    pub fn switch(&mut self, value: Operand, cases: Vec<(i64, BlockId)>, default: BlockId) {
        self.emit(InstKind::Switch {
            value,
            cases,
            default,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    #[test]
    fn build_diamond() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 1);
        {
            let mut fb = mb.function_builder(f);
            let entry = fb.entry_block();
            let then_bb = fb.add_block();
            let else_bb = fb.add_block();
            let join = fb.add_block();

            fb.switch_to(entry);
            fb.set_line(1);
            let c = fb.cmp(CmpPred::Gt, Operand::Reg(VReg(0)), Operand::Imm(0));
            fb.cond_br(Operand::Reg(c), then_bb, else_bb);

            fb.switch_to(then_bb);
            fb.set_line(2);
            let a = fb.new_vreg();
            fb.emit(InstKind::Copy {
                dst: a,
                src: Operand::Imm(1),
            });
            fb.br(join);

            fb.switch_to(else_bb);
            fb.set_line(3);
            fb.emit(InstKind::Copy {
                dst: a,
                src: Operand::Imm(2),
            });
            fb.br(join);

            fb.switch_to(join);
            fb.set_line(4);
            fb.ret(Some(Operand::Reg(a)));
        }
        let m = mb.finish();
        assert_eq!(verify_module(&m), vec![]);
        let f = &m.functions[0];
        assert_eq!(f.num_live_blocks(), 4);
        // Debug lines recorded on every instruction.
        assert!(f
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .all(|i| i.loc.line != 0));
    }

    #[test]
    #[should_panic(expected = "no current block")]
    fn emitting_without_block_panics() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare_function("f", 0);
        let mut fb = mb.function_builder(f);
        fb.ret(None);
    }
}
