//! AST → IR lowering with line-accurate debug locations.

use crate::ast::*;
use crate::CompileError;
use csspgo_ir::builder::{FunctionBuilder, ModuleBuilder};
use csspgo_ir::inst::{BinOp, CmpPred, InstKind, Operand};
use csspgo_ir::module::MAX_GLOBAL_CELLS;
use csspgo_ir::{BlockId, FuncId, GlobalId, Module, VReg};
use std::collections::HashMap;

/// Lowers a parsed [`Program`] into an IR [`Module`].
///
/// # Errors
///
/// Returns a [`CompileError`] for unknown names, duplicate definitions,
/// call-arity mismatches, or globals past [`MAX_GLOBAL_CELLS`] in all.
pub fn lower(program: &Program, module_name: &str) -> Result<Module, CompileError> {
    let mut mb = ModuleBuilder::new(module_name);

    let mut globals: HashMap<String, GlobalId> = HashMap::new();
    let mut cells = 0usize;
    for g in &program.globals {
        if globals.contains_key(&g.name) {
            return Err(CompileError::new(
                g.line,
                format!("duplicate global `{}`", g.name),
            ));
        }
        cells = cells.saturating_add(g.size);
        if cells > MAX_GLOBAL_CELLS {
            return Err(CompileError::new(
                g.line,
                format!(
                    "global `{}` takes the program to {cells} data cells, past the bound of {MAX_GLOBAL_CELLS}",
                    g.name
                ),
            ));
        }
        let id = mb.add_global(g.name.clone(), g.size, g.init.clone());
        globals.insert(g.name.clone(), id);
    }

    let mut funcs: HashMap<String, (FuncId, usize)> = HashMap::new();
    for f in &program.functions {
        if funcs.contains_key(&f.name) {
            return Err(CompileError::new(
                f.line,
                format!("duplicate function `{}`", f.name),
            ));
        }
        let id = mb.declare_function(f.name.clone(), f.params.len());
        funcs.insert(f.name.clone(), (id, f.params.len()));
    }

    for f in &program.functions {
        let (id, _) = funcs[&f.name];
        let mut fb = mb.function_builder(id);
        fb.set_start_line(f.line);
        let mut ctx = LowerCtx {
            fb,
            globals: &globals,
            funcs: &funcs,
            locals: HashMap::new(),
            loop_stack: Vec::new(),
        };
        for (i, p) in f.params.iter().enumerate() {
            ctx.locals.insert(p.clone(), VReg(i as u32));
        }
        let entry = ctx.fb.entry_block();
        ctx.fb.switch_to(entry);
        ctx.lower_body(&f.body)?;
        // Implicit `return 0;` if control can fall off the end.
        if !ctx.block_terminated() {
            ctx.fb.set_line(f.line);
            ctx.fb.ret(Some(Operand::Imm(0)));
        }
        drop(ctx);
        csspgo_ir::cfg::remove_unreachable(mb.func_mut(id));
    }

    let module = mb.finish();
    if let Some(e) = csspgo_ir::verify::verify_module(&module).first() {
        return Err(CompileError::new(
            0,
            format!("internal lowering error: {e}"),
        ));
    }
    Ok(module)
}

struct LowerCtx<'m, 'e> {
    fb: FunctionBuilder<'m>,
    globals: &'e HashMap<String, GlobalId>,
    funcs: &'e HashMap<String, (FuncId, usize)>,
    locals: HashMap<String, VReg>,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
}

impl LowerCtx<'_, '_> {
    fn block_terminated(&self) -> bool {
        self.fb.current_is_terminated()
    }

    fn lower_body(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for stmt in stmts {
            if self.block_terminated() {
                // Unreachable code after return/break; lower into a fresh
                // orphan block that remove_unreachable will delete, so that
                // the code is still name-checked.
                let orphan = self.fb.add_block();
                self.fb.switch_to(orphan);
            }
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        self.fb.set_line(stmt.line());
        match stmt {
            Stmt::Let {
                name,
                value,
                line: _,
            } => {
                let v = self.lower_expr(value)?;
                // Bind (or rebind) the name to a dedicated register so later
                // assignments can overwrite it.
                let dst = match self.locals.get(name) {
                    Some(&r) => r,
                    None => {
                        let r = self.fb.new_vreg();
                        self.locals.insert(name.clone(), r);
                        r
                    }
                };
                self.fb.emit(InstKind::Copy { dst, src: v });
                Ok(())
            }
            Stmt::Assign { name, value, line } => {
                let v = self.lower_expr(value)?;
                self.fb.set_line(*line);
                let dst = *self.locals.get(name).ok_or_else(|| {
                    CompileError::new(*line, format!("assignment to unknown variable `{name}`"))
                })?;
                self.fb.emit(InstKind::Copy { dst, src: v });
                Ok(())
            }
            Stmt::StoreIndex {
                name,
                index,
                value,
                line,
            } => {
                let g = *self.globals.get(name).ok_or_else(|| {
                    CompileError::new(*line, format!("store to unknown global `{name}`"))
                })?;
                let idx = self.lower_expr(index)?;
                let val = self.lower_expr(value)?;
                self.fb.set_line(*line);
                self.fb.store(g, idx, val);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let c = self.lower_expr(cond)?;
                let then_bb = self.fb.add_block();
                let else_bb = self.fb.add_block();
                let join = self.fb.add_block();
                self.fb.set_line(*line);
                self.fb.cond_br(c, then_bb, else_bb);

                self.fb.switch_to(then_bb);
                self.lower_body(then_body)?;
                if !self.block_terminated() {
                    self.fb.br(join);
                }
                self.fb.switch_to(else_bb);
                self.lower_body(else_body)?;
                if !self.block_terminated() {
                    self.fb.br(join);
                }
                self.fb.switch_to(join);
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                let header = self.fb.add_block();
                let body_bb = self.fb.add_block();
                let exit = self.fb.add_block();
                self.fb.br(header);
                self.fb.switch_to(header);
                self.fb.set_line(*line);
                let c = self.lower_expr(cond)?;
                self.fb.set_line(*line);
                self.fb.cond_br(c, body_bb, exit);
                self.fb.switch_to(body_bb);
                self.loop_stack.push((header, exit));
                self.lower_body(body)?;
                self.loop_stack.pop();
                if !self.block_terminated() {
                    self.fb.br(header);
                }
                self.fb.switch_to(exit);
                Ok(())
            }
            Stmt::Switch {
                value,
                cases,
                default,
                line,
            } => {
                let v = self.lower_expr(value)?;
                let join = self.fb.add_block();
                let default_bb = self.fb.add_block();
                let mut case_bbs = Vec::with_capacity(cases.len());
                for _ in cases {
                    case_bbs.push(self.fb.add_block());
                }
                self.fb.set_line(*line);
                let table: Vec<(i64, BlockId)> = cases
                    .iter()
                    .zip(&case_bbs)
                    .map(|((k, _), bb)| (*k, *bb))
                    .collect();
                self.fb.switch(v, table, default_bb);

                for ((_, body), bb) in cases.iter().zip(&case_bbs) {
                    self.fb.switch_to(*bb);
                    self.lower_body(body)?;
                    if !self.block_terminated() {
                        self.fb.br(join);
                    }
                }
                self.fb.switch_to(default_bb);
                self.lower_body(default)?;
                if !self.block_terminated() {
                    self.fb.br(join);
                }
                self.fb.switch_to(join);
                Ok(())
            }
            Stmt::Return { value, line } => {
                let v = match value {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.fb.set_line(*line);
                self.fb.ret(v);
                Ok(())
            }
            Stmt::Break { line } => {
                let (_, brk) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| CompileError::new(*line, "`break` outside of a loop"))?;
                self.fb.br(brk);
                Ok(())
            }
            Stmt::Continue { line } => {
                let (cont, _) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| CompileError::new(*line, "`continue` outside of a loop"))?;
                self.fb.br(cont);
                Ok(())
            }
            Stmt::Expr { expr, .. } => {
                self.lower_expr(expr)?;
                Ok(())
            }
        }
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<Operand, CompileError> {
        self.fb.set_line(expr.line());
        match expr {
            Expr::Int { value, .. } => Ok(Operand::Imm(*value)),
            Expr::Var { name, line } => self
                .locals
                .get(name)
                .map(|&r| Operand::Reg(r))
                .ok_or_else(|| CompileError::new(*line, format!("unknown variable `{name}`"))),
            Expr::Index { name, index, line } => {
                let g = *self
                    .globals
                    .get(name)
                    .ok_or_else(|| CompileError::new(*line, format!("unknown global `{name}`")))?;
                let idx = self.lower_expr(index)?;
                self.fb.set_line(*line);
                Ok(Operand::Reg(self.fb.load(g, idx)))
            }
            Expr::Unary { op, operand, line } => {
                let v = self.lower_expr(operand)?;
                self.fb.set_line(*line);
                let r = match op {
                    UnaryOp::Neg => self.fb.bin(BinOp::Sub, Operand::Imm(0), v),
                    UnaryOp::Not => self.fb.cmp(CmpPred::Eq, v, Operand::Imm(0)),
                };
                Ok(Operand::Reg(r))
            }
            Expr::Binary { op, lhs, rhs, line } => {
                if matches!(op, AstBinOp::LogicalAnd | AstBinOp::LogicalOr) {
                    return self.lower_short_circuit(*op, lhs, rhs, *line);
                }
                let a = self.lower_expr(lhs)?;
                let b = self.lower_expr(rhs)?;
                self.fb.set_line(*line);
                let r = match op {
                    AstBinOp::Add => self.fb.bin(BinOp::Add, a, b),
                    AstBinOp::Sub => self.fb.bin(BinOp::Sub, a, b),
                    AstBinOp::Mul => self.fb.bin(BinOp::Mul, a, b),
                    AstBinOp::Div => self.fb.bin(BinOp::Div, a, b),
                    AstBinOp::Rem => self.fb.bin(BinOp::Rem, a, b),
                    AstBinOp::And => self.fb.bin(BinOp::And, a, b),
                    AstBinOp::Or => self.fb.bin(BinOp::Or, a, b),
                    AstBinOp::Xor => self.fb.bin(BinOp::Xor, a, b),
                    AstBinOp::Shl => self.fb.bin(BinOp::Shl, a, b),
                    AstBinOp::Shr => self.fb.bin(BinOp::Shr, a, b),
                    AstBinOp::Eq => self.fb.cmp(CmpPred::Eq, a, b),
                    AstBinOp::Ne => self.fb.cmp(CmpPred::Ne, a, b),
                    AstBinOp::Lt => self.fb.cmp(CmpPred::Lt, a, b),
                    AstBinOp::Le => self.fb.cmp(CmpPred::Le, a, b),
                    AstBinOp::Gt => self.fb.cmp(CmpPred::Gt, a, b),
                    AstBinOp::Ge => self.fb.cmp(CmpPred::Ge, a, b),
                    AstBinOp::LogicalAnd | AstBinOp::LogicalOr => unreachable!(),
                };
                Ok(Operand::Reg(r))
            }
            Expr::Call { name, args, line } => {
                let &(callee, arity) = self.funcs.get(name).ok_or_else(|| {
                    CompileError::new(*line, format!("unknown function `{name}`"))
                })?;
                if args.len() != arity {
                    return Err(CompileError::new(
                        *line,
                        format!("`{name}` expects {arity} arguments, got {}", args.len()),
                    ));
                }
                let mut lowered = Vec::with_capacity(args.len());
                for a in args {
                    lowered.push(self.lower_expr(a)?);
                }
                self.fb.set_line(*line);
                Ok(Operand::Reg(self.fb.call(callee, lowered)))
            }
        }
    }

    /// Lowers `a && b` / `a || b` with short-circuit control flow into a
    /// 0/1-valued register.
    fn lower_short_circuit(
        &mut self,
        op: AstBinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<Operand, CompileError> {
        let result = self.fb.new_vreg();
        let rhs_bb = self.fb.add_block();
        let short_bb = self.fb.add_block();
        let join = self.fb.add_block();

        let a = self.lower_expr(lhs)?;
        self.fb.set_line(line);
        let a_bool = self.fb.cmp(CmpPred::Ne, a, Operand::Imm(0));
        match op {
            AstBinOp::LogicalAnd => self.fb.cond_br(Operand::Reg(a_bool), rhs_bb, short_bb),
            AstBinOp::LogicalOr => self.fb.cond_br(Operand::Reg(a_bool), short_bb, rhs_bb),
            _ => unreachable!("not a short-circuit op"),
        }

        self.fb.switch_to(rhs_bb);
        let b = self.lower_expr(rhs)?;
        self.fb.set_line(line);
        let b_bool = self.fb.cmp(CmpPred::Ne, b, Operand::Imm(0));
        self.fb.emit(InstKind::Copy {
            dst: result,
            src: Operand::Reg(b_bool),
        });
        self.fb.br(join);

        self.fb.switch_to(short_bb);
        let short_val = match op {
            AstBinOp::LogicalAnd => 0,
            _ => 1,
        };
        self.fb.emit(InstKind::Copy {
            dst: result,
            src: Operand::Imm(short_val),
        });
        self.fb.br(join);

        self.fb.switch_to(join);
        Ok(Operand::Reg(result))
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use csspgo_ir::inst::InstKind;

    #[test]
    fn lowers_arithmetic_function() {
        let m = compile("fn f(a, b) { return a * b + 1; }", "t").unwrap();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].num_params, 2);
    }

    #[test]
    fn implicit_return_zero() {
        let m = compile("fn f() { let x = 1; }", "t").unwrap();
        let f = &m.functions[0];
        let term = f.block(f.entry).terminator().unwrap();
        assert!(matches!(term.kind, InstKind::Ret { value: Some(_) }));
    }

    #[test]
    fn while_with_break_and_continue() {
        let src = r#"
fn f(n) {
    let i = 0;
    let acc = 0;
    while (1) {
        if (i >= n) { break; }
        i = i + 1;
        if (i % 2 == 0) { continue; }
        acc = acc + i;
    }
    return acc;
}
"#;
        let m = compile(src, "t").unwrap();
        assert!(m.functions[0].num_live_blocks() >= 6);
    }

    #[test]
    fn switch_lowering_produces_switch_inst() {
        let src = "fn f(x) { switch (x) { case 0 { return 10; } case 7 { return 20; } default { return 0; } } }";
        let m = compile(src, "t").unwrap();
        let has_switch = m.functions[0]
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .any(|i| matches!(i.kind, InstKind::Switch { .. }));
        assert!(has_switch);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let e = compile("fn f() { return y; }", "t").unwrap_err();
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let e = compile("fn g(a) { return a; } fn f() { return g(1, 2); }", "t").unwrap_err();
        assert!(e.message.contains("expects 1 arguments"));
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        let e = compile("fn f() { break; }", "t").unwrap_err();
        assert!(e.message.contains("outside of a loop"));
    }

    #[test]
    fn statements_after_return_do_not_break_lowering() {
        let m = compile("fn f() { return 1; let x = 2; }", "t").unwrap();
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
    }

    #[test]
    fn line_numbers_attached() {
        let src = "fn f(a) {\n    let x = a + 1;\n    return x;\n}";
        let m = compile(src, "t").unwrap();
        let f = &m.functions[0];
        assert_eq!(f.start_line, 1);
        let lines: Vec<u32> = f
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .map(|i| i.loc.line)
            .collect();
        assert!(lines.contains(&2));
        assert!(lines.contains(&3));
    }

    #[test]
    fn globals_resolve_in_loads_and_stores() {
        let src = "global t[8] = [5];\nfn f(i) { t[i] = t[i] + 1; return t[0]; }";
        let m = compile(src, "t").unwrap();
        assert_eq!(m.globals.len(), 1);
        let kinds: Vec<_> = m.functions[0]
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .map(|i| &i.kind)
            .collect();
        assert!(kinds.iter().any(|k| matches!(k, InstKind::Load { .. })));
        assert!(kinds.iter().any(|k| matches!(k, InstKind::Store { .. })));
    }

    #[test]
    fn short_circuit_creates_control_flow() {
        let m = compile("fn f(a, b) { return a && b; }", "t").unwrap();
        assert!(m.functions[0].num_live_blocks() >= 4);
    }
}
