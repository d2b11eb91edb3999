//! AST → IR lowering with line-accurate debug locations. Globals,
//! functions and a function's locals are looked up by name in tables kept
//! sorted by name: no name is copied or hashed.

use crate::ast::*;
use crate::CompileError;
use csspgo_ir::builder::{FunctionBuilder, ModuleBuilder};
use csspgo_ir::inst::{BinOp, CmpPred, InstKind, Operand};
use csspgo_ir::module::MAX_GLOBAL_CELLS;
use csspgo_ir::{BlockId, FuncId, GlobalId, Module, VReg};

/// A name → value table, sorted by name.
struct Names<'a, T> {
    sorted: Vec<(&'a str, T)>,
}

impl<'a, T: Copy> Names<'a, T> {
    fn with_capacity(n: usize) -> Self {
        Names {
            sorted: Vec::with_capacity(n),
        }
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.sorted.binary_search_by(|&(n, _)| n.cmp(name))
    }

    fn get(&self, name: &str) -> Option<T> {
        self.find(name).ok().map(|i| self.sorted[i].1)
    }

    fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Binds `name` to `value`, replacing an earlier binding.
    fn set(&mut self, name: &'a str, value: T) {
        match self.find(name) {
            Ok(i) => self.sorted[i].1 = value,
            Err(i) => self.sorted.insert(i, (name, value)),
        }
    }
}

/// Lowers a parsed [`Program`] into an IR [`Module`].
///
/// # Errors
///
/// Returns a [`CompileError`] for unknown names, duplicate definitions,
/// call-arity mismatches, or globals past [`MAX_GLOBAL_CELLS`] in all.
pub fn lower(program: &Program<'_>, module_name: &str) -> Result<Module, CompileError> {
    let mut mb = ModuleBuilder::new(module_name);

    let mut globals = Names::with_capacity(program.globals.len());
    let mut cells = 0usize;
    for g in &program.globals {
        if globals.contains(g.name) {
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
        let id = mb.add_global(g.name, g.size, g.init.clone());
        globals.set(g.name, id);
    }

    let mut funcs = Names::with_capacity(program.functions.len());
    for f in &program.functions {
        if funcs.contains(f.name) {
            return Err(CompileError::new(
                f.line,
                format!("duplicate function `{}`", f.name),
            ));
        }
        let id = mb.declare_function(f.name, f.params.len());
        funcs.set(f.name, (id, f.params.len()));
    }

    // One locals table and loop stack, emptied for each function, and one
    // stack each for the `if` and operator chains being lowered.
    let mut locals = Names::with_capacity(16);
    let mut loop_stack = Vec::new();
    let mut joins = Vec::new();
    let mut chain = Vec::new();
    for f in &program.functions {
        let (id, _) = funcs.get(f.name).expect("declared above");
        let mut fb = mb.function_builder(id);
        fb.set_start_line(f.line);
        locals.sorted.clear();
        loop_stack.clear();
        let mut ctx = LowerCtx {
            fb,
            program,
            globals: &globals,
            funcs: &funcs,
            locals: &mut locals,
            loop_stack: &mut loop_stack,
            joins: &mut joins,
            chain: &mut chain,
        };
        for (i, &p) in f.params.iter().enumerate() {
            ctx.locals.set(p, VReg(i as u32));
        }
        let entry = ctx.fb.entry_block();
        ctx.fb.switch_to(entry);
        ctx.lower_body(f.body)?;
        // Implicit `return 0;` if control can fall off the end.
        if !ctx.block_terminated() {
            ctx.fb.set_line(f.line);
            ctx.fb.ret(Some(Operand::Imm(0)));
        }
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

struct LowerCtx<'m, 'e, 'a> {
    fb: FunctionBuilder<'m>,
    program: &'e Program<'a>,
    globals: &'e Names<'a, GlobalId>,
    funcs: &'e Names<'a, (FuncId, usize)>,
    locals: &'e mut Names<'a, VReg>,
    /// (continue target, break target) per enclosing loop.
    loop_stack: &'e mut Vec<(BlockId, BlockId)>,
    /// Join blocks of the `else if` links being lowered, innermost last.
    joins: &'e mut Vec<BlockId>,
    /// The binary expressions down the left operands of the operator
    /// chains being lowered, innermost last.
    chain: &'e mut Vec<(ExprId, Option<ShortCircuit>)>,
}

/// The result register and blocks of a short-circuit `&&` / `||`, made
/// before its left operand is lowered.
#[derive(Clone, Copy)]
struct ShortCircuit {
    result: VReg,
    rhs_bb: BlockId,
    short_bb: BlockId,
    join: BlockId,
}

impl<'e, 'a> LowerCtx<'_, 'e, 'a> {
    fn block_terminated(&self) -> bool {
        self.fb.current_is_terminated()
    }

    fn lower_body(&mut self, body: Body) -> Result<(), CompileError> {
        let program = self.program;
        for stmt in program.body(body) {
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

    fn lower_stmt(&mut self, stmt: &'e Stmt<'a>) -> Result<(), CompileError> {
        self.fb.set_line(stmt.line());
        match stmt {
            Stmt::Let {
                name,
                value,
                line: _,
            } => {
                let v = self.lower_expr(*value)?;
                // Bind (or rebind) the name to a dedicated register so later
                // assignments can overwrite it.
                let dst = match self.locals.get(name) {
                    Some(r) => r,
                    None => {
                        let r = self.fb.new_vreg();
                        self.locals.set(name, r);
                        r
                    }
                };
                self.fb.emit(InstKind::Copy { dst, src: v });
                Ok(())
            }
            Stmt::Assign { name, value, line } => {
                let v = self.lower_expr(*value)?;
                self.fb.set_line(*line);
                let dst = self.locals.get(name).ok_or_else(|| {
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
                let g = self.globals.get(name).ok_or_else(|| {
                    CompileError::new(*line, format!("store to unknown global `{name}`"))
                })?;
                let idx = self.lower_expr(*index)?;
                let val = self.lower_expr(*value)?;
                self.fb.set_line(*line);
                self.fb.store(g, idx, val);
                Ok(())
            }
            Stmt::If { .. } => self.lower_if_chain(stmt),
            Stmt::While { cond, body, line } => {
                let header = self.fb.add_block();
                let body_bb = self.fb.add_block();
                let exit = self.fb.add_block();
                self.fb.br(header);
                self.fb.switch_to(header);
                self.fb.set_line(*line);
                let c = self.lower_expr(*cond)?;
                self.fb.set_line(*line);
                self.fb.cond_br(c, body_bb, exit);
                self.fb.switch_to(body_bb);
                self.loop_stack.push((header, exit));
                self.lower_body(*body)?;
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
                let v = self.lower_expr(*value)?;
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
                    self.lower_body(*body)?;
                    if !self.block_terminated() {
                        self.fb.br(join);
                    }
                }
                self.fb.switch_to(default_bb);
                self.lower_body(*default)?;
                if !self.block_terminated() {
                    self.fb.br(join);
                }
                self.fb.switch_to(join);
                Ok(())
            }
            Stmt::Return { value, line } => {
                let v = match value {
                    Some(e) => Some(self.lower_expr(*e)?),
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
                self.lower_expr(*expr)?;
                Ok(())
            }
        }
    }

    /// Lowers an `if` and, in a loop, each `if` that is the whole else body
    /// of the one before (an `else if` chain), emitting what lowering each
    /// else body recursively would.
    fn lower_if_chain(&mut self, mut stmt: &'e Stmt<'a>) -> Result<(), CompileError> {
        let program = self.program;
        let mark = self.joins.len();
        loop {
            let Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } = stmt
            else {
                unreachable!("an if chain holds only `if`s")
            };
            self.fb.set_line(*line);
            let c = self.lower_expr(*cond)?;
            let then_bb = self.fb.add_block();
            let else_bb = self.fb.add_block();
            let join = self.fb.add_block();
            self.fb.set_line(*line);
            self.fb.cond_br(c, then_bb, else_bb);

            self.fb.switch_to(then_bb);
            self.lower_body(*then_body)?;
            if !self.block_terminated() {
                self.fb.br(join);
            }
            self.fb.switch_to(else_bb);
            self.joins.push(join);
            match program.body(*else_body) {
                [next @ Stmt::If { .. }] => stmt = next,
                _ => {
                    self.lower_body(*else_body)?;
                    break;
                }
            }
        }
        while self.joins.len() > mark {
            let join = self.joins.pop().expect("one join per link");
            if !self.block_terminated() {
                self.fb.br(join);
            }
            self.fb.switch_to(join);
        }
        Ok(())
    }

    fn lower_expr(&mut self, id: ExprId) -> Result<Operand, CompileError> {
        let expr = self.program.expr(id);
        self.fb.set_line(expr.line());
        match expr {
            Expr::Int { value, .. } => Ok(Operand::Imm(*value)),
            Expr::Var { name, line } => self
                .locals
                .get(name)
                .map(Operand::Reg)
                .ok_or_else(|| CompileError::new(*line, format!("unknown variable `{name}`"))),
            Expr::Index { name, index, line } => {
                let g = self
                    .globals
                    .get(name)
                    .ok_or_else(|| CompileError::new(*line, format!("unknown global `{name}`")))?;
                let idx = self.lower_expr(*index)?;
                self.fb.set_line(*line);
                Ok(Operand::Reg(self.fb.load(g, idx)))
            }
            Expr::Unary { op, operand, line } => {
                let v = self.lower_expr(*operand)?;
                self.fb.set_line(*line);
                let r = match op {
                    UnaryOp::Neg => self.fb.bin(BinOp::Sub, Operand::Imm(0), v),
                    UnaryOp::Not => self.fb.cmp(CmpPred::Eq, v, Operand::Imm(0)),
                };
                Ok(Operand::Reg(r))
            }
            Expr::Binary { .. } => self.lower_binary_chain(id),
            Expr::Call { name, args, line } => {
                let (callee, arity) = self.funcs.get(name).ok_or_else(|| {
                    CompileError::new(*line, format!("unknown function `{name}`"))
                })?;
                if args.len() != arity {
                    return Err(CompileError::new(
                        *line,
                        format!("`{name}` expects {arity} arguments, got {}", args.len()),
                    ));
                }
                let mut lowered = Vec::with_capacity(args.len());
                for &a in &self.program.args[args.start as usize..args.end as usize] {
                    lowered.push(self.lower_expr(a)?);
                }
                self.fb.set_line(*line);
                Ok(Operand::Reg(self.fb.call(callee, lowered)))
            }
        }
    }

    /// Lowers a binary expression and the binary expressions down its left
    /// operands (`a + b + … + z` is a left-leaning tree as tall as it is
    /// long) in a loop, emitting what lowering each left operand
    /// recursively would.
    fn lower_binary_chain(&mut self, top: ExprId) -> Result<Operand, CompileError> {
        let program = self.program;
        let mark = self.chain.len();
        let mut id = top;
        while let Expr::Binary { op, lhs, line, .. } = *program.expr(id) {
            self.fb.set_line(line);
            let frame =
                matches!(op, AstBinOp::LogicalAnd | AstBinOp::LogicalOr).then(|| ShortCircuit {
                    result: self.fb.new_vreg(),
                    rhs_bb: self.fb.add_block(),
                    short_bb: self.fb.add_block(),
                    join: self.fb.add_block(),
                });
            self.chain.push((id, frame));
            id = lhs;
        }
        let mut a = self.lower_expr(id)?;
        while self.chain.len() > mark {
            let (id, frame) = self.chain.pop().expect("one entry per operator");
            let Expr::Binary { op, rhs, line, .. } = *program.expr(id) else {
                unreachable!("a chain holds only binary expressions")
            };
            a = match frame {
                Some(frame) => self.lower_short_circuit(op, a, rhs, line, frame)?,
                None => {
                    let b = self.lower_expr(rhs)?;
                    self.fb.set_line(line);
                    Operand::Reg(match op {
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
                    })
                }
            };
        }
        Ok(a)
    }

    /// Finishes `a && b` / `a || b` with short-circuit control flow into a
    /// 0/1-valued register, once `a` is lowered.
    fn lower_short_circuit(
        &mut self,
        op: AstBinOp,
        a: Operand,
        rhs: ExprId,
        line: u32,
        frame: ShortCircuit,
    ) -> Result<Operand, CompileError> {
        let ShortCircuit {
            result,
            rhs_bb,
            short_bb,
            join,
        } = frame;
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
