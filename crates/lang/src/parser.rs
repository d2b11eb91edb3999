//! Recursive-descent parser with precedence climbing.
//!
//! Recursion is bounded (256 levels of nesting), so a hostile source is a
//! [`CompileError`], not a stack overflow. A run of operators of one
//! precedence (`1 + 1 + … + 1`) and an `else if` chain are parsed in loops
//! and lowered in loops, so neither counts as nesting.

use crate::ast::*;
use crate::lexer::{Tok, Token};
use crate::CompileError;

/// The deepest nesting the parser accepts. One level is a block inside a
/// block, a parenthesised expression, a unary operand, a call argument or an
/// array index inside an expression. Parsing and lowering recurse a bounded
/// number of times per level (at most once per precedence level between two
/// parentheses), so the bound caps their stack depth. The costliest level,
/// a parenthesis holding all ten precedence levels, compiles 648 deep on a
/// 2 MiB thread in a release build: 256 leaves 2.5× of that.
const MAX_NESTING: u32 = 256;

/// Parses a token stream (as produced by [`crate::lexer::lex`]) into a
/// [`Program`].
///
/// # Errors
///
/// Returns a [`CompileError`] naming the unexpected token and its line, or
/// the line where nesting first goes deeper than the parser's bound of
/// 256 levels.
pub fn parse<'a>(tokens: &[Token<'a>]) -> Result<Program<'a>, CompileError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        // About one statement per eight tokens, one expression per two.
        stmts: Vec::with_capacity(tokens.len() / 8),
        pending_stmts: Vec::new(),
        exprs: Vec::with_capacity(tokens.len() / 2),
        args: Vec::new(),
        pending_args: Vec::new(),
        links: Vec::new(),
    };
    p.program()
}

struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
    /// Open nesting levels.
    depth: u32,
    /// The program's statements so far.
    stmts: Vec<Stmt<'a>>,
    /// Statements of the blocks being parsed, innermost block's last: a
    /// block moves its own run to `stmts` when it closes.
    pending_stmts: Vec<Stmt<'a>>,
    /// The program's expressions so far.
    exprs: Vec<Expr<'a>>,
    /// The program's call arguments so far.
    args: Vec<ExprId>,
    /// Arguments of the calls being parsed, innermost call's last: a call
    /// moves its own run to `args` when it closes.
    pending_args: Vec<ExprId>,
    /// `(condition, then body, line)` of the `if` chains being parsed,
    /// innermost chain's last.
    links: Vec<(ExprId, Body, u32)>,
}

impl<'a> Parser<'_, 'a> {
    fn peek(&self) -> Tok<'a> {
        self.tokens[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: Tok<'_>) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok<'_>) -> Result<(), CompileError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(CompileError::new(
                self.line(),
                format!("expected `{tok}`, found `{}`", self.peek()),
            ))
        }
    }

    /// Opens a nesting level; past the bound, the error names `line`.
    fn enter(&mut self, line: u32) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(too_deep(line));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Moves the statements pending since `mark` to the arena as one body.
    fn close_body(&mut self, mark: usize) -> Body {
        let start = self.stmts.len() as u32;
        self.stmts.extend(self.pending_stmts.drain(mark..));
        Body {
            start,
            end: self.stmts.len() as u32,
        }
    }

    /// Adds `e` to the arena.
    fn push(&mut self, e: Expr<'a>) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    fn ident(&mut self) -> Result<&'a str, CompileError> {
        match self.peek() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(CompileError::new(
                self.line(),
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    fn int(&mut self) -> Result<i64, CompileError> {
        // Allow a leading minus in constant positions.
        let neg = self.eat(Tok::Minus);
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            other => Err(CompileError::new(
                self.line(),
                format!("expected integer, found `{other}`"),
            )),
        }
    }

    fn program(&mut self) -> Result<Program<'a>, CompileError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Global => globals.push(self.global_decl()?),
                Tok::Fn => functions.push(self.function_decl()?),
                other => {
                    return Err(CompileError::new(
                        self.line(),
                        format!("expected `fn` or `global`, found `{other}`"),
                    ))
                }
            }
        }
        Ok(Program {
            globals,
            functions,
            stmts: std::mem::take(&mut self.stmts),
            exprs: std::mem::take(&mut self.exprs),
            args: std::mem::take(&mut self.args),
        })
    }

    fn global_decl(&mut self) -> Result<GlobalDecl<'a>, CompileError> {
        let line = self.line();
        self.expect(Tok::Global)?;
        let name = self.ident()?;
        self.expect(Tok::LBracket)?;
        let size = self.int()?;
        if size < 0 {
            return Err(CompileError::new(line, "negative global size"));
        }
        self.expect(Tok::RBracket)?;
        let mut init = Vec::new();
        if self.eat(Tok::Assign) {
            self.expect(Tok::LBracket)?;
            if !self.eat(Tok::RBracket) {
                loop {
                    init.push(self.int()?);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBracket)?;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(GlobalDecl {
            name,
            size: size as usize,
            init,
            line,
        })
    }

    fn function_decl(&mut self) -> Result<FunctionDecl<'a>, CompileError> {
        let line = self.line();
        self.expect(Tok::Fn)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let body = self.block()?;
        Ok(FunctionDecl {
            name,
            params,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Body, CompileError> {
        let line = self.line();
        self.expect(Tok::LBrace)?;
        self.enter(line)?;
        let mark = self.pending_stmts.len();
        while !self.eat(Tok::RBrace) {
            if self.peek() == Tok::Eof {
                return Err(CompileError::new(
                    self.line(),
                    "unexpected end of input in block",
                ));
            }
            let stmt = self.stmt()?;
            self.pending_stmts.push(stmt);
        }
        self.leave();
        Ok(self.close_body(mark))
    }

    fn stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        let line = self.line();
        match self.peek() {
            Tok::Let => {
                self.bump();
                let name = self.ident()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Let { name, value, line })
            }
            Tok::If => self.if_chain(),
            Tok::While => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::Switch => {
                self.bump();
                self.expect(Tok::LParen)?;
                let value = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::LBrace)?;
                let mut cases = Vec::new();
                let mut default = Body::default();
                loop {
                    if self.eat(Tok::RBrace) {
                        break;
                    }
                    if self.eat(Tok::Case) {
                        let k = self.int()?;
                        let body = self.block()?;
                        cases.push((k, body));
                    } else if self.eat(Tok::Default) {
                        default = self.block()?;
                    } else {
                        return Err(CompileError::new(
                            self.line(),
                            format!(
                                "expected `case`, `default` or `}}`, found `{}`",
                                self.peek()
                            ),
                        ));
                    }
                }
                Ok(Stmt::Switch {
                    value,
                    cases,
                    default,
                    line,
                })
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            Tok::Break => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break { line })
            }
            Tok::Continue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue { line })
            }
            Tok::Ident(name) => {
                // Could be assignment, indexed store, or a call statement.
                match self.tokens[self.pos + 1].tok {
                    Tok::Assign => {
                        self.bump();
                        self.bump();
                        let value = self.expr()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Assign { name, value, line })
                    }
                    Tok::LBracket => {
                        // Disambiguate `a[i] = v;` from expression statement
                        // `a[i];` by parsing the index then checking for `=`.
                        self.bump();
                        self.bump();
                        let index = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        if self.eat(Tok::Assign) {
                            let value = self.expr()?;
                            self.expect(Tok::Semi)?;
                            Ok(Stmt::StoreIndex {
                                name,
                                index,
                                value,
                                line,
                            })
                        } else {
                            self.expect(Tok::Semi)?;
                            let expr = self.push(Expr::Index { name, index, line });
                            Ok(Stmt::Expr { expr, line })
                        }
                    }
                    _ => {
                        let expr = self.expr()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Expr { expr, line })
                    }
                }
            }
            other => Err(CompileError::new(
                line,
                format!("expected statement, found `{other}`"),
            )),
        }
    }

    /// `if (c) { … } else if (c) { … } … else { … }`. Each `else if` link is
    /// the whole else body of the link before it, as a nested `if`. The
    /// links are parsed in a loop and then nested innermost first, which
    /// lays out the arenas as parsing each link recursively would.
    fn if_chain(&mut self) -> Result<Stmt<'a>, CompileError> {
        let mark = self.links.len();
        let mut else_body = loop {
            let line = self.line();
            self.expect(Tok::If)?;
            self.expect(Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(Tok::RParen)?;
            let then_body = self.block()?;
            self.links.push((cond, then_body, line));
            if !self.eat(Tok::Else) {
                break Body::default();
            }
            if self.peek() != Tok::If {
                break self.block()?;
            }
        };
        loop {
            let (cond, then_body, line) = self.links.pop().expect("one link per pass");
            let stmt = Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            };
            if self.links.len() == mark {
                return Ok(stmt);
            }
            let body_mark = self.pending_stmts.len();
            self.pending_stmts.push(stmt);
            else_body = self.close_body(body_mark);
        }
    }

    fn expr(&mut self) -> Result<ExprId, CompileError> {
        self.binary_expr(0)
    }

    /// Precedence climbing; higher binds tighter.
    fn binary_expr(&mut self, min_prec: u8) -> Result<ExprId, CompileError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::PipePipe => (AstBinOp::LogicalOr, 1),
                Tok::AmpAmp => (AstBinOp::LogicalAnd, 2),
                Tok::Pipe => (AstBinOp::Or, 3),
                Tok::Caret => (AstBinOp::Xor, 4),
                Tok::Amp => (AstBinOp::And, 5),
                Tok::EqEq => (AstBinOp::Eq, 6),
                Tok::NotEq => (AstBinOp::Ne, 6),
                Tok::Lt => (AstBinOp::Lt, 7),
                Tok::Le => (AstBinOp::Le, 7),
                Tok::Gt => (AstBinOp::Gt, 7),
                Tok::Ge => (AstBinOp::Ge, 7),
                Tok::Shl => (AstBinOp::Shl, 8),
                Tok::Shr => (AstBinOp::Shr, 8),
                Tok::Plus => (AstBinOp::Add, 9),
                Tok::Minus => (AstBinOp::Sub, 9),
                Tok::Star => (AstBinOp::Mul, 10),
                Tok::Slash => (AstBinOp::Div, 10),
                Tok::Percent => (AstBinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = self.push(Expr::Binary { op, lhs, rhs, line });
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<ExprId, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            Tok::Minus => UnaryOp::Neg,
            Tok::Bang => UnaryOp::Not,
            _ => return self.primary_expr(),
        };
        self.bump();
        self.enter(line)?;
        let operand = self.unary_expr()?;
        self.leave();
        Ok(self.push(Expr::Unary { op, operand, line }))
    }

    fn primary_expr(&mut self) -> Result<ExprId, CompileError> {
        let line = self.line();
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(self.push(Expr::Int { value: v, line }))
            }
            Tok::LParen => {
                self.bump();
                self.enter(line)?;
                let e = self.expr()?;
                self.leave();
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                match self.peek() {
                    Tok::LParen => {
                        self.bump();
                        self.enter(line)?;
                        let mark = self.pending_args.len();
                        if !self.eat(Tok::RParen) {
                            loop {
                                let arg = self.expr()?;
                                self.pending_args.push(arg);
                                if !self.eat(Tok::Comma) {
                                    break;
                                }
                            }
                            self.expect(Tok::RParen)?;
                        }
                        self.leave();
                        let start = self.args.len() as u32;
                        self.args.extend(self.pending_args.drain(mark..));
                        let args = start..self.args.len() as u32;
                        Ok(self.push(Expr::Call { name, args, line }))
                    }
                    Tok::LBracket => {
                        self.bump();
                        self.enter(line)?;
                        let index = self.expr()?;
                        self.leave();
                        self.expect(Tok::RBracket)?;
                        Ok(self.push(Expr::Index { name, index, line }))
                    }
                    _ => Ok(self.push(Expr::Var { name, line })),
                }
            }
            other => Err(CompileError::new(
                line,
                format!("expected expression, found `{other}`"),
            )),
        }
    }
}

/// The error for nesting past [`MAX_NESTING`].
fn too_deep(line: u32) -> CompileError {
    CompileError::new(line, format!("nesting deeper than {MAX_NESTING} levels"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program<'_> {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_params() {
        let p = parse_src("fn f(a, b) { return a + b; }");
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].params, vec!["a", "b"]);
    }

    #[test]
    fn parses_global_with_init() {
        let p = parse_src("global t[4] = [1, -2, 3];");
        assert_eq!(p.globals[0].size, 4);
        assert_eq!(p.globals[0].init, vec![1, -2, 3]);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse_src("fn f() { let x = 1 + 2 * 3; return x; }");
        let Stmt::Let { value, .. } = &p.body(p.functions[0].body)[0] else {
            panic!("expected let");
        };
        let Expr::Binary {
            op: AstBinOp::Add,
            rhs,
            ..
        } = p.expr(*value)
        else {
            panic!("expected add at top: {value:?}");
        };
        assert!(matches!(
            p.expr(*rhs),
            Expr::Binary {
                op: AstBinOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn else_if_chains() {
        let p = parse_src("fn f(x) { if (x == 0) { return 1; } else if (x == 1) { return 2; } else { return 3; } }");
        let Stmt::If { else_body, .. } = &p.body(p.functions[0].body)[0] else {
            panic!();
        };
        assert!(matches!(p.body(*else_body)[0], Stmt::If { .. }));
    }

    #[test]
    fn switch_statement() {
        let p = parse_src("fn f(x) { switch (x) { case 0 { return 1; } case 1 { return 2; } default { return 0; } } }");
        let Stmt::Switch { cases, default, .. } = &p.body(p.functions[0].body)[0] else {
            panic!();
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(p.body(*default).len(), 1);
    }

    #[test]
    fn indexed_store_vs_read() {
        let p = parse_src("global t[4]; fn f(i) { t[i] = t[i] + 1; return t[i]; }");
        assert!(matches!(
            p.body(p.functions[0].body)[0],
            Stmt::StoreIndex { .. }
        ));
    }

    #[test]
    fn error_reports_line() {
        let toks = lex("fn f() {\n  let = 3;\n}").unwrap();
        let e = parse(&toks).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn statement_lines_recorded() {
        let p = parse_src("fn f() {\n  let x = 1;\n  return x;\n}");
        assert_eq!(p.body(p.functions[0].body)[0].line(), 2);
        assert_eq!(p.body(p.functions[0].body)[1].line(), 3);
        assert_eq!(p.functions[0].line, 1);
    }

    #[test]
    fn logical_ops_parse() {
        let p = parse_src("fn f(a, b) { return a && b || !a; }");
        let Stmt::Return { value: Some(e), .. } = &p.body(p.functions[0].body)[0] else {
            panic!();
        };
        assert!(matches!(
            p.expr(*e),
            Expr::Binary {
                op: AstBinOp::LogicalOr,
                ..
            }
        ));
    }
}
