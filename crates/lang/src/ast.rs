//! Abstract syntax tree, with source lines on every node that lowers to
//! code. Names are slices of the source text (`'a`). Statements and
//! expressions live in two arenas per program, [`Program::stmts`] and
//! [`Program::exprs`]: a block is a [`Body`], a run of statements, and an
//! expression names its operands by [`ExprId`], so parsing a statement or
//! an expression allocates nothing of its own.

/// A whole source file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program<'a> {
    pub globals: Vec<GlobalDecl<'a>>,
    pub functions: Vec<FunctionDecl<'a>>,
    /// Every statement of the program, each block's in one run.
    pub stmts: Vec<Stmt<'a>>,
    /// Every expression of the program, each after its operands.
    pub exprs: Vec<Expr<'a>>,
    /// Call arguments: each call's run of operands, in order.
    pub args: Vec<ExprId>,
}

/// A block's statements: `Program::stmts[start..end]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Body {
    pub start: u32,
    pub end: u32,
}

/// An expression: its index in [`Program::exprs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExprId(pub u32);

impl<'a> Program<'a> {
    /// The statements of `body`.
    pub fn body(&self, body: Body) -> &[Stmt<'a>] {
        &self.stmts[body.start as usize..body.end as usize]
    }

    /// The expression `id` names.
    pub fn expr(&self, id: ExprId) -> &Expr<'a> {
        &self.exprs[id.0 as usize]
    }
}

/// `global name[size];` or `global name[size] = [v0, v1, ...];`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalDecl<'a> {
    pub name: &'a str,
    pub size: usize,
    pub init: Vec<i64>,
    pub line: u32,
}

/// `fn name(p0, p1, ...) { body }`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionDecl<'a> {
    pub name: &'a str,
    pub params: Vec<&'a str>,
    pub body: Body,
    /// Line of the `fn` keyword (the function's header line).
    pub line: u32,
}

/// Statements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt<'a> {
    /// `let name = expr;`
    Let {
        name: &'a str,
        value: ExprId,
        line: u32,
    },
    /// `name = expr;`
    Assign {
        name: &'a str,
        value: ExprId,
        line: u32,
    },
    /// `name[index] = expr;`
    StoreIndex {
        name: &'a str,
        index: ExprId,
        value: ExprId,
        line: u32,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        cond: ExprId,
        then_body: Body,
        else_body: Body,
        line: u32,
    },
    /// `while (cond) { .. }`
    While { cond: ExprId, body: Body, line: u32 },
    /// `switch (value) { case k { .. } ... default { .. } }`
    Switch {
        value: ExprId,
        cases: Vec<(i64, Body)>,
        default: Body,
        line: u32,
    },
    /// `return;` or `return expr;`
    Return { value: Option<ExprId>, line: u32 },
    /// `break;`
    Break { line: u32 },
    /// `continue;`
    Continue { line: u32 },
    /// An expression evaluated for effect (a call).
    Expr { expr: ExprId, line: u32 },
}

impl Stmt<'_> {
    /// The statement's source line.
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Let { line, .. }
            | Stmt::Assign { line, .. }
            | Stmt::StoreIndex { line, .. }
            | Stmt::If { line, .. }
            | Stmt::While { line, .. }
            | Stmt::Switch { line, .. }
            | Stmt::Return { line, .. }
            | Stmt::Break { line }
            | Stmt::Continue { line }
            | Stmt::Expr { line, .. } => *line,
        }
    }
}

/// Binary operators at the AST level (short-circuit ops included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AstBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `&&` — short-circuit.
    LogicalAnd,
    /// `||` — short-circuit.
    LogicalOr,
}

/// Expressions; each carries the line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr<'a> {
    Int {
        value: i64,
        line: u32,
    },
    Var {
        name: &'a str,
        line: u32,
    },
    /// `name[index]` — global array read.
    Index {
        name: &'a str,
        index: ExprId,
        line: u32,
    },
    Unary {
        op: UnaryOp,
        operand: ExprId,
        line: u32,
    },
    Binary {
        op: AstBinOp,
        lhs: ExprId,
        rhs: ExprId,
        line: u32,
    },
    /// `name(args…)`; the arguments are `Program::args[args]`.
    Call {
        name: &'a str,
        args: std::ops::Range<u32>,
        line: u32,
    },
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!x` is 1 when x == 0, else 0).
    Not,
}

impl Expr<'_> {
    /// The expression's source line.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Int { line, .. }
            | Expr::Var { line, .. }
            | Expr::Index { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Call { line, .. } => *line,
        }
    }
}
