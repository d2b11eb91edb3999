//! A tiny structured MiniLang program generator for the property tests.
//! Loops are always bounded counters, so every generated program
//! terminates.

use csspgo::codegen::{lower_module, Binary, CodegenConfig};
use proptest::prelude::*;

/// A statement of a generated `main`.
#[derive(Debug, Clone)]
pub enum Stmt {
    Let(usize, Expr),
    Assign(usize, Expr),
    Store(Expr, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    Loop(u8, Vec<Stmt>),
    CallHelper(usize, Expr),
}

/// An expression over `main`'s four variables and the global.
#[derive(Debug, Clone)]
pub enum Expr {
    Const(i8),
    Var(usize),
    Load(Box<Expr>),
    Bin(&'static str, Box<Expr>, Box<Expr>),
    Cmp(&'static str, Box<Expr>, Box<Expr>),
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<i8>().prop_map(Expr::Const),
        (0usize..4).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just("+"),
                    Just("-"),
                    Just("*"),
                    Just("/"),
                    Just("%"),
                    Just("&"),
                    Just("|"),
                    Just("^")
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            (
                prop_oneof![Just("<"), Just("<="), Just("=="), Just("!=")],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Cmp(op, Box::new(a), Box::new(b))),
            inner.prop_map(|e| Expr::Load(Box::new(e))),
        ]
    })
}

pub fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        ((0usize..4), expr_strategy()).prop_map(|(v, e)| Stmt::Let(v, e)),
        ((0usize..4), expr_strategy()).prop_map(|(v, e)| Stmt::Assign(v, e)),
        (expr_strategy(), expr_strategy()).prop_map(|(i, v)| Stmt::Store(i, v)),
        ((0usize..2), expr_strategy()).prop_map(|(h, e)| Stmt::CallHelper(h, e)),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, e)| Stmt::If(c, t, e)),
            ((1u8..6), prop::collection::vec(inner, 1..3))
                .prop_map(|(n, body)| Stmt::Loop(n, body)),
        ]
    })
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Const(v) => format!("({v})"),
        Expr::Var(v) => format!("v{v}"),
        Expr::Load(i) => format!("mem[{} % 64]", render_expr(i)),
        Expr::Bin(op, a, b) => format!("({} {op} {})", render_expr(a), render_expr(b)),
        Expr::Cmp(op, a, b) => format!("({} {op} {})", render_expr(a), render_expr(b)),
    }
}

fn render_stmts(stmts: &[Stmt], depth: usize, counter: &mut usize, out: &mut String) {
    let pad = "    ".repeat(depth + 1);
    for s in stmts {
        match s {
            Stmt::Let(v, e) | Stmt::Assign(v, e) => {
                out.push_str(&format!("{pad}v{v} = {};\n", render_expr(e)));
            }
            Stmt::Store(i, v) => {
                out.push_str(&format!(
                    "{pad}mem[{} % 64] = {};\n",
                    render_expr(i),
                    render_expr(v)
                ));
            }
            Stmt::If(c, t, e) => {
                out.push_str(&format!("{pad}if ({}) {{\n", render_expr(c)));
                render_stmts(t, depth + 1, counter, out);
                out.push_str(&format!("{pad}}} else {{\n"));
                render_stmts(e, depth + 1, counter, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Loop(n, body) => {
                let c = *counter;
                *counter += 1;
                out.push_str(&format!("{pad}let c{c} = 0;\n"));
                out.push_str(&format!("{pad}while (c{c} < {n}) {{\n"));
                render_stmts(body, depth + 1, counter, out);
                out.push_str(&format!("{pad}    c{c} = c{c} + 1;\n"));
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::CallHelper(h, e) => {
                out.push_str(&format!("{pad}v0 = helper{h}({});\n", render_expr(e)));
            }
        }
    }
}

/// The generated body as `main(a, b)`, with two fixed helpers and a 64-cell
/// global it may read and write.
pub fn render_program(stmts: &[Stmt]) -> String {
    let mut body = String::new();
    let mut counter = 0usize;
    render_stmts(stmts, 0, &mut counter, &mut body);
    format!(
        r#"
global mem[64];
fn helper0(x) {{
    if (x % 3 == 0) {{ return x * 2 + 1; }}
    return x - 5;
}}
fn helper1(x) {{
    let i = 0;
    let s = x;
    while (i < 4) {{ s = s + mem[(s + i) % 64]; i = i + 1; }}
    return s;
}}
fn main(a, b) {{
    let v0 = a;
    let v1 = b;
    let v2 = a + b;
    let v3 = a - b;
{body}    return v0 + v1 * 3 + v2 * 5 + v3 * 7 + mem[0] + mem[13];
}}
"#
    )
}

/// Compiles `src` under a build configuration: pseudo-probes and/or
/// instrumentation counters inserted, the `-O2` pipeline run or not.
pub fn build(src: &str, probes: bool, instrument: bool, optimize: bool) -> Binary {
    let mut m = csspgo::lang::compile(src, "prop").expect("generated program compiles");
    csspgo::opt::discriminators::run(&mut m);
    if probes {
        csspgo::opt::probes::run(&mut m);
    }
    if instrument {
        csspgo::opt::instrument::run(&mut m);
    }
    if optimize {
        csspgo::opt::run_pipeline(&mut m, &csspgo::opt::OptConfig::default());
    }
    assert!(
        csspgo::ir::verify::verify_module(&m).is_empty(),
        "valid IR in every configuration"
    );
    lower_module(&m, &CodegenConfig::default())
}
