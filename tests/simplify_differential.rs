//! Differential oracle for `opt::simplify`: the production cleanup, which
//! works over dense per-function tables, must leave exactly the `Module` the
//! reference in `tests/common/reference_simplify.rs` (the hashing,
//! re-walking cleanup it replaced) leaves — on generated programs with and
//! without probes and profile counts, before and after the bottom-up
//! inliner, and on hand-built CFGs that stress forwarding and merge order.

use csspgo::ir::builder::ModuleBuilder;
use csspgo::ir::inst::{BinOp, Operand};
use csspgo::ir::verify::verify_module;
use csspgo::ir::{BlockId, Module, VReg};
use csspgo::opt::{inliner, simplify, OptConfig};
use proptest::prelude::*;

#[path = "common/reference_simplify.rs"]
mod reference_simplify;

#[allow(dead_code)] // `build` lowers to a binary; this oracle compares IR
#[path = "common/program_gen.rs"]
mod program_gen;
use program_gen::{program_strategy, render_program};

/// Simplifies `module` both ways and fails unless the results agree.
/// Returns the simplified module.
fn agree(module: &Module, what: &str) -> Module {
    let mut want = module.clone();
    reference_simplify::run(&mut want);
    let mut got = module.clone();
    simplify::run(&mut got);
    assert_eq!(
        format!("{got:#?}"),
        format!("{want:#?}"),
        "simplify differs from the reference on {what}"
    );
    assert_eq!(verify_module(&got), vec![], "{what}");
    got
}

/// Simplify, then the bottom-up inliner, then simplify again, each
/// simplify checked against the reference.
fn agree_around_inlining(module: &Module, what: &str) {
    let mut m = agree(module, &format!("{what}, before inlining"));
    inliner::run_bottom_up(&mut m, &OptConfig::default());
    agree(&m, &format!("{what}, after inlining"));
}

/// `src` through the front end and the anchoring passes.
fn prepared(src: &str, probes: bool) -> Module {
    let mut m = csspgo::lang::compile(src, "prop").expect("generated program compiles");
    csspgo::opt::discriminators::run(&mut m);
    if probes {
        csspgo::opt::probes::run(&mut m);
    }
    m
}

/// A deterministic, partial annotation: every third block keeps no count,
/// so merging exercises both "keep mine" and "take the absorbed one's".
fn annotate(m: &mut Module) {
    for f in &mut m.functions {
        f.entry_count = Some(100);
        for (i, b) in f.blocks.iter_mut().enumerate() {
            b.count = (i % 3 != 2).then_some(10 * i as u64 + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simplify_matches_the_reference_on_generated_programs(
        program in program_strategy()
    ) {
        let src = render_program(&program);
        for probes in [false, true] {
            let mut m = prepared(&src, probes);
            agree_around_inlining(&m, &format!("probes={probes}"));
            annotate(&mut m);
            agree_around_inlining(&m, &format!("probes={probes}, annotated"));
        }
    }
}

/// One function `f(a)` built by `body`, which gets the builder and the
/// parameter register.
fn one_function(
    body: impl FnOnce(&mut csspgo::ir::builder::FunctionBuilder<'_>, Operand),
) -> Module {
    let mut mb = ModuleBuilder::new("m");
    let f = mb.declare_function("f", 1);
    {
        let mut fb = mb.function_builder(f);
        body(&mut fb, Operand::Reg(VReg(0)));
    }
    mb.finish()
}

#[test]
fn a_forwarder_cycle_matches_the_reference() {
    // entry: condbr a, fa, done; fa: br fb; fb: br fa; done: ret — and a
    // second edge into the cycle from `side`.
    let m = one_function(|fb, a| {
        let entry = fb.entry_block();
        let fa = fb.add_block();
        let fbk = fb.add_block();
        let side = fb.add_block();
        let done = fb.add_block();
        fb.switch_to(entry);
        fb.cond_br(a, side, done);
        fb.switch_to(side);
        let c = fb.bin(BinOp::Add, a, Operand::Imm(1));
        fb.cond_br(Operand::Reg(c), fa, fbk);
        fb.switch_to(fa);
        fb.br(fbk);
        fb.switch_to(fbk);
        fb.br(fa);
        fb.switch_to(done);
        fb.ret(Some(a));
    });
    let out = agree(&m, "a forwarder cycle");
    // The cycle collapses to one self-looping block.
    let f = &out.functions[0];
    let loops = f
        .iter_blocks()
        .filter(|(id, b)| b.targets().any(|t| t == *id))
        .count();
    assert_eq!(loops, 1, "{f:#?}");
}

#[test]
fn a_chain_of_straight_line_merges_matches_the_reference() {
    // entry -> b4 -> b2 -> b5 -> b1 -> b3: ids out of chain order, each
    // block with one instruction beside its branch, so only merging (not
    // forwarding) can shorten the chain.
    let m = one_function(|fb, a| {
        let entry = fb.entry_block();
        let blocks: Vec<BlockId> = (0..5).map(|_| fb.add_block()).collect();
        let chain = [blocks[3], blocks[1], blocks[4], blocks[0], blocks[2]];
        fb.switch_to(entry);
        let mut acc = fb.bin(BinOp::Mul, a, Operand::Imm(3));
        fb.br(chain[0]);
        for (i, &b) in chain.iter().enumerate() {
            fb.switch_to(b);
            acc = fb.bin(BinOp::Add, Operand::Reg(acc), Operand::Imm(i as i64 + 1));
            match chain.get(i + 1) {
                Some(&next) => fb.br(next),
                None => fb.ret(Some(Operand::Reg(acc))),
            }
        }
    });
    let mut annotated = m.clone();
    for (i, b) in annotated.functions[0].blocks.iter_mut().enumerate() {
        b.count = (i % 2 == 0).then_some(7);
    }
    let out = agree(&m, "a merge chain");
    assert_eq!(out.functions[0].num_live_blocks(), 1);
    let out = agree(&annotated, "an annotated merge chain");
    assert_eq!(out.functions[0].num_live_blocks(), 1);
}

#[test]
fn a_condbr_with_one_block_on_both_arms_matches_the_reference() {
    // entry: condbr a, t, t (a register condition, so only the arm check
    // folds it); t: x = a * 2; condbr x, u, u; u: ret x.
    let m = one_function(|fb, a| {
        let entry = fb.entry_block();
        let t = fb.add_block();
        let u = fb.add_block();
        fb.switch_to(entry);
        fb.cond_br(a, t, t);
        fb.switch_to(t);
        let x = fb.bin(BinOp::Mul, a, Operand::Imm(2));
        fb.cond_br(Operand::Reg(x), u, u);
        fb.switch_to(u);
        fb.ret(Some(Operand::Reg(x)));
    });
    let out = agree(&m, "a condbr with equal arms");
    assert_eq!(out.functions[0].num_live_blocks(), 1);
    // Both arms reached through forwarders into one block.
    let m = one_function(|fb, a| {
        let entry = fb.entry_block();
        let l = fb.add_block();
        let r = fb.add_block();
        let join = fb.add_block();
        fb.switch_to(entry);
        fb.cond_br(a, l, r);
        fb.switch_to(l);
        fb.br(join);
        fb.switch_to(r);
        fb.br(join);
        fb.switch_to(join);
        fb.ret(Some(a));
    });
    let out = agree(&m, "a condbr whose arms forward into one block");
    assert_eq!(out.functions[0].num_live_blocks(), 1);
}
