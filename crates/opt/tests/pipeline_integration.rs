//! Cross-pass integration tests for the optimizer: count maintenance,
//! probe survival and stripping across the whole pipeline.

use csspgo_ir::inst::InstKind;
use csspgo_ir::{BlockId, Function, Inst, Module};
use csspgo_opt::OptConfig;

fn compile(src: &str) -> Module {
    csspgo_lang::compile(src, "t").unwrap()
}

/// What a pass can change in `f`: the entry count, the probe checksum, and
/// each block in emission order (the layout, else live blocks by id) with
/// its count and instructions, locations included.
type LinearView = (
    Option<u64>,
    Option<u64>,
    Vec<(BlockId, Option<u64>, Vec<Inst>)>,
);

fn linear_view(f: &Function) -> LinearView {
    let order: Vec<BlockId> = match &f.layout {
        Some(l) => l.hot.iter().chain(&l.cold).copied().collect(),
        None => f.iter_blocks().map(|(b, _)| b).collect(),
    };
    let blocks = order.into_iter().map(|b| {
        let block = f.block(b);
        (b, block.count, block.insts.clone())
    });
    (f.entry_count, f.probe_checksum, blocks.collect())
}

#[test]
fn probe_count_is_invariant_across_the_pipeline_sum() {
    // The number of *distinct* probe identities (owner, index, stack) can
    // only grow by duplication; none may be dropped by the low-overhead
    // pipeline, because each anchors a block or call site.
    let src = r#"
fn h(x) {
    if (x % 2 == 0) { return x + 1; }
    return x - 1;
}
fn f(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = s + h(i); i = i + 1; }
    return s;
}
"#;
    let mut m = compile(src);
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    let before: std::collections::HashSet<(u32, u32)> = m
        .functions
        .iter()
        .flat_map(|f| f.iter_blocks().flat_map(|(_, b)| &b.insts))
        .filter_map(|i| match &i.kind {
            InstKind::PseudoProbe { owner, index, .. } => Some((owner.0, *index)),
            _ => None,
        })
        .collect();
    csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
    let after: std::collections::HashSet<(u32, u32)> = m
        .functions
        .iter()
        .flat_map(|f| f.iter_blocks().flat_map(|(_, b)| &b.insts))
        .filter_map(|i| match &i.kind {
            InstKind::PseudoProbe { owner, index, .. } => Some((owner.0, *index)),
            _ => None,
        })
        .collect();
    for id in &before {
        assert!(
            after.contains(id),
            "probe {id:?} vanished from the optimized module"
        );
    }
}

#[test]
fn annotated_counts_survive_the_pipeline_on_hot_path() {
    let src = r#"
fn f(a) {
    let r = 0;
    if (a > 0) { r = a * 2; } else { r = 1 - a; }
    return r;
}
"#;
    let mut m = compile(src);
    let ids: Vec<BlockId> = m.functions[0].iter_blocks().map(|(b, _)| b).collect();
    for (i, bid) in ids.iter().enumerate() {
        m.functions[0].block_mut(*bid).count = Some(match i {
            0 => 1000,
            1 => 900,
            2 => 100,
            _ => 1000,
        });
    }
    m.functions[0].entry_count = Some(1000);
    csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
    // Some block must still carry a ~1000 count (the hot path).
    let max = m.functions[0]
        .iter_blocks()
        .filter_map(|(_, b)| b.count)
        .max()
        .unwrap_or(0);
    assert!(max >= 900, "hot count lost in maintenance: {max}");
}

#[test]
fn strip_then_lower_produces_a_runnable_binary() {
    let src = r#"
fn used(x) { return x * 2; }
fn unused_a(x) { return unused_b(x) + 1; }
fn unused_b(x) { return x - 1; }
fn main(n) { return used(n) + 1; }
"#;
    let mut m = compile(src);
    let main = m.find_function("main").unwrap();
    let n = csspgo_opt::strip::run(&mut m, &[main]);
    assert_eq!(n, 2, "both unused functions stripped");
    let b = csspgo_codegen::lower_module(&m, &csspgo_codegen::CodegenConfig::default());
    let mut machine = csspgo_sim::Machine::new(&b, csspgo_sim::SimConfig::default());
    assert_eq!(machine.call("main", &[20]).unwrap(), 41);
}

#[test]
fn full_pipeline_is_idempotent_on_its_own_output() {
    let src = r#"
fn f(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        if (i % 3 == 0) { s = s + 2; } else { s = s + 1; }
        i = i + 1;
    }
    return s;
}
"#;
    let mut m = compile(src);
    csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
    let once = linear_view(&m.functions[0]);
    csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
    let twice = linear_view(&m.functions[0]);
    assert_eq!(once, twice, "second pipeline run must be a fixpoint");
}
