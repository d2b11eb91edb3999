//! Probe invariants under cloning passes.
//!
//! `unroll` and `tail_dup` replicate probed blocks, and `tailmerge` merges
//! them back; any composition of the three (in any order, with any tuning)
//! must leave every duplicated probe id covered by duplication factors —
//! the copies' weights (`Σ 1/factor`) may never exceed 1, or the profiler
//! would overcount the probe. Discriminator discipline must hold on fresh
//! IR before any of them run. And the other way round: a module corrupted
//! the way a broken pass would corrupt it must stop the pipeline at its
//! inter-pass checkpoint.

use csspgo_ir::ids::FuncId;
use csspgo_ir::inst::InstKind;
use csspgo_ir::probe::ProbeSite;
use csspgo_ir::probe_verify;
use csspgo_ir::Module;
use csspgo_opt::OptConfig;
use proptest::prelude::*;

/// Loopy, branchy, recursive program: `while` loops feed `unroll`, shared
/// `return` tails feed `tail_dup`/`tailmerge`.
const SRC: &str = r#"
fn collatz(n) {
    let steps = 0;
    while (n > 1) {
        if (n % 2 == 0) { n = n / 2; }
        else { n = 3 * n + 1; }
        steps = steps + 1;
    }
    return steps;
}
fn sum(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + collatz(i);
        i = i + 1;
    }
    return s;
}
fn depth(n) {
    if (n <= 0) { return 0; }
    return depth(n - 1) + 1;
}
fn main(n) {
    return sum(n) + depth(n);
}
"#;

fn probed_module() -> Module {
    let mut m = csspgo_lang::compile(SRC, "probeinv").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    m
}

/// Asserts the full probe-invariant battery: no issues at all, which in
/// particular means no duplicate ids without factors and no under-declared
/// factors.
fn assert_probes_sound(m: &Module, what: &str) {
    let issues = probe_verify::check_module(m);
    assert!(
        issues.is_empty(),
        "{what}: {}",
        issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fresh_ir_discriminators_are_sound() {
    let m = probed_module();
    for f in &m.functions {
        let issues = probe_verify::check_discriminators(f);
        assert!(issues.is_empty(), "{}: {issues:?}", f.name);
    }
}

/// The five module corruptions that were the seeded cases of the `IV001`
/// and `PI001`–`PI004` lints until the census of DESIGN.md §8: the lints
/// re-reported what `verify_after_pass` already refuses, so the inputs
/// moved here, to the assertion that holds the invariant.
#[test]
fn every_seeded_corruption_trips_the_interpass_checkpoint() {
    /// The first pseudo-probe of `main`: `(function index, block, position)`.
    fn first_probe(m: &Module) -> (usize, csspgo_ir::BlockId, usize) {
        let fid = m.find_function("main").unwrap();
        for (bid, block) in m.func(fid).iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                if matches!(inst.kind, InstKind::PseudoProbe { .. }) {
                    return (fid.index(), bid, i);
                }
            }
        }
        panic!("probed module has no probes");
    }
    type Corruption = (&'static str, fn(&mut Module));
    let corruptions: [Corruption; 5] = [
        ("a block without a terminator (IV001)", |m| {
            let fid = m.find_function("main").unwrap();
            m.func_mut(fid).blocks[0].insts.pop();
        }),
        ("a probe duplicated without a factor (PI001)", |m| {
            let (f, bid, i) = first_probe(m);
            let probe = m.functions[f].block(bid).insts[i].clone();
            m.functions[f].block_mut(bid).insts.insert(i, probe);
        }),
        ("three copies each declaring factor 2 (PI002)", |m| {
            let (f, bid, i) = first_probe(m);
            let mut probe = m.functions[f].block(bid).insts[i].clone();
            if let InstKind::PseudoProbe { factor, .. } = &mut probe.kind {
                *factor = 2;
            }
            m.functions[f].block_mut(bid).insts[i] = probe.clone();
            m.functions[f].block_mut(bid).insts.insert(i, probe.clone());
            m.functions[f].block_mut(bid).insts.insert(i, probe);
        }),
        ("a probe index past the watermark (PI003)", |m| {
            let (f, bid, i) = first_probe(m);
            if let InstKind::PseudoProbe { index, .. } =
                &mut m.functions[f].block_mut(bid).insts[i].kind
            {
                *index = 999;
            }
        }),
        (
            "an inline stack rooted in a missing function (PI004)",
            |m| {
                let (f, bid, i) = first_probe(m);
                if let InstKind::PseudoProbe { inline_stack, .. } =
                    &mut m.functions[f].block_mut(bid).insts[i].kind
                {
                    inline_stack.push(ProbeSite {
                        func: FuncId(99),
                        probe_index: 1,
                    });
                }
            },
        ),
    ];
    let config = OptConfig {
        interpass_verify: true,
        ..OptConfig::default()
    };
    // The clean module runs the whole pipeline under the same checkpoints.
    csspgo_opt::run_pipeline(&mut probed_module(), &config);
    for (what, corrupt) in corruptions {
        let mut m = probed_module();
        corrupt(&mut m);
        let config = config.clone();
        let stopped = std::panic::catch_unwind(move || csspgo_opt::run_pipeline(&mut m, &config))
            .expect_err(what);
        let message = stopped.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.starts_with("inter-pass verification failed after `input`"),
            "{what}: {message}"
        );
    }
}

#[test]
fn each_cloning_pass_alone_preserves_probe_invariants() {
    let base = probed_module();
    let config = OptConfig::default();

    let mut m = base.clone();
    csspgo_opt::tail_dup::run(&mut m, &config);
    assert_probes_sound(&m, "tail_dup");

    let mut m = base.clone();
    csspgo_opt::unroll::run(&mut m, &config);
    assert_probes_sound(&m, "unroll");

    let mut m = base.clone();
    csspgo_opt::tailmerge::run(&mut m);
    assert_probes_sound(&m, "tailmerge");
}

#[test]
fn repeated_unrolling_compounds_factors_correctly() {
    // Unrolling twice squares the duplication: every surviving copy's
    // factor must cover the full replication, not just the last round.
    let mut m = probed_module();
    let config = OptConfig::default();
    csspgo_opt::unroll::run(&mut m, &config);
    csspgo_opt::simplify::run(&mut m);
    csspgo_opt::unroll::run(&mut m, &config);
    csspgo_opt::simplify::run(&mut m);
    assert_probes_sound(&m, "unroll twice");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ANY composition of the cloning/merging passes, in ANY order, with
    /// ANY tuning, leaves the probes sound: ids stay unique per inline
    /// context unless covered by duplication factors whose weights sum
    /// to at most 1.
    #[test]
    fn cloning_pass_compositions_never_break_probe_invariants(
        // Sequence of passes: 0 = tail_dup, 1 = unroll, 2 = tailmerge,
        // 3 = simplify (cleanup between clones).
        passes in proptest::collection::vec(0u8..4, 1..8),
        unroll_factor in 2u32..5,
        unroll_max_body in 8usize..64,
        tail_dup_max_insts in 4usize..32,
    ) {
        let config = OptConfig {
            unroll_factor,
            unroll_max_body,
            tail_dup_max_insts,
            ..OptConfig::default()
        };
        let mut m = probed_module();
        for (step, p) in passes.iter().enumerate() {
            let name = match p {
                0 => { csspgo_opt::tail_dup::run(&mut m, &config); "tail_dup" }
                1 => { csspgo_opt::unroll::run(&mut m, &config); "unroll" }
                2 => { csspgo_opt::tailmerge::run(&mut m); "tailmerge" }
                _ => { csspgo_opt::simplify::run(&mut m); "simplify" }
            };
            // Invariants must hold after EVERY step, not just at the end —
            // this is exactly what the pipeline's inter-pass verifier relies
            // on.
            let issues = probe_verify::check_module(&m);
            prop_assert!(
                issues.is_empty(),
                "step {step} ({name}): {issues:?}"
            );
            prop_assert!(csspgo_ir::verify::verify_module(&m).is_empty());
        }
    }
}
