//! Differential test of the one unwind kernel: production
//! ([`sharded_context_profile`] over `Unwinder::unwind_batched`, at one and
//! at three shards) against the per-sample reference unwinder kept in
//! `tests/common/reference_unwind.rs`, on *optimised* probe-carrying
//! builds — inlined probe frames, tail calls, jump tables, recursion — of
//! the six evaluation programs and of generated programs. Profile (down to
//! the serialized bytes), missing-frame inference counters and broken-stack
//! counter must be equal.

use csspgo::codegen::Binary;
use csspgo::core::pipeline::{profiling_build, profiling_run, PgoVariant, PipelineConfig};
use csspgo::core::ranges::RangeCounts;
use csspgo::core::shard::sharded_context_profile;
use csspgo::core::tailcall::TailCallGraph;
use csspgo::sim::{Machine, Sample, SimConfig};
use proptest::prelude::*;

#[path = "common/program_gen.rs"]
mod program_gen;
#[path = "common/reference_unwind.rs"]
mod reference_unwind;
use program_gen::{build, render_program, stmt_strategy};
use reference_unwind::{reference_unwind, Reference};

/// Probe notes that sit in inlined code: the frames the range attribution
/// expands per probe.
fn inlined_probe_notes(binary: &Binary) -> usize {
    binary
        .insts
        .iter()
        .flat_map(|i| &i.probes)
        .filter(|n| !n.inline_stack.is_empty())
        .count()
}

/// Holds production at 1 and 3 shards to the reference on `samples`, with
/// the tail-call graph those samples give. Returns the reference's result.
fn assert_production_matches_reference(
    binary: &Binary,
    samples: &[Sample],
    what: &str,
) -> Reference {
    let mut rc = RangeCounts::default();
    rc.add_samples(binary, samples);
    let graph = TailCallGraph::build(binary, &rc);
    let reference = reference_unwind(binary, Some(&graph), samples);
    for shards in [1, 3] {
        let out = sharded_context_profile(binary, Some(&graph), samples, shards);
        assert_eq!(
            serde_json::to_string(&out.profile).unwrap(),
            serde_json::to_string(&reference.profile).unwrap(),
            "{what}: profile at {shards} shard(s)"
        );
        assert_eq!(
            (out.infer_stats, out.broken_stacks),
            (reference.infer_stats, reference.broken_stacks),
            "{what}: diagnostics at {shards} shard(s)"
        );
    }
    reference
}

#[test]
fn production_matches_reference_on_every_optimised_workload_build() {
    let config = PipelineConfig::default();
    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    for w in workloads {
        let binary = profiling_build(&w.source, &w.name, PgoVariant::CsspgoFull, &config)
            .unwrap()
            .binary;
        assert!(
            inlined_probe_notes(&binary) > 0,
            "{}: the optimised build inlines probed code",
            w.name
        );
        let run = profiling_run(
            &binary,
            &w.scaled(0.1),
            config.sim_config(config.sample_period),
        )
        .unwrap();
        assert!(run.samples.len() > 100, "{}: a substantial stream", w.name);
        let reference = assert_production_matches_reference(&binary, &run.samples, &w.name);
        assert!(reference.profile.total() > 0, "{}", w.name);
        if w.name == "ad_retriever" {
            // The tail-call chain program: frames are recovered both in
            // the stack walk and across returns in the LBR walk.
            assert!(reference.infer_stats.recovered > 100, "{reference:?}");
        }
    }
}

/// What the generator's `main` never produces on its own: a jump table, a
/// tail call that permutes its arguments, two tail-call routes into one
/// callee (inference must fail), and recursion deeper than the context cap.
const DRIVER: &str = r#"
fn dispatch(op, x) {
    switch (op % 5) {
        case 0 { return x + 1; }
        case 1 { return helper0(x); }
        case 3 { return x * 3; }
        default { return 0 - x; }
    }
}
fn chain(x, y, z) {
    return dispatch(y + z, x);
}
fn via_a(x) { return chain(x, 1, 2); }
fn via_b(x) { return chain(x, 2, 3); }
fn fork(x) {
    if (x % 2 == 0) { return via_a(x); }
    return via_b(x);
}
fn descend(n, x) {
    if (n < 1) { return dispatch(x, n); }
    return descend(n - 1, x + 1) + 1;
}
fn driver(a, b) {
    let r = main(a, b);
    let i = 0;
    while (i < 40) {
        r = r + chain(r, i + a, 7) + fork(i) + descend(i % 12, r);
        helper1(i);
        i = i + 1;
    }
    return r;
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn production_matches_reference_on_generated_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6),
        seed in any::<u64>(),
        lbr_size in prop_oneof![Just(4usize), Just(16)],
        pebs in any::<bool>(),
    ) {
        let src = render_program(&stmts) + DRIVER;
        // Optimised: inlined probe frames. Unoptimised: every tail call of
        // the driver survives, so the two routes into `chain` are there to
        // defeat the inference.
        for optimize in [true, false] {
            let binary = build(&src, true, false, optimize);
            let mut machine = Machine::new(
                &binary,
                SimConfig { lbr_size, pebs, sample_period: 23, seed, ..SimConfig::default() },
            );
            let staged: Vec<i64> = (0..70).map(|i| i * 37 % 101 - 50).collect();
            machine.set_global("mem", &staged);
            for args in [[0, 0], [1, 2], [12345, 678]] {
                machine.call("driver", &args).unwrap();
            }
            let samples = machine.take_samples();
            let reference = assert_production_matches_reference(&binary, &samples, "generated");
            prop_assert!(reference.profile.total() > 0);
            prop_assert!(reference.infer_stats.recovered > 0);
            prop_assert_eq!(inlined_probe_notes(&binary) > 0, optimize);
            prop_assert_eq!(reference.infer_stats.failed > 0, !optimize);
        }
    }
}
