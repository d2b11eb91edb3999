//! Criterion benchmarks for the profile-generation hot path: sample
//! correlation (`dwarf_profile` / `probe_profile`, which lean on the
//! precomputed flat frame table) and context-tree construction, in both
//! sequential and sharded-parallel form.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csspgo_bench::profiled;
use csspgo_codegen::Binary;
use csspgo_core::context::ContextProfile;
use csspgo_core::correlate::{dwarf_profile, probe_profile};
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::{sharded_context_profile, sharded_range_counts};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::unwind::Unwinder;
use csspgo_sim::Sample;

struct Profiled {
    binary: Binary,
    samples: Vec<Sample>,
    rc: RangeCounts,
}

fn profiled_hhvm(probes: bool) -> Profiled {
    let w = csspgo_workloads::hhvm().scaled(0.2);
    let cfg = PipelineConfig::builder()
        .sample_period(97)
        .build()
        .expect("valid bench config");
    let (binary, run) = profiled(&w, probes, &cfg);
    let mut rc = RangeCounts::default();
    rc.add_samples(&binary, &run.samples);
    Profiled {
        binary,
        samples: run.samples,
        rc,
    }
}

fn bench_correlate(c: &mut Criterion) {
    let dwarf = profiled_hhvm(false);
    c.bench_function("profile_gen/dwarf_profile", |b| {
        b.iter(|| dwarf_profile(black_box(&dwarf.binary), black_box(&dwarf.rc)))
    });
    let probed = profiled_hhvm(true);
    c.bench_function("profile_gen/probe_profile", |b| {
        b.iter(|| probe_profile(black_box(&probed.binary), black_box(&probed.rc)))
    });
}

/// The pre-arena frame query: synthesize a fresh `Vec` per instruction
/// (what `Binary::debug_frames` used to do). Kept as a bench-only foil so
/// the flat-table win stays measurable.
fn frames_with_alloc(binary: &Binary, idx: usize) -> Vec<(csspgo_ir::FuncId, u32, u32)> {
    let loc = &binary.insts[idx].loc;
    if loc.is_none() {
        return Vec::new();
    }
    let mut frames: Vec<_> = loc
        .inline_stack
        .iter()
        .map(|s| (s.func, s.line, s.discriminator))
        .collect();
    let leaf_scope = if loc.scope == csspgo_ir::FuncId::INVALID {
        binary.func_at(idx).id
    } else {
        loc.scope
    };
    frames.push((leaf_scope, loc.line, loc.discriminator));
    frames
}

fn bench_frame_queries(c: &mut Criterion) {
    let p = profiled_hhvm(false);
    let n = p.binary.len();
    c.bench_function("profile_gen/debug_frames_flat_table", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for idx in 0..n {
                acc += p.binary.debug_frames(idx).len();
            }
            acc
        })
    });
    c.bench_function("profile_gen/debug_frames_alloc_per_query", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for idx in 0..n {
                acc += frames_with_alloc(&p.binary, idx).len();
            }
            acc
        })
    });
}

fn bench_range_counts(c: &mut Criterion) {
    let p = profiled_hhvm(true);
    c.bench_function("profile_gen/range_counts_sequential", |b| {
        b.iter(|| {
            let mut rc = RangeCounts::default();
            rc.add_samples(&p.binary, &p.samples);
            rc.ranges.len()
        })
    });
    c.bench_function("profile_gen/range_counts_sharded_auto", |b| {
        b.iter(|| sharded_range_counts(&p.binary, &p.samples, 0).ranges.len())
    });
}

fn bench_context_tree(c: &mut Criterion) {
    let p = profiled_hhvm(true);
    let graph = TailCallGraph::build(&p.binary, &p.rc);
    c.bench_function("profile_gen/context_tree_sequential", |b| {
        b.iter(|| {
            let mut profile = ContextProfile::new();
            let mut uw = Unwinder::new(&p.binary, Some(&graph));
            uw.unwind_into(&p.samples, &mut profile);
            profile.total()
        })
    });
    c.bench_function("profile_gen/context_tree_sharded_auto", |b| {
        b.iter(|| {
            sharded_context_profile(&p.binary, Some(&graph), &p.samples, 0)
                .profile
                .total()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_correlate, bench_frame_queries, bench_range_counts, bench_context_tree
);
criterion_main!(benches);
