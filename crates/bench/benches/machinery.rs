//! Criterion benchmarks for the CSSPGO machinery itself: how fast the
//! paper's components run (profile generation must keep up with a fleet).

use criterion::{criterion_group, criterion_main, Criterion};
use csspgo_bench::profiled;
use csspgo_codegen::{lower_module, Binary, CodegenConfig};
use csspgo_core::correlate::{dwarf_profile, probe_profile};
use csspgo_core::inference::{infer_counts, InferenceMode};
use csspgo_core::pipeline::{prepared_module, staged_machine, PipelineConfig};
use csspgo_core::preinline::{context_sizes, run_preinliner, PreInlineConfig};
use csspgo_core::ranges::RangeCounts;
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::unwind::Unwinder;
use csspgo_sim::{Sample, SimConfig};
use std::collections::HashMap;

/// One profiled hhvm run shared by the profile-machinery benches.
struct Profiled {
    binary: Binary,
    samples: Vec<Sample>,
    rc: RangeCounts,
}

fn profiled_hhvm(probes: bool) -> Profiled {
    let w = csspgo_workloads::hhvm().scaled(0.1);
    let (binary, run) = profiled(&w, probes, &PipelineConfig::default());
    let mut rc = RangeCounts::default();
    rc.add_samples(&binary, &run.samples);
    Profiled {
        binary,
        samples: run.samples,
        rc,
    }
}

fn bench_correlation(c: &mut Criterion) {
    let dwarf = profiled_hhvm(false);
    let probed = profiled_hhvm(true);
    c.bench_function("correlate/dwarf_profile", |b| {
        b.iter(|| dwarf_profile(&dwarf.binary, &dwarf.rc))
    });
    c.bench_function("correlate/probe_profile", |b| {
        b.iter(|| probe_profile(&probed.binary, &probed.rc))
    });
}

fn bench_unwinder(c: &mut Criterion) {
    let p = profiled_hhvm(true);
    let graph = TailCallGraph::build(&p.binary, &p.rc);
    c.bench_function("unwind/algorithm1_per_run", |b| {
        b.iter(|| {
            Unwinder::new(&p.binary, Some(&graph))
                .unwind_batched(&p.samples)
                .total()
        })
    });
    c.bench_function("unwind/tailcall_graph_build", |b| {
        b.iter(|| TailCallGraph::build(&p.binary, &p.rc).edge_count())
    });
}

fn bench_preinliner(c: &mut Criterion) {
    let p = profiled_hhvm(true);
    let graph = TailCallGraph::build(&p.binary, &p.rc);
    let profile = Unwinder::new(&p.binary, Some(&graph)).unwind_batched(&p.samples);
    c.bench_function("preinline/algorithm3_context_sizes", |b| {
        b.iter(|| context_sizes(&p.binary).len())
    });
    c.bench_function("preinline/algorithm2_full", |b| {
        b.iter(|| {
            let mut cp = profile.clone();
            run_preinliner(&mut cp, &p.binary, &PreInlineConfig::default()).inlined
        })
    });
}

fn bench_inference(c: &mut Criterion) {
    // A branchy function with loops for the flow-repair bench.
    let w = csspgo_workloads::ad_retriever();
    let m = csspgo_lang::compile(&w.source, &w.name).unwrap();
    let func = m
        .functions
        .iter()
        .find(|f| f.name == "scan")
        .expect("scan exists");
    let mut raw = HashMap::new();
    for (i, (bid, _)) in func.iter_blocks().enumerate() {
        raw.insert(bid, (i as u64 * 37 + 5) % 1000);
    }
    c.bench_function("inference/mcf", |b| {
        b.iter(|| infer_counts(func, &raw, 500, InferenceMode::Mcf).counts)
    });
    c.bench_function("inference/heuristic", |b| {
        b.iter(|| infer_counts(func, &raw, 500, InferenceMode::Heuristic).counts)
    });
}

fn bench_compile_pipeline(c: &mut Criterion) {
    let w = csspgo_workloads::hhvm();
    c.bench_function("compile/frontend", |b| {
        b.iter(|| {
            csspgo_lang::compile(&w.source, &w.name)
                .unwrap()
                .functions
                .len()
        })
    });
    c.bench_function("compile/full_pipeline_with_probes", |b| {
        b.iter(|| {
            let mut m = prepared_module(&w.source, &w.name, true).unwrap();
            csspgo_opt::run_pipeline(&mut m, &csspgo_opt::OptConfig::default());
            lower_module(&m, &CodegenConfig::default()).len()
        })
    });
}

fn bench_layout(c: &mut Criterion) {
    let w = csspgo_workloads::hhvm();
    let mut m = csspgo_lang::compile(&w.source, &w.name).unwrap();
    // Annotate synthetic counts so layout has something to chew on.
    for f in &mut m.functions {
        let ids: Vec<_> = f.iter_blocks().map(|(b, _)| b).collect();
        for (i, bid) in ids.into_iter().enumerate() {
            f.block_mut(bid).count = Some(((i as u64 * 131) % 997) * 10);
        }
    }
    let cfg = csspgo_opt::OptConfig::default();
    c.bench_function("layout/ext_tsp_module", |b| {
        b.iter(|| {
            let mut m2 = m.clone();
            csspgo_opt::layout::run(&mut m2, &cfg);
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let w = csspgo_workloads::ad_finder().scaled(0.05);
    let m = csspgo_lang::compile(&w.source, &w.name).unwrap();
    let b = lower_module(&m, &CodegenConfig::default());
    c.bench_function("sim/interpreter_throughput", |bch| {
        bch.iter(|| {
            let mut machine = staged_machine(&b, &w, SimConfig::default());
            let mut acc = 0i64;
            for args in w.train_calls.iter().take(2) {
                acc = acc.wrapping_add(machine.call(&w.entry, args).unwrap());
            }
            acc
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_correlation,
        bench_unwinder,
        bench_preinliner,
        bench_inference,
        bench_compile_pipeline,
        bench_layout,
        bench_simulator
);
criterion_main!(benches);
