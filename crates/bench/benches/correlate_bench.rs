//! Criterion benchmarks for this PR's two hot paths, on the largest
//! shipped workload (`haas`):
//!
//! * **correlation** — per-sample context unwinding (the reference path)
//!   vs the batched fast path (sample dedup + hash-consed context trie)
//!   vs the sharded-parallel fan-out on top of it;
//! * **binprof** — the binary profile wire format vs the human-readable
//!   text format, for both the bare context profile and a live
//!   [`StreamAggregator`] snapshot/restore cycle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csspgo_bench::profiled;
use csspgo_codegen::Binary;
use csspgo_core::binprof;
use csspgo_core::context::ContextProfile;
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_context_profile;
use csspgo_core::stream::{SnapshotFormat, StreamAggregator};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::textprof;
use csspgo_core::unwind::Unwinder;
use csspgo_sim::Sample;

struct Profiled {
    binary: Binary,
    samples: Vec<Sample>,
    graph: TailCallGraph,
}

/// Profiles `haas` (the largest fig6 workload) with probes on, dense
/// sampling, full training traffic.
fn profiled_haas() -> Profiled {
    let w = csspgo_workloads::haas().scaled(0.4);
    let cfg = PipelineConfig::builder()
        .sample_period(97)
        .build()
        .expect("valid bench config");
    let (binary, run) = profiled(&w, true, &cfg);
    let mut rc = RangeCounts::default();
    rc.add_samples(&binary, &run.samples);
    let graph = TailCallGraph::build(&binary, &rc);
    Profiled {
        binary,
        samples: run.samples,
        graph,
    }
}

fn context_profile_of(p: &Profiled) -> ContextProfile {
    let mut uw = Unwinder::new(&p.binary, Some(&p.graph));
    uw.unwind_batched(&p.samples)
}

fn bench_correlation(c: &mut Criterion) {
    let p = profiled_haas();
    c.bench_function("correlate/unwind_per_sample", |b| {
        b.iter(|| {
            let mut profile = ContextProfile::new();
            let mut uw = Unwinder::new(black_box(&p.binary), Some(&p.graph));
            uw.unwind_into(&p.samples, &mut profile);
            profile.total()
        })
    });
    c.bench_function("correlate/unwind_batched", |b| {
        b.iter(|| {
            let mut uw = Unwinder::new(black_box(&p.binary), Some(&p.graph));
            uw.unwind_batched(&p.samples).total()
        })
    });
    c.bench_function("correlate/unwind_sharded_auto", |b| {
        b.iter(|| {
            sharded_context_profile(&p.binary, Some(&p.graph), &p.samples, 0)
                .profile
                .total()
        })
    });
}

fn bench_binprof_roundtrip(c: &mut Criterion) {
    let p = profiled_haas();
    let profile = context_profile_of(&p);
    let bin = binprof::encode_context(&profile);
    let text = textprof::write_context(&profile);
    println!(
        "haas context profile: {} bytes binary, {} bytes text",
        bin.len(),
        text.len()
    );
    c.bench_function("binprof/encode_context", |b| {
        b.iter(|| binprof::encode_context(black_box(&profile)).len())
    });
    c.bench_function("binprof/decode_context", |b| {
        b.iter(|| binprof::decode_context(black_box(&bin)).unwrap().total())
    });
    c.bench_function("textprof/write_context", |b| {
        b.iter(|| textprof::write_context(black_box(&profile)).len())
    });
    c.bench_function("textprof/parse_context", |b| {
        b.iter(|| textprof::parse_context(black_box(&text)).unwrap().total())
    });
}

fn bench_snapshot(c: &mut Criterion) {
    let p = profiled_haas();
    let cfg = PipelineConfig::default();
    let mut agg = StreamAggregator::with_tail_graph(
        &p.binary,
        cfg.stream.clone(),
        cfg.ingest_shards,
        p.graph.clone(),
    );
    agg.push_batch(p.samples.clone()).unwrap();
    agg.seal_epoch();
    let bin = agg.snapshot_as(SnapshotFormat::Binary);
    let text = agg.snapshot_as(SnapshotFormat::Text);
    println!(
        "haas stream snapshot: {} bytes binary, {} bytes text",
        bin.len(),
        text.len()
    );
    c.bench_function("snapshot/binary", |b| {
        b.iter(|| agg.snapshot_as(SnapshotFormat::Binary).len())
    });
    c.bench_function("snapshot/text", |b| {
        b.iter(|| agg.snapshot_as(SnapshotFormat::Text).len())
    });
    c.bench_function("restore/binary", |b| {
        b.iter(|| {
            StreamAggregator::restore_from(&p.binary, cfg.stream.clone(), cfg.ingest_shards, &bin)
                .unwrap()
                .total_samples()
        })
    });
    c.bench_function("restore/text", |b| {
        b.iter(|| {
            StreamAggregator::restore_from(&p.binary, cfg.stream.clone(), cfg.ingest_shards, &text)
                .unwrap()
                .total_samples()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_correlation, bench_binprof_roundtrip, bench_snapshot
);
criterion_main!(benches);
