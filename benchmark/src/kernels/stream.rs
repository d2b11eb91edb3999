//! `stream_ingest`: the continuous-profiling mode. The same sample sets as
//! `profgen` — every host's samples, one host after another — pushed through
//! one `StreamAggregator` per program in small epochs, with the drift check every seal runs, an LRU that evicts cold
//! contexts above the fleet's resident cap, and periodic snapshot/restore.

use super::profgen::{
    digest_recorded, full_product, record_all, Recorded, FULL_HOSTS, FULL_HOST_SAMPLES,
};
use super::{Kernel, Ops, RoundOut};
use crate::inputs::{mix, pipeline_config, server_programs, Scale, FNV_INIT};
use crate::trace::Tracer;
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::stream::{ContextEdge, SnapshotFormat, StreamAggregator};
use csspgo_core::tailcall::TailCallGraph;
use std::collections::BTreeMap;

/// Samples per epoch (the `profile_serve` drain granularity).
const EPOCH_SAMPLES: usize = 256;
/// Resident-context cap per aggregator: the `profile_fleet` cap, and one
/// small enough to make the lap's single program evict as well.
const FULL_RESIDENT_CAP: usize = 48;
const LAP_RESIDENT_CAP: usize = 4;
/// Epochs between two binary snapshot/restore cycles.
const SNAPSHOT_EVERY: u64 = 16;

/// The streaming-ingestion kernel.
pub struct StreamIngest {
    cfg: PipelineConfig,
    recorded: Vec<Recorded>,
    /// Per program: the tail-call graph pinned from the whole sample set,
    /// and the context-trie weight batch generation gives for it.
    pinned: Vec<(TailCallGraph, u64)>,
    resident_cap: usize,
    /// Bytes of every binary snapshot a round persists (periodic and final).
    snapshot_bytes: u64,
}

/// Touches the epoch's edges in the LRU clock, then evicts coldest-first
/// until the aggregator is back under the cap — `core::fleet`'s policy,
/// restated here because `FleetService` owns its machines and cannot be
/// fed recorded samples.
fn enforce_cap(
    agg: &mut StreamAggregator<'_>,
    lru: &mut BTreeMap<ContextEdge, u64>,
    epoch: u64,
    cap: usize,
    t: &mut Tracer,
) -> u64 {
    for &edge in agg.last_epoch_edges() {
        lru.insert(edge, epoch);
    }
    if agg.resident_contexts() <= cap {
        return 0;
    }
    let mut order: Vec<(u64, ContextEdge)> = lru.iter().map(|(&e, &ep)| (ep, e)).collect();
    order.sort_unstable();
    let mut evicted = 0;
    let open = t.begin("stream.evict");
    for (_, edge) in order {
        if agg.resident_contexts() <= cap {
            break;
        }
        evicted += agg.evict_contexts(&[edge]).nodes_folded as u64;
        lru.remove(&edge);
    }
    t.end(open, evicted);
    evicted
}

impl Kernel for StreamIngest {
    const NAME: &'static str = "stream_ingest";
    const RATE: &'static str = "ksamples_per_s";
    const ROUND_SECS: f64 = 0.36;

    fn setup(seed: u64, scale: Scale, t: &mut Tracer) -> Result<Self, String> {
        let cfg = pipeline_config(seed, scale);
        // The purpose string is profgen's on purpose: both workloads ingest
        // the very same sample sets.
        let recorded = record_all(
            server_programs(scale),
            seed,
            scale,
            "profgen",
            FULL_HOSTS,
            FULL_HOST_SAMPLES,
            &cfg,
            t,
        )?;
        let pinned = recorded
            .iter()
            .map(|r| {
                let full = full_product(&r.binary, &r.samples, &cfg, t);
                (full.tail_graph, full.unwound_total)
            })
            .collect();
        Ok(StreamIngest {
            cfg,
            recorded,
            pinned,
            resident_cap: match scale {
                Scale::Full => FULL_RESIDENT_CAP,
                Scale::Lap => LAP_RESIDENT_CAP,
            },
            snapshot_bytes: 0,
        })
    }

    fn digest(&self) -> u64 {
        let mut h = digest_recorded(&self.recorded);
        for (graph, total) in &self.pinned {
            mix(&mut h, graph.edge_count() as u64);
            mix(&mut h, *total);
        }
        h
    }

    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut {
        let mut work = 0;
        let mut fingerprint = FNV_INIT;
        let mut snapshot_bytes = 0;
        let stream_cfg = self.cfg.stream.clone();
        let shards = self.cfg.ingest_shards;
        for (r, (graph, batch_total)) in self.recorded.iter().zip(&self.pinned) {
            let name = &r.workload.name;
            let mut agg = StreamAggregator::with_tail_graph(
                &r.binary,
                stream_cfg.clone(),
                shards,
                graph.clone(),
            );
            let mut lru = BTreeMap::new();
            let mut evicted_nodes = 0;
            // A restored aggregator starts its diagnostic counters at zero,
            // so they are banked before every restore.
            let mut broken_stacks = 0;
            let mut frames_inferred = 0;
            let mut bank = |agg: &StreamAggregator<'_>| {
                broken_stacks += agg.broken_stacks();
                frames_inferred += agg.infer_stats().recovered;
            };
            for chunk in r.samples.chunks(EPOCH_SAMPLES) {
                let batch = chunk.to_vec();
                if let Err(e) = t.time("stream.push", 0, || agg.push_batch(batch)) {
                    ops.fail(|| format!("{name}: push_batch: {e}"));
                    continue;
                }
                let open = t.begin("stream.seal");
                let summary = agg.seal_epoch();
                // The aggregator's own epoch timers stand in for spans the
                // harness cannot place inside `seal_epoch`.
                let folded = summary.samples as u64;
                t.report("ranges.count", summary.ingest_ms * 1e6, folded);
                t.report("unwind.ctx", summary.unwind_ms * 1e6, folded);
                t.end(open, folded);
                ops.check(summary.samples == chunk.len(), || {
                    format!(
                        "{name}: epoch {} folded {} of {} samples",
                        summary.epoch,
                        summary.samples,
                        chunk.len()
                    )
                });
                evicted_nodes +=
                    enforce_cap(&mut agg, &mut lru, summary.epoch, self.resident_cap, t);
                if (summary.epoch + 1).is_multiple_of(SNAPSHOT_EVERY) {
                    let bytes = t.time("stream.snapshot", 0, || {
                        agg.snapshot_as(SnapshotFormat::Binary)
                    });
                    snapshot_bytes += bytes.len() as u64;
                    match t.time("stream.restore", 0, || {
                        StreamAggregator::restore_from(
                            &r.binary,
                            stream_cfg.clone(),
                            shards,
                            &bytes,
                        )
                    }) {
                        Ok(restored) => {
                            bank(&agg);
                            agg = restored;
                        }
                        Err(e) => ops.fail(|| format!("{name}: restore_from(binary): {e}")),
                    }
                }
                t.segment();
            }
            // One debug-format round trip per program per round.
            let text = t.time("textprof.snapshot", 0, || {
                agg.snapshot_as(SnapshotFormat::Text)
            });
            t.count("textprof.bytes", text.len() as u64);
            match t.time("textprof.restore", 0, || {
                StreamAggregator::restore_from(&r.binary, stream_cfg.clone(), shards, &text)
            }) {
                Ok(restored) => {
                    bank(&agg);
                    agg = restored;
                }
                Err(e) => ops.fail(|| format!("{name}: restore_from(text): {e}")),
            }

            let n = r.samples.len() as u64;
            bank(&agg);
            t.count("unwind.broken_stacks", broken_stacks);
            t.count("unwind.frames_inferred", frames_inferred);
            t.count("stream.evicted_nodes", evicted_nodes);
            t.count("stream.resident_contexts", agg.resident_contexts() as u64);

            // Eviction folds weight into base profiles, it never drops it:
            // the streamed total must equal the batch total.
            let total = agg.context_profile().total();
            ops.check(total == *batch_total, || {
                format!("{name}: streamed context total {total} != batch total {batch_total}")
            });
            ops.check(agg.total_samples() == n, || {
                format!("{name}: folded {} of {n} samples", agg.total_samples())
            });
            let snapshot = t.time("stream.snapshot", 0, || {
                agg.snapshot_as(SnapshotFormat::Binary)
            });
            snapshot_bytes += snapshot.len() as u64;
            mix(&mut fingerprint, total);
            mix(&mut fingerprint, evicted_nodes);
            mix(&mut fingerprint, agg.resident_contexts() as u64);
            mix(&mut fingerprint, snapshot.len() as u64);
            mix(&mut fingerprint, text.len() as u64);
            work += n;
            t.segment();
        }
        self.snapshot_bytes = snapshot_bytes;
        RoundOut {
            work,
            fingerprint,
            probe_ns: 0,
        }
    }

    fn rate(work: u64, secs: f64) -> f64 {
        work as f64 / secs / 1e3
    }

    fn verify(&mut self, ops: &mut Ops) {
        // restore_from(snapshot) must re-snapshot byte-identically, in
        // both formats, mid-stream (half the samples folded).
        for (r, (graph, _)) in self.recorded.iter().zip(&self.pinned) {
            let name = &r.workload.name;
            let mut agg = StreamAggregator::with_tail_graph(
                &r.binary,
                self.cfg.stream.clone(),
                self.cfg.ingest_shards,
                graph.clone(),
            );
            for chunk in r.samples[..r.samples.len() / 2].chunks(EPOCH_SAMPLES) {
                if agg.push_batch(chunk.to_vec()).is_ok() {
                    agg.seal_epoch();
                }
            }
            for format in [SnapshotFormat::Binary, SnapshotFormat::Text] {
                let first = agg.snapshot_as(format);
                match StreamAggregator::restore_from(
                    &r.binary,
                    self.cfg.stream.clone(),
                    self.cfg.ingest_shards,
                    &first,
                ) {
                    Ok(restored) => ops.check(restored.snapshot_as(format) == first, || {
                        format!("{name}: {format} snapshot does not re-snapshot byte-identically")
                    }),
                    Err(e) => ops.fail(|| format!("{name}: restore_from({format}): {e}")),
                }
            }
        }
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![("profile_bytes", self.snapshot_bytes as f64)]
    }
}
