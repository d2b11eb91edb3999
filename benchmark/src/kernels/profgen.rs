//! `profgen`: recorded sample sets turned into all three profile products —
//! the llvm-profgen analogue. Each program has several sample sets, one per
//! profiled host, each about the size a PGO cycle's profiling run yields;
//! every set is a batch of its own, as profile generation runs per host
//! before profiles are merged.
//!
//! * AutoFDO: range counts → debug-info correlation → flat wire format;
//! * probe-only: range counts → probe correlation → probe wire format;
//! * full CSSPGO: range counts → tail-call graph → Algorithm 1 (context
//!   unwinding) → checksums → cold trimming → Algorithms 2–3 (pre-inliner)
//!   → probe profile → context + probe wire formats.
//!
//! Every product is decoded again and compared with what was encoded.

use super::{Kernel, Ops, RoundOut};
use crate::inputs::{
    self, build_binary, draws_for, mix, mix_samples, pipeline_config, record_samples,
    server_programs, Build, Scale, FNV_INIT,
};
use crate::trace::Tracer;
use csspgo_codegen::Binary;
use csspgo_core::binprof;
use csspgo_core::context::ContextProfile;
use csspgo_core::correlate::{dwarf_profile, probe_profile};
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::preinline::{run_preinliner, PreInlineResult};
use csspgo_core::profile::ProbeProfile;
use csspgo_core::shard::{sharded_context_profile, sharded_range_counts};
use csspgo_core::tailcall::{InferStats, TailCallGraph};
use csspgo_core::workload::Workload;
use csspgo_sim::Sample;
use std::collections::BTreeMap;
use std::ops::Range;

/// Profiled hosts per program, and PMU samples recorded on each
/// (≈105 k samples over the five server programs).
pub const FULL_HOSTS: usize = 4;
pub const FULL_HOST_SAMPLES: u64 = 5_250;
/// Parts the lap's one sample stream is cut into.
const LAP_HOSTS: usize = 4;

/// A program, its probe-carrying profiling binary and its recorded samples.
pub struct Recorded {
    pub workload: Workload,
    pub binary: Binary,
    /// Every host's samples, host after host.
    pub samples: Vec<Sample>,
    /// Each host's slice of `samples`.
    pub hosts: Vec<Range<usize>>,
}

/// Builds the profiling binary of each of `programs` and records, for each
/// of `hosts` hosts, about `per_host` samples of its own seeded training
/// traffic (`Lap`: the sample stream of exactly the published training
/// traffic, cut into [`LAP_HOSTS`] equal parts).
#[allow(clippy::too_many_arguments)]
pub fn record_all(
    programs: Vec<Workload>,
    seed: u64,
    scale: Scale,
    purpose: &str,
    hosts: usize,
    per_host: u64,
    cfg: &PipelineConfig,
    t: &mut Tracer,
) -> Result<Vec<Recorded>, String> {
    let mut out = Vec::new();
    for workload in programs {
        let binary = build_binary(&workload, Build::Probes, cfg)?;
        t.segment();
        let mut samples = record_samples(&binary, &workload, &workload.train_calls, cfg, t)?;
        let part = samples.len().div_ceil(LAP_HOSTS).max(1);
        let mut host_ranges: Vec<Range<usize>> = (0..samples.len())
            .step_by(part)
            .map(|start| start..(start + part).min(samples.len()))
            .collect();
        if scale == Scale::Full {
            let n = draws_for(per_host, samples.len() as u64, workload.train_calls.len());
            samples.clear();
            host_ranges.clear();
            for host in 0..hosts {
                let mut rng = inputs::rng_for(seed, &workload.name, &format!("{purpose}.{host}"));
                let requests = inputs::resample(&workload.train_calls, n, &mut rng);
                let start = samples.len();
                samples.extend(record_samples(&binary, &workload, &requests, cfg, t)?);
                host_ranges.push(start..samples.len());
            }
        }
        out.push(Recorded {
            workload,
            binary,
            samples,
            hosts: host_ranges,
        });
        t.segment();
    }
    Ok(out)
}

/// Hash of a recorded set: binary shape plus the sample digest.
pub fn digest_recorded(recorded: &[Recorded]) -> u64 {
    let mut h = FNV_INIT;
    for r in recorded {
        mix(&mut h, r.binary.len() as u64);
        mix(&mut h, r.samples.len() as u64);
        mix(&mut h, r.hosts.len() as u64);
        mix_samples(&mut h, &r.samples);
    }
    h
}

/// The full-CSSPGO product of one sample set.
pub struct FullProduct {
    /// Trimmed, pre-inlined context profile.
    pub context: ContextProfile,
    /// The probe profile handed to the compiler.
    pub probe: ProbeProfile,
    /// The pre-inliner's decisions.
    pub preinline: PreInlineResult,
    /// Context-trie weight right after unwinding.
    pub unwound_total: u64,
    /// Context-trie nodes before and after cold trimming.
    pub nodes: (usize, usize),
    /// Missing-frame inference counters of the unwind.
    pub infer_stats: InferStats,
    /// The pinned tail-call graph the unwinder used.
    pub tail_graph: TailCallGraph,
}

/// Generates the full-CSSPGO product, in the order `run_pgo_cycle_with`
/// does, one span per layer call and a segment after each of the three big
/// steps (range counting, unwinding, everything after).
pub fn full_product(
    b: &Binary,
    samples: &[Sample],
    cfg: &PipelineConfig,
    t: &mut Tracer,
) -> FullProduct {
    let n = samples.len() as u64;
    let rc = t.time("ranges.count", n, || {
        sharded_range_counts(b, samples, cfg.ingest_shards)
    });
    t.count("ranges.distinct", rc.ranges.len() as u64);
    t.segment();
    let tail_graph = t.time("tailcall.build", 0, || TailCallGraph::build(b, &rc));
    t.count("tailcall.edges", tail_graph.edge_count() as u64);
    let unwound = t.time("unwind.ctx", n, || {
        sharded_context_profile(b, Some(&tail_graph), samples, cfg.ingest_shards)
    });
    t.segment();
    let infer_stats = unwound.infer_stats;
    t.count("unwind.broken_stacks", unwound.broken_stacks);
    t.count("unwind.frames_inferred", infer_stats.recovered);
    let mut context = unwound.profile;
    let unwound_total = context.total();
    let nodes_before = context.node_count();
    t.count("context.nodes_before", nodes_before as u64);
    t.time("context.trim", 0, || {
        let checksums: BTreeMap<u64, u64> = b
            .funcs
            .iter()
            .filter_map(|f| f.probe_checksum.map(|c| (f.guid, c)))
            .collect();
        context.set_checksums(&checksums);
        context.trim_cold(cfg.trim_threshold);
    });
    let nodes_after = context.node_count();
    t.count("context.nodes_after", nodes_after as u64);
    let preinline = t.time("preinline.run", 0, || {
        run_preinliner(&mut context, b, &cfg.preinline)
    });
    t.count("preinline.plan_len", preinline.plan_paths.len() as u64);
    let mut probe = t.time("context.to_probe", 0, || context.to_probe_profile());
    for (fidx, c) in rc.entry_counts(b) {
        let guid = b.funcs[fidx as usize].guid;
        if let Some(fp) = probe.funcs.get_mut(&guid) {
            fp.entry = fp.entry.max(c);
        }
    }
    t.segment();
    FullProduct {
        context,
        probe,
        preinline,
        unwound_total,
        nodes: (nodes_before, nodes_after),
        infer_stats,
        tail_graph,
    }
}

/// Encodes `value`, decodes the payload and checks the round trip, one
/// span per direction. Returns the payload length.
fn round_trip<P: PartialEq, E: std::fmt::Display>(
    what: &str,
    value: &P,
    encode: impl FnOnce(&P) -> Vec<u8>,
    decode: impl FnOnce(&[u8]) -> Result<P, E>,
    t: &mut Tracer,
    ops: &mut Ops,
) -> u64 {
    let bytes = t.time("binprof.encode", 0, || encode(value));
    t.count("binprof.bytes", bytes.len() as u64);
    match t.time("binprof.decode", 0, || decode(&bytes)) {
        Ok(back) => ops.check(back == *value, || format!("{what}: decode(encode(p)) != p")),
        Err(e) => ops.fail(|| format!("{what}: decode failed: {e}")),
    }
    bytes.len() as u64
}

/// The profile-generation kernel.
pub struct Profgen {
    cfg: PipelineConfig,
    recorded: Vec<Recorded>,
    profile_bytes: u64,
}

impl Kernel for Profgen {
    const NAME: &'static str = "profgen";
    const RATE: &'static str = "ksamples_per_s";
    const ROUND_SECS: f64 = 0.5;

    fn setup(seed: u64, scale: Scale, t: &mut Tracer) -> Result<Self, String> {
        let cfg = pipeline_config(seed, scale);
        let recorded = record_all(
            server_programs(scale),
            seed,
            scale,
            Self::NAME,
            FULL_HOSTS,
            FULL_HOST_SAMPLES,
            &cfg,
            t,
        )?;
        Ok(Profgen {
            cfg,
            recorded,
            profile_bytes: 0,
        })
    }

    fn digest(&self) -> u64 {
        digest_recorded(&self.recorded)
    }

    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut {
        let mut work = 0;
        let mut fingerprint = FNV_INIT;
        let mut profile_bytes = 0;
        for (r, host) in self
            .recorded
            .iter()
            .flat_map(|r| r.hosts.iter().map(move |h| (r, h)))
        {
            let samples = &r.samples[host.clone()];
            let n = samples.len() as u64;
            let name = &r.workload.name;
            let shards = self.cfg.ingest_shards;

            let rc = t.time("ranges.count", n, || {
                sharded_range_counts(&r.binary, samples, shards)
            });
            let flat = t.time("correlate.dwarf", 0, || dwarf_profile(&r.binary, &rc));
            mix(&mut fingerprint, flat.total());
            let len = round_trip(
                name,
                &flat,
                binprof::encode_flat,
                binprof::decode_flat,
                t,
                ops,
            );
            mix(&mut fingerprint, len);
            t.segment();

            let rc = t.time("ranges.count", n, || {
                sharded_range_counts(&r.binary, samples, shards)
            });
            let probe = t.time("correlate.probe", 0, || probe_profile(&r.binary, &rc));
            mix(&mut fingerprint, probe.total());
            let len = round_trip(
                name,
                &probe,
                binprof::encode_probe,
                binprof::decode_probe,
                t,
                ops,
            );
            mix(&mut fingerprint, len);
            t.segment();

            let full = full_product(&r.binary, samples, &self.cfg, t);
            mix(&mut fingerprint, full.unwound_total);
            mix(&mut fingerprint, full.probe.total());
            let ctx_len = round_trip(
                name,
                &full.context,
                binprof::encode_context,
                binprof::decode_context,
                t,
                ops,
            );
            let probe_len = round_trip(
                name,
                &full.probe,
                binprof::encode_probe,
                binprof::decode_probe,
                t,
                ops,
            );
            mix(&mut fingerprint, ctx_len);
            mix(&mut fingerprint, probe_len);
            profile_bytes += ctx_len + probe_len;
            work += 3 * n;
            t.segment();
        }
        self.profile_bytes = profile_bytes;
        RoundOut {
            work,
            fingerprint,
            probe_ns: 0,
        }
    }

    fn rate(work: u64, secs: f64) -> f64 {
        work as f64 / secs / 1e3
    }

    fn verify(&mut self, _ops: &mut Ops) {}

    fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![("profile_bytes", self.profile_bytes as f64)]
    }
}
