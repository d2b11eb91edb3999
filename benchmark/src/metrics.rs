//! The declared surface of the benchmark: workload names, end-to-end
//! metrics and per-layer metrics. `BENCHMARK.json` at the repo root lists
//! the same names; `tests/smoke.rs` fails when the two drift apart.

use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Workload names, in the order the full command runs them.
pub const WORKLOADS: [&str; 6] = [
    "sim_eval",
    "sim_profile",
    "profgen",
    "stream_ingest",
    "pgo_cycle",
    "compile",
];

/// One end-to-end metric: `(name, unit, higher_is_better, bound)`. The
/// bound is the share of the baseline by which the metric may worsen before
/// a change counts as a regression.
pub const END_TO_END: [(&str, &str, bool, f64); 12] = [
    ("setup_s", "s", false, 0.25),
    ("sim_mips", "Minst/s", true, 0.25),
    ("ksamples_per_s", "ksamples/s", true, 0.25),
    ("cycle_ms", "ms", false, 0.25),
    ("compile_kinst_per_s", "kinst/s", true, 0.25),
    ("eval_mcycles", "Mcycles", false, 0.01),
    ("eval_vs_o2_pct", "%", true, 0.01),
    ("eval_vs_o2_drift_pct", "%", true, 0.01),
    ("text_bytes", "bytes", false, 0.01),
    ("profile_bytes", "bytes", false, 0.2),
    ("peak_rss_mb", "MiB", false, 0.2),
    ("passed_pct", "%", true, 0.001),
];

/// How a per-layer metric is read off a trace.
#[derive(Clone, Copy)]
pub enum Probe {
    /// Median over spans of duration ÷ work, in ns per unit.
    NsPerWork(&'static str),
    /// Median span duration in µs.
    Us(&'static str),
    /// Tail span duration (see [`stats::tail`]) in µs, wanting this percentile.
    TailUs(&'static str, f64),
    /// Tail span duration in ms, wanting this percentile.
    TailMs(&'static str, f64),
    /// Median span *self* time in ms.
    SelfMs(&'static str),
    /// Work count of one round (the same in every round).
    Count(&'static str),
    /// Filled in by the runner, not read off spans.
    External,
}

/// One per-layer metric: `(name, unit, higher_is_better, probe)`.
pub const PER_LAYER: [(&str, &str, bool, Probe); 51] = [
    (
        "sim.eval_ns_per_inst",
        "ns/inst",
        false,
        Probe::NsPerWork("sim.eval"),
    ),
    ("sim.insts", "count", false, Probe::Count("sim.insts")),
    ("sim.cycles", "count", false, Probe::Count("sim.cycles")),
    (
        "sim.mispredicts",
        "count",
        false,
        Probe::Count("sim.mispredicts"),
    ),
    (
        "sim.icache_misses",
        "count",
        false,
        Probe::Count("sim.icache_misses"),
    ),
    (
        "sim.profile_ns_per_inst",
        "ns/inst",
        false,
        Probe::NsPerWork("sim.profile"),
    ),
    ("sim.samples", "count", true, Probe::Count("sim.samples")),
    (
        "sim.lbr_entries",
        "count",
        true,
        Probe::Count("sim.lbr_entries"),
    ),
    (
        "sim.take_samples_us",
        "us",
        false,
        Probe::Us("sim.take_samples"),
    ),
    (
        "ranges.count_ns_per_sample",
        "ns/sample",
        false,
        Probe::NsPerWork("ranges.count"),
    ),
    (
        "ranges.distinct",
        "count",
        false,
        Probe::Count("ranges.distinct"),
    ),
    (
        "tailcall.build_us",
        "us",
        false,
        Probe::Us("tailcall.build"),
    ),
    (
        "tailcall.edges",
        "count",
        true,
        Probe::Count("tailcall.edges"),
    ),
    (
        "unwind.ctx_ns_per_sample",
        "ns/sample",
        false,
        Probe::NsPerWork("unwind.ctx"),
    ),
    (
        "unwind.broken_stacks",
        "count",
        false,
        Probe::Count("unwind.broken_stacks"),
    ),
    (
        "unwind.frames_inferred",
        "count",
        true,
        Probe::Count("unwind.frames_inferred"),
    ),
    ("context.trim_us", "us", false, Probe::Us("context.trim")),
    (
        "context.nodes_before",
        "count",
        false,
        Probe::Count("context.nodes_before"),
    ),
    (
        "context.nodes_after",
        "count",
        false,
        Probe::Count("context.nodes_after"),
    ),
    (
        "context.to_probe_us",
        "us",
        false,
        Probe::Us("context.to_probe"),
    ),
    ("preinline.run_us", "us", false, Probe::Us("preinline.run")),
    (
        "preinline.plan_len",
        "count",
        true,
        Probe::Count("preinline.plan_len"),
    ),
    (
        "correlate.dwarf_us",
        "us",
        false,
        Probe::Us("correlate.dwarf"),
    ),
    (
        "correlate.probe_us",
        "us",
        false,
        Probe::Us("correlate.probe"),
    ),
    (
        "binprof.encode_us",
        "us",
        false,
        Probe::Us("binprof.encode"),
    ),
    (
        "binprof.decode_us",
        "us",
        false,
        Probe::Us("binprof.decode"),
    ),
    (
        "binprof.bytes",
        "bytes",
        false,
        Probe::Count("binprof.bytes"),
    ),
    (
        "textprof.snapshot_us",
        "us",
        false,
        Probe::Us("textprof.snapshot"),
    ),
    (
        "textprof.restore_us",
        "us",
        false,
        Probe::Us("textprof.restore"),
    ),
    (
        "textprof.bytes",
        "bytes",
        false,
        Probe::Count("textprof.bytes"),
    ),
    ("stream.push_us", "us", false, Probe::Us("stream.push")),
    ("stream.seal_us_p50", "us", false, Probe::Us("stream.seal")),
    (
        "stream.seal_us_tail",
        "us",
        false,
        Probe::TailUs("stream.seal", 99.0),
    ),
    ("stream.evict_us", "us", false, Probe::Us("stream.evict")),
    (
        "stream.evicted_nodes",
        "count",
        false,
        Probe::Count("stream.evicted_nodes"),
    ),
    (
        "stream.resident_contexts",
        "count",
        false,
        Probe::Count("stream.resident_contexts"),
    ),
    (
        "stream.snapshot_us",
        "us",
        false,
        Probe::Us("stream.snapshot"),
    ),
    (
        "stream.restore_us",
        "us",
        false,
        Probe::Us("stream.restore"),
    ),
    ("lang.compile_us", "us", false, Probe::Us("lang.compile")),
    ("opt.prepare_us", "us", false, Probe::Us("opt.prepare")),
    ("opt.pipeline_us", "us", false, Probe::Us("opt.pipeline")),
    ("codegen.lower_us", "us", false, Probe::Us("codegen.lower")),
    (
        "codegen.minsts",
        "count",
        false,
        Probe::Count("codegen.minsts"),
    ),
    (
        "annotate.apply_us",
        "us",
        false,
        Probe::Us("annotate.apply"),
    ),
    (
        "inference.infer_us",
        "us",
        false,
        Probe::Us("inference.infer"),
    ),
    (
        "inference.adjusted_blocks",
        "count",
        false,
        Probe::Count("inference.adjusted_blocks"),
    ),
    (
        "stalematch.match_us",
        "us",
        false,
        Probe::Us("stalematch.match"),
    ),
    (
        "stalematch.recovered_funcs",
        "count",
        true,
        Probe::Count("stalematch.recovered_funcs"),
    ),
    (
        "pipeline.cycle_ms_tail",
        "ms",
        false,
        Probe::TailMs("pipeline.cycle", 90.0),
    ),
    (
        "pipeline.self_ms",
        "ms",
        false,
        Probe::SelfMs("pipeline.cycle"),
    ),
    ("trace.overhead_pct", "%", false, Probe::External),
];

/// Spans of traced-only probes: calls the untraced pass does not make, kept
/// out of the traced rounds' timed figure and of the layer shares.
pub const PROBE_SPANS: [&str; 2] = ["stalematch.match", "inference.infer"];

/// A per-layer reading: the value and how many spans (or rounds) stand
/// behind it, plus the percentile actually used for a tail figure.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub n: usize,
    pub percentile: Option<f64>,
}

/// Reads every per-layer metric the trace has data for. A metric whose
/// layer did not run under this tracer is absent from the map.
pub fn read_layers(t: &Tracer) -> BTreeMap<&'static str, Reading> {
    let mut out = BTreeMap::new();
    let self_ns = t.self_ns();
    for (name, _, _, probe) in PER_LAYER {
        let reading = match probe {
            Probe::NsPerWork(span) => {
                let v: Vec<f64> = t
                    .spans()
                    .iter()
                    .filter(|s| s.name == span && s.work > 0)
                    .map(|s| s.dur_ns() as f64 / s.work as f64)
                    .collect();
                stats::median(&v).map(|m| (m, v.len(), None))
            }
            Probe::Us(span) => {
                let v = t.durations(span);
                stats::median(&v).map(|m| (m / 1e3, v.len(), None))
            }
            Probe::TailUs(span, want) => {
                let v = t.durations(span);
                stats::tail(&v, want).map(|(p, x)| (x / 1e3, v.len(), Some(p)))
            }
            Probe::TailMs(span, want) => {
                let v = t.durations(span);
                stats::tail(&v, want).map(|(p, x)| (x / 1e6, v.len(), Some(p)))
            }
            Probe::SelfMs(span) => {
                let v: Vec<f64> = t
                    .spans()
                    .iter()
                    .zip(&self_ns)
                    .filter(|(s, _)| s.name == span)
                    .map(|(_, own)| *own as f64)
                    .collect();
                stats::median(&v).map(|m| (m / 1e6, v.len(), None))
            }
            Probe::Count(counter) => t
                .rounds()
                .first()
                .and_then(|r| r.get(counter))
                .map(|&c| (c as f64, t.rounds().len(), None)),
            Probe::External => None,
        };
        if let Some((value, n, percentile)) = reading {
            out.insert(
                name,
                Reading {
                    value,
                    n,
                    percentile,
                },
            );
        }
    }
    out
}

/// Names of the work counts that differ between any two rounds of `t` —
/// fixed-work rounds must repeat every count exactly.
pub fn unstable_counts(t: &Tracer) -> Vec<&'static str> {
    let mut bad = Vec::new();
    if let Some((first, rest)) = t.rounds().split_first() {
        for r in rest {
            for (k, v) in first {
                if r.get(k) != Some(v) && !bad.contains(k) {
                    bad.push(*k);
                }
            }
        }
    }
    bad
}
