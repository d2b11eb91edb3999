//! Shared harness utilities for the experiment binaries (`fig6_perf`,
//! `fig7_codesize`, …) that regenerate the paper's tables and figures.
//!
//! PGO cycles are independent per (workload, variant) pair, so the harness
//! fans them out across a thread pool ([`run_variants`], [`par_map`]) and
//! reduces outcomes deterministically: results are re-ordered by the
//! variants' presentation order before the behavioural-equivalence check,
//! so completion order never changes what gets compared or printed.

use csspgo_codegen::Binary;
use csspgo_core::fleet::{EpochEvent, FleetStats, RefreshEvent};
use csspgo_core::pipeline::{
    profiling_build, profiling_run, run_pgo_cycle, PgoOutcome, PgoVariant, PipelineConfig,
    ProfilingRun, StageTimes,
};
use csspgo_core::{SnapshotFormat, Workload};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Scale factor applied to workload traffic; override with the
/// `CSSPGO_SCALE` environment variable (e.g. `0.1` for a quick pass).
/// An unparsable value warns on stderr and falls back to `1.0`.
pub fn traffic_scale() -> f64 {
    match std::env::var("CSSPGO_SCALE") {
        Err(_) => 1.0,
        Ok(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("warning: CSSPGO_SCALE={raw:?} is not a number; using scale 1.0");
                1.0
            }
        },
    }
}

/// Snapshot wire format for the serving bins' mid-stream self-check;
/// override with `CSSPGO_SNAPSHOT_FORMAT=text|binary`. An unrecognized
/// value warns on stderr and falls back to binary (the production
/// format), following the [`traffic_scale`] convention.
pub fn snapshot_format_from_env() -> SnapshotFormat {
    match std::env::var("CSSPGO_SNAPSHOT_FORMAT") {
        Err(_) => SnapshotFormat::Binary,
        Ok(raw) => match raw.parse() {
            Ok(fmt) => fmt,
            Err(e) => {
                eprintln!("warning: CSSPGO_SNAPSHOT_FORMAT: {e}; using binary");
                SnapshotFormat::Binary
            }
        },
    }
}

/// The standard experiment configuration.
pub fn experiment_config() -> PipelineConfig {
    PipelineConfig::default()
}

/// The profiling binary of `w` (probes on or off) and the profiling run of
/// its training traffic under `cfg` — stages 1–2 of the PGO cycle, the
/// shared set-up of the criterion benches and the ablation bins.
///
/// # Panics
///
/// Panics when a shipped workload fails to compile or run.
pub fn profiled(w: &Workload, probes: bool, cfg: &PipelineConfig) -> (Binary, ProfilingRun) {
    let variant = if probes {
        PgoVariant::CsspgoFull
    } else {
        PgoVariant::AutoFdo
    };
    let binary = profiling_build(&w.source, &w.name, variant, cfg)
        .expect("workload compiles")
        .binary;
    let run = profiling_run(&binary, w, cfg.sim_config(cfg.sample_period)).expect("workload runs");
    (binary, run)
}

/// Fans `f` out over `items` on the thread pool, returning results in input
/// order so printed reports stay deterministic. Thread count follows
/// `RAYON_NUM_THREADS`.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    items.into_par_iter().map(f).collect()
}

/// Presentation rank of a variant (its index in [`PgoVariant::ALL`]).
fn variant_rank(v: PgoVariant) -> usize {
    PgoVariant::ALL
        .iter()
        .position(|&x| x == v)
        .unwrap_or(PgoVariant::ALL.len())
}

/// Runs every requested variant for a workload concurrently, asserting
/// behavioural equivalence across variants (same eval-result hash).
///
/// The reduction is deterministic regardless of which cycle finishes
/// first: outcomes are sorted by presentation order before hashes are
/// compared, so a divergence is always reported against the same baseline
/// variant.
pub fn run_variants(
    workload: &Workload,
    variants: &[PgoVariant],
    config: &PipelineConfig,
) -> HashMap<PgoVariant, PgoOutcome> {
    let mut outcomes: Vec<(PgoVariant, PgoOutcome)> = variants
        .to_vec()
        .into_par_iter()
        .map(|v| {
            let o = run_pgo_cycle(workload, v, config)
                .unwrap_or_else(|e| panic!("{} / {v}: {e}", workload.name));
            (v, o)
        })
        .collect();
    outcomes.sort_by_key(|(v, _)| variant_rank(*v));
    let mut out = HashMap::new();
    let mut hash: Option<u64> = None;
    for (v, o) in outcomes {
        match hash {
            None => hash = Some(o.eval_result_hash),
            Some(h) => assert_eq!(
                h, o.eval_result_hash,
                "{} variant {v} changed program behaviour",
                workload.name
            ),
        }
        out.insert(v, o);
    }
    out
}

/// Percentage improvement of `new` over `base` (positive = faster).
/// A zero baseline yields `0.0` rather than a NaN/∞ that would poison
/// downstream aggregation.
pub fn improvement_pct(base_cycles: u64, new_cycles: u64) -> f64 {
    if base_cycles == 0 {
        return 0.0;
    }
    (base_cycles as f64 - new_cycles as f64) / base_cycles as f64 * 100.0
}

/// Percentage size delta of `new` vs `base` (negative = smaller). A zero
/// baseline yields `0.0` (see [`improvement_pct`]).
pub fn size_delta_pct(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) / base as f64 * 100.0
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// One cell of the per-stage speedup table: `old/new` as a ratio plus the
/// *signed* time delta (`(old − new) / old`, positive = faster). Unlike a
/// bare ratio, a regression is explicit — `0.50x (-100.0%)` — instead of
/// being readable as "small but fine". Missing or non-positive stage
/// times print `-` (nothing meaningful to compare).
pub fn speedup_cell(old: Option<f64>, new: Option<f64>) -> String {
    match (old, new) {
        (Some(old), Some(new)) if old > 0.0 && new > 0.0 => {
            format!("{:.2}x ({:+.1}%)", old / new, (old - new) / old * 100.0)
        }
        _ => "-".to_string(),
    }
}

/// Schema tag stamped on every emitted bench record. Bumped when the
/// record shape changes; consumers comparing against an older file key
/// their leniency off this string (`v1` files carried no tag at all).
pub const BENCH_SCHEMA: &str = "csspgo-bench-v2";

/// One (workload, variant) entry of `BENCH_pipeline.json`: per-stage wall
/// times of a PGO cycle, in milliseconds.
#[derive(Clone, Debug, Serialize)]
pub struct PipelineBenchRecord {
    /// Record-shape version ([`BENCH_SCHEMA`]).
    pub schema: String,
    pub workload: String,
    pub variant: String,
    pub compile_ms: f64,
    pub simulate_ms: f64,
    pub correlate_ms: f64,
    pub preinline_ms: f64,
    /// Binary (`binprof`) profile serialization time in the hand-off
    /// between correlation and recompilation.
    pub serialize_ms: f64,
    /// Binary profile load time on the consuming side of the hand-off.
    pub deserialize_ms: f64,
    /// Profile-inference time (min-cost-flow count repair) inside the
    /// recompile stage, carved out for visibility.
    pub inference_ms: f64,
    pub recompile_ms: f64,
    pub evaluate_ms: f64,
    pub total_ms: f64,
    /// Functions whose stale (checksum-mismatched) counts were dropped at
    /// annotation time. 0 for rows without an annotation stage (epoch
    /// ingest timings).
    pub stale_dropped: usize,
    /// Functions whose stale counts the matcher salvaged
    /// (`stale_matching: recover`).
    pub stale_recovered: usize,
    /// Blocks inference adjusted away from their raw measured counts
    /// (rows that measured inference only; additive in `csspgo-bench-v2`).
    pub counts_adjusted: Option<u64>,
    /// Total absolute count change inference applied.
    pub flow_moved: Option<u64>,
    /// Min-cost-flow routing cost of the repair.
    pub residual_cost: Option<u64>,
    /// Evaluation cycles of the recompiled binary (drift-comparison rows).
    pub eval_cycles: Option<u64>,
    /// Share of the clean-profile PGO cycle win this row retained, in
    /// percent (drift-comparison rows).
    pub cycles_retained_pct: Option<f64>,
    /// Counter sites placed in the profiling build (instrumented rows;
    /// additive in `csspgo-bench-v2` — older files simply lack it).
    pub counter_sites: Option<u64>,
    /// Cycles of the profiling run on the instrumented binary — the
    /// runtime overhead the counter placement is trying to shrink.
    pub profile_cycles: Option<u64>,
    /// Share of the annotated module's weight that is stale-matcher
    /// salvage, in percent (drift-comparison rows).
    pub salvaged_weight_pct: Option<f64>,
    /// Share of the annotated module's weight that is solver-inferred, in
    /// percent (drift-comparison rows).
    pub inferred_weight_pct: Option<f64>,
}

impl PipelineBenchRecord {
    /// Builds a record from a cycle's [`StageTimes`].
    pub fn new(workload: &str, variant: PgoVariant, t: &StageTimes) -> Self {
        Self::labeled(workload, &variant.to_string(), t)
    }

    /// Builds a record with a free-form label in the `variant` column —
    /// how non-cycle rows (e.g. `profile_serve`'s per-epoch ingest
    /// timings, labeled `epoch-N`) share the `BENCH_pipeline.json` shape.
    pub fn labeled(workload: &str, label: &str, t: &StageTimes) -> Self {
        PipelineBenchRecord {
            schema: BENCH_SCHEMA.to_string(),
            workload: workload.to_string(),
            variant: label.to_string(),
            compile_ms: t.compile_ms,
            simulate_ms: t.simulate_ms,
            correlate_ms: t.correlate_ms,
            preinline_ms: t.preinline_ms,
            serialize_ms: t.serialize_ms,
            deserialize_ms: t.deserialize_ms,
            inference_ms: t.inference_ms,
            recompile_ms: t.recompile_ms,
            evaluate_ms: t.evaluate_ms,
            total_ms: t.total_ms(),
            stale_dropped: 0,
            stale_recovered: 0,
            counts_adjusted: None,
            flow_moved: None,
            residual_cost: None,
            eval_cycles: None,
            cycles_retained_pct: None,
            counter_sites: None,
            profile_cycles: None,
            salvaged_weight_pct: None,
            inferred_weight_pct: None,
        }
    }

    /// Attaches annotation stale-handling counters (for rows that ran an
    /// annotation stage, e.g. `profile_serve`'s drift `refresh`).
    pub fn with_stale(mut self, dropped: usize, recovered: usize) -> Self {
        self.stale_dropped = dropped;
        self.stale_recovered = recovered;
        self
    }

    /// Attaches inference repair-effort counters (drift-comparison rows).
    pub fn with_inference(mut self, adjusted: u64, moved: u64, cost: u64) -> Self {
        self.counts_adjusted = Some(adjusted);
        self.flow_moved = Some(moved);
        self.residual_cost = Some(cost);
        self
    }

    /// Attaches the recompiled binary's evaluation cycles.
    pub fn with_eval_cycles(mut self, cycles: u64) -> Self {
        self.eval_cycles = Some(cycles);
        self
    }

    /// Attaches the retained share of the clean-profile win, in percent.
    pub fn with_retained(mut self, pct: f64) -> Self {
        self.cycles_retained_pct = Some(pct);
        self
    }

    /// Attaches instrumentation-overhead measurements: counter sites in
    /// the profiling build and the instrumented profiling run's cycles.
    pub fn with_instrumentation(mut self, sites: u64, profile_cycles: u64) -> Self {
        self.counter_sites = Some(sites);
        self.profile_cycles = Some(profile_cycles);
        self
    }

    /// Attaches the annotated module's provenance mix (salvaged and
    /// inferred weight shares, in percent).
    pub fn with_provenance_pcts(mut self, salvaged: f64, inferred: f64) -> Self {
        self.salvaged_weight_pct = Some(salvaged);
        self.inferred_weight_pct = Some(inferred);
        self
    }
}

/// Writes the perf-trajectory records as pretty JSON to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_pipeline_bench(path: &str, records: &[PipelineBenchRecord]) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(records).expect("stage times always serialize");
    std::fs::write(path, json)
}

/// The per-stage columns shared by [`PipelineBenchRecord`] and
/// [`PrevBenchRecord`], in presentation order.
pub const BENCH_STAGES: [&str; 9] = [
    "compile_ms",
    "simulate_ms",
    "correlate_ms",
    "preinline_ms",
    "serialize_ms",
    "deserialize_ms",
    "inference_ms",
    "recompile_ms",
    "evaluate_ms",
];

impl PipelineBenchRecord {
    /// Looks a stage column up by its [`BENCH_STAGES`] name.
    pub fn stage(&self, stage: &str) -> Option<f64> {
        match stage {
            "compile_ms" => Some(self.compile_ms),
            "simulate_ms" => Some(self.simulate_ms),
            "correlate_ms" => Some(self.correlate_ms),
            "preinline_ms" => Some(self.preinline_ms),
            "serialize_ms" => Some(self.serialize_ms),
            "deserialize_ms" => Some(self.deserialize_ms),
            "inference_ms" => Some(self.inference_ms),
            "recompile_ms" => Some(self.recompile_ms),
            "evaluate_ms" => Some(self.evaluate_ms),
            "total_ms" => Some(self.total_ms),
            _ => None,
        }
    }
}

/// A leniently-parsed record from a previously written
/// `BENCH_pipeline.json`. Every column is optional so files written by
/// older harness versions — no `schema` tag, no serialize/deserialize
/// stages — still load for the cross-run speedup comparison.
#[derive(Clone, Debug, Deserialize)]
pub struct PrevBenchRecord {
    pub schema: Option<String>,
    pub workload: String,
    pub variant: String,
    pub compile_ms: Option<f64>,
    pub simulate_ms: Option<f64>,
    pub correlate_ms: Option<f64>,
    pub preinline_ms: Option<f64>,
    pub serialize_ms: Option<f64>,
    pub deserialize_ms: Option<f64>,
    pub inference_ms: Option<f64>,
    pub recompile_ms: Option<f64>,
    pub evaluate_ms: Option<f64>,
    pub total_ms: Option<f64>,
}

impl PrevBenchRecord {
    /// Looks a stage column up by its [`BENCH_STAGES`] name.
    pub fn stage(&self, stage: &str) -> Option<f64> {
        match stage {
            "compile_ms" => self.compile_ms,
            "simulate_ms" => self.simulate_ms,
            "correlate_ms" => self.correlate_ms,
            "preinline_ms" => self.preinline_ms,
            "serialize_ms" => self.serialize_ms,
            "deserialize_ms" => self.deserialize_ms,
            "inference_ms" => self.inference_ms,
            "recompile_ms" => self.recompile_ms,
            "evaluate_ms" => self.evaluate_ms,
            "total_ms" => self.total_ms,
            _ => None,
        }
    }
}

/// Reads a previously written `BENCH_pipeline.json` if one exists and
/// parses. Unreadable or unparsable files are reported on stderr and
/// treated as absent — a stale baseline must never fail a fresh run.
pub fn read_pipeline_bench(path: &str) -> Option<Vec<PrevBenchRecord>> {
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::from_str(&text) {
        Ok(records) => Some(records),
        Err(e) => {
            eprintln!("warning: ignoring unparsable previous run at {path}: {e}");
            None
        }
    }
}

/// Schema tag on `BENCH_profile_fleet.json`.
pub const FLEET_SCHEMA: &str = "csspgo-fleet-v1";

/// One per-tenant epoch row of `BENCH_profile_fleet.json`: the
/// [`PipelineBenchRecord`] stage columns plus fleet context — tenant,
/// version, residency, and eviction counters.
#[derive(Clone, Debug, Serialize)]
pub struct FleetBenchRecord {
    /// Record-shape version ([`FLEET_SCHEMA`]).
    pub schema: String,
    /// Tenant id (`t0`, `t1`, …).
    pub tenant: String,
    pub workload: String,
    /// Binary version label (`v0`, `v1`, …).
    pub version: String,
    /// Row label: `epoch-N`, `drift-probe`, or `refresh`.
    pub label: String,
    pub samples: u64,
    /// Epoch-to-epoch probe-weight overlap (1.0 for non-epoch rows).
    pub overlap: f64,
    pub stale: bool,
    /// Context nodes resident after the row (beyond base profiles).
    pub resident_contexts: usize,
    /// Subtrees evicted by this row's cap enforcement.
    pub evicted_subtrees: usize,
    /// Weight this row's eviction folded into base profiles.
    pub evicted_weight: u64,
    pub total_ms: f64,
    /// Stale-matching counters (refresh rows only).
    pub stale_dropped: usize,
    pub stale_recovered: usize,
}

impl FleetBenchRecord {
    /// Builds an epoch row from a fleet [`EpochEvent`].
    pub fn epoch(e: &EpochEvent) -> Self {
        FleetBenchRecord {
            schema: FLEET_SCHEMA.to_string(),
            tenant: e.tenant.to_string(),
            workload: e.workload.clone(),
            version: e.version.clone(),
            label: e.label.clone(),
            samples: e.summary.samples as u64,
            overlap: e.summary.overlap,
            stale: e.summary.stale,
            resident_contexts: e.resident_contexts,
            evicted_subtrees: e.evicted_this_epoch.subtrees,
            evicted_weight: e.evicted_this_epoch.weight_folded,
            total_ms: e.stage_times.total_ms(),
            stale_dropped: 0,
            stale_recovered: 0,
        }
    }

    /// Builds a refresh row from a fleet [`RefreshEvent`].
    pub fn refresh(e: &RefreshEvent) -> Self {
        FleetBenchRecord {
            schema: FLEET_SCHEMA.to_string(),
            tenant: e.tenant.to_string(),
            workload: e.workload.clone(),
            version: e.version.clone(),
            label: "refresh".to_string(),
            samples: 0,
            overlap: 1.0,
            stale: true,
            resident_contexts: 0,
            evicted_subtrees: 0,
            evicted_weight: 0,
            total_ms: e.stage_times.total_ms(),
            stale_dropped: e.stale_dropped,
            stale_recovered: e.stale_recovered,
        }
    }
}

/// Fleet-wide aggregates of `BENCH_profile_fleet.json`.
#[derive(Clone, Debug, Serialize)]
pub struct FleetBenchAggregates {
    pub tenants: usize,
    pub versions: usize,
    pub epochs_sealed: u64,
    pub total_samples: u64,
    /// Context nodes resident across the fleet at the end of the run.
    pub resident_contexts: usize,
    /// Cold-context subtrees evicted fleet-wide.
    pub evicted_subtrees: usize,
    /// Weight folded into base profiles fleet-wide (conserved).
    pub evicted_weight: u64,
    /// Drift refreshes that ran.
    pub refreshes_triggered: usize,
    /// Drift refreshes dropped at the bounded queue.
    pub refreshes_dropped: usize,
}

impl From<FleetStats> for FleetBenchAggregates {
    fn from(s: FleetStats) -> Self {
        FleetBenchAggregates {
            tenants: s.tenants,
            versions: s.versions,
            epochs_sealed: s.epochs_sealed,
            total_samples: s.total_samples,
            resident_contexts: s.resident_contexts,
            evicted_subtrees: s.evicted.subtrees,
            evicted_weight: s.evicted.weight_folded,
            refreshes_triggered: s.refreshes_triggered,
            refreshes_dropped: s.refreshes_dropped,
        }
    }
}

/// The `BENCH_profile_fleet.json` document: per-tenant rows + aggregates.
#[derive(Clone, Debug, Serialize)]
pub struct FleetBenchReport {
    /// Record-shape version ([`FLEET_SCHEMA`]).
    pub schema: String,
    pub records: Vec<FleetBenchRecord>,
    pub aggregates: FleetBenchAggregates,
}

impl FleetBenchReport {
    /// Assembles the document (stamps the schema tag).
    pub fn new(records: Vec<FleetBenchRecord>, stats: FleetStats) -> Self {
        FleetBenchReport {
            schema: FLEET_SCHEMA.to_string(),
            records,
            aggregates: stats.into(),
        }
    }
}

/// Writes the fleet report as pretty JSON to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_fleet_bench(path: &str, report: &FleetBenchReport) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).expect("fleet records always serialize");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100, 95), 5.0);
        assert_eq!(improvement_pct(100, 105), -5.0);
        assert_eq!(size_delta_pct(100, 95), -5.0);
    }

    #[test]
    fn zero_baselines_do_not_divide() {
        assert_eq!(improvement_pct(0, 50), 0.0);
        assert_eq!(size_delta_pct(0, 50), 0.0);
        assert!(improvement_pct(0, 0).is_finite());
    }

    #[test]
    fn speedup_cells_are_signed() {
        assert_eq!(speedup_cell(Some(2.0), Some(1.0)), "2.00x (+50.0%)");
        assert_eq!(
            speedup_cell(Some(1.0), Some(2.0)),
            "0.50x (-100.0%)",
            "a regression must print with an explicit sign, not clamp"
        );
        assert_eq!(speedup_cell(Some(1.0), Some(1.0)), "1.00x (+0.0%)");
        assert_eq!(speedup_cell(None, Some(1.0)), "-");
        assert_eq!(speedup_cell(Some(1.0), None), "-");
        assert_eq!(speedup_cell(Some(0.0), Some(1.0)), "-");
        assert_eq!(speedup_cell(Some(1.0), Some(0.0)), "-");
    }

    #[test]
    fn par_map_preserves_input_order() {
        let squares = par_map((0..64u64).collect(), |x| x * x);
        assert_eq!(squares, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_run_variants_matches_sequential_hashes() {
        let src = r#"
fn work(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + i * 3;
        i = i + 1;
    }
    return s;
}
"#;
        let w = Workload::new("mini", src, "work", vec![vec![400]; 2], vec![vec![401]; 2]);
        let cfg = PipelineConfig::builder()
            .sample_period(61)
            .build()
            .expect("valid test config");
        let out = run_variants(&w, &PgoVariant::ALL, &cfg);
        assert_eq!(out.len(), PgoVariant::ALL.len());
        let first = out[&PgoVariant::O2].eval_result_hash;
        for v in PgoVariant::ALL {
            assert_eq!(out[&v].eval_result_hash, first);
        }
        // Sequential reference: same hashes, same outcome fields that matter.
        for v in [PgoVariant::AutoFdo, PgoVariant::CsspgoFull] {
            let seq = run_pgo_cycle(&w, v, &cfg).unwrap();
            assert_eq!(seq.eval_result_hash, out[&v].eval_result_hash);
            assert_eq!(seq.eval.cycles, out[&v].eval.cycles);
            assert_eq!(seq.sections.text, out[&v].sections.text);
        }
    }

    #[test]
    fn pipeline_bench_records_serialize() {
        let t = StageTimes {
            compile_ms: 1.0,
            simulate_ms: 2.0,
            correlate_ms: 3.0,
            preinline_ms: 0.5,
            serialize_ms: 0.25,
            deserialize_ms: 0.125,
            inference_ms: 0.0625,
            recompile_ms: 4.0,
            evaluate_ms: 1.5,
        };
        let rec = PipelineBenchRecord::new("hhvm", PgoVariant::CsspgoFull, &t)
            .with_stale(2, 5)
            .with_inference(7, 120, 999)
            .with_eval_cycles(5000)
            .with_retained(83.5);
        assert_eq!(rec.total_ms, t.total_ms());
        assert_eq!(rec.schema, BENCH_SCHEMA);
        assert_eq!((rec.stale_dropped, rec.stale_recovered), (2, 5));
        assert_eq!(rec.stage("inference_ms"), Some(0.0625));
        assert_eq!(rec.counts_adjusted, Some(7));
        assert_eq!(rec.cycles_retained_pct, Some(83.5));
        for stage in BENCH_STAGES {
            assert!(rec.stage(stage).is_some(), "missing stage {stage}");
        }
        let json = serde_json::to_string(&vec![rec]).unwrap();
        assert!(json.contains("\"correlate_ms\""), "{json}");
        assert!(json.contains("\"serialize_ms\""), "{json}");
        assert!(json.contains("\"inference_ms\""), "{json}");
        assert!(json.contains("\"schema\""), "{json}");
        assert!(json.contains("\"stale_recovered\":5"), "{json}");
        assert!(json.contains("\"eval_cycles\":5000"), "{json}");
        assert!(json.contains("hhvm"), "{json}");
    }

    #[test]
    fn fleet_report_serializes() {
        use csspgo_core::fleet::TenantId;
        use csspgo_core::{EpochSummary, EvictStats};

        let epoch = EpochEvent {
            tenant: TenantId(3),
            workload: "ad_ranker".to_string(),
            version: "v1".to_string(),
            label: "epoch-2".to_string(),
            summary: EpochSummary {
                epoch: 2,
                samples: 512,
                overlap: 0.9,
                ..EpochSummary::default()
            },
            stage_times: StageTimes {
                simulate_ms: 2.0,
                correlate_ms: 1.0,
                ..StageTimes::default()
            },
            resident_contexts: 40,
            evicted_this_epoch: EvictStats {
                subtrees: 2,
                nodes_folded: 5,
                weight_folded: 99,
            },
            evicted_total: EvictStats::default(),
        };
        let refresh = RefreshEvent {
            tenant: TenantId(3),
            workload: "ad_ranker".to_string(),
            version: "v1".to_string(),
            stage_times: StageTimes::default(),
            stale_dropped: 1,
            stale_recovered: 4,
            eval_cycles: 1000,
        };
        let records = vec![
            FleetBenchRecord::epoch(&epoch),
            FleetBenchRecord::refresh(&refresh),
        ];
        assert_eq!(records[0].tenant, "t3");
        assert_eq!(records[0].evicted_weight, 99);
        assert_eq!(records[1].label, "refresh");
        assert_eq!(records[1].stale_recovered, 4);

        let report = FleetBenchReport::new(records, FleetStats::default());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains(FLEET_SCHEMA), "{json}");
        assert!(json.contains("\"resident_contexts\""), "{json}");
        assert!(json.contains("\"refreshes_triggered\""), "{json}");
    }

    #[test]
    fn previous_run_parses_leniently() {
        // A v1-era file: no schema tag, no serialize/deserialize columns.
        let v1 = r#"[{
            "workload": "hhvm",
            "variant": "AutoFDO",
            "compile_ms": 1.0,
            "simulate_ms": 2.0,
            "correlate_ms": 3.0,
            "preinline_ms": 0.0,
            "recompile_ms": 4.0,
            "evaluate_ms": 1.5,
            "total_ms": 11.5
        }]"#;
        let records: Vec<PrevBenchRecord> = serde_json::from_str(v1).unwrap();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.schema, None);
        assert_eq!(r.stage("correlate_ms"), Some(3.0));
        assert_eq!(r.stage("serialize_ms"), None);
        assert_eq!(r.stage("inference_ms"), None);

        // A fresh record survives the same lenient parse round-trip.
        let t = StageTimes {
            serialize_ms: 0.5,
            ..StageTimes::default()
        };
        let rec = PipelineBenchRecord::labeled("hhvm", "epoch-0", &t);
        let json = serde_json::to_string(&vec![rec]).unwrap();
        let back: Vec<PrevBenchRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back[0].schema.as_deref(), Some(BENCH_SCHEMA));
        assert_eq!(back[0].stage("serialize_ms"), Some(0.5));
    }
}
