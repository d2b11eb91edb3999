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
    ProfilingRun,
};
use csspgo_core::Workload;
use rayon::prelude::*;
use serde::Serialize;
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

/// The standard experiment configuration.
pub fn experiment_config() -> PipelineConfig {
    PipelineConfig::default()
}

/// The profiling binary of `w` (probes on or off) and the profiling run of
/// its training traffic under `cfg` — stages 1–2 of the PGO cycle, the
/// shared set-up of the ablation bins.
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

/// Schema tag on `BENCH_profile_fleet.json`.
pub const FLEET_SCHEMA: &str = "csspgo-fleet-v1";

/// One per-tenant epoch row of `BENCH_profile_fleet.json`: tenant,
/// version, drift verdict, residency, and eviction counters.
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
}
