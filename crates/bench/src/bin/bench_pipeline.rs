//! Two deterministic comparisons over every server workload, printed as
//! markdown tables (simulated cycles and counters only — wall time is
//! measured by `benchmark/run.sh`, nowhere else):
//!
//! 1. The instrumented variant under both counter placements
//!    (`instr-full` / `instr-sptree`): the overhead delta the Ball–Larus
//!    spanning-tree placement buys over naive every-block counting, at
//!    identical ground-truth profiles.
//! 2. The fig6-style drifted-profile comparison: each workload's profile is
//!    collected on the clean build while the optimized build compiles a
//!    CFG-changed source, stale recovery salvages the counts and
//!    min-cost-flow inference repairs them. Rows carry eval cycles, how much
//!    of the clean-profile win over `-O2` the drifted cycle retained, the
//!    repair-effort counters and the provenance mix of the annotated weight.

use csspgo_bench::{experiment_config, par_map, traffic_scale};
use csspgo_core::pipeline::{run_pgo_cycle, run_pgo_cycle_drifted, PgoVariant, PipelineConfig};
use csspgo_core::stalematch::StaleMatching;
use csspgo_core::Workload;
use csspgo_opt::instrument::Placement;
use csspgo_workloads::drift;

/// One instrumented cycle under one counter placement.
struct InstrRow {
    label: &'static str,
    counter_sites: usize,
    profile_cycles: u64,
    eval_cycles: u64,
}

/// Runs the instrumented variant under both counter placements and prints
/// the overhead table plus the per-workload "counters kept" summary.
fn instrumentation_table(workloads: &[Workload], cfg: &PipelineConfig) {
    let per_workload = par_map(workloads.to_vec(), |w| {
        [
            ("instr-full", Placement::Full),
            ("instr-sptree", Placement::SpanningTree),
        ]
        .map(|(label, placement)| {
            let mut icfg = cfg.clone();
            icfg.instrument.placement = placement;
            let o = run_pgo_cycle(&w, PgoVariant::Instr, &icfg)
                .unwrap_or_else(|e| panic!("{} / {label}: {e}", w.name));
            InstrRow {
                label,
                counter_sites: o.counter_sites,
                profile_cycles: o.profiling.cycles,
                eval_cycles: o.eval.cycles,
            }
        })
    });

    println!("\n# Instrumentation overhead (full vs spanning-tree counter placement)");
    println!("| workload | row | counter sites | profiling cycles | eval cycles |");
    println!("|---|---|---|---|---|");
    for (w, rows) in workloads.iter().zip(&per_workload) {
        for r in rows {
            println!(
                "| {} | {} | {} | {} | {} |",
                w.name, r.label, r.counter_sites, r.profile_cycles, r.eval_cycles,
            );
        }
    }
    for (w, [full, sp]) in workloads.iter().zip(&per_workload) {
        let (full, sp) = (full.counter_sites, sp.counter_sites);
        if full > 0 {
            println!(
                "{}: {sp} of {full} counters kept ({:.1}% fewer)",
                w.name,
                (full - sp.min(full)) as f64 / full as f64 * 100.0
            );
        }
    }
}

/// One row of the drifted-profile comparison.
struct DriftRow {
    label: &'static str,
    eval_cycles: u64,
    /// Share of the clean-profile win over `-O2` this row retained (%).
    retained_pct: Option<f64>,
    /// Inference repair effort: counts adjusted, flow moved, residual cost.
    repair: Option<[u64; 3]>,
    /// Stale-matcher-salvaged and solver-inferred shares of the annotated
    /// weight (%).
    provenance: Option<[f64; 2]>,
}

/// Runs the drifted-profile inference comparison and prints its table:
/// `-O2` and clean `CSSPGO (full)` anchor the retained-win scale, then the
/// CFG-drifted cycle runs with stale recovery (and the default MCF
/// inference).
fn drift_table(workloads: &[Workload], cfg: &PipelineConfig) {
    let per_workload = par_map(workloads.to_vec(), |w| {
        let drifted_src = drift::change_cfg(&w.source);
        let o2 = run_pgo_cycle(&w, PgoVariant::O2, cfg)
            .unwrap_or_else(|e| panic!("{} / O2: {e}", w.name));
        let clean = run_pgo_cycle(&w, PgoVariant::CsspgoFull, cfg)
            .unwrap_or_else(|e| panic!("{} / clean: {e}", w.name));
        // Retained % is only meaningful when the clean profile actually
        // beats -O2 (it may not at small traffic scales); the drifted rows
        // then measure how much of that win survives, signed — a drifted
        // profile that makes the binary slower than -O2 goes negative.
        let clean_win = o2.eval.cycles as f64 - clean.eval.cycles as f64;
        let retained_pct = |cycles: u64| {
            (clean_win > 0.0).then(|| (o2.eval.cycles as f64 - cycles as f64) / clean_win * 100.0)
        };

        let mut dcfg = cfg.clone();
        dcfg.annotate.stale_matching = StaleMatching::Recover;
        let drifted = run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &dcfg, &drifted_src)
            .unwrap_or_else(|e| panic!("{} / drift-mcf: {e}", w.name));
        let inf = drifted.annotate_stats.inference;
        let prov = drifted.annotate_stats.provenance;
        let total = prov.total() as f64;
        vec![
            DriftRow {
                label: "drift-O2",
                eval_cycles: o2.eval.cycles,
                retained_pct: None,
                repair: None,
                provenance: None,
            },
            DriftRow {
                label: "drift-clean",
                eval_cycles: clean.eval.cycles,
                retained_pct: retained_pct(clean.eval.cycles),
                repair: None,
                provenance: None,
            },
            DriftRow {
                label: "drift-mcf",
                eval_cycles: drifted.eval.cycles,
                retained_pct: retained_pct(drifted.eval.cycles),
                repair: Some([inf.counts_adjusted, inf.flow_moved, inf.residual_cost]),
                provenance: (prov.total() > 0).then(|| {
                    [
                        prov.stale_matched as f64 / total * 100.0,
                        prov.inferred as f64 / total * 100.0,
                    ]
                }),
            },
        ]
    });

    println!("\n# Drifted-profile inference comparison (change_cfg drift, stale recovery on)");
    println!("| workload | row | eval cycles | retained % | counts adjusted | flow moved | residual cost | salvaged % | inferred % |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let fmt_u = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
    let fmt_p = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |p| format!("{p:.1}"));
    for (w, rows) in workloads.iter().zip(&per_workload) {
        for r in rows {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                w.name,
                r.label,
                r.eval_cycles,
                fmt_p(r.retained_pct),
                fmt_u(r.repair.map(|x| x[0])),
                fmt_u(r.repair.map(|x| x[1])),
                fmt_u(r.repair.map(|x| x[2])),
                fmt_p(r.provenance.map(|x| x[0])),
                fmt_p(r.provenance.map(|x| x[1])),
            );
        }
    }
}

fn main() {
    let cfg = experiment_config();
    let scale = traffic_scale();
    let workloads: Vec<_> = csspgo_workloads::server_workloads()
        .into_iter()
        .map(|w| w.scaled(scale))
        .collect();

    println!("# bench_pipeline, scale={scale}");
    instrumentation_table(&workloads, &cfg);
    drift_table(&workloads, &cfg);
}
