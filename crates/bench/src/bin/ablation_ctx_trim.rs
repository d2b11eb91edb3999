//! **Ablation (paper §III.B "Scalability")**: context-profile size vs the
//! cold-context trimming threshold.
//!
//! Paper: "for programs with a dense dynamic call graph, profile size
//! increase due to context-sensitivity can be on the order of 10x ... our
//! mitigation can produce context-sensitive profile comparable in size to
//! regular profile, without losing its benefit."

use csspgo_bench::{experiment_config, improvement_pct, profiled, traffic_scale};
use csspgo_core::pipeline::{probe_only_profile, run_pgo_cycle, PgoVariant};

/// Entries in a flat probe profile (function profiles plus nested call-site
/// sub-profiles) — the size proxy matching the trie's node count.
fn flat_profile_nodes(fp: &csspgo_core::profile::ProbeProfile) -> usize {
    fn nodes(p: &csspgo_core::profile::ProbeFuncProfile) -> usize {
        1 + p.callsites.values().map(nodes).sum::<usize>()
    }
    fp.funcs.values().map(nodes).sum()
}

fn main() {
    let mut cfg = experiment_config();
    let scale = traffic_scale();
    println!("# Ablation — cold-context trimming (haas), scale={scale}");
    let w = csspgo_workloads::haas().scaled(scale);
    // Build the context-insensitive (probe-only) profile size baseline.
    let flat_funcs = {
        let (b, run) = profiled(&w, true, &cfg);
        flat_profile_nodes(&probe_only_profile(&b, &run.samples, cfg.ingest_shards))
    };
    println!("(context-insensitive profile: {flat_funcs} profile nodes)");
    println!("| trim threshold | trie nodes before | after | size vs flat | perf vs AutoFDO |");
    println!("|---|---|---|---|---|");
    let autofdo = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).expect("autofdo");
    for threshold in [0u64, 4, 16, 64, 256] {
        cfg.trim_threshold = threshold;
        let o = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg).expect("full");
        let ratio = o.context_nodes_after_trim as f64 / flat_funcs.max(1) as f64;
        println!(
            "| {threshold} | {} | {} | {ratio:.1}x | {:+.2}% |",
            o.context_nodes_before_trim,
            o.context_nodes_after_trim,
            improvement_pct(autofdo.eval.cycles, o.eval.cycles),
        );
    }
}
