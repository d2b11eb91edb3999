//! **Ablation (paper §III.B "Synchronizing LBR and stack sample")**: PEBS
//! on vs off.
//!
//! "Due to sampling skid, we observed that stack sample can sometimes lag
//! behind LBR sample by one frame. Fortunately, PEBS can be used to
//! eliminate the skid so both stack sample and LBR sample are always
//! synchronized."
//!
//! Without PEBS our simulator drops the leaf frame from ~1/3 of stack
//! samples; the unwinder then reconstructs fewer and shallower contexts,
//! and end-to-end CSSPGO performance suffers.

use csspgo_bench::{experiment_config, improvement_pct, profiled, traffic_scale};
use csspgo_core::pipeline::{context_profile, run_pgo_cycle, PgoVariant};

fn main() {
    let mut cfg = experiment_config();
    let scale = traffic_scale();
    println!("# Ablation — PEBS vs sampling skid (ad_retriever), scale={scale}");
    let w = csspgo_workloads::ad_retriever().scaled(scale);

    let autofdo = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).expect("autofdo");

    println!(
        "| sampling | broken stacks | context samples | trie nodes | full CSSPGO vs AutoFDO |"
    );
    println!("|---|---|---|---|---|");
    for pebs in [true, false] {
        cfg.pebs = pebs;
        // Direct unwinder statistics on the probed profiling binary.
        let (b, run) = profiled(&w, true, &cfg);
        let unwound = context_profile(&b, &run.samples, cfg.ingest_shards);

        let outcome = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg).expect("full");
        println!(
            "| {} | {} | {} | {} | {:+.2}% |",
            if pebs {
                "PEBS (`:upp`)"
            } else {
                "no PEBS (skid)"
            },
            unwound.broken_stacks,
            unwound.profile.total(),
            unwound.profile.node_count(),
            improvement_pct(autofdo.eval.cycles, outcome.eval.cycles),
        );
    }
    println!("\n(the paper's `perf record -g --call-graph fp -e br_inst_retired.near_taken:upp`)");
}
