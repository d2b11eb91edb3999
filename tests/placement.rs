//! Integration tests for Ball–Larus minimal counter placement: the sparse
//! mode must cut counter sites by at least the paper's 30% headline on
//! every server workload, and — because the Kirchhoff reconstruction is
//! exact — produce a bit-identical profile and optimized binary. The static
//! prover (`common/flow_prover.rs`) certifies, without executing anything,
//! every placement the planner emits for the six workloads and for
//! generated programs, and refutes hand-broken ones.

use csspgo::core::pipeline::{run_pgo_cycle, PgoVariant, PipelineConfig};
use csspgo::ir::cfg;
use csspgo::ir::flow::{self, CounterHost, CounterSite, MeasurementPlan};
use csspgo::ir::Module;
use csspgo::opt::instrument::{self, InstrumentConfig, Placement};
use csspgo::workloads::server_workloads;
use proptest::prelude::*;

#[path = "common/flow_prover.rs"]
mod flow_prover;
#[allow(dead_code)] // `build` lowers to a binary; placements are planned on IR
#[path = "common/program_gen.rs"]
mod program_gen;
use flow_prover::prove_plan;
use program_gen::{program_strategy, render_program};

/// Asserts the prover certifies the planned placement of every function of
/// `module` that has one (exit-free functions fall back to full per-block
/// counting and are trivially recoverable). Returns how many it proved.
fn assert_planned_placements_certified(module: &Module) -> usize {
    let mut proven = 0;
    for func in &module.functions {
        let plan = flow::plan_function(func);
        if plan.full_fallback {
            continue;
        }
        let proof = prove_plan(func, &plan);
        assert!(
            proof.certified(),
            "{}::{}: {proof:#?}",
            module.name,
            func.name
        );
        assert_eq!(
            proof.counted + proof.derived,
            flow::flow_edges(func).len(),
            "every edge is measured or derived"
        );
        proven += 1;
    }
    proven
}

fn compile(src: &str) -> Module {
    csspgo::lang::compile(src, "t").unwrap()
}

#[test]
fn planned_placements_prove_clean_on_every_workload() {
    let mut workloads = server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    for w in workloads {
        let module = csspgo::lang::compile(&w.source, &w.name).expect("workload compiles");
        let proven = assert_planned_placements_certified(&module);
        assert_eq!(proven, module.functions.len(), "{}", w.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_placements_prove_clean_on_generated_programs(
        program in program_strategy(),
    ) {
        let module = compile(&render_program(&program));
        prop_assert_eq!(assert_planned_placements_certified(&module), 3);
    }
}

#[test]
fn empty_placement_is_unrecoverable() {
    let m = compile("fn f(x) { if (x > 0) { return 1; } return 2; }");
    let f = &m.functions[0];
    let plan = MeasurementPlan {
        counters: vec![],
        num_nodes: 0,
        full_fallback: false,
    };
    let proof = prove_plan(f, &plan);
    assert!(!proof.certified());
    assert!(!proof.unrecoverable.is_empty());
    assert!(!proof.entry_derivable);
}

#[test]
fn over_instrumentation_is_redundant() {
    let m = compile("fn f(x) { if (x > 0) { return 1; } return 2; }");
    let f = &m.functions[0];
    // Measure every edge at its natural host: massively redundant.
    let (preds, reach) = (cfg::predecessors(f), cfg::reachable(f));
    let counters: Vec<CounterSite> = flow::flow_edges(f)
        .into_iter()
        .map(|edge| CounterSite {
            edge,
            host: flow::counter_host(f, &preds, &reach, edge).unwrap_or(CounterHost::Split),
        })
        .collect();
    let plan = MeasurementPlan {
        num_nodes: 0,
        counters,
        full_fallback: false,
    };
    let proof = prove_plan(f, &plan);
    assert!(proof.unrecoverable.is_empty());
    assert!(!proof.redundant.is_empty());
}

#[test]
fn unsplit_critical_edge_is_flagged() {
    let m = compile(
        "fn f(x, y) { let r = 0; if (x > 0) { r = 1; } if (y > 0) { r = r + 2; } return r; }",
    );
    let f = &m.functions[0];
    // Corrupt every Split host into a bogus block host.
    let mut bad = flow::plan_function(f);
    let mut corrupted = false;
    for site in &mut bad.counters {
        if site.host == CounterHost::Split {
            site.host = CounterHost::Block(f.entry);
            corrupted = true;
        }
    }
    if !corrupted {
        // Shape produced no critical edge; corrupt a block host whose
        // correct witness is not the entry block.
        let (preds, reach) = (cfg::predecessors(f), cfg::reachable(f));
        let site = bad
            .counters
            .iter_mut()
            .find(|s| {
                flow::counter_host(f, &preds, &reach, s.edge) != Some(CounterHost::Block(f.entry))
            })
            .expect("some counter has a non-entry host");
        site.host = CounterHost::Block(f.entry);
    }
    let proof = prove_plan(f, &bad);
    assert!(!proof.bad_host.is_empty());
    assert!(!proof.certified());
}

/// Counter sites each placement plants in a workload's profiling build.
fn count_sites(source: &str, name: &str, placement: Placement) -> usize {
    let mut module = csspgo::lang::compile(source, name).expect("workload compiles");
    csspgo::opt::discriminators::run(&mut module);
    let map = instrument::run_with(&mut module, &InstrumentConfig { placement });
    map.len()
}

#[test]
fn spanning_tree_cuts_counters_by_thirty_percent_on_every_server_workload() {
    for w in server_workloads() {
        let full = count_sites(&w.source, &w.name, Placement::Full);
        let sparse = count_sites(&w.source, &w.name, Placement::SpanningTree);
        assert!(
            (sparse as f64) <= 0.7 * full as f64,
            "{}: spanning-tree placement kept {sparse} of {full} counters \
             (needs >=30% reduction)",
            w.name
        );
    }
}

#[test]
fn sparse_instrumentation_profile_is_bit_identical_to_full() {
    for w in server_workloads() {
        let w = w.scaled(0.05);
        let cfg = |p: Placement| {
            let mut cfg = PipelineConfig::default();
            cfg.instrument.placement = p;
            cfg
        };
        let full = run_pgo_cycle(&w, PgoVariant::Instr, &cfg(Placement::Full)).unwrap();
        let sparse = run_pgo_cycle(&w, PgoVariant::Instr, &cfg(Placement::SpanningTree)).unwrap();

        assert!(
            sparse.counter_sites < full.counter_sites,
            "{}: sparse mode must plant fewer counters ({} vs {})",
            w.name,
            sparse.counter_sites,
            full.counter_sites
        );
        assert!(
            sparse.profiling.cycles < full.profiling.cycles,
            "{}: fewer counters must make the profiling run cheaper",
            w.name
        );
        // Exact reconstruction: the annotated profile — and therefore the
        // optimized binary — must be indistinguishable from full mode.
        assert_eq!(
            sparse.quality_counts, full.quality_counts,
            "{}: reconstructed block counts drifted from ground truth",
            w.name
        );
        assert_eq!(
            sparse.eval.cycles, full.eval.cycles,
            "{}: optimized binaries must perform identically",
            w.name
        );
        assert_eq!(
            sparse.eval_result_hash, full.eval_result_hash,
            "{}: behaviour must not change",
            w.name
        );
    }
}
