//! Traditional counter instrumentation (instrumentation-based PGO).
//!
//! Counters lower to real load/add/store machine instructions, reproducing
//! the run-time overhead the paper measures (73% on HHVM), and distinct
//! counters block code merge exactly as the paper describes ("blocks with
//! probes incrementing different counters cannot be merged").
//!
//! Two placements are available via [`InstrumentConfig`]:
//!
//! * [`Placement::Full`] — a counter in every basic block, plain
//!   `-fprofile-generate` style (the paper's comparison point);
//! * [`Placement::SpanningTree`] — the Ball–Larus/Knuth minimal placement
//!   planned by [`csspgo_ir::flow::plan_function`]: only co-tree edges of a
//!   max-weight spanning tree are counted, critical edges are split with a
//!   counter-only block, and full block/edge counts are recovered after the
//!   run by Kirchhoff elimination ([`csspgo_ir::flow::reconstruct`]). The
//!   static recoverability prover for this mode is a test oracle
//!   (`tests/common/flow_prover.rs`, driven by `tests/placement.rs`).

use csspgo_ir::flow::{self, CounterHost, FlowEdge};
use csspgo_ir::inst::{Inst, InstKind};
use csspgo_ir::{BlockId, FuncId, Module};
use std::collections::HashMap;

/// Counter placement strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Placement {
    /// One counter per basic block.
    #[default]
    Full,
    /// Ball–Larus minimal placement: counters only on co-tree edges of a
    /// max-weight spanning tree of the augmented flow graph.
    SpanningTree,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Full => write!(f, "full"),
            Placement::SpanningTree => write!(f, "spanning_tree"),
        }
    }
}

/// Configuration for the instrumentation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrumentConfig {
    /// Counter placement strategy.
    pub placement: Placement,
}

/// Maps allocated counters back to what they measure.
#[derive(Clone, Debug, Default)]
pub struct CounterMap {
    /// Counter id for each block-hosted counter (full placement, and
    /// full-placement fallbacks of exit-free functions).
    pub by_block: HashMap<(FuncId, BlockId), u32>,
    /// Counter id for each measured flow edge (spanning-tree placement).
    /// The edge refers to the *pre-instrumentation* CFG; split blocks
    /// inserted to host a counter are not part of it.
    pub by_edge: Vec<(FuncId, FlowEdge, u32)>,
    /// The placement that produced this map.
    pub placement: Placement,
}

impl CounterMap {
    /// Total number of counters allocated (equals the number of
    /// `CounterIncr` instructions emitted).
    pub fn len(&self) -> usize {
        self.by_block.len() + self.by_edge.len()
    }

    /// Whether no counters were allocated.
    pub fn is_empty(&self) -> bool {
        self.by_block.is_empty() && self.by_edge.is_empty()
    }
}

/// Instruments every block of every function; returns the counter map used
/// later to read exact block counts out of the simulator.
pub fn run(module: &mut Module) -> CounterMap {
    run_with(module, &InstrumentConfig::default())
}

/// Instruments `module` according to `config`.
pub fn run_with(module: &mut Module, config: &InstrumentConfig) -> CounterMap {
    let mut map = CounterMap {
        placement: config.placement,
        ..CounterMap::default()
    };
    for fid in 0..module.functions.len() {
        match config.placement {
            Placement::Full => instrument_full_function(module, fid, &mut map),
            Placement::SpanningTree => {
                let plan = flow::plan_function(&module.functions[fid]);
                if plan.full_fallback {
                    instrument_full_function(module, fid, &mut map);
                } else {
                    instrument_plan(module, fid, &plan, &mut map);
                }
            }
        }
    }
    map
}

/// Full placement for one function: a counter at the top of every live
/// block.
fn instrument_full_function(module: &mut Module, fid: usize, map: &mut CounterMap) {
    let func_id = FuncId::from_index(fid);
    let block_ids: Vec<BlockId> = module.functions[fid]
        .iter_blocks()
        .map(|(id, _)| id)
        .collect();
    for bid in block_ids {
        let counter = module.alloc_counter();
        map.by_block.insert((func_id, bid), counter);
        module.functions[fid]
            .block_mut(bid)
            .insts
            .insert(0, Inst::synthetic(InstKind::CounterIncr { counter }));
    }
}

/// Materializes a spanning-tree plan: block-hosted counters go at the top
/// of their host; critical edges get a fresh split block holding only the
/// counter and a branch, with the source terminator retargeted. Split
/// blocks are appended, so pre-existing block ids (and the plan's edges)
/// stay valid.
fn instrument_plan(
    module: &mut Module,
    fid: usize,
    plan: &flow::MeasurementPlan,
    map: &mut CounterMap,
) {
    let func_id = FuncId::from_index(fid);
    for site in &plan.counters {
        let counter = module.alloc_counter();
        map.by_edge.push((func_id, site.edge, counter));
        let func = &mut module.functions[fid];
        match site.host {
            CounterHost::Block(host) => {
                func.block_mut(host)
                    .insts
                    .insert(0, Inst::synthetic(InstKind::CounterIncr { counter }));
            }
            CounterHost::Split => {
                let FlowEdge::Cfg { from, to } = site.edge else {
                    unreachable!("only real CFG edges can need a split");
                };
                let split = func.add_block();
                func.block_mut(split).insts = vec![
                    Inst::synthetic(InstKind::CounterIncr { counter }),
                    Inst::synthetic(InstKind::Br { target: to }),
                ];
                // Retarget every parallel occurrence: the flow edge's count
                // is the combined traversal count of the parallel arms.
                if let Some(term) = func.block_mut(from).terminator_mut() {
                    term.kind
                        .map_successors(|t| if t == to { split } else { t });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_instrumented_with_unique_counter() {
        let mut m = csspgo_lang::compile(
            "fn f(x) { if (x > 0) { return 1; } return 2; } fn g() { return f(1); }",
            "t",
        )
        .unwrap();
        let map = run(&mut m);
        let total_blocks: usize = m.functions.iter().map(|f| f.num_live_blocks()).sum();
        assert_eq!(map.len(), total_blocks);
        assert_eq!(m.num_counters as usize, total_blocks);
        // Each live block starts with its counter.
        for f in &m.functions {
            for (bid, b) in f.iter_blocks() {
                match b.insts[0].kind {
                    InstKind::CounterIncr { counter } => {
                        assert_eq!(map.by_block[&(f.id, bid)], counter);
                    }
                    ref other => panic!("expected counter, got {other}"),
                }
            }
        }
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
    }

    #[test]
    fn spanning_tree_uses_fewer_counters() {
        let src = "fn f(x) { if (x > 0) { return 1; } return 2; } fn g() { return f(1); }";
        let mut full = csspgo_lang::compile(src, "t").unwrap();
        let full_map = run(&mut full);
        let mut sparse = csspgo_lang::compile(src, "t").unwrap();
        let sparse_map = run_with(
            &mut sparse,
            &InstrumentConfig {
                placement: Placement::SpanningTree,
            },
        );
        assert!(sparse_map.len() < full_map.len());
        assert_eq!(sparse_map.len(), sparse.num_counters as usize);
        assert!(sparse_map.by_block.is_empty());
        assert_eq!(csspgo_ir::verify::verify_module(&sparse), vec![]);
    }

    #[test]
    fn split_blocks_host_critical_edge_counters() {
        // while-loop shape: the loop head has two preds and two succs, so
        // some edge around it is critical and needs a split block.
        let src = "fn f(n) { let i = 0; let s = 0; while (i < n) { if (s > 10) { s = s - 1; } i = i + 1; s = s + i; } return s; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        let before_blocks = m.functions[0].blocks.len();
        let map = run_with(
            &mut m,
            &InstrumentConfig {
                placement: Placement::SpanningTree,
            },
        );
        assert!(!map.by_edge.is_empty());
        // Module stays well-formed whether or not a split was needed.
        assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
        // Every counter occurs exactly once in the instructions.
        let mut seen = std::collections::HashSet::new();
        for f in &m.functions {
            for (_, b) in f.iter_blocks() {
                for inst in &b.insts {
                    if let InstKind::CounterIncr { counter } = inst.kind {
                        assert!(seen.insert(counter), "counter {counter} duplicated");
                    }
                }
            }
        }
        assert_eq!(seen.len(), map.len());
        let _ = before_blocks;
    }
}
