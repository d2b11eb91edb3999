//! The static recoverability prover for counter placements — a test oracle
//! for `ir::flow::plan_function`, independent of the numeric solver
//! `ir::flow::reconstruct`: instead of computing edge counts it computes
//! *which* edges Kirchhoff elimination can determine, before any execution
//! happens. A placement is certified when every augmented-graph edge ends up
//! known, every counter's claimed host really witnesses its edge, no counter
//! is information-free, and the function's invocation count (`exit → entry`)
//! is among the recovered values.
//!
//! Until the lint census (DESIGN.md §14) this was `analysis::dataflow` behind
//! the `PP001`–`PP004` lints; nothing outside the process can hand the
//! planner a placement, so it judges the planner from here: on the six
//! workloads and on generated programs (`tests/placement.rs`), and on
//! arbitrary CFGs (`crates/ir/tests/proptest_flow.rs`, which includes this
//! file by `#[path]` — hence `csspgo_ir`, not `csspgo::ir`). Only the last
//! has critical co-tree edges and entry blocks inside loops; no compiled
//! MiniLang program does.

use csspgo_ir::cfg;
use csspgo_ir::flow::{self, CounterHost, FlowEdge, MeasurementPlan, UnionFind};
use csspgo_ir::Function;
use std::collections::HashSet;

/// What the prover concluded about one placement.
#[derive(Clone, Debug, Default)]
pub struct FlowProof {
    /// Number of directly measured edges.
    pub counted: usize,
    /// Number of edges Kirchhoff elimination derives from the counters.
    pub derived: usize,
    /// Edges whose counts stay unknown (was `PP001`).
    pub unrecoverable: Vec<FlowEdge>,
    /// Counted edges already determined by the others (was `PP002`).
    pub redundant: Vec<FlowEdge>,
    /// Counted edges whose claimed block host does not uniquely witness
    /// them (was `PP003`).
    pub bad_host: Vec<FlowEdge>,
    /// Whether the invocation count (`exit → entry`) is measured or
    /// derived (was `PP004` when false).
    pub entry_derivable: bool,
}

impl FlowProof {
    /// Whether the placement is fully certified.
    pub fn certified(&self) -> bool {
        self.unrecoverable.is_empty()
            && self.redundant.is_empty()
            && self.bad_host.is_empty()
            && self.entry_derivable
    }
}

/// Symbolically proves (or refutes) that `plan` recovers the full flow of
/// `func` — the static half of the Ball–Larus contract. Runs entirely on
/// the CFG: no profile, no execution.
pub fn prove_plan(func: &Function, plan: &MeasurementPlan) -> FlowProof {
    let edges = flow::flow_edges(func);
    let exit_node = func.blocks.len();
    let num_nodes = func.blocks.len() + 1;
    let (preds, reach) = (cfg::predecessors(func), cfg::reachable(func));
    let measured: HashSet<FlowEdge> = plan.counters.iter().map(|s| s.edge).collect();

    let mut proof = FlowProof {
        counted: measured.len(),
        ..FlowProof::default()
    };

    // Every block-hosted counter must name the block the hosting rules
    // would pick; anything else reads unrelated executions into the edge
    // count. `Split` hosts are materialized by the instrumentation pass and
    // always witness exactly their edge.
    for site in &plan.counters {
        if let CounterHost::Block(claimed) = site.host {
            match flow::counter_host(func, &preds, &reach, site.edge) {
                Some(CounterHost::Block(expected)) if expected == claimed => {}
                _ => proof.bad_host.push(site.edge),
            }
        }
    }

    // Symbolic Kirchhoff closure: a node with exactly one unknown incident
    // edge determines it. Self-loops cancel at their node and are only
    // known if measured directly.
    let mut known: Vec<bool> = edges.iter().map(|e| measured.contains(e)).collect();
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    let mut unknown_at = vec![0usize; num_nodes];
    for (i, &e) in edges.iter().enumerate() {
        let (u, v) = flow::endpoints(e, func, exit_node);
        if u == v {
            continue;
        }
        incident[u].push(i);
        incident[v].push(i);
        if !known[i] {
            unknown_at[u] += 1;
            unknown_at[v] += 1;
        }
    }
    let mut worklist: Vec<usize> = (0..num_nodes).filter(|&n| unknown_at[n] == 1).collect();
    while let Some(node) = worklist.pop() {
        if unknown_at[node] != 1 {
            continue;
        }
        let Some(&i) = incident[node].iter().find(|&&i| !known[i]) else {
            continue;
        };
        known[i] = true;
        proof.derived += 1;
        let (u, v) = flow::endpoints(edges[i], func, exit_node);
        for n in [u, v] {
            unknown_at[n] -= 1;
            if unknown_at[n] == 1 {
                worklist.push(n);
            }
        }
    }
    for (i, &e) in edges.iter().enumerate() {
        if !known[i] {
            proof.unrecoverable.push(e);
        }
    }

    // The forest characterization: elimination recovers exactly the
    // placements whose unmeasured edges form an undirected forest, and a
    // measured edge is information-free iff adding it to that forest still
    // leaves a forest (its endpoints lie in different components).
    let mut uf = UnionFind::new(num_nodes);
    for &e in edges.iter().filter(|e| !measured.contains(e)) {
        let (u, v) = flow::endpoints(e, func, exit_node);
        uf.union(u, v);
    }
    for &e in &measured {
        let (u, v) = flow::endpoints(e, func, exit_node);
        if u != v && uf.find(u) != uf.find(v) {
            proof.redundant.push(e);
        }
    }
    proof.redundant.sort();
    proof.unrecoverable.sort();
    proof.bad_host.sort();

    // The invocation count must be measured at a valid host or derived by
    // the closure.
    let from_exit = edges.iter().position(|e| matches!(e, FlowEdge::FromExit));
    proof.entry_derivable = match from_exit {
        Some(i) => known[i] && !proof.bad_host.contains(&FlowEdge::FromExit),
        // No reachable exit: the circulation never closes; plans for such
        // functions fall back to full per-block counting, where the entry
        // block's counter is the invocation count.
        None => plan.full_fallback,
    };
    proof
}
