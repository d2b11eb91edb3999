//! Minimum-cost-flow profile inference — the real "Profi".
//!
//! Raw correlated counts are treated as *noisy measurements* of an unknown
//! true execution profile. The true profile must satisfy Kirchhoff flow
//! conservation at every block; the measurements usually do not. This module
//! finds the flow-consistent profile closest to the measurements under a
//! confidence-weighted metric, by solving a minimum-cost flow problem on a
//! network derived from the CFG (the construction LLVM's `profi` uses, per
//! the paper: "CSSPGO by default uses Profi, an advanced profile inference
//! component").
//!
//! # Network construction
//!
//! Every reachable block `b` (weight `w = raw[b]`) splits into an in-node and
//! an out-node:
//!
//! * an **increase arc** in(b)→out(b), capacity ∞, cost `c_inc(w)` — routing
//!   extra flow through the block above its measured weight;
//! * a **decrease arc** out(b)→in(b), capacity `w`, cost `c_dec(w)` — paying
//!   to cancel measured weight (only exists for `w > 0`);
//! * a zero-cost ∞-capacity arc out(b)→in(s) for every CFG edge `b → s`;
//! * exit blocks get a zero-cost arc out(b)→T to a virtual sink. A function
//!   with no reachable exit at all (an infinite loop, possible in synthetic
//!   property-test CFGs but not from the language frontend) has no
//!   flow-consistent profile — the entry flow can never drain — so the
//!   solver declines (`solve` returns `None`) and the caller keeps the
//!   measured counts rather than inventing a leak point.
//!
//! Measured weights enter as *pseudo-flow*: each block arc is pre-loaded
//! with `w` units, recorded as node imbalances (excess `+w` at out(b),
//! deficit `−w` at in(b)) rather than routed. The entry block additionally
//! receives the externally known head count `F = entry_count.max(1)` as
//! excess at in(entry) with a matching deficit at T. A super-source feeds
//! every excess, a super-sink drains every deficit, and successive shortest
//! paths (Dijkstra + Johnson potentials; every arc cost is nonnegative, so
//! no Bellman–Ford bootstrap is needed) route all supply at minimum cost.
//!
//! The repaired count of block `b` is `w + flow(inc) − flow(dec)`; the flow
//! on each CFG-edge arc is the repaired **edge count**. Conservation at the
//! split nodes makes the result consistent *by construction*: for non-entry
//! blocks the in-edge counts sum exactly to the block count, for non-exit
//! blocks the out-edge counts do, and the entry block carries exactly `F`
//! plus its loop back-in flow.
//!
//! # Cost model
//!
//! Confidence scales with magnitude: unsampled blocks are cheap to raise
//! (`c_inc(0) = 1`), measured blocks get logarithmically more expensive to
//! raise (`10 + 2·log₂w`) and more expensive still to lower
//! (`20 + 3·log₂w`) — sampling misses real execution far more often than it
//! invents phantom execution, so lowering a hot measurement should be the
//! last resort. CFG-edge and exit arcs are free: moving flow *along* the
//! graph costs nothing, only deviating from measurements does.
//!
//! Determinism: blocks are numbered in reverse post-order, adjacency lists
//! are built in that order, and the Dijkstra heap breaks distance ties by
//! node id — the solver is bit-deterministic for a given input.

use csspgo_ir::{cfg, BlockId, Function};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// "Unbounded" capacity; low enough that path bottlenecks never overflow.
const INF_CAP: u64 = u64::MAX / 4;

/// `log₂(w)` for the cost model, at least 1.
fn log2w(w: u64) -> i64 {
    (64 - i64::from(w.leading_zeros())).max(1)
}

/// Cost per unit of raising block `b` above its measured weight `w`.
fn c_inc(w: u64) -> i64 {
    if w == 0 {
        1
    } else {
        10 + 2 * log2w(w)
    }
}

/// Cost per unit of cancelling measured weight `w` on block `b`.
fn c_dec(w: u64) -> i64 {
    20 + 3 * log2w(w)
}

/// A solved inference problem: jointly flow-consistent block and edge
/// counts, plus the total routing cost (the confidence-weighted distance
/// between the raw and repaired profiles).
pub(crate) struct McfOutcome {
    pub counts: HashMap<BlockId, u64>,
    pub edges: Vec<(BlockId, BlockId, u64)>,
    pub cost: u64,
}

/// Residual flow network: paired forward/backward arcs (`a ^ 1` is the
/// reverse of `a`), per-node adjacency in insertion order.
struct FlowNet {
    adj: Vec<Vec<u32>>,
    to: Vec<u32>,
    cap: Vec<u64>,
    cost: Vec<i64>,
}

impl FlowNet {
    fn new(nodes: usize) -> Self {
        FlowNet {
            adj: vec![Vec::new(); nodes],
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
        }
    }

    /// Adds `u → v` with the given capacity and cost; returns the forward
    /// arc index (its residual twin is `index ^ 1`).
    fn arc(&mut self, u: usize, v: usize, cap: u64, cost: i64) -> usize {
        let a = self.to.len();
        self.to.push(v as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.adj[u].push(a as u32);
        self.to.push(u as u32);
        self.cap.push(0);
        self.cost.push(-cost);
        self.adj[v].push(a as u32 + 1);
        a
    }

    /// Flow pushed through forward arc `a` (accumulated on its twin).
    fn flow(&self, a: usize) -> u64 {
        self.cap[a ^ 1]
    }

    /// Successive shortest paths from `s` to `t` until `want` units are
    /// routed. Returns the total cost, or `None` if the network saturates
    /// before all supply is placed (infeasible).
    fn route(&mut self, s: usize, t: usize, want: u64) -> Option<i128> {
        let n = self.adj.len();
        let mut pot = vec![0i64; n];
        let mut sent = 0u64;
        let mut total = 0i128;
        while sent < want {
            let mut dist = vec![u64::MAX; n];
            let mut prev = vec![u32::MAX; n];
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            dist[s] = 0;
            heap.push(Reverse((0, s as u32)));
            while let Some(Reverse((d, u))) = heap.pop() {
                let u = u as usize;
                if d > dist[u] {
                    continue;
                }
                for &ai in &self.adj[u] {
                    let a = ai as usize;
                    if self.cap[a] == 0 {
                        continue;
                    }
                    let v = self.to[a] as usize;
                    let reduced = self.cost[a] + pot[u] - pot[v];
                    debug_assert!(reduced >= 0, "potential invariant violated");
                    let nd = d + reduced.max(0) as u64;
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev[v] = ai;
                        heap.push(Reverse((nd, v as u32)));
                    }
                }
            }
            if dist[t] == u64::MAX {
                return None;
            }
            for v in 0..n {
                if dist[v] != u64::MAX {
                    pot[v] += dist[v] as i64;
                }
            }
            // Bottleneck along the shortest path, then augment.
            let mut push = want - sent;
            let mut v = t;
            while v != s {
                let a = prev[v] as usize;
                push = push.min(self.cap[a]);
                v = self.to[a ^ 1] as usize;
            }
            let mut v = t;
            while v != s {
                let a = prev[v] as usize;
                self.cap[a] -= push;
                self.cap[a ^ 1] += push;
                total += i128::from(push) * i128::from(self.cost[a]);
                v = self.to[a ^ 1] as usize;
            }
            sent += push;
        }
        Some(total)
    }
}

/// Solves min-cost-flow inference for one function. Returns `None` when the
/// CFG has no blocks or the network is infeasible (the caller keeps the
/// measured counts and records the decline).
pub(crate) fn solve(
    func: &Function,
    raw: &HashMap<BlockId, u64>,
    entry_count: u64,
) -> Option<McfOutcome> {
    let order = cfg::reverse_post_order(func);
    if order.is_empty() {
        return None;
    }
    let n = order.len();
    let idx: HashMap<BlockId, usize> = order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    // Node layout: in(i) = 2i, out(i) = 2i+1, then sink, super-source,
    // super-sink.
    let t_node = 2 * n;
    let ss = 2 * n + 1;
    let st = 2 * n + 2;
    let mut net = FlowNet::new(2 * n + 3);
    let weight = |b: BlockId| raw.get(&b).copied().unwrap_or(0);
    let head = entry_count.max(1);

    let mut ex = vec![0i128; 2 * n + 1];
    let entry_i = idx[&func.entry];
    ex[2 * entry_i] += i128::from(head);
    ex[t_node] -= i128::from(head);

    let mut inc_arcs = Vec::with_capacity(n);
    let mut dec_arcs = Vec::with_capacity(n);
    for (i, &b) in order.iter().enumerate() {
        let w = weight(b);
        inc_arcs.push(net.arc(2 * i, 2 * i + 1, INF_CAP, c_inc(w)));
        dec_arcs.push((w > 0).then(|| net.arc(2 * i + 1, 2 * i, w, c_dec(w))));
        ex[2 * i] -= i128::from(w);
        ex[2 * i + 1] += i128::from(w);
    }

    let mut edge_arcs: Vec<(BlockId, BlockId, usize)> = Vec::new();
    let mut has_exit = false;
    for (i, &b) in order.iter().enumerate() {
        let succs = cfg::successors(func, b);
        if succs.is_empty() {
            net.arc(2 * i + 1, t_node, INF_CAP, 0);
            has_exit = true;
        } else {
            for s in succs {
                if let Some(&j) = idx.get(&s) {
                    edge_arcs.push((b, s, net.arc(2 * i + 1, 2 * j, INF_CAP, 0)));
                }
            }
        }
    }
    if !has_exit {
        // No reachable exit: the head count cannot drain, so no
        // flow-consistent assignment exists. Decline instead of picking an
        // arbitrary block to leak at.
        return None;
    }

    let mut want = 0u64;
    for (v, &e) in ex.iter().enumerate() {
        if e > 0 {
            net.arc(ss, v, e as u64, 0);
            want += e as u64;
        } else if e < 0 {
            net.arc(v, st, (-e) as u64, 0);
        }
    }

    let cost = net.route(ss, st, want)?;

    let mut counts = HashMap::with_capacity(n);
    for (i, &b) in order.iter().enumerate() {
        let inc = net.flow(inc_arcs[i]);
        let dec = dec_arcs[i].map_or(0, |a| net.flow(a));
        counts.insert(b, weight(b) + inc - dec);
    }
    let edges = edge_arcs
        .iter()
        .map(|&(from, to, a)| (from, to, net.flow(a)))
        .collect();
    Some(McfOutcome {
        counts,
        edges,
        cost: u64::try_from(cost).unwrap_or(u64::MAX),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_orders_confidence() {
        assert_eq!(c_inc(0), 1, "unsampled blocks are cheap to raise");
        assert!(c_inc(1000) > c_inc(1), "hot blocks are expensive to raise");
        assert!(c_dec(1000) > c_inc(1000), "lowering beats raising in cost");
        assert!(c_dec(1) >= 20);
    }

    #[test]
    fn consistent_diamond_is_left_untouched() {
        let m = csspgo_lang::compile(
            "fn f(a) { let r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }",
            "t",
        )
        .unwrap();
        let f = &m.functions[0];
        let raw = HashMap::from([
            (BlockId(0), 100u64),
            (BlockId(1), 90),
            (BlockId(2), 10),
            (BlockId(3), 100),
        ]);
        let out = solve(f, &raw, 100).unwrap();
        assert_eq!(out.cost, 0, "consistent input routes at zero cost");
        for (b, w) in &raw {
            assert_eq!(out.counts[b], *w);
        }
        // Edge counts mirror the branch split.
        let get = |from: u32, to: u32| {
            out.edges
                .iter()
                .find(|&&(f, t, _)| f == BlockId(from) && t == BlockId(to))
                .map(|&(_, _, c)| c)
                .unwrap()
        };
        assert_eq!(get(0, 1), 90);
        assert_eq!(get(0, 2), 10);
        assert_eq!(get(1, 3), 90);
        assert_eq!(get(2, 3), 10);
    }

    #[test]
    fn edge_counts_reconcile_with_block_counts() {
        let m = csspgo_lang::compile(
            "fn f(n) { let i = 0; let s = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
            "t",
        )
        .unwrap();
        let f = &m.functions[0];
        let raw: HashMap<BlockId, u64> = f
            .iter_blocks()
            .map(|(b, _)| (b, 37 * (b.0 as u64 + 1)))
            .collect();
        let out = solve(f, &raw, 20).unwrap();
        for (b, _) in f.iter_blocks() {
            let c = out.counts[&b];
            let out_sum: u64 = out
                .edges
                .iter()
                .filter(|&&(from, _, _)| from == b)
                .map(|&(_, _, w)| w)
                .sum();
            if !cfg::successors(f, b).is_empty() {
                assert_eq!(out_sum, c, "out-edges of {b:?} sum to its count");
            }
            let in_sum: u64 = out
                .edges
                .iter()
                .filter(|&&(_, to, _)| to == b)
                .map(|&(_, _, w)| w)
                .sum();
            if b != f.entry {
                assert_eq!(in_sum, c, "in-edges of {b:?} sum to its count");
            } else {
                assert_eq!(in_sum + 20, c, "entry carries head count + back flow");
            }
        }
    }
}
