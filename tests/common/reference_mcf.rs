//! The min-cost-flow solver as it stood before it went dense: a
//! `BinaryHeap` Dijkstra per augmentation, `Vec<Vec<u32>>` adjacency and
//! `HashMap`-indexed blocks. `crates/core/tests/proptest_inference.rs`
//! holds `csspgo_core::inference::infer_counts` to [`infer_counts`] here —
//! counts, edges, cost and stats — so the production solver keeps this
//! one's augmentation sequence exactly.
//!
//! The core package includes this file through `#[path]`, so it names its
//! dependencies by crate (`csspgo_ir`, `csspgo_core`).

#![allow(dead_code)]

use csspgo_core::inference::{InferenceResult, InferenceStats};
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
pub struct McfOutcome {
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
pub fn solve(func: &Function, raw: &HashMap<BlockId, u64>, entry_count: u64) -> Option<McfOutcome> {
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

/// The reference `inference::infer_counts` under MCF: the solved counts
/// (the measured ones for a declined function), the edges when solved, and
/// the stats.
pub fn infer_counts(
    func: &Function,
    raw: &HashMap<BlockId, u64>,
    entry_count: u64,
) -> InferenceResult {
    let mut stats = InferenceStats {
        functions: 1,
        ..Default::default()
    };
    let Some(out) = solve(func, raw, entry_count) else {
        stats.declined = 1;
        return InferenceResult {
            counts: raw.clone(),
            edges: None,
            stats,
        };
    };
    stats.residual_cost = out.cost;
    for (b, &c) in &out.counts {
        let r = raw.get(b).copied().unwrap_or(0);
        if c != r {
            stats.counts_adjusted += 1;
            stats.flow_moved += c.abs_diff(r);
        }
    }
    InferenceResult {
        counts: out.counts,
        edges: Some(out.edges),
        stats,
    }
}
