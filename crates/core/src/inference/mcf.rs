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
//! are built in that order, and every search settles nodes in increasing
//! `(distance, node id)` order — the solver is bit-deterministic for a given
//! input.
//!
//! # Dense tables
//!
//! The network is flat: one `Arc` record per residual arc (twins at
//! `a ^ 1`), adjacency in compressed rows that keep each node's arcs in
//! insertion order, blocks indexed by their reverse post-order position
//! through a table over block ids, and one `dist` / `prev` / potential
//! buffer for all searches of a solve — all of it in a `Scratch` that an
//! annotation pass hands from one function's solve to the next.
//!
//! A search's queue is two bitsets: the nodes whose distance it has lowered
//! and not yet settled, and among them the *level*, those at the least
//! queued distance. The next node settled is the level's first in id order;
//! an empty level is refilled by one scan for the next least distance.
//! Reduced costs are nonnegative, so no node drops below the level and a
//! node reached at the level's distance joins it — and since the supply
//! arcs and CFG arcs cost nothing, most of a search happens at a handful of
//! levels. The node settled is always the queued one with the least
//! `(distance, node id)`: the order a min-heap of those pairs with lazy
//! deletion pops live entries in. So the augmentation sequence — one
//! augmentation per search, arcs relaxed in insertion order, strict
//! improvement only — is the one `tests/common/reference_mcf.rs` makes with
//! a `BinaryHeap`.

use csspgo_ir::{cfg, BlockId, Function};

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

/// A solved inference problem: flow-consistent block counts, plus the
/// total routing cost (the confidence-weighted distance between the raw and
/// repaired profiles). The edge counts stay in the solved network
/// ([`Scratch::edge_flows`]).
pub(crate) struct McfOutcome {
    /// The blocks the entry reaches, in reverse post-order.
    pub order: Vec<BlockId>,
    /// The repaired count of `order[i]`.
    pub counts: Vec<u64>,
    pub cost: u64,
}

/// One residual arc.
#[derive(Clone, Copy)]
struct Arc {
    to: u32,
    cap: u64,
    cost: i64,
}

/// Residual flow network: paired forward/backward arcs (`a ^ 1` is the
/// reverse of `a`); adjacency is built once all arcs are in. It owns the
/// buffers of its searches too, so one network serves every solve of a
/// [`Scratch`].
#[derive(Default)]
struct FlowNet {
    nodes: usize,
    arcs: Vec<Arc>,
    /// The node each arc leaves (the CSR rows are counted from it).
    tail: Vec<u32>,
    /// Compressed adjacency rows: node `u`'s arcs are
    /// `adj[start[u]..start[u + 1]]`, in the order they were added.
    start: Vec<u32>,
    adj: Vec<u32>,
    pot: Vec<i64>,
    dist: Vec<u64>,
    prev: Vec<u32>,
    /// Reached and not yet settled, one bit per node.
    queued: Vec<u64>,
    /// The queued nodes at the least queued distance.
    level: Vec<u64>,
}

impl FlowNet {
    /// Empties the network for `nodes` nodes.
    fn reset(&mut self, nodes: usize) {
        self.nodes = nodes;
        self.arcs.clear();
        self.tail.clear();
    }

    /// Adds `u → v` with the given capacity and cost; returns the forward
    /// arc index (its residual twin is `index ^ 1`).
    fn arc(&mut self, u: usize, v: usize, cap: u64, cost: i64) -> usize {
        let a = self.arcs.len();
        self.arcs.push(Arc {
            to: v as u32,
            cap,
            cost,
        });
        self.tail.push(u as u32);
        self.arcs.push(Arc {
            to: u as u32,
            cap: 0,
            cost: -cost,
        });
        self.tail.push(v as u32);
        a
    }

    /// Flow pushed through forward arc `a` (accumulated on its twin).
    fn flow(&self, a: usize) -> u64 {
        self.arcs[a ^ 1].cap
    }

    /// Builds the adjacency rows, keeping each node's arcs in insertion
    /// order.
    fn build_rows(&mut self) {
        let n = self.nodes;
        self.start.clear();
        self.start.resize(n + 2, 0);
        // Count into `start[u + 2]`, so that after the prefix sums
        // `start[u + 1]` is row `u`'s first free slot while filling and its
        // end afterwards.
        for &u in &self.tail {
            self.start[u as usize + 2] += 1;
        }
        for u in 0..n {
            self.start[u + 2] += self.start[u + 1];
        }
        self.adj.clear();
        self.adj.resize(self.arcs.len(), 0);
        for (a, &u) in self.tail.iter().enumerate() {
            let slot = &mut self.start[u as usize + 1];
            self.adj[*slot as usize] = a as u32;
            *slot += 1;
        }
        self.start.pop();
    }

    /// Successive shortest paths from `s` to `t` until `want` units are
    /// routed. Returns the total cost, or `None` if the network saturates
    /// before all supply is placed (infeasible).
    fn route(&mut self, s: usize, t: usize, want: u64) -> Option<i128> {
        let n = self.nodes;
        self.build_rows();
        let FlowNet {
            arcs,
            start,
            adj,
            pot,
            dist,
            prev,
            queued,
            level,
            ..
        } = self;
        pot.clear();
        pot.resize(n, 0);
        dist.resize(n, u64::MAX);
        prev.resize(n, u32::MAX);
        queued.clear();
        queued.resize(n.div_ceil(64), 0);
        level.clear();
        level.resize(n.div_ceil(64), 0);
        let mut sent = 0u64;
        let mut total = 0i128;
        while sent < want {
            dist.fill(u64::MAX);
            prev.fill(u32::MAX);
            dist[s] = 0;
            queued[s / 64] |= 1 << (s % 64);
            // `d` is the least distance among queued nodes and `level` the
            // queued nodes at it; reduced costs are nonnegative, so a node
            // reached at `d` joins the level and no node drops below it.
            let mut d = 0u64;
            level.fill(0);
            level[s / 64] |= 1 << (s % 64);
            loop {
                // Settle the first node in id order with the least distance.
                let u = match first_member(level) {
                    Some(u) => u,
                    None => {
                        // The next level: the least distance still queued.
                        let mut next = u64::MAX;
                        for v in members(queued) {
                            next = next.min(dist[v]);
                        }
                        if next == u64::MAX {
                            break;
                        }
                        d = next;
                        for v in members(queued) {
                            if dist[v] == d {
                                level[v / 64] |= 1 << (v % 64);
                            }
                        }
                        first_member(level).expect("a node at the least distance")
                    }
                };
                level[u / 64] &= !(1 << (u % 64));
                queued[u / 64] &= !(1 << (u % 64));
                for &ai in &adj[start[u] as usize..start[u + 1] as usize] {
                    let arc = arcs[ai as usize];
                    if arc.cap == 0 {
                        continue;
                    }
                    let v = arc.to as usize;
                    let reduced = arc.cost + pot[u] - pot[v];
                    debug_assert!(reduced >= 0, "potential invariant violated");
                    let nd = d + reduced.max(0) as u64;
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev[v] = ai;
                        queued[v / 64] |= 1 << (v % 64);
                        if nd == d {
                            level[v / 64] |= 1 << (v % 64);
                        }
                    }
                }
            }
            if dist[t] == u64::MAX {
                return None;
            }
            for (p, &d) in pot.iter_mut().zip(dist.iter()) {
                if d != u64::MAX {
                    *p += d as i64;
                }
            }
            // Bottleneck along the shortest path, then augment.
            let mut push = want - sent;
            let mut v = t;
            while v != s {
                let a = prev[v] as usize;
                push = push.min(arcs[a].cap);
                v = arcs[a ^ 1].to as usize;
            }
            let mut v = t;
            while v != s {
                let a = prev[v] as usize;
                arcs[a].cap -= push;
                arcs[a ^ 1].cap += push;
                total += i128::from(push) * i128::from(arcs[a].cost);
                v = arcs[a ^ 1].to as usize;
            }
            sent += push;
        }
        Some(total)
    }
}

/// The buffers a solve works in. One annotation pass hands the same
/// scratch to each function it solves; nothing in it outlives the next
/// solve.
#[derive(Default)]
pub(crate) struct Scratch {
    net: FlowNet,
    /// Reverse post-order position by block index; `u32::MAX` off the
    /// order.
    pos: Vec<u32>,
    /// Node imbalances before routing.
    ex: Vec<i128>,
    /// Each block's increase arc, then its decrease arc (`usize::MAX` when
    /// it has no measured weight to cancel).
    block_arcs: Vec<(usize, usize)>,
    edge_arcs: Vec<(BlockId, BlockId, usize)>,
    /// `seen[j] == i` once the edge `order[i] → order[j]` is in.
    seen: Vec<u32>,
}

impl Scratch {
    /// The repaired count of every CFG edge of the function the last
    /// successful [`solve`] solved, as `(from, to, count)`.
    pub(crate) fn edge_flows(&self) -> Vec<(BlockId, BlockId, u64)> {
        (self.edge_arcs.iter())
            .map(|&(from, to, a)| (from, to, self.net.flow(a)))
            .collect()
    }
}

/// The members of bitset `set`, in increasing order.
fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// The least member of bitset `set`.
fn first_member(set: &[u64]) -> Option<usize> {
    set.iter()
        .position(|&bits| bits != 0)
        .map(|w| w * 64 + set[w].trailing_zeros() as usize)
}

/// Solves min-cost-flow inference for one function from `raw`, the
/// measured count of each block by block index (`None`, or past the end:
/// unmeasured). Returns `None` when the CFG has no blocks or the network is
/// infeasible (the caller keeps the measured counts and records the
/// decline).
pub(crate) fn solve(
    func: &Function,
    raw: &[Option<u64>],
    entry_count: u64,
    scratch: &mut Scratch,
) -> Option<McfOutcome> {
    let order = cfg::reverse_post_order(func);
    if order.is_empty() {
        return None;
    }
    let n = order.len();
    let Scratch {
        net,
        pos,
        ex,
        block_arcs,
        edge_arcs,
        seen,
    } = scratch;
    pos.clear();
    pos.resize(func.blocks.len(), u32::MAX);
    for (i, &b) in order.iter().enumerate() {
        pos[b.index()] = i as u32;
    }
    let weight = |b: BlockId| raw.get(b.index()).copied().flatten().unwrap_or(0);
    // Node layout: in(i) = 2i, out(i) = 2i+1, then sink, super-source,
    // super-sink.
    let t_node = 2 * n;
    let ss = 2 * n + 1;
    let st = 2 * n + 2;
    net.reset(2 * n + 3);
    let head = entry_count.max(1);

    ex.clear();
    ex.resize(2 * n + 1, 0);
    let entry_i = pos[func.entry.index()] as usize;
    ex[2 * entry_i] += i128::from(head);
    ex[t_node] -= i128::from(head);

    block_arcs.clear();
    for (i, &b) in order.iter().enumerate() {
        let w = weight(b);
        let inc = net.arc(2 * i, 2 * i + 1, INF_CAP, c_inc(w));
        let dec = if w > 0 {
            net.arc(2 * i + 1, 2 * i, w, c_dec(w))
        } else {
            usize::MAX
        };
        block_arcs.push((inc, dec));
        ex[2 * i] -= i128::from(w);
        ex[2 * i + 1] += i128::from(w);
    }

    edge_arcs.clear();
    seen.clear();
    seen.resize(n, u32::MAX);
    let mut has_exit = false;
    for (i, &b) in order.iter().enumerate() {
        let mut any = false;
        for s in func.block(b).targets() {
            any = true;
            let j = pos[s.index()];
            // A repeated target adds no second arc.
            if j == u32::MAX || seen[j as usize] == i as u32 {
                continue;
            }
            seen[j as usize] = i as u32;
            edge_arcs.push((b, s, net.arc(2 * i + 1, 2 * j as usize, INF_CAP, 0)));
        }
        if !any {
            net.arc(2 * i + 1, t_node, INF_CAP, 0);
            has_exit = true;
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

    let counts = order
        .iter()
        .zip(block_arcs.iter())
        .map(|(&b, &(inc, dec))| {
            let dec = if dec == usize::MAX { 0 } else { net.flow(dec) };
            weight(b) + net.flow(inc) - dec
        })
        .collect();
    Some(McfOutcome {
        order,
        counts,
        cost: u64::try_from(cost).unwrap_or(u64::MAX),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `raw` by block index.
    fn dense(f: &Function, raw: &HashMap<BlockId, u64>) -> Vec<Option<u64>> {
        let mut out = vec![None; f.blocks.len()];
        for (b, &c) in raw {
            out[b.index()] = Some(c);
        }
        out
    }

    /// The repaired count of `b`.
    fn count(out: &McfOutcome, b: BlockId) -> u64 {
        let i = out.order.iter().position(|&o| o == b).expect("reached");
        out.counts[i]
    }

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
        let mut scratch = Scratch::default();
        let out = solve(f, &dense(f, &raw), 100, &mut scratch).unwrap();
        assert_eq!(out.cost, 0, "consistent input routes at zero cost");
        for (&b, &w) in &raw {
            assert_eq!(count(&out, b), w);
        }
        // Edge counts mirror the branch split.
        let edges = scratch.edge_flows();
        let get = |from: u32, to: u32| {
            edges
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
        let mut scratch = Scratch::default();
        let out = solve(f, &dense(f, &raw), 20, &mut scratch).unwrap();
        let edges = scratch.edge_flows();
        for (b, _) in f.iter_blocks() {
            let c = count(&out, b);
            let out_sum: u64 = edges
                .iter()
                .filter(|&&(from, _, _)| from == b)
                .map(|&(_, _, w)| w)
                .sum();
            if !cfg::successors(f, b).is_empty() {
                assert_eq!(out_sum, c, "out-edges of {b:?} sum to its count");
            }
            let in_sum: u64 = edges
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
