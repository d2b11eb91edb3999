//! The missing-frame inferrer (paper §III.B, "Reliable stack sampling").
//!
//! Tail-call elimination removes the tail-calling function's frame from the
//! frame-pointer chain, so stack samples miss frames. The mitigation: "build
//! a dynamic call graph that consists of only tail call edges constructed
//! from LBR samples and do a DFS-search on that graph to find a unique path
//! for a given pair of parent and child frame ... there could be multiple
//! tail-call paths available ... in which case the inference will fail."

use crate::ranges::RangeCounts;
use csspgo_codegen::minst::MInstKind;
use csspgo_codegen::Binary;
use std::collections::{HashMap, HashSet};

/// The dynamic tail-call graph.
#[derive(Clone, Debug, Default)]
pub struct TailCallGraph {
    /// Edges: caller function index → set of callee function indices,
    /// each with the lowest index of a tail call between the two.
    edges: HashMap<u32, HashMap<u32, usize>>,
}

/// Result counters for the recovery-rate experiment (paper: "more than
/// two-thirds of the missing tail call frames can be recovered").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferStats {
    /// Gaps bridged with a unique path.
    pub recovered: u64,
    /// Gaps with no or ambiguous paths.
    pub failed: u64,
}

impl TailCallGraph {
    /// Builds the graph from observed LBR branches.
    pub fn build(binary: &Binary, rc: &RangeCounts) -> Self {
        let mut g = TailCallGraph::default();
        for &(from, to) in rc.branches.keys() {
            if matches!(binary.insts[from].kind, MInstKind::TailCall { .. }) {
                g.insert_edge(binary.func_of[from], binary.func_of[to], from);
            }
        }
        g
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(|m| m.len()).sum()
    }

    /// All edges as `(caller, callee, tail-call instruction)` triples, in
    /// unspecified order. Pairs with [`TailCallGraph::insert_edge`] so the
    /// streaming snapshot ([`crate::stream`]) can persist and restore the
    /// exact graph a profile was unwound with.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, usize)> + '_ {
        self.edges
            .iter()
            .flat_map(|(&caller, m)| m.iter().map(move |(&callee, &inst)| (caller, callee, inst)))
    }

    /// Inserts one edge (see [`TailCallGraph::edges`]). A caller that
    /// tail-calls one callee from several instructions keeps the lowest, so
    /// the graph does not depend on the order its edges arrive in.
    pub fn insert_edge(&mut self, caller: u32, callee: u32, inst: usize) {
        let site = self
            .edges
            .entry(caller)
            .or_default()
            .entry(callee)
            .or_insert(inst);
        *site = (*site).min(inst);
    }

    /// Finds the unique tail-call path `from → … → to`, returning the
    /// tail-call *instruction indices* along it (one per missing frame).
    /// Returns `None` when no path or more than one path exists.
    pub fn unique_path(&self, from: u32, to: u32) -> Option<Vec<usize>> {
        const MAX_DEPTH: usize = 6;
        let mut found: Option<Vec<usize>> = None;
        let mut stack_path: Vec<usize> = Vec::new();
        let mut visited: HashSet<u32> = HashSet::new();

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            g: &HashMap<u32, HashMap<u32, usize>>,
            cur: u32,
            to: u32,
            depth: usize,
            stack_path: &mut Vec<usize>,
            visited: &mut HashSet<u32>,
            found: &mut Option<Vec<usize>>,
            ambiguous: &mut bool,
        ) {
            if *ambiguous || depth > MAX_DEPTH {
                return;
            }
            let Some(nexts) = g.get(&cur) else { return };
            for (&n, &inst) in nexts {
                if *ambiguous {
                    return;
                }
                stack_path.push(inst);
                if n == to {
                    if found.is_some() {
                        *ambiguous = true;
                    } else {
                        *found = Some(stack_path.clone());
                    }
                } else if visited.insert(n) {
                    dfs(g, n, to, depth + 1, stack_path, visited, found, ambiguous);
                    visited.remove(&n);
                }
                stack_path.pop();
            }
        }

        let mut ambiguous = false;
        visited.insert(from);
        dfs(
            &self.edges,
            from,
            to,
            0,
            &mut stack_path,
            &mut visited,
            &mut found,
            &mut ambiguous,
        );
        if ambiguous {
            None
        } else {
            found
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::FastMap;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_sim::{Machine, SimConfig};

    /// a tail-calls b tail-calls c (a loop keeps c busy so samples land).
    const SRC: &str = r#"
fn c(n) {
    let i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
fn b(n) { return c(n); }
fn a(n) { return b(n); }
fn main(n) { let r = a(n); return r; }
"#;

    fn setup() -> (Binary, RangeCounts) {
        let m = csspgo_lang::compile(SRC, "t").unwrap();
        let b = lower_module(&m, &CodegenConfig::default());
        let cfg = SimConfig {
            sample_period: 13,
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&b, cfg);
        machine.call("main", &[5000]).unwrap();
        let samples = machine.take_samples();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        (b, rc)
    }

    #[test]
    fn graph_captures_tail_edges() {
        let (b, rc) = setup();
        let g = TailCallGraph::build(&b, &rc);
        assert!(
            g.edge_count() >= 2,
            "a->b and b->c expected, got {}",
            g.edge_count()
        );
        let _ = b;
    }

    #[test]
    fn unique_chain_is_recovered() {
        let (b, rc) = setup();
        let g = TailCallGraph::build(&b, &rc);
        let fidx = |name: &str| b.funcs.iter().position(|f| f.name == name).unwrap() as u32;
        // main's frame shows a; execution is in c: the missing frames a→b→c.
        let path = g
            .unique_path(fidx("a"), fidx("c"))
            .expect("unique path a->..->c");
        assert_eq!(path.len(), 2, "two tail-call frames (in a and b)");
        // And a direct edge query.
        let short = g.unique_path(fidx("b"), fidx("c")).unwrap();
        assert_eq!(short.len(), 1);
    }

    #[test]
    fn ambiguity_fails_inference() {
        // Two distinct tail-call paths x->z: via y1 and via y2.
        let src = r#"
fn z(n) {
    let i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
fn y1(n) { return z(n); }
fn y2(n) { return z(n); }
fn x(n) {
    if (n % 2 == 0) { return y1(n); }
    return y2(n);
}
fn main(n) {
    let s = x(n) + x(n + 1);
    return s;
}
"#;
        let m = csspgo_lang::compile(src, "t").unwrap();
        let b = lower_module(&m, &CodegenConfig::default());
        let cfg = SimConfig {
            sample_period: 13,
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&b, cfg);
        machine.call("main", &[4000]).unwrap();
        let samples = machine.take_samples();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        let g = TailCallGraph::build(&b, &rc);
        let fidx = |name: &str| b.funcs.iter().position(|f| f.name == name).unwrap() as u32;
        assert_eq!(
            g.unique_path(fidx("x"), fidx("z")),
            None,
            "two paths must make inference fail"
        );
    }

    /// One caller, two tail calls to one callee: the graph keeps the lower
    /// call site however the branch map happens to iterate. The same two
    /// branches go into maps of many capacities, in both insertion orders.
    #[test]
    fn two_tail_calls_to_one_callee_do_not_depend_on_map_order() {
        let src = r#"
fn z(n) {
    let i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
fn x(n) {
    if (n % 2 == 0) { return z(n); }
    return z(n + 1);
}
fn main(n) { return x(n) + 1; }
"#;
        let m = csspgo_lang::compile(src, "t").unwrap();
        let b = lower_module(&m, &CodegenConfig::default());
        let fidx = |name: &str| b.funcs.iter().position(|f| f.name == name).unwrap() as u32;
        let (x, z) = (fidx("x"), fidx("z"));
        let sites: Vec<usize> = (0..b.len())
            .filter(|&i| matches!(b.insts[i].kind, MInstKind::TailCall { .. }))
            .filter(|&i| b.func_of[i] == x)
            .collect();
        assert_eq!(sites.len(), 2, "x must tail-call z from two sites");
        let branches: Vec<(usize, usize)> = sites
            .iter()
            .map(|&s| (s, b.funcs[z as usize].entry))
            .collect();
        for capacity in (0..12).map(|k| 1usize << k) {
            for reversed in [false, true] {
                let mut order = branches.clone();
                if reversed {
                    order.reverse();
                }
                let mut map = FastMap::with_capacity_and_hasher(capacity, Default::default());
                map.extend(order.into_iter().map(|branch| (branch, 1)));
                let rc = RangeCounts {
                    branches: map,
                    ..RangeCounts::default()
                };
                let edges: Vec<_> = TailCallGraph::build(&b, &rc).edges().collect();
                assert_eq!(
                    edges,
                    vec![(x, z, sites[0])],
                    "capacity {capacity}, reversed {reversed}"
                );
            }
        }
    }

    #[test]
    fn no_path_returns_none() {
        let (b, rc) = setup();
        let g = TailCallGraph::build(&b, &rc);
        let fidx = |name: &str| b.funcs.iter().position(|f| f.name == name).unwrap() as u32;
        assert_eq!(g.unique_path(fidx("c"), fidx("a")), None);
    }
}
