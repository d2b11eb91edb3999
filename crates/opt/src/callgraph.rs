//! Static call graph with Tarjan SCCs and bottom-up ordering.

use csspgo_ir::inst::InstKind;
use csspgo_ir::{FuncId, Module};
use std::collections::HashSet;

/// A static call graph over a module's functions.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Deduplicated callee list per function.
    pub callees: Vec<Vec<FuncId>>,
    /// SCC index per function; SCCs are numbered in *reverse topological*
    /// order (callees' SCCs get lower numbers than callers').
    pub scc: Vec<usize>,
}

impl CallGraph {
    /// Builds the call graph of `module`.
    pub fn build(module: &Module) -> Self {
        let n = module.functions.len();
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        for func in &module.functions {
            let mut seen = HashSet::new();
            for (_, block) in func.iter_blocks() {
                for inst in &block.insts {
                    if let InstKind::Call { callee, .. } = inst.kind {
                        if seen.insert(callee) {
                            callees[func.id.index()].push(callee);
                        }
                    }
                }
            }
        }
        let scc = tarjan(&callees, n);
        CallGraph { callees, scc }
    }

    /// Whether `a` and `b` are mutually recursive (same SCC).
    pub fn same_scc(&self, a: FuncId, b: FuncId) -> bool {
        self.scc[a.index()] == self.scc[b.index()]
    }

    /// Functions in bottom-up order: callees before callers.
    pub fn bottom_up_order(&self) -> Vec<FuncId> {
        let mut order: Vec<FuncId> = (0..self.callees.len()).map(FuncId::from_index).collect();
        order.sort_by_key(|f| self.scc[f.index()]);
        order
    }

    /// Functions in top-down order: callers before callees.
    pub fn top_down_order(&self) -> Vec<FuncId> {
        let mut order = self.bottom_up_order();
        order.reverse();
        order
    }
}

/// Iterative Tarjan SCC. Returns the SCC index per node, with SCCs numbered
/// so that every edge `u -> v` (u caller, v callee) has `scc[v] <= scc[u]` —
/// i.e. reverse-topological numbering.
fn tarjan(adj: &[Vec<FuncId>], n: usize) -> Vec<usize> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut st = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut scc = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_scc = 0usize;

    for start in 0..n {
        if st[start].visited {
            continue;
        }
        // Explicit DFS stack: (node, next child position).
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        st[start].visited = true;
        st[start].index = next_index;
        st[start].lowlink = next_index;
        next_index += 1;
        stack.push(start);
        st[start].on_stack = true;

        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci].index();
                *ci += 1;
                if !st[w].visited {
                    st[w].visited = true;
                    st[w].index = next_index;
                    st[w].lowlink = next_index;
                    next_index += 1;
                    stack.push(w);
                    st[w].on_stack = true;
                    dfs.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let low = st[v].lowlink;
                    st[parent].lowlink = st[parent].lowlink.min(low);
                }
                if st[v].lowlink == st[v].index {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        st[w].on_stack = false;
                        scc[w] = next_scc;
                        if w == v {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    scc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> (Module, CallGraph) {
        let m = csspgo_lang::compile(src, "t").unwrap();
        let g = CallGraph::build(&m);
        (m, g)
    }

    #[test]
    fn bottom_up_puts_callees_first() {
        let (m, g) = graph("fn a() { return b(); } fn b() { return c(); } fn c() { return 1; }");
        let order = g.bottom_up_order();
        let pos = |name: &str| {
            let id = m.find_function(name).unwrap();
            order.iter().position(|&f| f == id).unwrap()
        };
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn mutual_recursion_shares_scc() {
        let (m, g) =
            graph("fn a(x) { return b(x); } fn b(x) { return a(x); } fn c() { return a(1); }");
        let a = m.find_function("a").unwrap();
        let b = m.find_function("b").unwrap();
        let c = m.find_function("c").unwrap();
        assert!(g.same_scc(a, b));
        assert!(!g.same_scc(a, c));
        // c calls into the SCC, so the SCC is "below" c.
        assert!(g.scc[a.index()] < g.scc[c.index()]);
    }

    #[test]
    fn self_recursion_is_its_own_scc() {
        let (m, g) = graph("fn f(x) { if (x > 0) { return f(x - 1); } return 0; }");
        let f = m.find_function("f").unwrap();
        assert!(g.same_scc(f, f));
    }

    #[test]
    fn callees_deduplicated() {
        let (m, g) = graph("fn g() { return 1; } fn f() { return g() + g(); }");
        let f = m.find_function("f").unwrap();
        assert_eq!(g.callees[f.index()].len(), 1);
    }
}
