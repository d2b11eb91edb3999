//! Pre-inliner plans: the inline decisions profile generation
//! (`csspgo-core`) hands the optimizer (`csspgo-opt`).

use crate::probe::ProbeSite;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A pre-inliner decision set (paper §III.B, Algorithm 2): inline chains
/// expressed as paths of call-site probes from an outermost function.
///
/// The optimizer's top-down sample-loader inliner honours these decisions
/// when legal, which is how the paper works around ThinLTO's inability to
/// move profile across modules.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct InlinePlan {
    /// Each entry is a chain of call-site probes, outermost first; the chain
    /// `[(f, p1), (g, p2)]` means "inline the callee at probe `p1` of `f`
    /// (which is `g`) and then the callee at probe `p2` of that inlined `g`".
    pub paths: HashSet<Vec<ProbeSite>>,
}

impl InlinePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a decision to inline along `path`.
    pub fn add(&mut self, path: Vec<ProbeSite>) {
        debug_assert!(!path.is_empty());
        self.paths.insert(path);
    }

    /// Whether the call site reached via `path` should be inlined.
    pub fn should_inline(&self, path: &[ProbeSite]) -> bool {
        self.paths.contains(path)
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FuncId;

    #[test]
    fn inline_plan_prefix_queries() {
        let mut plan = InlinePlan::new();
        let site = |f: u32, p: u32| ProbeSite {
            func: FuncId(f),
            probe_index: p,
        };
        plan.add(vec![site(0, 1)]);
        plan.add(vec![site(0, 1), site(1, 2)]);
        assert!(plan.should_inline(&[site(0, 1)]));
        assert!(plan.should_inline(&[site(0, 1), site(1, 2)]));
        assert!(!plan.should_inline(&[site(1, 2)]));
        assert_eq!(plan.len(), 2);
    }
}
