//! Profile inference: repairing raw correlated counts into a
//! flow-consistent profile.
//!
//! Sampling (and lossy correlation) produces block counts that violate flow
//! conservation. Following the paper's setup — "CSSPGO by default uses
//! Profi, an advanced profile inference component; we also turned on Profi
//! for AutoFDO" — every sampling variant runs the same inference: real
//! Profi-style minimum-cost flow ([`mcf`]), the flow-consistent profile
//! closest to the measurements under a confidence-weighted cost model,
//! yielding jointly consistent block *and* edge counts that pass the PF
//! Kirchhoff lints by construction.
//!
//! The solver *declines* a function with no reachable return at all: its
//! head count can never drain, so no flow-consistent profile exists. The
//! front end cannot produce one (every MiniLang function ends in a return);
//! hand-built CFGs can. A declined function keeps its measured counts and is
//! counted in [`InferenceStats::declined`].

pub mod mcf;

use csspgo_ir::{BlockId, Function};
use std::collections::HashMap;

/// Which algorithm repairs raw correlated counts. Lives in
/// [`crate::annotate::AnnotateConfig`] and is surfaced through
/// [`crate::pipeline::PipelineConfig`]'s builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InferenceMode {
    /// Diagnostic-only: annotate the raw counts untouched. Used by the
    /// analysis layer for before/after lint comparisons; never the right
    /// choice for an optimizing build.
    Off,
    /// Minimum-cost-flow inference (see [`mcf`]).
    #[default]
    Mcf,
}

/// Aggregate inference work done during annotation, merged across functions
/// into `AnnotateStats` and surfaced in the bench records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InferenceStats {
    /// Functions that went through inference.
    pub functions: u64,
    /// Blocks whose final count differs from the raw measurement.
    pub counts_adjusted: u64,
    /// Total absolute count change, Σ|final − raw| over all blocks.
    pub flow_moved: u64,
    /// Total min-cost-flow routing cost.
    pub residual_cost: u64,
    /// Functions the solver declined (no reachable return): their measured
    /// counts were kept as they were.
    pub declined: u64,
}

impl InferenceStats {
    /// Accumulates another function's (or module's) stats into `self`.
    pub fn merge(&mut self, other: &InferenceStats) {
        self.functions += other.functions;
        self.counts_adjusted += other.counts_adjusted;
        self.flow_moved += other.flow_moved;
        self.residual_cost = self.residual_cost.saturating_add(other.residual_cost);
        self.declined += other.declined;
    }
}

/// The outcome of inferring one function's profile.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Repaired per-block counts (flow-consistent for [`InferenceMode::Mcf`]).
    pub counts: HashMap<BlockId, u64>,
    /// Repaired per-edge counts; `Some` only when the MCF solver ran
    /// (`Off` and a declined function carry block counts only).
    pub edges: Option<Vec<(BlockId, BlockId, u64)>>,
    /// What inference did, for aggregation into `AnnotateStats`.
    pub stats: InferenceStats,
}

/// Repairs `raw` block counts for `func` into counts scaled to
/// `entry_count` at the entry block. This is the entry point annotation
/// (and everything downstream of it: stream refresh, fleet recompiles) goes
/// through. Under [`InferenceMode::Off`], and for a function the solver
/// declines, the measured counts come back untouched with no edge counts.
pub fn infer_counts(
    func: &Function,
    raw: &HashMap<BlockId, u64>,
    entry_count: u64,
    mode: InferenceMode,
) -> InferenceResult {
    let solved = match mode {
        InferenceMode::Off => None,
        InferenceMode::Mcf => mcf::solve(func, raw, entry_count),
    };
    let Some(out) = solved else {
        return InferenceResult {
            counts: raw.clone(),
            edges: None,
            stats: InferenceStats {
                functions: 1,
                declined: u64::from(mode == InferenceMode::Mcf),
                ..InferenceStats::default()
            },
        };
    };
    let mut stats = InferenceStats {
        functions: 1,
        residual_cost: out.cost,
        ..InferenceStats::default()
    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::cfg;

    fn compile(src: &str) -> csspgo_ir::Module {
        csspgo_lang::compile(src, "t").unwrap()
    }

    fn infer(f: &Function, raw: &HashMap<BlockId, u64>, entry: u64) -> HashMap<BlockId, u64> {
        infer_counts(f, raw, entry, InferenceMode::Mcf).counts
    }

    /// Kirchhoff on the way out: every non-exit block's edge counts sum to
    /// its block count.
    fn assert_outflow_conserved(f: &Function, res: &InferenceResult) {
        let edges = res.edges.as_ref().expect("mcf reports edge counts");
        for (b, _) in f.iter_blocks() {
            if !cfg::successors(f, b).is_empty() {
                let out: u64 = edges.iter().filter(|e| e.0 == b).map(|e| e.2).sum();
                assert_eq!(out, res.counts[&b], "outflow of {b:?}");
            }
        }
    }

    #[test]
    fn diamond_flow_is_conserved() {
        let m = compile("fn f(a) { let r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }");
        let f = &m.functions[0];
        // Raw says then-arm 90, else-arm 10 (blocks 1 and 2).
        let raw = HashMap::from([
            (BlockId(0), 100u64),
            (BlockId(1), 90),
            (BlockId(2), 10),
            (BlockId(3), 100),
        ]);
        let rep = infer(f, &raw, 100);
        let t = rep[&BlockId(1)];
        let e = rep[&BlockId(2)];
        assert_eq!(t + e, rep[&BlockId(0)], "arm flow sums to entry");
        assert!(t > e * 5, "bias preserved: {t} vs {e}");
        assert_eq!(rep[&BlockId(3)], 100, "join re-merges the flow");
    }

    #[test]
    fn inconsistent_counts_are_repaired() {
        // Raw claims the join ran more than the entry — impossible.
        let m = compile("fn f(a) { let r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }");
        let f = &m.functions[0];
        let raw = HashMap::from([
            (BlockId(0), 100u64),
            (BlockId(1), 70),
            (BlockId(2), 60),
            (BlockId(3), 400),
        ]);
        let rep = infer(f, &raw, 100);
        assert_eq!(rep[&BlockId(3)], 100, "join flow equals entry");
        assert_eq!(rep[&BlockId(1)] + rep[&BlockId(2)], 100);
    }

    #[test]
    fn loop_trip_counts_recovered() {
        let m = compile(
            "fn f(n) { let i = 0; let s = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
        );
        let f = &m.functions[0];
        // Header sampled 1000, body 990, exit path 10 → ~99 iterations/entry.
        // Find header (condbr) and body blocks dynamically.
        let header = f
            .iter_blocks()
            .find(|(_, b)| {
                matches!(
                    b.terminator().map(|t| &t.kind),
                    Some(csspgo_ir::inst::InstKind::CondBr { .. })
                )
            })
            .map(|(b, _)| b)
            .unwrap();
        let body = cfg::successors(f, header)[0];
        let raw = HashMap::from([(header, 1000u64), (body, 990)]);
        let rep = infer(f, &raw, 10);
        let trip = rep[&body] as f64 / 10.0;
        assert!(
            (50.0..200.0).contains(&trip),
            "implied trip count ~99, got {trip}"
        );
        // Conservation at the header: inflow = entry + latch.
        assert!(rep[&header] >= rep[&body]);
    }

    #[test]
    fn unsampled_mandatory_blocks_get_flow() {
        // A block with zero samples on the only path must still get flow.
        let m = compile("fn f(a) { let x = a * 2; let y = x + 1; return y; }");
        let f = &m.functions[0];
        let rep = infer(f, &HashMap::new(), 50);
        for (b, _) in f.iter_blocks() {
            assert_eq!(rep[&b], 50, "mandatory path gets full flow");
        }
    }

    #[test]
    fn mcf_counts_satisfy_kirchhoff_and_stats_track_changes() {
        let m = compile("fn f(a) { let r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }");
        let f = &m.functions[0];
        let raw = HashMap::from([
            (BlockId(0), 100u64),
            (BlockId(1), 70),
            (BlockId(2), 60),
            (BlockId(3), 400),
        ]);
        let res = infer_counts(f, &raw, 100, InferenceMode::Mcf);
        assert_outflow_conserved(f, &res);
        assert_eq!(res.stats.functions, 1);
        assert!(
            res.stats.counts_adjusted >= 2,
            "arms and join were repaired"
        );
        assert!(res.stats.flow_moved >= 300, "join alone moved 300");
        assert!(res.stats.residual_cost > 0);
        assert_eq!(res.stats.declined, 0);
    }

    #[test]
    fn off_mode_passes_raw_counts_through() {
        let m = compile("fn f(a) { let x = a + 1; return x; }");
        let f = &m.functions[0];
        let raw = HashMap::from([(BlockId(0), 7u64)]);
        let res = infer_counts(f, &raw, 100, InferenceMode::Off);
        assert_eq!(res.counts, raw);
        assert!(res.edges.is_none());
        assert_eq!(res.stats.counts_adjusted, 0);
        assert_eq!(res.stats.declined, 0, "off is a choice, not a decline");
    }

    #[test]
    fn exit_free_cfg_is_declined_and_keeps_measured_counts() {
        // entry → body ⟲ with no return anywhere: the head count can never
        // drain, so no flow-consistent profile exists.
        let mut mb = csspgo_ir::builder::ModuleBuilder::new("t");
        let fid = mb.declare_function("spin", 0);
        let mut fb = mb.function_builder(fid);
        let body = fb.add_block();
        fb.switch_to(fb.entry_block());
        fb.br(body);
        fb.switch_to(body);
        fb.br(body);
        let m = mb.finish();
        let f = m.func(fid);

        let raw = HashMap::from([(f.entry, 3u64), (body, 900)]);
        let res = infer_counts(f, &raw, 3, InferenceMode::Mcf);
        assert_eq!(res.counts, raw, "measured counts come back untouched");
        assert!(res.edges.is_none());
        assert_eq!(res.stats.functions, 1);
        assert_eq!(res.stats.declined, 1);
        assert_eq!(res.stats.counts_adjusted, 0);
    }

    #[test]
    fn exit_free_region_inside_a_function_with_an_exit_is_solved() {
        // `while (1)` keeps its conditional exit edge until `simplify`
        // (which runs after annotation), and the function has a return, so
        // the head count drains however the loop is weighted.
        let m = compile("fn spin(x) { if (x > 5) { while (1) { x = x + 1; } } return x; }");
        let f = &m.functions[0];
        let raw: HashMap<BlockId, u64> = f
            .iter_blocks()
            .map(|(b, _)| (b, [700u64, 3, 90, 11, 5000, 1][b.index() % 6]))
            .collect();
        let res = infer_counts(f, &raw, 40, InferenceMode::Mcf);
        assert_eq!(res.stats.declined, 0);
        assert_eq!(res.counts[&f.entry], 40);
        assert_outflow_conserved(f, &res);
    }

    #[test]
    fn stats_merge_accumulates() {
        let a = InferenceStats {
            functions: 2,
            counts_adjusted: 5,
            flow_moved: 40,
            residual_cost: 9,
            declined: 1,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(m.functions, 4);
        assert_eq!(m.flow_moved, 80);
        assert_eq!(m.declined, 2);
    }
}
