//! Profile inference: repairing raw correlated counts into a
//! flow-consistent profile.
//!
//! Sampling (and lossy correlation) produces block counts that violate flow
//! conservation. Following the paper's setup — "CSSPGO by default uses
//! Profi, an advanced profile inference component; we also turned on Profi
//! for AutoFDO" — every sampling variant runs the same inference.
//!
//! Two algorithms are available behind [`InferenceMode`]:
//!
//! * [`InferenceMode::Mcf`] (default) — real Profi-style minimum-cost-flow
//!   inference ([`mcf`]): the flow-consistent profile closest to the
//!   measurements under a confidence-weighted cost model, yielding jointly
//!   consistent block *and* edge counts that pass the PF Kirchhoff lints by
//!   construction.
//! * [`InferenceMode::Heuristic`] — the original local fixpoint stand-in:
//!   raw counts become branch *probabilities* (with additive smoothing so
//!   unsampled-but-reachable blocks keep non-zero likelihood), then entry
//!   flow is propagated through the CFG to a fixpoint. Kept as the fallback
//!   for infeasible networks and as the differential-test reference.

pub mod mcf;

use csspgo_ir::{cfg, BlockId, Function};
use std::collections::HashMap;
use std::str::FromStr;

/// Number of propagation sweeps; loops converge geometrically, so a couple
/// dozen sweeps settle any realistic trip count distribution.
const SWEEPS: usize = 64;

/// Which algorithm repairs raw correlated counts. Lives in
/// [`crate::annotate::AnnotateConfig`] and is surfaced through
/// [`crate::pipeline::PipelineConfig`]'s builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InferenceMode {
    /// Diagnostic-only: annotate the raw counts untouched. Used by the
    /// analysis layer for before/after lint comparisons; never the right
    /// choice for an optimizing build.
    Off,
    /// The local fixpoint probability-propagation heuristic.
    Heuristic,
    /// Minimum-cost-flow inference (see [`mcf`]); falls back to the
    /// heuristic on the rare infeasible network.
    #[default]
    Mcf,
}

impl InferenceMode {
    /// Stable lowercase name, matching [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            InferenceMode::Off => "off",
            InferenceMode::Heuristic => "heuristic",
            InferenceMode::Mcf => "mcf",
        }
    }
}

impl FromStr for InferenceMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(InferenceMode::Off),
            "heuristic" => Ok(InferenceMode::Heuristic),
            "mcf" => Ok(InferenceMode::Mcf),
            other => Err(format!(
                "unknown inference mode `{other}` (expected off|heuristic|mcf)"
            )),
        }
    }
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
    /// Total min-cost-flow routing cost (0 for the heuristic — it has no
    /// cost model).
    pub residual_cost: u64,
}

impl InferenceStats {
    /// Accumulates another function's (or module's) stats into `self`.
    pub fn merge(&mut self, other: &InferenceStats) {
        self.functions += other.functions;
        self.counts_adjusted += other.counts_adjusted;
        self.flow_moved += other.flow_moved;
        self.residual_cost = self.residual_cost.saturating_add(other.residual_cost);
    }
}

/// The outcome of inferring one function's profile.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Repaired per-block counts (flow-consistent for [`InferenceMode::Mcf`]).
    pub counts: HashMap<BlockId, u64>,
    /// Repaired per-edge counts; `Some` only when the MCF solver ran (the
    /// heuristic and `Off` produce block counts only).
    pub edges: Option<Vec<(BlockId, BlockId, u64)>>,
    /// What inference did, for aggregation into `AnnotateStats`.
    pub stats: InferenceStats,
}

/// Repairs `raw` block counts for `func` into counts scaled to
/// `entry_count` at the entry block, using the configured algorithm. This is
/// the config-driven entry point annotation (and everything downstream of
/// it: stream refresh, fleet recompiles) goes through.
pub fn infer_counts(
    func: &Function,
    raw: &HashMap<BlockId, u64>,
    entry_count: u64,
    mode: InferenceMode,
) -> InferenceResult {
    match mode {
        InferenceMode::Off => InferenceResult {
            counts: raw.clone(),
            edges: None,
            stats: InferenceStats {
                functions: 1,
                ..InferenceStats::default()
            },
        },
        InferenceMode::Heuristic => heuristic_result(func, raw, entry_count),
        InferenceMode::Mcf => match mcf::solve(func, raw, entry_count) {
            Some(out) => {
                let (counts_adjusted, flow_moved) = diff_stats(raw, &out.counts);
                InferenceResult {
                    counts: out.counts,
                    edges: Some(out.edges),
                    stats: InferenceStats {
                        functions: 1,
                        counts_adjusted,
                        flow_moved,
                        residual_cost: out.cost,
                    },
                }
            }
            None => heuristic_result(func, raw, entry_count),
        },
    }
}

/// (#adjusted blocks, Σ|final − raw|) over the inferred block set.
fn diff_stats(raw: &HashMap<BlockId, u64>, counts: &HashMap<BlockId, u64>) -> (u64, u64) {
    let mut adjusted = 0u64;
    let mut moved = 0u64;
    for (b, &c) in counts {
        let r = raw.get(b).copied().unwrap_or(0);
        if c != r {
            adjusted += 1;
            moved += c.abs_diff(r);
        }
    }
    (adjusted, moved)
}

fn heuristic_result(
    func: &Function,
    raw: &HashMap<BlockId, u64>,
    entry_count: u64,
) -> InferenceResult {
    let counts = heuristic_counts(func, raw, entry_count);
    let (counts_adjusted, flow_moved) = diff_stats(raw, &counts);
    InferenceResult {
        counts,
        edges: None,
        stats: InferenceStats {
            functions: 1,
            counts_adjusted,
            flow_moved,
            residual_cost: 0,
        },
    }
}

/// Successor branch probabilities from raw counts. A successor's raw count
/// is the branch-weight signal; when the block's own count exceeds the sum
/// of successor counts (typically because an exit block was never sampled),
/// the shortfall is distributed evenly — this is what lets a sampled loop
/// imply a finite trip count even when its exit has no samples. The last
/// successor absorbs the rounding remainder so every block's outgoing
/// probabilities sum to exactly 1.0.
fn successor_probs(
    func: &Function,
    raw: &HashMap<BlockId, u64>,
    order: &[BlockId],
) -> HashMap<(BlockId, BlockId), f64> {
    let mut probs: HashMap<(BlockId, BlockId), f64> = HashMap::new();
    for &b in order {
        let succs = cfg::successors(func, b);
        if succs.is_empty() {
            continue;
        }
        let weights: Vec<f64> = succs
            .iter()
            .map(|s| raw.get(s).copied().unwrap_or(0) as f64)
            .collect();
        let sum: f64 = weights.iter().sum();
        let own = raw.get(&b).copied().unwrap_or(0) as f64;
        let base = own.max(sum).max(1.0);
        let leftover = (base - sum) / succs.len() as f64;
        let mut assigned = 0.0f64;
        let last = succs.len() - 1;
        for (k, (s, w)) in succs.iter().zip(&weights).enumerate() {
            let p = if k == last {
                // Close the distribution exactly: floating-point division
                // leaves `(w + leftover) / base` summing slightly off 1.0,
                // which compounds through fixpoint propagation.
                (1.0 - assigned).max(0.0)
            } else {
                (w + leftover) / base
            };
            assigned += p;
            probs.insert((b, *s), p);
        }
    }
    probs
}

/// The local fixpoint heuristic: probabilities from raw counts, then flow
/// propagation with geometric loop closure. At each loop header the
/// fixpoint `flow = external / (1 - cyclic probability)` replaces naive
/// iteration, so tight loops (trip counts in the thousands) converge in a
/// handful of sweeps. Back edges are edges whose target dominates their
/// source.
fn heuristic_counts(
    func: &Function,
    raw: &HashMap<BlockId, u64>,
    entry_count: u64,
) -> HashMap<BlockId, u64> {
    let order = cfg::reverse_post_order(func);
    if order.is_empty() {
        return HashMap::new();
    }
    let probs = successor_probs(func, raw, &order);
    let dom = csspgo_ir::dom::Dominators::compute(func);
    let preds = cfg::predecessors(func);
    let max_cyclic = 1.0 - 1.0 / 4096.0; // trip-count cap

    let mut flow: HashMap<BlockId, f64> = HashMap::new();
    for _ in 0..SWEEPS {
        let mut next: HashMap<BlockId, f64> = HashMap::new();
        for &b in &order {
            let mut external = if b == func.entry {
                entry_count.max(1) as f64
            } else {
                0.0
            };
            let mut back = 0.0;
            for &p in &preds[b.index()] {
                let prob = probs.get(&(p, b)).copied().unwrap_or(0.0);
                if dom.dominates(b, p) {
                    // Back edge: use the previous sweep's value.
                    back += flow.get(&p).copied().unwrap_or(0.0) * prob;
                } else {
                    // Forward edge: Gauss–Seidel, current sweep's value.
                    external += next.get(&p).copied().unwrap_or(0.0) * prob;
                }
            }
            let value = if back > 0.0 {
                let prev = flow.get(&b).copied().unwrap_or(0.0);
                let cyclic = if prev > 0.0 {
                    (back / prev).min(max_cyclic)
                } else {
                    0.0
                };
                external / (1.0 - cyclic)
            } else {
                external
            };
            next.insert(b, value);
        }
        let converged = order.iter().all(|&b| {
            let old = flow.get(&b).copied().unwrap_or(0.0);
            let new = next.get(&b).copied().unwrap_or(0.0);
            (old - new).abs() <= 0.005 * new.abs().max(1.0)
        });
        flow = next;
        if converged {
            break;
        }
    }

    order
        .iter()
        .map(|&b| (b, flow.get(&b).copied().unwrap_or(0.0).round() as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> csspgo_ir::Module {
        csspgo_lang::compile(src, "t").unwrap()
    }

    fn infer(
        f: &Function,
        raw: &HashMap<BlockId, u64>,
        entry: u64,
        mode: InferenceMode,
    ) -> HashMap<BlockId, u64> {
        infer_counts(f, raw, entry, mode).counts
    }

    #[test]
    fn straight_line_gets_entry_flow_everywhere() {
        let m = compile("fn f(a) { let x = a + 1; return x; }");
        let f = &m.functions[0];
        for mode in [InferenceMode::Heuristic, InferenceMode::Mcf] {
            let repaired = infer(f, &HashMap::new(), 100, mode);
            assert_eq!(repaired[&f.entry], 100, "{mode:?}");
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
        for mode in [InferenceMode::Heuristic, InferenceMode::Mcf] {
            let rep = infer(f, &raw, 100, mode);
            let t = rep[&BlockId(1)];
            let e = rep[&BlockId(2)];
            assert_eq!(t + e, rep[&BlockId(0)], "{mode:?}: arm flow sums to entry");
            assert!(t > e * 5, "{mode:?}: bias preserved: {t} vs {e}");
            assert_eq!(rep[&BlockId(3)], 100, "{mode:?}: join re-merges the flow");
        }
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
        for mode in [InferenceMode::Heuristic, InferenceMode::Mcf] {
            let rep = infer(f, &raw, 100, mode);
            assert_eq!(rep[&BlockId(3)], 100, "{mode:?}: join flow equals entry");
            assert_eq!(rep[&BlockId(1)] + rep[&BlockId(2)], 100, "{mode:?}");
        }
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
        for mode in [InferenceMode::Heuristic, InferenceMode::Mcf] {
            let rep = infer(f, &raw, 10, mode);
            let trip = rep[&body] as f64 / 10.0;
            assert!(
                (50.0..200.0).contains(&trip),
                "{mode:?}: implied trip count ~99, got {trip}"
            );
            // Conservation at the header: inflow = entry + latch.
            assert!(rep[&header] >= rep[&body], "{mode:?}");
        }
    }

    #[test]
    fn unsampled_mandatory_blocks_get_flow() {
        // A block with zero samples on the only path must still get flow.
        let m = compile("fn f(a) { let x = a * 2; let y = x + 1; return y; }");
        let f = &m.functions[0];
        for mode in [InferenceMode::Heuristic, InferenceMode::Mcf] {
            let rep = infer(f, &HashMap::new(), 50, mode);
            for (b, _) in f.iter_blocks() {
                assert_eq!(rep[&b], 50, "{mode:?}: mandatory path gets full flow");
            }
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
        let edges = res.edges.as_ref().expect("mcf reports edge counts");
        for (b, _) in f.iter_blocks() {
            let out_sum: u64 = edges.iter().filter(|e| e.0 == b).map(|e| e.2).sum();
            if !cfg::successors(f, b).is_empty() {
                assert_eq!(out_sum, res.counts[&b]);
            }
        }
        assert_eq!(res.stats.functions, 1);
        assert!(
            res.stats.counts_adjusted >= 2,
            "arms and join were repaired"
        );
        assert!(res.stats.flow_moved >= 300, "join alone moved 300");
        assert!(res.stats.residual_cost > 0);
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
    }

    #[test]
    fn successor_probs_sum_to_exactly_one() {
        // Weights chosen so `(w + leftover) / base` is not exactly
        // representable — the pre-fix code summed to 1.0 ± ε here.
        let m = compile(
            "fn f(n) { let s = 0; let i = 0; while (i < n) { if (s > 3) { s = s - 1; } else { s = s + 2; } i = i + 1; } return s; }",
        );
        let f = &m.functions[0];
        let raw: HashMap<BlockId, u64> = f
            .iter_blocks()
            .map(|(b, _)| (b, [3u64, 7, 11, 13, 17, 19, 23][b.index() % 7]))
            .collect();
        let order = cfg::reverse_post_order(f);
        let probs = successor_probs(f, &raw, &order);
        for &b in &order {
            let succs = cfg::successors(f, b);
            if succs.is_empty() {
                continue;
            }
            let sum: f64 = succs.iter().map(|s| probs[&(b, *s)]).sum();
            assert_eq!(sum, 1.0, "block {b:?} probabilities sum to exactly 1.0");
        }
    }

    #[test]
    fn inference_mode_round_trips_through_names() {
        for mode in [
            InferenceMode::Off,
            InferenceMode::Heuristic,
            InferenceMode::Mcf,
        ] {
            assert_eq!(mode.name().parse::<InferenceMode>().unwrap(), mode);
        }
        assert!("profi".parse::<InferenceMode>().is_err());
        assert_eq!(InferenceMode::default(), InferenceMode::Mcf);
    }

    #[test]
    fn stats_merge_accumulates() {
        let a = InferenceStats {
            functions: 2,
            counts_adjusted: 5,
            flow_moved: 40,
            residual_cost: 9,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(m.functions, 4);
        assert_eq!(m.flow_moved, 80);
    }
}
