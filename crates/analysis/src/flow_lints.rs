//! Flow lints over a profile-annotated module: Kirchhoff bounds (`PF001`)
//! and dominance bounds (`PF002`) on block counts.

use crate::diag::{lint, Policy, Report};
use csspgo_ir::cfg;
use csspgo_ir::dom::Dominators;
use csspgo_ir::ids::BlockId;
use csspgo_ir::loops::LoopInfo;
use csspgo_ir::{Function, Module};

// Annotated counts come from *sampled* profiles, so every inequality gets
// slack, and counts too small to mean anything are skipped.
/// Relative slack on each inequality.
const REL: f64 = 0.05;
/// Absolute slack in samples.
const ABS: f64 = 16.0;
/// Blocks with a count below this are skipped entirely.
const MIN_COUNT: u64 = 32;

/// Checks annotated block counts for flow-conservation violations (`PF001`)
/// and dominance impossibilities (`PF002`).
///
/// On block counts Kirchhoff's law is a pair of inequalities: a non-exit
/// block cannot execute more often than its successors combined, a
/// non-entry block not more often than its predecessors combined.
/// Dominance gives `count(b) ≤ count(idom(b))` — but only for blocks
/// outside every natural loop, since loop bodies are legitimately hotter
/// than their dominating preheaders. (That attached *edge* counts reconcile
/// exactly is the solver's own property, held by
/// `proptest_inference::mcf_satisfies_kirchhoff_on_corrupted_inputs`.)
pub(crate) fn analyze_flow(policy: &Policy, unit: &str, module: &Module, report: &mut Report) {
    for func in &module.functions {
        analyze_function_flow(policy, unit, func, report);
    }
}

/// How many flow findings `module`'s annotation carries under the
/// registry's default severities — the `PF raw→inferred` measure of how
/// much repair inference had to do, whatever the caller's policy silences.
pub(crate) fn count_flow_findings(module: &Module) -> usize {
    let mut report = Report::new();
    analyze_flow(&Policy::default(), "", module, &mut report);
    report.diagnostics.len()
}

fn analyze_function_flow(policy: &Policy, unit: &str, func: &Function, report: &mut Report) {
    if func.iter_blocks().all(|(_, b)| b.count.is_none()) {
        return; // not annotated
    }
    let preds = cfg::predecessors(func);
    let dom = Dominators::compute(func);
    let loops = LoopInfo::compute(func);
    let in_loop = |b: BlockId| loops.depth(b) > 0;

    let emit = |report: &mut Report, id: &str, b: BlockId, msg: String| {
        report.emit(
            policy,
            lint(id),
            unit,
            Some(func.name.clone()),
            Some(b.to_string()),
            msg,
        );
    };

    for (bid, block) in func.iter_blocks() {
        let Some(c) = block.count else { continue };
        if c < MIN_COUNT || !dom.is_reachable(bid) {
            continue;
        }
        let lower_bound = (c as f64) * (1.0 - REL) - ABS;

        // Outflow: a block that does not return must hand its executions to
        // its successors.
        let succs = block.successors();
        if !succs.is_empty() {
            let counts: Option<Vec<u64>> = succs.iter().map(|&s| func.block(s).count).collect();
            if let Some(counts) = counts {
                let total: u64 = counts.iter().sum();
                if (total as f64) < lower_bound {
                    emit(
                        report,
                        "PF001",
                        bid,
                        format!(
                            "block count {c} exceeds combined successor count {total} \
                             (outflow not conserved)"
                        ),
                    );
                }
            }
        }

        // Inflow: a non-entry block must be reached through its predecessors.
        if bid != func.entry {
            let ps = &preds[bid.index()];
            let counts: Option<Vec<u64>> = ps.iter().map(|&p| func.block(p).count).collect();
            if let Some(counts) = counts {
                let total: u64 = counts.iter().sum();
                if (total as f64) < lower_bound {
                    emit(
                        report,
                        "PF001",
                        bid,
                        format!(
                            "block count {c} exceeds combined predecessor count {total} \
                             (inflow not conserved)"
                        ),
                    );
                }
            }
        }

        // Dominance: outside loops, a block cannot outrun its immediate
        // dominator.
        if !in_loop(bid) {
            if let Some(idom) = dom.idom(bid) {
                if idom != bid && !in_loop(idom) {
                    if let Some(dc) = func.block(idom).count {
                        if (c as f64) > (dc as f64) * (1.0 + REL) + ABS {
                            emit(
                                report,
                                "PF002",
                                bid,
                                format!(
                                    "count {c} exceeds immediate dominator {idom}'s \
                                     count {dc} outside any loop"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}
