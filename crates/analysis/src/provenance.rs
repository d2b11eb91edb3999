//! Weight-provenance lints (`WP…`): judge the *pedigree* of annotated
//! counts, not their arithmetic. The annotation path tags every block
//! count with a [`Provenance`](csspgo_ir::Provenance) — raw samples,
//! stale-matcher transfer, solver inference, or counter reconstruction —
//! and these lints flag the mixtures that make a profile quietly
//! untrustworthy even when every Kirchhoff check (`PF…`) passes.

use crate::diag::{lint, Policy, Report};
use csspgo_core::annotate::ProvenanceTotals;
use csspgo_ir::{Function, Module};

/// A function is "hot" for `WP001` when it carries at least this share of
/// the module's annotated weight.
const HOT_SHARE: f64 = 0.10;
/// `WP001` fires when more than this share of a hot function's weight is
/// solver-inferred.
const INFERRED_MAJORITY: f64 = 0.50;
/// `WP003` fires when more than this share of the module's weight was
/// transferred by the stale matcher.
const MAX_SALVAGED_SHARE: f64 = 0.50;
/// Weight floor below which functions and modules are statistically
/// meaningless and skipped.
const MIN_WEIGHT: u64 = 64;

/// Sums the annotated weight of `funcs` by provenance tag. Blocks without
/// a tag contribute nothing.
fn weights<'a>(funcs: impl IntoIterator<Item = &'a Function>) -> ProvenanceTotals {
    let mut w = ProvenanceTotals::default();
    for (_, block) in funcs.into_iter().flat_map(Function::iter_blocks) {
        if let (Some(count), Some(tag)) = (block.count, block.provenance) {
            w.add(tag, count);
        }
    }
    w
}

/// Runs the provenance lints over an annotated module and returns its
/// per-tag weight totals:
///
/// * `WP001` — a hot function (≥ [`HOT_SHARE`] of module weight) whose
///   weight is majority solver-inferred;
/// * `WP003` — stale-matched weight exceeding [`MAX_SALVAGED_SHARE`] of the
///   module's total.
pub(crate) fn analyze_provenance(
    policy: &Policy,
    unit: &str,
    module: &Module,
    report: &mut Report,
) -> ProvenanceTotals {
    let totals = weights(&module.functions);
    let module_total = totals.total();
    for func in &module.functions {
        let fw = weights([func]);
        let ftotal = fw.total();
        if ftotal >= MIN_WEIGHT
            && ftotal as f64 >= HOT_SHARE * module_total as f64
            && fw.inferred as f64 > INFERRED_MAJORITY * ftotal as f64
        {
            report.emit(
                policy,
                lint("WP001"),
                unit,
                Some(func.name.clone()),
                None,
                format!(
                    "{} of {} annotated weight is solver-inferred in a function carrying {:.0}% of module weight",
                    fw.inferred,
                    ftotal,
                    ftotal as f64 / module_total as f64 * 100.0
                ),
            );
        }
    }
    if module_total >= MIN_WEIGHT
        && totals.stale_matched as f64 > MAX_SALVAGED_SHARE * module_total as f64
    {
        report.emit(
            policy,
            lint("WP003"),
            unit,
            None,
            None,
            format!(
                "{:.0}% of module weight ({} of {}) is stale-matcher salvage (max {:.0}%)",
                totals.stale_matched as f64 / module_total as f64 * 100.0,
                totals.stale_matched,
                module_total,
                MAX_SALVAGED_SHARE * 100.0
            ),
        );
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::Provenance;

    fn annotated(src: &str, tag: Provenance, count: u64) -> Module {
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        for f in &mut m.functions {
            for block in f.blocks.iter_mut().filter(|b| !b.dead) {
                block.count = Some(count);
                block.provenance = Some(tag);
            }
            f.entry_count = Some(count);
        }
        m
    }

    fn analyze(m: &Module) -> (ProvenanceTotals, Report) {
        let mut report = Report::new();
        let totals = analyze_provenance(&Policy::default(), "t", m, &mut report);
        (totals, report)
    }

    const LOOPY: &str = "fn f(n) { let i = 0; while (i < n) { i = i + 1; } return i; }";

    #[test]
    fn clean_sampled_module_has_no_findings() {
        let (totals, report) = analyze(&annotated(LOOPY, Provenance::Sampled, 1000));
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        assert_eq!(totals.sampled, totals.total());
    }

    #[test]
    fn hot_inferred_function_fires_wp001() {
        let (_, report) = analyze(&annotated(LOOPY, Provenance::Inferred, 1000));
        assert!(!report.by_lint("WP001").is_empty());
    }

    #[test]
    fn salvage_share_fires_wp003() {
        let (_, report) = analyze(&annotated(LOOPY, Provenance::StaleMatched, 1000));
        assert!(!report.by_lint("WP003").is_empty());
    }

    #[test]
    fn untagged_modules_are_silent() {
        let (totals, report) = analyze(&csspgo_lang::compile(LOOPY, "t").unwrap());
        assert_eq!(totals.total(), 0);
        assert!(report.diagnostics.is_empty());
    }
}
