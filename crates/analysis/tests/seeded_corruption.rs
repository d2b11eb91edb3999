//! Seeded-corruption tests: every lint that checks an in-memory profile or
//! annotation must fire — with the expected stable lint id — when its
//! invariant is deliberately broken, and must stay silent on healthy
//! modules and profiles. One firing and one silent case per lint; that each
//! can also fire on *text* from outside the process is the root package's
//! `tests/regressions.rs`. (`SM` and `WP` findings come out of
//! `Analyzer::judge`; their seeded cases are unit tests beside the
//! emitters.)
//!
//! Cases that left with their lint ids (census: DESIGN.md §14), each beside
//! the test that still checks the behaviour:
//!
//! | removed here | held by |
//! |---|---|
//! | `clean_fresh_module_is_lint_free_under_deny_all`, `clean_optimized_module_is_lint_free_under_deny_all` | `opt::tests::interpass_verify_accepts_probed_modules`, `probe_invariants.rs::{fresh_ir_discriminators_are_sound, cloning_pass_compositions_never_break_probe_invariants}` |
//! | `missing_terminator_fires_iv001` | `ir::verify::tests::missing_terminator_detected` |
//! | `duplicated_probe_without_factor_fires_pi001` | `ir::probe_verify::tests::duplicate_without_factor_flagged` |
//! | `underdeclared_duplication_factor_fires_pi002` | `ir::probe_verify::tests::underdeclared_factor_flagged` |
//! | `mutated_probe_index_fires_pi003` | `ir::probe_verify::tests::out_of_range_index_flagged` |
//! | `corrupted_inline_stack_fires_pi004` | `ir::probe_verify::tests::bad_inline_stack_root_flagged` |
//! | `discriminator_conflict_fires_pi005_on_fresh_ir_only` | `ir::probe_verify::tests::discriminator_conflict_flagged` |
//! | `non_monotone_discriminators_fire_pi006` | `ir::probe_verify::tests::non_monotone_discriminators_flagged` |
//! | `consistent_edge_counts_are_lint_free`, `corrupted_edge_counts_fire_pf006_where_block_lints_stay_silent`, `non_cfg_recorded_edge_fires_pf006` | `proptest_inference::mcf_satisfies_kirchhoff_on_corrupted_inputs` (exact equality, and every recorded edge is a CFG edge) |
//!
//! The five module corruptions (IV001, PI001–PI004) moved, as inputs, to
//! `crates/opt/tests/probe_invariants.rs::every_seeded_corruption_trips_the_interpass_checkpoint`.

use csspgo_analysis::{Analyzer, Diagnostic, Policy, Report, Severity};
use csspgo_core::context::ContextProfile;
use csspgo_core::profile::{FuncProfile, ProbeProfile};
use csspgo_ir::ids::BlockId;
use csspgo_ir::Module;

const SRC: &str = r#"
fn helper(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i);
        i = i + 1;
    }
    return s;
}
"#;

/// A realistic probed module: compiled, discriminators assigned, probes
/// inserted.
fn fresh_module() -> Module {
    let mut m = csspgo_lang::compile(SRC, "corruption").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    m
}

/// The findings of lint `id` in `report`.
fn by_lint<'a>(report: &'a Report, id: &str) -> Vec<&'a Diagnostic> {
    report.diagnostics.iter().filter(|d| d.lint == id).collect()
}

/// Runs `analyze` on a deny-all analyzer and returns what it found.
fn findings(analyze: impl FnOnce(&mut Analyzer)) -> Report {
    let mut a = Analyzer::new(Policy {
        deny: vec!["all".into()],
        allow: Vec::new(),
    });
    analyze(&mut a);
    a.into_report()
}

/// `fresh_module` with `helper`'s entry block counted `entry` times and
/// every other block `rest` times.
fn helper_annotated(entry_count: u64, rest: u64) -> Module {
    let mut m = fresh_module();
    let fid = m.find_function("helper").unwrap();
    let func = m.func_mut(fid);
    let entry = func.entry;
    for (i, b) in func.blocks.iter_mut().enumerate() {
        b.count = Some(if BlockId::from_index(i) == entry {
            entry_count
        } else {
            rest
        });
    }
    m
}

#[test]
fn impossible_block_counts_fire_pf001_and_pf002() {
    // `helper` is branchy but loop-free: entry dominates both arms, so an
    // arm hotter than the entry is impossible both by flow conservation and
    // by dominance.
    let m = helper_annotated(100, 5000);
    let report = findings(|a| a.analyze_flow("seeded", &m));
    for id in ["PF001", "PF002"] {
        assert!(
            !by_lint(&report, id).is_empty(),
            "{}",
            report.render_human()
        );
    }
    assert!(report.has_denied());

    // The flow lints warn by default; denying is the caller's choice.
    let mut a = Analyzer::new(Policy::default());
    a.analyze_flow("seeded", &m);
    let found = a.into_report().diagnostics;
    assert!(!found.is_empty());
    assert!(
        found.iter().all(|d| d.severity == Severity::Warn),
        "flow lints default to Warn"
    );
}

#[test]
fn consistent_block_counts_are_lint_free() {
    // All-equal counts on a loop-free diamond satisfy every inequality.
    let m = helper_annotated(1000, 1000);
    let report = findings(|a| a.analyze_flow("clean", &m));
    assert!(report.diagnostics.is_empty(), "{}", report.render_human());
}

/// A two-node context trie: `main` calling `helper` through call-site probe
/// 2, which counted `callsite_count` calls while the child claims
/// `child_entry` entries.
fn context_profile(m: &Module, callsite_count: u64, child_entry: u64) -> ContextProfile {
    let main_guid = m.func(m.find_function("main").unwrap()).guid;
    let helper_guid = m.func(m.find_function("helper").unwrap()).guid;
    let mut parent = FuncProfile {
        entry: 10,
        ..FuncProfile::default()
    };
    parent.body.insert(2, callsite_count);
    let child = FuncProfile {
        entry: child_entry,
        ..FuncProfile::default()
    };
    parent.callsites.insert((2, helper_guid), child);
    let mut profile = ContextProfile::new();
    profile.roots.insert(main_guid, parent);
    profile.names.insert(main_guid, "main".into());
    profile.names.insert(helper_guid, "helper".into());
    profile
}

#[test]
fn overcounted_child_context_fires_pf003() {
    // The call-site probe counted 10 calls, the child claims 5000 entries.
    let profile = context_profile(&fresh_module(), 10, 5000);
    let report = findings(|a| a.analyze_context_profile("seeded", &profile));
    let found = by_lint(&report, "PF003");
    assert!(!found.is_empty(), "{}", report.render_human());
    // The diagnostic names the parent function and the child path.
    assert_eq!(found[0].func.as_deref(), Some("main"));
    assert!(found[0].location.as_deref().unwrap().contains("helper"));
}

#[test]
fn child_context_within_its_parents_bound_is_lint_free() {
    // Twice the call-site count is estimator disagreement, not corruption.
    let profile = context_profile(&fresh_module(), 1000, 2000);
    let report = findings(|a| a.analyze_context_profile("clean", &profile));
    assert!(report.diagnostics.is_empty(), "{}", report.render_human());
}

/// A one-function probe profile for `main`, built from the module's own
/// checksum and probe watermark by `build`.
fn main_profile(m: &Module, build: impl FnOnce(u64, u32) -> FuncProfile<u32>) -> ProbeProfile {
    let func = m.func(m.find_function("main").unwrap());
    let checksum = func
        .probe_checksum
        .expect("probed module records checksums");
    let mut profile = ProbeProfile::default();
    profile
        .funcs
        .insert(func.guid, build(checksum, func.next_probe_index));
    profile.names.insert(func.guid, "main".into());
    profile
}

#[test]
fn stale_profile_checksum_fires_pf004() {
    let m = fresh_module();
    let profile = main_profile(&m, |checksum, _| FuncProfile {
        checksum: checksum ^ 0xdead_beef, // perturbed: stale binary
        ..FuncProfile::default()
    });
    let report = findings(|a| a.analyze_probe_profile("seeded", &m, &profile));
    assert!(
        !by_lint(&report, "PF004").is_empty(),
        "{}",
        report.render_human()
    );
}

#[test]
fn out_of_range_profile_probe_fires_pf005() {
    let m = fresh_module();
    let profile = main_profile(&m, |checksum, next_probe_index| {
        let mut fp = FuncProfile {
            checksum,
            ..FuncProfile::default()
        };
        fp.body.insert(next_probe_index + 7, 123); // never allocated
        fp
    });
    let report = findings(|a| a.analyze_probe_profile("seeded", &m, &profile));
    assert!(
        !by_lint(&report, "PF005").is_empty(),
        "{}",
        report.render_human()
    );
}

#[test]
fn matching_checksum_and_allocated_probes_are_lint_free() {
    let m = fresh_module();
    let profile = main_profile(&m, |checksum, next_probe_index| {
        let mut fp = FuncProfile {
            checksum,
            ..FuncProfile::default()
        };
        fp.body.insert(next_probe_index - 1, 123); // the last real probe
        fp
    });
    let report = findings(|a| a.analyze_probe_profile("clean", &m, &profile));
    assert!(report.diagnostics.is_empty(), "{}", report.render_human());
}
