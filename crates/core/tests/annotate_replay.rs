//! Inline-replay tests for the sample loader: AutoFDO replays the profiling
//! build's nested inline instances; probe-only CSSPGO replays nested probe
//! profiles; full CSSPGO replays exactly the pre-inliner's plan.

use csspgo_core::annotate::{autofdo_annotate, csspgo_annotate, AnnotateConfig};
use csspgo_core::profile::{FlatProfile, LocKey, ProbeProfile};
use csspgo_ir::inst::InstKind;
use csspgo_ir::probe::{cfg_checksum, function_guid};
use csspgo_ir::{InlinePlan, Module, ProbeSite};

const SRC: &str = "fn helper(x) {\n    return x + 1;\n}\nfn main(a) {\n    return helper(a);\n}";

fn fresh(probes: bool) -> Module {
    let mut m = csspgo_lang::compile(SRC, "t").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    if probes {
        csspgo_opt::probes::run(&mut m);
    }
    m
}

fn call_count(m: &Module, name: &str) -> usize {
    let f = m.find_function(name).unwrap();
    m.func(f)
        .iter_blocks()
        .flat_map(|(_, b)| &b.insts)
        .filter(|i| matches!(i.kind, InstKind::Call { .. }))
        .count()
}

#[test]
fn autofdo_replays_nested_inline_instances() {
    let mut m = fresh(false);
    let main_guid = function_guid("main");
    let helper_guid = function_guid("helper");
    let mut profile = FlatProfile::default();
    profile.names.insert(main_guid, "main".into());
    profile.names.insert(helper_guid, "helper".into());
    let fp = profile.funcs.entry(main_guid).or_default();
    fp.entry = 50;
    // The call site is on line 5; `fn main` on line 4 → offset 1. The
    // nested instance says "helper was inlined here in the profiled binary".
    let nested = fp.callsite_mut(
        LocKey {
            line_offset: 1,
            discriminator: 0,
        },
        helper_guid,
    );
    nested.record_max(
        LocKey {
            line_offset: 0,
            discriminator: 0,
        },
        400,
    );

    let stats = autofdo_annotate(&mut m, &profile, &AnnotateConfig::default());
    assert_eq!(stats.replayed_inlines, 1, "nested instance must replay");
    assert_eq!(call_count(&m, "main"), 0, "call gone after replay");
}

#[test]
fn autofdo_does_not_replay_without_nested_profile() {
    let mut m = fresh(false);
    let main_guid = function_guid("main");
    let mut profile = FlatProfile::default();
    profile.names.insert(main_guid, "main".into());
    let fp = profile.funcs.entry(main_guid).or_default();
    fp.record_max(
        LocKey {
            line_offset: 1,
            discriminator: 0,
        },
        400,
    );
    let stats = autofdo_annotate(&mut m, &profile, &AnnotateConfig::default());
    assert_eq!(stats.replayed_inlines, 0);
    assert_eq!(call_count(&m, "main"), 1, "call stays");
}

/// Builds a probe profile matching the fresh probed module's shape, with a
/// nested instance for the call at main's call-site probe.
fn probe_profile_with_nested(m: &Module) -> ProbeProfile {
    let main = m.find_function("main").unwrap();
    let helper = m.find_function("helper").unwrap();
    // Find main's call-site probe index.
    let call_probe = m
        .func(main)
        .iter_blocks()
        .flat_map(|(_, b)| &b.insts)
        .find_map(|i| match &i.kind {
            InstKind::PseudoProbe {
                index,
                kind: csspgo_ir::ProbeKind::Call,
                ..
            } => Some(*index),
            _ => None,
        })
        .expect("main has a call probe");

    let mut profile = ProbeProfile::default();
    profile.names.insert(m.func(main).guid, "main".into());
    profile.names.insert(m.func(helper).guid, "helper".into());
    let fp = profile.funcs.entry(m.func(main).guid).or_default();
    fp.checksum = m
        .func(main)
        .probe_checksum
        .unwrap_or_else(|| cfg_checksum(m.func(main)));
    fp.entry = 50;
    fp.record_sum(1, 500);
    fp.record_sum(call_probe, 500);
    let nested = fp.callsite_mut(call_probe, m.func(helper).guid);
    nested.checksum = m
        .func(helper)
        .probe_checksum
        .unwrap_or_else(|| cfg_checksum(m.func(helper)));
    nested.record_sum(1, 500);
    profile
}

#[test]
fn probe_only_replays_nested_probe_profiles() {
    let mut m = fresh(true);
    let profile = probe_profile_with_nested(&m);
    let stats = csspgo_annotate(&mut m, &profile, None, &AnnotateConfig::default());
    assert_eq!(stats.stale_total(), 0);
    assert_eq!(stats.replayed_inlines, 1);
    assert_eq!(call_count(&m, "main"), 0);
}

#[test]
fn plan_replay_is_exact_not_heuristic() {
    // With a plan present, nested profiles alone must NOT trigger replay —
    // only the plan's paths do.
    let mut m = fresh(true);
    let profile = probe_profile_with_nested(&m);
    let empty_plan = InlinePlan::new();
    let stats = csspgo_annotate(
        &mut m,
        &profile,
        Some(&empty_plan),
        &AnnotateConfig::default(),
    );
    assert_eq!(stats.replayed_inlines, 0, "empty plan inlines nothing");
    assert_eq!(call_count(&m, "main"), 1);

    // Now with the matching plan path.
    let mut m = fresh(true);
    let main = m.find_function("main").unwrap();
    let call_probe = m
        .func(main)
        .iter_blocks()
        .flat_map(|(_, b)| &b.insts)
        .find_map(|i| match &i.kind {
            InstKind::PseudoProbe {
                index,
                kind: csspgo_ir::ProbeKind::Call,
                ..
            } => Some(*index),
            _ => None,
        })
        .unwrap();
    let mut plan = InlinePlan::new();
    plan.add(vec![ProbeSite {
        func: main,
        probe_index: call_probe,
    }]);
    let stats = csspgo_annotate(&mut m, &profile, Some(&plan), &AnnotateConfig::default());
    assert_eq!(stats.replayed_inlines, 1, "planned path replays");
    assert_eq!(call_count(&m, "main"), 0);
}

#[test]
fn replayed_bodies_receive_context_counts() {
    let mut m = fresh(true);
    let profile = probe_profile_with_nested(&m);
    csspgo_annotate(&mut m, &profile, None, &AnnotateConfig::default());
    // The inlined helper body (cloned blocks) must carry counts derived
    // from the nested profile (500), not be left unannotated.
    let main = m.find_function("main").unwrap();
    let max = m
        .func(main)
        .iter_blocks()
        .filter_map(|(_, b)| b.count)
        .max()
        .unwrap_or(0);
    assert!(max >= 400, "inlined body counts applied: {max}");
}
