//! Inline-replay tests for the sample loader: AutoFDO replays the profiling
//! build's nested inline instances; probe-only CSSPGO replays nested probe
//! profiles it judges worth it; full CSSPGO replays exactly the
//! pre-inliner's decisions, which the profile carries as nested call sites
//! with a body.

use csspgo_core::annotate::{autofdo_annotate, csspgo_annotate, AnnotateConfig};
use csspgo_core::profile::{FlatProfile, LocKey, ProbeProfile};
use csspgo_ir::inst::InstKind;
use csspgo_ir::probe::{cfg_checksum, function_guid};
use csspgo_ir::{InlinePlan, Module};

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
    let call_probe = own_call_probe(m, "main");

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
    // Under the full-CSSPGO marker the profile is the plan: a nested call
    // site with a body is the pre-inliner's decision and replays whatever
    // its weight, and a zero-body stub is no decision at all.
    let call_probe = own_call_probe(&fresh(true), "main");
    let helper_guid = function_guid("helper");
    let with_nested_body = |count: u64| {
        let mut profile = probe_profile_with_nested(&fresh(true));
        let main = profile.funcs.get_mut(&function_guid("main")).unwrap();
        let nested = main.callsites.get_mut(&(call_probe, helper_guid)).unwrap();
        nested.body.clear();
        if count > 0 {
            nested.record_sum(1, count);
        } else {
            nested.entry = 500;
        }
        profile
    };
    let replays = |profile: &ProbeProfile, plan: Option<&InlinePlan>| {
        let mut m = fresh(true);
        let stats = csspgo_annotate(&mut m, profile, plan, &AnnotateConfig::default());
        assert_eq!(call_count(&m, "main"), 1 - stats.replayed_inlines);
        stats.replayed_inlines
    };

    // A body too light for the probe-only heuristic is still a decision.
    let light = with_nested_body(1);
    assert_eq!(
        replays(&light, Some(&InlinePlan)),
        1,
        "a body is a decision"
    );
    assert_eq!(replays(&light, None), 0, "probe-only weighs it");

    // A stub (entry count, no probe counts) decides nothing.
    let stub = with_nested_body(0);
    assert_eq!(
        replays(&stub, Some(&InlinePlan)),
        0,
        "a stub is no decision"
    );
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

const NESTED_SRC: &str = "fn leaf(x) {\n    return x + 1;\n}\nfn mid(x) {\n    return leaf(x) * 2;\n}\nfn main(a) {\n    return mid(a);\n}";

/// The index of the (only) call-site probe in `name`'s own body.
fn own_call_probe(m: &Module, name: &str) -> u32 {
    let f = m.find_function(name).unwrap();
    m.func(f)
        .iter_blocks()
        .flat_map(|(_, b)| &b.insts)
        .find_map(|i| match &i.kind {
            InstKind::PseudoProbe {
                index,
                kind: csspgo_ir::probe::ProbeKind::Call,
                ..
            } => Some(*index),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{name} has a call probe"))
}

#[test]
fn probe_only_replays_a_depth_two_nested_profile_at_both_levels() {
    // main -> mid -> leaf, both inlined in the profiled binary: the profile
    // nests leaf's body under mid's call site, under main's. Replaying mid
    // into main leaves a call to leaf whose probe is still owned by mid, so
    // the second level is found only by navigating with the probe's owner.
    let mut m = csspgo_lang::compile(NESTED_SRC, "t").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    let guid = |name: &str| m.func(m.find_function(name).unwrap()).guid;
    let checksum = |name: &str| {
        m.func(m.find_function(name).unwrap())
            .probe_checksum
            .unwrap()
    };
    let (main_call, mid_call) = (own_call_probe(&m, "main"), own_call_probe(&m, "mid"));

    let mut profile = ProbeProfile::default();
    let fp = profile.funcs.entry(guid("main")).or_default();
    fp.checksum = checksum("main");
    fp.entry = 50;
    fp.record_sum(1, 500);
    fp.record_sum(main_call, 500);
    let mid = fp.callsite_mut(main_call, guid("mid"));
    mid.checksum = checksum("mid");
    mid.record_sum(1, 500);
    mid.record_sum(mid_call, 500);
    let leaf = mid.callsite_mut(mid_call, guid("leaf"));
    leaf.checksum = checksum("leaf");
    leaf.record_sum(1, 500);

    let stats = csspgo_annotate(&mut m, &profile, None, &AnnotateConfig::default());
    assert_eq!(stats.replayed_inlines, 2, "mid, then leaf inside it");
    assert_eq!(call_count(&m, "main"), 0);
}
