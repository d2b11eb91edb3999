//! Property tests for stale-matcher *soundness* (PR 5 satellite): under
//! arbitrary compositions of the shipped drift mutators, the matcher must
//! never violate its structural invariants —
//!
//! * the probe mapping is injective (`two_to_one == 0`),
//! * no function recovers more weight than its source profile held, in
//!   aggregate either,
//! * every function the recovered profile keeps carries a checksum the
//!   fresh module accepts (annotation would silently re-drop it
//!   otherwise).
//!
//! The mutators (`insert_statement`, `delete_statement`, renames, comment
//! drift) are *generators* here: some change behaviour, which is fine —
//! these properties are about the mapping's structure, not result
//! equality. Until the lint census (DESIGN.md §14) the first two were also
//! the lints `SM002`/`SM003`; a matcher that breaks them is a bug here, not
//! a finding about anybody's profile, so `match_stale_profile` asserts them
//! on its way out and this property is what exercises the assertion.

use csspgo_core::profile::ProbeProfile;
use csspgo_core::stalematch::{match_stale_profile, MatchConfig};
use csspgo_ir::probe::anchor_sequence;
use csspgo_ir::Module;
use csspgo_workloads::drift::{self, Mutator};
use proptest::prelude::*;

/// Compiles and probes a source.
fn probed(src: &str, name: &str) -> Module {
    let mut m = csspgo_lang::compile(src, name).expect("drifted sources stay compilable");
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    m
}

/// Deterministic synthetic profile covering every probe and call edge of
/// `module` (counts vary by probe index so mapping bugs shift weight).
fn synthetic_profile(module: &Module) -> ProbeProfile {
    let mut p = ProbeProfile::default();
    for f in &module.functions {
        let fp = p.funcs.entry(f.guid).or_default();
        fp.checksum = f.probe_checksum.unwrap();
        fp.entry = 500;
        for a in anchor_sequence(module, f.id) {
            fp.record_sum(a.index, 50 + 7 * a.index as u64);
            if let Some(callee) = a.callee {
                fp.callsite_mut(a.index, callee).entry = 25;
            }
        }
        p.names.insert(f.guid, f.name.clone());
    }
    p
}

/// One drift edit, chosen by the property inputs.
#[derive(Clone, Copy, Debug)]
enum Edit {
    InsertComments,
    InsertBodyComments,
    ChangeCfg,
    InsertStatement(usize),
    DeleteStatement(usize),
    RenameOne(usize),
}

fn apply(src: &str, entry: &str, edit: Edit) -> String {
    match edit {
        Edit::InsertComments => Mutator::InsertComments.apply(src, &[]),
        Edit::InsertBodyComments => Mutator::InsertBodyComments.apply(src, &[]),
        Edit::ChangeCfg => drift::change_cfg(src),
        Edit::InsertStatement(n) => Mutator::InsertStatement(n).apply(src, &[]),
        Edit::DeleteStatement(n) => Mutator::DeleteStatement(n).apply(src, &[]),
        Edit::RenameOne(k) => {
            // Rename the k-th non-entry function (wrapping), keep the rest.
            let names: Vec<&str> = src
                .lines()
                .filter_map(|l| l.strip_prefix("fn "))
                .filter_map(|rest| rest.split('(').next())
                .map(str::trim)
                .filter(|n| *n != entry && !n.is_empty())
                .collect();
            if names.is_empty() {
                return src.to_string();
            }
            let target = names[k % names.len()];
            let keep: Vec<&str> = src
                .lines()
                .filter_map(|l| l.strip_prefix("fn "))
                .filter_map(|rest| rest.split('(').next())
                .map(str::trim)
                .filter(|n| *n != target)
                .collect();
            Mutator::RenameFunctions.apply(src, &keep)
        }
    }
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        Just(Edit::InsertComments),
        Just(Edit::InsertBodyComments),
        Just(Edit::ChangeCfg),
        (0usize..8).prop_map(Edit::InsertStatement),
        (0usize..8).prop_map(Edit::DeleteStatement),
        (0usize..8).prop_map(Edit::RenameOne),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matcher_invariants_hold_under_random_drift(
        workload_idx in 0usize..5,
        edits in prop::collection::vec(edit_strategy(), 1..4),
    ) {
        let workloads = csspgo_workloads::server_workloads();
        let w = &workloads[workload_idx];
        let m_old = probed(&w.source, &w.name);
        let profile = synthetic_profile(&m_old);

        let mut src = w.source.clone();
        for &e in &edits {
            src = apply(&src, &w.entry, e);
        }
        let m_new = probed(&src, &w.name);
        let out = match_stale_profile(&m_new, &profile, &MatchConfig::default());

        let mut old_total = 0u64;
        let mut rec_total = 0u64;
        for f in &out.funcs {
            // The mapping is injective, always.
            prop_assert_eq!(f.two_to_one, 0, "two-to-one mapping in {:?}", f);
            // Weight is conserved per function...
            prop_assert!(
                f.recovered_weight <= f.old_weight,
                "recovered {} > source {} in {:?}",
                f.recovered_weight,
                f.old_weight,
                f
            );
            old_total += f.old_weight;
            rec_total += f.recovered_weight;
        }
        // ...and in aggregate.
        prop_assert!(rec_total <= old_total);

        // Everything the recovered profile keeps must survive the
        // annotate-side checksum gate against the fresh module.
        for (&guid, fp) in &out.profile.funcs {
            if let Some(fid) = m_new.find_function_by_guid(guid) {
                let fresh = m_new.func(fid).probe_checksum.unwrap();
                prop_assert!(
                    fp.checksum == 0 || fp.checksum == fresh,
                    "recovered profile for {} would be re-dropped",
                    m_new.func(fid).name
                );
            }
        }
    }
}
