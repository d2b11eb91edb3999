//! Property tests for the drift mutators: every mutator — and any
//! composition of up to four of them — must produce source that still
//! parses and compiles through `csspgo_lang`, and `rename_functions`
//! must keep the `keep` set intact. The release-train harness composes
//! these mutators cumulatively over many releases, so closure under
//! composition is the invariant that keeps a train well-formed.

use csspgo_workloads::drift::{self, Mutator};
use csspgo_workloads::server_workloads;
use proptest::prelude::*;

/// Applies one mutator by (kind, parameter). Covers the whole module,
/// including the test-only `delete_statement` (not part of the
/// [`drift::Mutator`] release vocabulary but still required to keep
/// sources compilable).
fn apply(kind: u8, param: u8, src: &str, keep: &[&str]) -> String {
    match kind % 10 {
        0 => Mutator::InsertComments.apply(src, &[]),
        1 => drift::insert_body_comments(src),
        2 => drift::change_cfg(src),
        3 => Mutator::RenameFunctions.apply(src, keep),
        4 => drift::insert_statement(src, param as usize),
        5 => drift::delete_statement(src, param as usize),
        6 => Mutator::SplitFunction(param as usize).apply(src, &[]),
        7 => Mutator::MergeFunctions(param as usize).apply(src, &[]),
        8 => Mutator::BumpDependency(param as u64).apply(src, &[]),
        9 => Mutator::FlipFeatureFlag(param as usize).apply(src, &[]),
        _ => unreachable!(),
    }
}

/// Function names defined in a MiniLang source (both single- and
/// multi-line definitions).
fn fn_names(src: &str) -> Vec<String> {
    src.lines()
        .filter_map(|l| l.strip_prefix("fn "))
        .filter_map(|rest| rest.split('(').next())
        .map(|n| n.trim().to_string())
        .filter(|n| !n.is_empty())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compositions of ≤4 mutators keep every prefix compilable.
    #[test]
    fn mutator_compositions_stay_compilable(
        widx in 0usize..5,
        steps in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=4),
    ) {
        let workloads = server_workloads();
        let w = &workloads[widx % workloads.len()];
        let keep = [w.entry.as_str()];
        let mut src = w.source.clone();
        for (i, &(kind, param)) in steps.iter().enumerate() {
            src = apply(kind, param, &src, &keep);
            csspgo_lang::compile(&src, &w.name)
                .unwrap_or_else(|e| panic!("{} step {i} (kind {}): {e}", w.name, kind % 10));
        }
    }

    /// `rename_functions` never touches a kept name: its definition
    /// survives verbatim, the definition count is conserved, and the
    /// result still compiles.
    #[test]
    fn rename_keeps_the_keep_set(
        widx in 0usize..5,
        mask in prop::collection::vec(any::<bool>(), 32),
    ) {
        let workloads = server_workloads();
        let w = &workloads[widx % workloads.len()];
        let names = fn_names(&w.source);
        let keep: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(i, n)| mask[i % mask.len()] || n.as_str() == w.entry)
            .map(|(_, n)| n.as_str())
            .collect();
        let renamed = Mutator::RenameFunctions.apply(&w.source, &keep);
        for name in &keep {
            prop_assert!(
                renamed.lines().any(|l| l.starts_with(&format!("fn {name}("))),
                "kept `{name}` lost its definition"
            );
        }
        for name in names.iter().filter(|n| !keep.contains(&n.as_str())) {
            prop_assert!(
                renamed.lines().any(|l| l.starts_with(&format!("fn {name}_v2("))),
                "`{name}` not renamed"
            );
        }
        prop_assert_eq!(fn_names(&renamed).len(), names.len());
        csspgo_lang::compile(&renamed, &w.name).unwrap();
    }
}
