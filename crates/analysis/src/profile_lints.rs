//! Profile-integrity lints: checks over collected profiles
//! ([`ProbeProfile`], [`ContextProfile`]) against the module that produced
//! them — staleness (`PF004`), out-of-range probe references (`PF005`), and
//! context-tree consistency (`PF003`).

use crate::diag::{lint, Policy, Report};
use csspgo_core::context::{ContextNode, ContextProfile};
use csspgo_core::profile::{ProbeFuncProfile, ProbeProfile};
use csspgo_core::stalematch::is_stale;
use csspgo_ir::Module;

// `PF003` slack. Child entry counts (from LBR call edges) and parent
// call-site probe counts (period-subsampled address hits) are *different
// estimators* of the same call frequency, and on recursive contexts they
// routinely disagree by 2–3×. The lint is after structural corruption —
// wrong-context attribution is typically orders of magnitude off — so the
// bound is deliberately generous.
/// Relative slack on the parent bound (`2.0` allows 3× the parent).
const REL: f64 = 2.0;
/// Absolute slack in samples.
const ABS: f64 = 64.0;
/// Child contexts entered fewer times than this are skipped.
const MIN_ENTRY: u64 = 32;

/// Name for `guid` in diagnostics: the profile's name table, else the hex
/// GUID.
fn guid_name(names: &std::collections::BTreeMap<u64, String>, guid: u64) -> String {
    names
        .get(&guid)
        .cloned()
        .unwrap_or_else(|| format!("{guid:#018x}"))
}

/// Checks a flattened probe profile against `module`: per-function checksum
/// staleness (`PF004`) and probe indices the function never allocated
/// (`PF005`). Call-site sub-profiles are checked recursively against their
/// callee functions.
pub(crate) fn analyze_probe_profile(
    policy: &Policy,
    unit: &str,
    module: &Module,
    profile: &ProbeProfile,
    report: &mut Report,
) {
    for (&guid, fp) in &profile.funcs {
        check_func_profile(
            policy,
            unit,
            module,
            guid,
            fp,
            &guid_name(&profile.names, guid),
            &profile.names,
            report,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn check_func_profile(
    policy: &Policy,
    unit: &str,
    module: &Module,
    guid: u64,
    fp: &ProbeFuncProfile,
    path: &str,
    names: &std::collections::BTreeMap<u64, String>,
    report: &mut Report,
) {
    // Functions absent from the module (stale profile from another binary)
    // cannot be range-checked; the checksum lint still fires below via the
    // stale path when the caller knows the function.
    if let Some(fid) = module.find_function_by_guid(guid) {
        let func = module.func(fid);
        if let Some(expected) = func.probe_checksum {
            if is_stale(fp.checksum, func) {
                report.emit(
                    policy,
                    lint("PF004"),
                    unit,
                    Some(func.name.clone()),
                    Some(path.to_string()),
                    format!(
                        "profile checksum {:#x} does not match module CFG checksum {:#x}",
                        fp.checksum, expected
                    ),
                );
            }
            for &index in fp.probes.keys() {
                if index == 0 || index >= func.next_probe_index {
                    report.emit(
                        policy,
                        lint("PF005"),
                        unit,
                        Some(func.name.clone()),
                        Some(path.to_string()),
                        format!(
                            "profile counts probe {index}, but the function only \
                             allocated indices 1..{}",
                            func.next_probe_index
                        ),
                    );
                }
            }
        }
    }
    for (&(callsite, callee_guid), sub) in &fp.callsites {
        let sub_path = format!("{path}@{callsite}:{}", guid_name(names, callee_guid));
        check_func_profile(
            policy,
            unit,
            module,
            callee_guid,
            sub,
            &sub_path,
            names,
            report,
        );
    }
}

/// Checks context-tree consistency (`PF003`): a child context is entered
/// through its parent's call-site probe, so the child's entry count cannot
/// exceed that probe's count (within sampling tolerance).
pub(crate) fn analyze_context_profile(
    policy: &Policy,
    unit: &str,
    profile: &ContextProfile,
    report: &mut Report,
) {
    for (&guid, root) in &profile.roots {
        let path = guid_name(&profile.names, guid);
        check_context_node(policy, unit, guid, root, &path, &profile.names, report);
    }
}

fn check_context_node(
    policy: &Policy,
    unit: &str,
    guid: u64,
    node: &ContextNode,
    path: &str,
    names: &std::collections::BTreeMap<u64, String>,
    report: &mut Report,
) {
    for (&(callsite, callee_guid), child) in &node.children {
        let child_path = format!("{path}@{callsite}:{}", guid_name(names, callee_guid));
        if child.entry >= MIN_ENTRY {
            let parent_count = node.probes.get(&callsite).copied().unwrap_or(0);
            let bound = (parent_count as f64) * (1.0 + REL) + ABS;
            if (child.entry as f64) > bound {
                report.emit(
                    policy,
                    lint("PF003"),
                    unit,
                    Some(guid_name(names, guid)),
                    Some(child_path.clone()),
                    format!(
                        "child context entered {} times but parent call-site probe \
                         {callsite} only counted {parent_count}",
                        child.entry
                    ),
                );
            }
        }
        check_context_node(policy, unit, callee_guid, child, &child_path, names, report);
    }
}
