//! Profile correlation: mapping binary-level sample counts back to
//! compiler-consumable profiles.
//!
//! Two mechanisms, faithfully reproducing the paper's comparison:
//!
//! * [`dwarf_profile`] — AutoFDO-style symbolization through debug info.
//!   Counts key on `(line offset, discriminator)`; several machine
//!   instructions sharing a key take the **MAX** ("correlation techniques
//!   using debug info take the maximum execution frequency from those
//!   instructions"), which under-counts duplicated code and cannot recover
//!   merged code.
//! * [`probe_profile`] — pseudo-probe correlation. Probes are 1:1 anchors;
//!   duplicated probes **SUM**; the recorded CFG checksum rides along for
//!   staleness detection.

use crate::profile::{FlatFuncProfile, FlatProfile, LocKey, ProbeFuncProfile, ProbeProfile};
use crate::ranges::RangeCounts;
use csspgo_codegen::Binary;
use std::collections::BTreeSet;

/// GUIDs a flat profile can ask a name for: nested call-site callees.
fn collect_flat_guids(f: &FlatFuncProfile, out: &mut BTreeSet<u64>) {
    for (&(_, callee), child) in &f.callsites {
        out.insert(callee);
        collect_flat_guids(child, out);
    }
}

/// GUIDs a probe profile can ask a name for: nested call-site callees.
fn collect_probe_guids(f: &ProbeFuncProfile, out: &mut BTreeSet<u64>) {
    for (&(_, callee), child) in &f.callsites {
        out.insert(callee);
        collect_probe_guids(child, out);
    }
}

/// Fills `names` from the binary's function table, but only for GUIDs the
/// profile actually references. The former per-build "clone every function
/// name" loop was O(program size) per correlation regardless of how little
/// was profiled; sharing the binary's name table by borrow and copying
/// just the referenced entries keeps profile construction proportional to
/// profile content.
fn name_referenced(
    names: &mut std::collections::BTreeMap<u64, String>,
    binary: &Binary,
    needed: &BTreeSet<u64>,
) {
    for &guid in needed {
        if let Some(f) = binary.func_by_guid(guid) {
            names.insert(guid, f.name.clone());
        }
    }
}

/// Builds an AutoFDO-style profile from LBR range counts.
pub fn dwarf_profile(binary: &Binary, rc: &RangeCounts) -> FlatProfile {
    let counts = rc.inst_counts(binary);
    let mut out = FlatProfile::default();

    for (idx, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let frames = binary.debug_frames(idx);
        if frames.is_empty() {
            continue; // debug-info decay: the sample is lost
        }
        let top = &binary.funcs[frames[0].0.index()];
        let mut cur: &mut FlatFuncProfile = out.funcs.entry(top.guid).or_default();
        for k in 0..frames.len() - 1 {
            let (func, line, disc) = frames[k];
            let start = binary.funcs[func.index()].start_line;
            let key = LocKey::new(line, start, disc);
            let callee_guid = binary.funcs[frames[k + 1].0.index()].guid;
            cur = cur.callsite_mut(key, callee_guid);
        }
        let (leaf_func, line, disc) = *frames.last().expect("non-empty frames");
        let start = binary.funcs[leaf_func.index()].start_line;
        cur.record_max(LocKey::new(line, start, disc), count);
    }

    for (fidx, c) in rc.entry_counts(binary) {
        let guid = binary.funcs[fidx as usize].guid;
        out.funcs.entry(guid).or_default().entry += c;
    }
    let mut needed: BTreeSet<u64> = out.funcs.keys().copied().collect();
    for f in out.funcs.values() {
        collect_flat_guids(f, &mut needed);
    }
    name_referenced(&mut out.names, binary, &needed);
    out
}

/// Builds a (context-insensitive) probe profile from LBR range counts.
pub fn probe_profile(binary: &Binary, rc: &RangeCounts) -> ProbeProfile {
    let counts = rc.inst_counts(binary);
    let mut out = ProbeProfile::default();

    for (idx, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        for note in &binary.insts[idx].probes {
            // Navigate by the probe's inline stack: each frame is a
            // call-site probe in some function.
            let top_guid = note
                .inline_stack
                .first()
                .map(|s| binary.funcs[s.func.index()].guid)
                .unwrap_or(note.owner_guid);
            let mut cur: &mut ProbeFuncProfile = out.funcs.entry(top_guid).or_default();
            for (k, site) in note.inline_stack.iter().enumerate() {
                let callee_guid = note
                    .inline_stack
                    .get(k + 1)
                    .map(|s| binary.funcs[s.func.index()].guid)
                    .unwrap_or(note.owner_guid);
                cur = cur.callsite_mut(site.probe_index, callee_guid);
            }
            cur.record_sum(note.index, count);
        }
    }

    for (fidx, c) in rc.entry_counts(binary) {
        let guid = binary.funcs[fidx as usize].guid;
        out.funcs.entry(guid).or_default().entry += c;
    }

    // Stamp checksums (recursively: nested profiles carry their own
    // function's checksum, found via the callee GUID key).
    fn stamp(profile: &mut ProbeFuncProfile, guid: u64, binary: &Binary) {
        if let Some(f) = binary.func_by_guid(guid) {
            profile.checksum = f.probe_checksum.unwrap_or(0);
        }
        let keys: Vec<(u32, u64)> = profile.callsites.keys().copied().collect();
        for key in keys {
            let child = profile.callsites.get_mut(&key).expect("key collected");
            stamp(child, key.1, binary);
        }
    }
    let guids: Vec<u64> = out.funcs.keys().copied().collect();
    for g in guids {
        let f = out.funcs.get_mut(&g).expect("guid collected");
        stamp(f, g, binary);
    }
    let mut needed: BTreeSet<u64> = out.funcs.keys().copied().collect();
    for f in out.funcs.values() {
        collect_probe_guids(f, &mut needed);
    }
    name_referenced(&mut out.names, binary, &needed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_opt::OptConfig;
    use csspgo_sim::{Machine, SimConfig};

    const SRC: &str = r#"
fn helper(x) {
    if (x > 100) { return x - 100; }
    return x;
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

    fn profile_run(probes: bool, optimize: bool) -> (Binary, RangeCounts) {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        if probes {
            csspgo_opt::probes::run(&mut m);
        }
        if optimize {
            csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
        }
        let b = lower_module(&m, &CodegenConfig::default());
        let cfg = SimConfig {
            sample_period: 29,
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&b, cfg);
        machine.call("main", &[4000]).unwrap();
        let samples = machine.take_samples();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        (b, rc)
    }

    #[test]
    fn dwarf_profile_finds_hot_loop_lines() {
        let (b, rc) = profile_run(false, false);
        let p = dwarf_profile(&b, &rc);
        let main_guid = b.func_by_name("main").unwrap().guid;
        let main = &p.funcs[&main_guid];
        assert!(main.total() > 0);
        // Loop body lines (offset 5..7 from `fn main` header) must be hot.
        let hot_key = main
            .body
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(k, _)| *k)
            .unwrap();
        assert!(
            (4..=8).contains(&hot_key.line_offset),
            "hottest key should be in the loop: {hot_key:?}"
        );
    }

    #[test]
    fn dwarf_profile_nests_inlined_callees() {
        let (b, rc) = profile_run(false, true); // optimized: helper inlined
        let p = dwarf_profile(&b, &rc);
        let main_guid = b.func_by_name("main").unwrap().guid;
        let helper_guid = b.func_by_name("helper").unwrap().guid;
        let main = p.funcs.get(&main_guid).expect("main profiled");
        let nested = main
            .callsites
            .keys()
            .any(|(_, callee)| *callee == helper_guid);
        assert!(nested, "inlined helper must appear as a nested profile");
    }

    #[test]
    fn probe_profile_counts_block_probes() {
        let (b, rc) = profile_run(true, false);
        let p = probe_profile(&b, &rc);
        let main_guid = b.func_by_name("main").unwrap().guid;
        let main = &p.funcs[&main_guid];
        assert!(main.total() > 0);
        assert!(main.probes.len() >= 3, "several probes must be hit");
        assert_ne!(main.checksum, 0);
    }

    #[test]
    fn probe_profile_nests_by_probe_inline_stack() {
        let (b, rc) = profile_run(true, true);
        let p = probe_profile(&b, &rc);
        let main_guid = b.func_by_name("main").unwrap().guid;
        let helper_guid = b.func_by_name("helper").unwrap().guid;
        let main = p.funcs.get(&main_guid).expect("main profiled");
        let nested = main
            .callsites
            .keys()
            .any(|(_, callee)| *callee == helper_guid);
        assert!(nested, "inlined helper must nest under its call-site probe");
    }

    #[test]
    fn probe_counts_exceed_dwarf_counts_under_duplication() {
        // After unrolling, dwarf MAX-per-line under-counts while probes sum:
        // the probe total for the loop body should be >= the dwarf count of
        // the same source line.
        let (bp, rcp) = profile_run(true, true);
        let pp = probe_profile(&bp, &rcp);
        let (bd, rcd) = profile_run(false, true);
        let pd = dwarf_profile(&bd, &rcd);
        let main_guid = bp.func_by_name("main").unwrap().guid;
        let probe_max = pp.funcs[&main_guid]
            .probes
            .values()
            .max()
            .copied()
            .unwrap_or(0);
        let dwarf_max = pd.funcs[&main_guid]
            .body
            .values()
            .max()
            .copied()
            .unwrap_or(0);
        assert!(
            probe_max as f64 >= dwarf_max as f64 * 0.9,
            "probe sums ({probe_max}) should not lose to dwarf max ({dwarf_max})"
        );
    }
}
