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

use crate::profile::{FlatProfile, FuncProfile, LocKey, ProbeProfile, Profile};
use crate::ranges::RangeCounts;
use csspgo_codegen::Binary;
use csspgo_ir::FuncId;
use std::collections::BTreeMap;
use std::iter::once;

/// Builds an AutoFDO-style profile from LBR range counts.
pub fn dwarf_profile(binary: &Binary, rc: &RangeCounts) -> FlatProfile {
    let func = |f: FuncId| &binary.funcs[f.index()];
    // An instruction without frames (debug-info decay) has no anchor: the
    // sample is lost.
    correlate(binary, rc, FuncProfile::record_max, false, |idx| {
        let frames = binary.debug_frames(idx).iter();
        once(frames.map(move |&(f, line, disc)| {
            (func(f).guid, LocKey::new(line, func(f).start_line, disc))
        }))
    })
}

/// Builds a (context-insensitive) probe profile from LBR range counts.
pub fn probe_profile(binary: &Binary, rc: &RangeCounts) -> ProbeProfile {
    let guid = |f: FuncId| binary.funcs[f.index()].guid;
    // A probe's frames are its inline stack (a call-site probe per frame),
    // then the probe in its owner.
    correlate(binary, rc, FuncProfile::record_sum, true, |idx| {
        binary.insts[idx].probes.iter().map(move |note| {
            let sites = note.inline_stack.iter();
            let sites = sites.map(move |site| (guid(site.func), site.probe_index));
            sites.chain(once((note.owner_guid, note.index)))
        })
    })
}

/// The one correlation loop. `anchors(idx)` yields instruction `idx`'s
/// anchors, each as its frames outermost first (a function's GUID and the
/// anchor in it), the leaf last. Each count lands at its leaf anchor,
/// nested under the call sites above it, by `record` (MAX or SUM); then the
/// LBR entry counts are added, every profiled GUID is named from the
/// binary's function table (only those, so that building a profile stays
/// proportional to its content) and, when `stamp`, every (nested) profile
/// takes its function's CFG checksum.
fn correlate<
    K: Ord + Copy + Default,
    A: IntoIterator<Item = (u64, K)>,
    I: IntoIterator<Item = A>,
>(
    binary: &Binary,
    rc: &RangeCounts,
    record: fn(&mut FuncProfile<K>, K, u64),
    stamp: bool,
    anchors: impl Fn(usize) -> I,
) -> Profile<K> {
    let mut out = Profile::default();
    for (idx, &count) in rc.inst_counts(binary).iter().enumerate() {
        if count == 0 {
            continue;
        }
        for frames in anchors(idx) {
            let mut frames = frames.into_iter();
            let Some((top, mut key)) = frames.next() else {
                continue;
            };
            let mut cur = out.funcs.entry(top).or_default();
            for (callee, callee_key) in frames {
                cur = cur.callsite_mut(key, callee);
                key = callee_key;
            }
            record(cur, key, count);
        }
    }
    for (fidx, c) in rc.entry_counts(binary) {
        let guid = binary.funcs[fidx as usize].guid;
        out.funcs.entry(guid).or_default().entry += c;
    }

    fn finish<K>(
        f: &mut FuncProfile<K>,
        guid: u64,
        b: &Binary,
        stamp: bool,
        names: &mut BTreeMap<u64, String>,
    ) {
        if let Some(func) = b.func_by_guid(guid) {
            names.entry(guid).or_insert_with(|| func.name.clone());
            if stamp {
                f.checksum = func.probe_checksum.unwrap_or(0);
            }
        }
        for (&(_, callee), child) in &mut f.callsites {
            finish(child, callee, b, stamp, names);
        }
    }
    for (&guid, f) in &mut out.funcs {
        finish(f, guid, binary, stamp, &mut out.names);
    }
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
        assert!(main.body.len() >= 3, "several probes must be hit");
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
            .body
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
