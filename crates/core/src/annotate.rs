//! Applying generated profiles back onto fresh IR — the compiler side of
//! PGO ("sample loader").
//!
//! Three paths, one per correlation mechanism:
//!
//! * [`autofdo_annotate`] — looks counts up by `(line offset,
//!   discriminator)` through debug inline stacks, replaying the profiling
//!   build's inlining where the profile has nested call-site sub-profiles
//!   (AutoFDO's early inliner and its "partial context-sensitivity").
//! * [`csspgo_annotate`] — looks counts up by pseudo-probe, rejecting
//!   functions whose CFG checksum mismatches (source drift). With an
//!   [`InlinePlan`] it replays the *pre-inliner's* global decisions instead
//!   of profile-shaped replay (full CSSPGO); without one it replays nested
//!   probe profiles (probe-only CSSPGO).
//! * [`instr_annotate_reconstructed`] — exact counter values (ground
//!   truth), measured or Kirchhoff-recovered.
//!
//! All sampling paths finish with profile inference
//! ([`crate::inference::infer_counts`], min-cost-flow by default), which
//! also attaches flow-consistent [`csspgo_ir::EdgeCounts`] when the MCF
//! solver runs.

use crate::inference::{infer_counts, InferenceMode, InferenceStats};
use crate::profile::{FlatFuncProfile, FlatProfile, LocKey, ProbeFuncProfile, ProbeProfile};
use crate::stalematch::{
    is_stale, match_stale_profile, FuncMatchStatus, MatchConfig, StaleMatching,
};
use csspgo_ir::annot::InlinePlan;
use csspgo_ir::debuginfo::DebugLoc;
use csspgo_ir::inst::{Inst, InstKind};
use csspgo_ir::probe::{ProbeKind, ProbeSite};
use csspgo_ir::{BlockId, FuncId, Module, Provenance, ProvenanceMap};
use csspgo_opt::inliner::{inline_call, real_size};
use std::collections::{HashMap, HashSet};

/// Annotation tuning.
#[derive(Clone, Copy, Debug)]
pub struct AnnotateConfig {
    /// Maximum replayed inlines per function.
    pub inline_budget: usize,
    /// How checksum-mismatched (stale) functions are handled: dropped
    /// ([`StaleMatching::Off`]) or salvaged through the anchor-based
    /// matcher ([`StaleMatching::Recover`]).
    pub stale_matching: StaleMatching,
    /// Which inference algorithm repairs the correlated counts (runs after
    /// stale recovery, so salvaged partial profiles become fully usable).
    pub inference: InferenceMode,
}

impl Default for AnnotateConfig {
    fn default() -> Self {
        AnnotateConfig {
            inline_budget: 64,
            stale_matching: StaleMatching::Off,
            inference: InferenceMode::default(),
        }
    }
}

/// What annotation did (for reporting and the drift experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnnotateStats {
    /// Functions annotated with counts.
    pub annotated: usize,
    /// Functions whose checksum mismatched and whose counts were dropped
    /// (all of them when stale matching is off; only the unsalvageable
    /// ones under [`StaleMatching::Recover`]).
    pub stale_dropped: usize,
    /// Checksum-mismatched functions whose counts the stale matcher
    /// recovered (always 0 unless [`StaleMatching::Recover`] is on).
    pub stale_recovered: usize,
    /// Inlines replayed from the profile or plan.
    pub replayed_inlines: usize,
    /// Aggregate profile-inference work across all annotated functions.
    pub inference: InferenceStats,
    /// Annotated weight summed by provenance tag across all functions.
    pub provenance: ProvenanceTotals,
}

impl AnnotateStats {
    /// Every function that failed the checksum gate, salvaged or not (the
    /// old `stale` counter).
    pub fn stale_total(&self) -> usize {
        self.stale_dropped + self.stale_recovered
    }
}

/// Annotated weight (block counts) summed by [`Provenance`] tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProvenanceTotals {
    /// Weight from raw samples or exact counters on a matching build.
    pub sampled: u64,
    /// Weight transferred by the stale matcher.
    pub stale_matched: u64,
    /// Weight invented or materially adjusted by inference.
    pub inferred: u64,
    /// Weight recovered from sparse counters by Kirchhoff elimination.
    pub reconstructed: u64,
}

impl ProvenanceTotals {
    /// Adds `weight` under `tag`.
    pub fn add(&mut self, tag: Provenance, weight: u64) {
        match tag {
            Provenance::Sampled => self.sampled += weight,
            Provenance::StaleMatched => self.stale_matched += weight,
            Provenance::Inferred => self.inferred += weight,
            Provenance::Reconstructed => self.reconstructed += weight,
        }
    }

    /// Total annotated weight.
    pub fn total(&self) -> u64 {
        self.sampled + self.stale_matched + self.inferred + self.reconstructed
    }
}

/// Whether inference changed a raw count enough that the result should be
/// tagged [`Provenance::Inferred`] rather than inherit the measurement's
/// tag: the block had no raw count at all (and got weight), or the final
/// count moved beyond both an absolute and a 25% relative slack. Small
/// smoothing of sampled counts keeps the measurement tag — the solver is
/// calibrating, not inventing.
fn materially_adjusted(raw: Option<u64>, finalc: u64) -> bool {
    match raw {
        None => finalc > 0,
        Some(r) => {
            let d = finalc.abs_diff(r);
            d > 16 && d * 4 > r
        }
    }
}

/// Whether a nested (inlined-in-the-profiling-build) sub-profile of weight
/// `nested_total` is replayed as an inline of `callee`.
fn worth_replaying(nested_total: u64, callee: &csspgo_ir::Function) -> bool {
    /// Minimum nested-profile total to replay an inline.
    const REPLAY_MIN_TOTAL: u64 = 8;
    /// Maximum callee size (IR instructions) for replayed inlining.
    const REPLAY_MAX_CALLEE_SIZE: usize = 200;
    nested_total >= REPLAY_MIN_TOTAL && real_size(callee) <= REPLAY_MAX_CALLEE_SIZE
}

/// Replays up to `budget` profile-directed inlines into `fid`: each round
/// inlines the first call (in block order) to another function that
/// `should(module, block, index, call, callee)` accepts, then rescans the
/// changed body. Returns how many inlines happened.
fn replay_inlines(
    module: &mut Module,
    fid: FuncId,
    budget: usize,
    mut should: impl FnMut(&Module, BlockId, usize, &Inst, FuncId) -> bool,
) -> usize {
    let mut replayed = 0;
    for _ in 0..budget {
        let candidate = module.func(fid).iter_blocks().find_map(|(bid, block)| {
            block
                .insts
                .iter()
                .enumerate()
                .find_map(|(i, inst)| match inst.kind {
                    InstKind::Call { callee, .. } if callee != fid => {
                        should(module, bid, i, inst, callee).then_some((bid, i))
                    }
                    _ => None,
                })
        });
        let Some((bid, i)) = candidate else { break };
        if inline_call(module, fid, bid, i).is_some() {
            replayed += 1;
        }
    }
    replayed
}

// ---------------------------------------------------------------------
// AutoFDO path
// ---------------------------------------------------------------------

/// Navigates a flat profile by a debug location's inline stack; returns the
/// sub-profile containing the location's leaf.
fn flat_navigate<'p>(
    fp: &'p FlatFuncProfile,
    module: &Module,
    loc: &DebugLoc,
) -> Option<&'p FlatFuncProfile> {
    let mut cur = fp;
    for (k, site) in loc.inline_stack.iter().enumerate() {
        let start = module.func(site.func).start_line;
        let key = LocKey::new(site.line, start, site.discriminator);
        let callee = loc
            .inline_stack
            .get(k + 1)
            .map(|s| s.func)
            .unwrap_or(loc.scope);
        if callee == FuncId::INVALID {
            return None;
        }
        let callee_guid = module.func(callee).guid;
        cur = cur.callsites.get(&(key, callee_guid))?;
    }
    Some(cur)
}

/// Body-count lookup for one instruction location.
fn flat_lookup(fp: &FlatFuncProfile, module: &Module, loc: &DebugLoc) -> Option<u64> {
    if loc.scope == FuncId::INVALID || loc.line == 0 {
        return None;
    }
    let sub = flat_navigate(fp, module, loc)?;
    let start = module.func(loc.scope).start_line;
    sub.body
        .get(&LocKey::new(loc.line, start, loc.discriminator))
        .copied()
}

/// Annotates `module` from an AutoFDO-style profile.
pub fn autofdo_annotate(
    module: &mut Module,
    profile: &FlatProfile,
    cfg: &AnnotateConfig,
) -> AnnotateStats {
    let mut stats = AnnotateStats::default();
    let order = csspgo_opt::callgraph::CallGraph::build(module).top_down_order();

    for fid in order {
        let guid = module.func(fid).guid;
        let Some(fp) = profile.funcs.get(&guid) else {
            continue;
        };
        let fp = fp.clone();

        // ---- early inline replay ----
        stats.replayed_inlines += replay_inlines(
            module,
            fid,
            cfg.inline_budget,
            |module, _, _, inst, callee| {
                let Some(enclosing) = flat_navigate(&fp, module, &inst.loc) else {
                    return false;
                };
                if inst.loc.scope == FuncId::INVALID {
                    return false;
                }
                let start = module.func(inst.loc.scope).start_line;
                let key = LocKey::new(inst.loc.line, start, inst.loc.discriminator);
                let callee_guid = module.func(callee).guid;
                enclosing
                    .callsites
                    .get(&(key, callee_guid))
                    .is_some_and(|nested| worth_replaying(nested.total(), module.func(callee)))
            },
        );

        // ---- block counts by MAX over per-instruction lookups ----
        let mut raw: HashMap<BlockId, u64> = HashMap::new();
        for (bid, block) in module.func(fid).iter_blocks() {
            let mut best: Option<u64> = None;
            for inst in &block.insts {
                if let Some(c) = flat_lookup(&fp, module, &inst.loc) {
                    best = Some(best.unwrap_or(0).max(c));
                }
            }
            if let Some(c) = best {
                raw.insert(bid, c);
            }
        }
        let entry = fp
            .entry
            .max(raw.get(&module.func(fid).entry).copied().unwrap_or(0));
        apply(
            module,
            fid,
            &raw,
            entry,
            cfg.inference,
            Provenance::Sampled,
            &mut stats,
        );
        stats.annotated += 1;
    }
    stats
}

// ---------------------------------------------------------------------
// CSSPGO path
// ---------------------------------------------------------------------

/// Navigates a probe profile by a probe inline stack.
fn probe_navigate<'p>(
    fp: &'p ProbeFuncProfile,
    module: &Module,
    stack: &[ProbeSite],
    owner: FuncId,
) -> Option<&'p ProbeFuncProfile> {
    let mut cur = fp;
    for (k, site) in stack.iter().enumerate() {
        let callee = stack.get(k + 1).map(|s| s.func).unwrap_or(owner);
        let callee_guid = module.func(callee).guid;
        cur = cur.callsites.get(&(site.probe_index, callee_guid))?;
    }
    Some(cur)
}

/// Annotates `module` (which must already carry pseudo-probes) from a probe
/// profile. `plan` switches between full-CSSPGO (replay the pre-inliner's
/// decisions) and probe-only (replay profile-observed inlining).
pub fn csspgo_annotate(
    module: &mut Module,
    profile: &ProbeProfile,
    plan: Option<&InlinePlan>,
    cfg: &AnnotateConfig,
) -> AnnotateStats {
    let mut stats = AnnotateStats::default();

    // Stale-profile salvage (the paper's drift story, §III.A): instead of
    // dropping checksum-mismatched functions below, statically re-map
    // their counts onto the fresh probe space first. Checksum-matched
    // functions pass through the matcher bit-identical, so this is a
    // no-op on undrifted profiles.
    let salvaged;
    // Fresh-module GUIDs whose counts came through the matcher rather than
    // a clean checksum match — their annotated weight is `StaleMatched`.
    let mut salvaged_guids: HashSet<u64> = HashSet::new();
    let profile = if cfg.stale_matching == StaleMatching::Recover {
        let outcome = match_stale_profile(module, profile, &MatchConfig::default());
        for f in &outcome.funcs {
            match f.status {
                FuncMatchStatus::Recovered | FuncMatchStatus::Renamed { .. } => {
                    stats.stale_recovered += 1;
                    salvaged_guids.insert(f.guid);
                }
                FuncMatchStatus::Dropped if module.find_function_by_guid(f.guid).is_some() => {
                    stats.stale_dropped += 1;
                }
                _ => {}
            }
        }
        salvaged = outcome.profile;
        &salvaged
    } else {
        profile
    };

    let order = csspgo_opt::callgraph::CallGraph::build(module).top_down_order();

    for fid in order {
        let guid = module.func(fid).guid;
        let Some(fp) = profile.funcs.get(&guid) else {
            continue;
        };
        let fp = fp.clone();

        // Source-drift detection: the profile's checksum must match the
        // fresh IR's CFG checksum. (Under `Recover`, salvaged functions
        // carry the fresh checksum and sail through.)
        if is_stale(fp.checksum, module.func(fid)) {
            stats.stale_dropped += 1;
            continue;
        }

        // ---- inline replay ----
        stats.replayed_inlines += replay_inlines(
            module,
            fid,
            cfg.inline_budget,
            |module, bid, i, _, callee| {
                // The call's probe (immediately preceding instruction).
                let Some((probe_owner, probe_idx, probe_stack)) =
                    call_probe_of(module, fid, bid, i)
                else {
                    return false;
                };
                match plan {
                    Some(plan) => {
                        // The path is the probe's inline chain plus the
                        // probe itself, attributed to its *original
                        // owner* (an inlined call site keeps its owner).
                        let mut path = probe_stack;
                        path.push(ProbeSite {
                            func: probe_owner,
                            probe_index: probe_idx,
                        });
                        plan.should_inline(&path)
                    }
                    None => probe_navigate(&fp, module, &probe_stack, fid).is_some_and(|e| {
                        let callee_guid = module.func(callee).guid;
                        e.callsites
                            .get(&(probe_idx, callee_guid))
                            .is_some_and(|n| worth_replaying(n.total(), module.func(callee)))
                    }),
                }
            },
        );

        // ---- block counts via block probes ----
        let mut raw: HashMap<BlockId, u64> = HashMap::new();
        for (bid, block) in module.func(fid).iter_blocks() {
            for inst in &block.insts {
                let InstKind::PseudoProbe {
                    owner,
                    index,
                    kind: ProbeKind::Block,
                    inline_stack,
                    ..
                } = &inst.kind
                else {
                    continue;
                };
                // Only the block's own anchoring probe (the first block
                // probe) sets the count; the rest came from inlining and
                // describe the same block.
                let count = probe_navigate(&fp, module, inline_stack, *owner)
                    .and_then(|sub| sub.probes.get(index).copied());
                if let Some(c) = count {
                    let slot = raw.entry(bid).or_insert(0);
                    *slot = (*slot).max(c);
                }
            }
        }
        let entry = fp
            .entry
            .max(raw.get(&module.func(fid).entry).copied().unwrap_or(0));
        let base = if salvaged_guids.contains(&guid) {
            Provenance::StaleMatched
        } else {
            Provenance::Sampled
        };
        apply(module, fid, &raw, entry, cfg.inference, base, &mut stats);
        stats.annotated += 1;
    }
    stats
}

/// The call probe guarding the call at `(bid, i)`: its owner, index and
/// inline stack.
fn call_probe_of(
    module: &Module,
    fid: FuncId,
    bid: BlockId,
    i: usize,
) -> Option<(FuncId, u32, Vec<ProbeSite>)> {
    if i == 0 {
        return None;
    }
    match &module.func(fid).block(bid).insts[i - 1].kind {
        InstKind::PseudoProbe {
            owner,
            index,
            kind: ProbeKind::Call,
            inline_stack,
            ..
        } => Some((*owner, *index, inline_stack.clone())),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Instrumentation path (ground truth)
// ---------------------------------------------------------------------

/// Annotates exact counter values measured on an identically-shaped fresh
/// IR (instrumentation-based PGO). Functions in `edges` were measured by a
/// sparse spanning-tree counter placement and carry block counts recovered
/// by Kirchhoff elimination ([`csspgo_ir::flow::reconstruct`]): tagged
/// [`Provenance::Reconstructed`], with the recovered edge counts attached
/// so downstream flow lints can reconcile them. Functions without an entry
/// carried exact full-fallback counters and are tagged
/// [`Provenance::Sampled`].
pub fn instr_annotate_reconstructed(
    module: &mut Module,
    counts: &HashMap<(FuncId, BlockId), u64>,
    edges: &HashMap<FuncId, Vec<(BlockId, BlockId, u64)>>,
) -> AnnotateStats {
    let mut stats = AnnotateStats::default();
    for fid in 0..module.functions.len() {
        let fid = FuncId::from_index(fid);
        let tag = if edges.contains_key(&fid) {
            Provenance::Reconstructed
        } else {
            Provenance::Sampled
        };
        let ids: Vec<BlockId> = module.func(fid).iter_blocks().map(|(b, _)| b).collect();
        let mut any = false;
        let mut tags = Vec::new();
        for bid in &ids {
            if let Some(&c) = counts.get(&(fid, *bid)) {
                module.func_mut(fid).block_mut(*bid).count = Some(c);
                stats.provenance.add(tag, c);
                tags.push((*bid, tag));
                any = true;
            }
        }
        if any {
            let entry = counts
                .get(&(fid, module.func(fid).entry))
                .copied()
                .unwrap_or(0);
            let f = module.func_mut(fid);
            f.entry_count = Some(entry);
            f.count_provenance = Some(ProvenanceMap::new(tags));
            if let Some(es) = edges.get(&fid) {
                f.edge_counts = Some(csspgo_ir::EdgeCounts::new(es.clone()));
            }
            stats.annotated += 1;
        }
    }
    stats
}

/// Runs the configured inference on the raw counts and writes the repaired
/// block (and, under MCF, edge) counts onto the function, tagging each
/// block's provenance: `base` (how the raw count was measured) when
/// inference kept it close, [`Provenance::Inferred`] when inference
/// invented or materially adjusted it. Merges inference and provenance
/// accounting into `stats`.
fn apply(
    module: &mut Module,
    fid: FuncId,
    raw: &HashMap<BlockId, u64>,
    entry: u64,
    mode: InferenceMode,
    base: Provenance,
    stats: &mut AnnotateStats,
) {
    let result = infer_counts(module.func(fid), raw, entry, mode);
    let ids: Vec<BlockId> = module.func(fid).iter_blocks().map(|(b, _)| b).collect();
    let f = module.func_mut(fid);
    let mut tags = Vec::with_capacity(ids.len());
    for bid in ids {
        let count = result.counts.get(&bid).copied().unwrap_or(0);
        f.block_mut(bid).count = Some(count);
        let tag = if materially_adjusted(raw.get(&bid).copied(), count) {
            Provenance::Inferred
        } else {
            base
        };
        stats.provenance.add(tag, count);
        tags.push((bid, tag));
    }
    f.entry_count = Some(entry);
    f.edge_counts = result.edges.map(csspgo_ir::EdgeCounts::new);
    f.count_provenance = Some(ProvenanceMap::new(tags));
    stats.inference.merge(&result.stats);
}

/// Snapshot of per-function block counts keyed by GUID (for the overlap
/// metric).
pub fn collect_block_counts(module: &Module) -> crate::overlap::BlockCounts {
    let mut out = crate::overlap::BlockCounts::new();
    for f in &module.functions {
        let mut m = HashMap::new();
        for (bid, b) in f.iter_blocks() {
            if let Some(c) = b.count {
                m.insert(bid, c);
            }
        }
        if !m.is_empty() {
            out.insert(f.guid, m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_annotation_is_exact() {
        let src = "fn f(a) { if (a > 0) { return 1; } return 2; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        let fid = FuncId(0);
        let mut counts = HashMap::new();
        counts.insert((fid, BlockId(0)), 100u64);
        counts.insert((fid, BlockId(1)), 70u64);
        counts.insert((fid, BlockId(2)), 30u64);
        let stats = instr_annotate_reconstructed(&mut m, &counts, &HashMap::new());
        assert_eq!(stats.annotated, 1);
        assert_eq!(m.functions[0].block(BlockId(1)).count, Some(70));
        assert_eq!(m.functions[0].entry_count, Some(100));
    }

    #[test]
    fn collect_block_counts_roundtrips() {
        let src = "fn f(a) { return a; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        m.functions[0].block_mut(BlockId(0)).count = Some(9);
        let bc = collect_block_counts(&m);
        let guid = m.functions[0].guid;
        assert_eq!(bc[&guid][&BlockId(0)], 9);
    }

    #[test]
    fn stale_checksum_rejects_profile() {
        let src = "fn f(a) { if (a > 0) { return 1; } return 2; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::probes::run(&mut m);
        let guid = m.functions[0].guid;
        let mut profile = ProbeProfile::default();
        let fp = profile.funcs.entry(guid).or_default();
        fp.checksum = 0x1234; // wrong on purpose
        fp.record_sum(1, 50);
        let stats = csspgo_annotate(&mut m, &profile, None, &AnnotateConfig::default());
        assert_eq!(stats.stale_dropped, 1);
        assert_eq!(stats.stale_total(), 1);
        assert_eq!(stats.annotated, 0);
        assert_eq!(m.functions[0].block(BlockId(0)).count, None);
    }

    #[test]
    fn stale_matching_recover_salvages_mismatched_counts() {
        // The same CFG compiled twice; the profile's checksum is forced
        // wrong so the gate rejects it, then `Recover` salvages it via the
        // (trivial) anchor alignment.
        let src = "fn f(a) { if (a > 0) { return 1; } return 2; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::probes::run(&mut m);
        let guid = m.functions[0].guid;
        let mut profile = ProbeProfile::default();
        let fp = profile.funcs.entry(guid).or_default();
        fp.checksum = 0x1234; // mismatch on purpose
        fp.record_sum(1, 100);
        fp.record_sum(2, 80);
        fp.record_sum(3, 20);
        fp.entry = 100;
        let cfg = AnnotateConfig {
            stale_matching: StaleMatching::Recover,
            ..AnnotateConfig::default()
        };
        let stats = csspgo_annotate(&mut m, &profile, None, &cfg);
        assert_eq!(stats.stale_recovered, 1);
        assert_eq!(stats.stale_dropped, 0);
        assert_eq!(stats.annotated, 1);
        assert!(m.functions[0].block(BlockId(0)).count.is_some());
    }

    #[test]
    fn probe_annotation_sets_counts() {
        let src = "fn f(a) { if (a > 0) { return 1; } return 2; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::probes::run(&mut m);
        let guid = m.functions[0].guid;
        let checksum = m.functions[0].probe_checksum.unwrap();
        // Probe 1 = entry block probe, probes 2/3 = arms (insertion order).
        let mut profile = ProbeProfile::default();
        let fp = profile.funcs.entry(guid).or_default();
        fp.checksum = checksum;
        fp.record_sum(1, 100);
        fp.record_sum(2, 80);
        fp.record_sum(3, 20);
        fp.entry = 100;
        let stats = csspgo_annotate(&mut m, &profile, None, &AnnotateConfig::default());
        assert_eq!(stats.annotated, 1);
        // The block probe `p` of `f` itself anchors.
        let b_of = |p: u32| {
            let own = |i: &csspgo_ir::Inst| {
                matches!(&i.kind, InstKind::PseudoProbe { index, kind: ProbeKind::Block, inline_stack, .. }
                    if *index == p && inline_stack.is_empty())
            };
            let mut blocks = m.functions[0].iter_blocks();
            blocks.find(|(_, b)| b.insts.iter().any(own)).unwrap().0
        };
        let c = |b: BlockId| m.functions[0].block(b).count.unwrap();
        assert_eq!(c(b_of(1)), 100);
        assert!(c(b_of(2)) > c(b_of(3)), "bias preserved through inference");
    }

    #[test]
    fn annotation_attaches_edge_counts_under_mcf_only() {
        let src = "fn f(a) { if (a > 0) { return 1; } return 2; }";
        let build = || {
            let mut m = csspgo_lang::compile(src, "t").unwrap();
            csspgo_opt::probes::run(&mut m);
            m
        };
        let mut m = build();
        let guid = m.functions[0].guid;
        let mut profile = ProbeProfile::default();
        let fp = profile.funcs.entry(guid).or_default();
        fp.checksum = m.functions[0].probe_checksum.unwrap();
        fp.record_sum(1, 100);
        fp.record_sum(2, 80);
        fp.record_sum(3, 20);
        fp.entry = 100;

        let stats = csspgo_annotate(&mut m, &profile, None, &AnnotateConfig::default());
        let edges = m.functions[0].edge_counts.as_ref().expect("mcf edges");
        assert!(!edges.is_empty());
        assert_eq!(edges.out_total(m.functions[0].entry), 100);
        assert_eq!(stats.inference.functions, 1);

        let mut m2 = build();
        let cfg = AnnotateConfig {
            inference: InferenceMode::Off,
            ..AnnotateConfig::default()
        };
        csspgo_annotate(&mut m2, &profile, None, &cfg);
        assert!(
            m2.functions[0].edge_counts.is_none(),
            "raw counts carry no edge annotation"
        );
    }

    #[test]
    fn autofdo_annotation_uses_line_offsets() {
        let src = "fn f(a) {\n    if (a > 0) {\n        return 1;\n    }\n    return 2;\n}";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        let guid = m.functions[0].guid;
        let mut profile = FlatProfile::default();
        let fp = profile.funcs.entry(guid).or_default();
        // fn on line 1; cond on line 2 (offset 1); return 1 on line 3
        // (offset 2); return 2 on line 5 (offset 4).
        fp.record_max(
            LocKey {
                line_offset: 1,
                discriminator: 0,
            },
            100,
        );
        fp.record_max(
            LocKey {
                line_offset: 2,
                discriminator: 0,
            },
            90,
        );
        fp.record_max(
            LocKey {
                line_offset: 4,
                discriminator: 0,
            },
            10,
        );
        fp.entry = 100;
        let stats = autofdo_annotate(&mut m, &profile, &AnnotateConfig::default());
        assert_eq!(stats.annotated, 1);
        let f = &m.functions[0];
        let then_c = f.block(BlockId(1)).count.unwrap();
        let else_c = f.block(BlockId(2)).count.unwrap();
        assert!(then_c > else_c * 4, "then {then_c} vs else {else_c}");
    }
}
