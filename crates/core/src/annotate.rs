//! Applying generated profiles back onto fresh IR — the compiler side of
//! PGO ("sample loader").
//!
//! Two paths: one sample loader for the sampled profiles, and exact
//! counters beside it.
//!
//! * [`autofdo_annotate`] and [`csspgo_annotate`] enter the one loader. It
//!   visits functions top-down, replays the inlines the profile nests at a
//!   call site, sets each block's count to the MAX over what its
//!   instructions read, and repairs the counts with profile inference
//!   ([`crate::inference::infer_counts`], min-cost-flow by default). Each
//!   block it counts carries a [`Provenance`] tag beside its count. The
//!   kinds differ only in the per-function reader. AutoFDO reads `(line offset,
//!   discriminator)` through debug inline stacks and is never stale; its
//!   replay is the early inliner and its "partial context-sensitivity".
//!   CSSPGO reads block probes through probe inline stacks and drops a
//!   function whose CFG checksum mismatches (source drift), unless the
//!   stale matcher salvaged it first. Under the full-CSSPGO marker
//!   ([`InlinePlan`]) every nested call site with a body is a
//!   *pre-inliner* decision and replays; probe-only CSSPGO replays the
//!   profiling build's inlining where it looks worth it.
//! * [`instr_annotate_reconstructed`] — exact counter values (ground
//!   truth), measured or Kirchhoff-recovered, each tagged on its block.
//!   They skip inference.

use crate::inference::{infer_dense, mcf, InferenceMode, InferenceStats};
use crate::profile::{FlatProfile, FuncProfile, LocKey, ProbeProfile};
use crate::stalematch::{
    is_stale, match_stale_profile, FuncMatchStatus, MatchConfig, StaleMatching,
};
use csspgo_ir::annot::InlinePlan;
use csspgo_ir::debuginfo::DebugLoc;
use csspgo_ir::inst::{Inst, InstKind};
use csspgo_ir::probe::{ProbeKind, ProbeSite};
use csspgo_ir::{BlockId, FuncId, Module, Provenance};
use csspgo_opt::inliner::{inline_call, real_size};
use std::collections::{HashMap, HashSet};

/// Annotation tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    /// Inlines replayed from the profile's nested call sites: the
    /// profiling build's inlining (AutoFDO, probe-only) or the
    /// pre-inliner's decisions (full CSSPGO).
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

/// Whether the solver's count should be tagged [`Provenance::Inferred`]
/// rather than inherit the measurement's tag: the block had no raw count
/// at all (whatever count the solver gave it, 0 included), or the final
/// count moved beyond both an absolute and a 25% relative slack. Small
/// smoothing of sampled counts keeps the measurement tag — the solver is
/// calibrating, not inventing.
fn materially_adjusted(raw: Option<u64>, finalc: u64) -> bool {
    match raw {
        None => true,
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

// ---------------------------------------------------------------------
// Sample loader (AutoFDO and CSSPGO)
// ---------------------------------------------------------------------

/// Annotates `module` from an AutoFDO-style profile.
pub fn autofdo_annotate(
    module: &mut Module,
    profile: &FlatProfile,
    cfg: &AnnotateConfig,
) -> AnnotateStats {
    let reader = |guid| profile.funcs.get(&guid).map(Reader::Lines);
    load(
        module,
        cfg,
        AnnotateStats::default(),
        &HashSet::new(),
        reader,
    )
}

/// Annotates `module` (which must already carry pseudo-probes) from a probe
/// profile. `plan` marks full CSSPGO: a nested call site with a body is
/// the pre-inliner's decision and replays, a zero-body stub does not.
/// Without it (probe-only) a nested call site replays when it looks worth
/// it.
pub fn csspgo_annotate(
    module: &mut Module,
    profile: &ProbeProfile,
    plan: Option<&InlinePlan>,
    cfg: &AnnotateConfig,
) -> AnnotateStats {
    let mut stats = AnnotateStats::default();

    // Stale-profile salvage (the paper's drift story, §III.A): instead of
    // dropping checksum-mismatched functions in the loader, statically
    // re-map their counts onto the fresh probe space first. Checksum-matched
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
    let full = plan.is_some();
    let reader = |guid| {
        profile
            .funcs
            .get(&guid)
            .map(|fp| Reader::Probes { fp, full })
    };
    load(module, cfg, stats, &salvaged_guids, reader)
}

/// The sample loader both sampling paths share. Visits `module`'s
/// functions top-down; for each one `reader_of` finds a profile for and
/// that is not stale, it replays the profile's nested call sites as
/// inlines, sets each block's raw count to the MAX over what its
/// instructions read, and hands the counts to inference ([`apply`]).
/// Counts of a function in `salvaged` came through the stale matcher.
fn load<'p>(
    module: &mut Module,
    cfg: &AnnotateConfig,
    mut stats: AnnotateStats,
    salvaged: &HashSet<u64>,
    reader_of: impl Fn(u64) -> Option<Reader<'p>>,
) -> AnnotateStats {
    let mut repair = Repair::new(cfg.inference);
    for fid in csspgo_opt::callgraph::CallGraph::build(module).top_down_order() {
        let guid = module.func(fid).guid;
        let Some(reader) = reader_of(guid) else {
            continue;
        };
        if reader.is_stale(module.func(fid)) {
            stats.stale_dropped += 1;
            continue;
        }
        stats.replayed_inlines += replay_inlines(module, fid, cfg.inline_budget, reader);

        let func = module.func(fid);
        let mut raw: Vec<Option<u64>> = vec![None; func.blocks.len()];
        for (bid, block) in func.iter_blocks() {
            for inst in &block.insts {
                if let Some(c) = reader.count(module, inst) {
                    let slot = &mut raw[bid.index()];
                    *slot = Some(slot.unwrap_or(0).max(c));
                }
            }
        }
        let entry = reader.entry().max(raw[func.entry.index()].unwrap_or(0));
        let base = if salvaged.contains(&guid) {
            Provenance::StaleMatched
        } else {
            Provenance::Sampled
        };
        apply(module, fid, &raw, entry, &mut repair, base, &mut stats);
        stats.annotated += 1;
    }
    stats
}

/// Replays up to `budget` of the inlines `reader`'s profile nests into
/// `fid`: each round inlines the first call (in block order) to another
/// function that [`Reader::replays`] accepts, then rescans the changed
/// body. Returns how many inlines happened.
fn replay_inlines(module: &mut Module, fid: FuncId, budget: usize, reader: Reader) -> usize {
    let mut replayed = 0;
    for _ in 0..budget {
        let candidate = module.func(fid).iter_blocks().find_map(|(bid, block)| {
            (0..block.insts.len()).find_map(|i| match block.insts[i].kind {
                InstKind::Call { callee, .. } if callee != fid => reader
                    .replays(module, &block.insts, i, callee)
                    .then_some((bid, i)),
                _ => None,
            })
        });
        let Some((bid, i)) = candidate else { break };
        if inline_call(module, fid, bid, i) {
            replayed += 1;
        }
    }
    replayed
}

/// One function's sampled profile as the loader reads it — the only place
/// AutoFDO and CSSPGO differ.
#[derive(Clone, Copy)]
enum Reader<'p> {
    /// AutoFDO: counts keyed by `(line offset, discriminator)`, reached
    /// through a debug location's inline stack. Never stale.
    Lines(&'p FuncProfile<LocKey>),
    /// CSSPGO: counts keyed by block probe, reached through a probe's
    /// inline stack, and gated on the CFG checksum. `full` is the
    /// [`InlinePlan`] marker: every nested call site with a body replays.
    Probes {
        fp: &'p FuncProfile<u32>,
        full: bool,
    },
}

impl Reader<'_> {
    fn entry(self) -> u64 {
        match self {
            Reader::Lines(fp) => fp.entry,
            Reader::Probes { fp, .. } => fp.entry,
        }
    }

    /// Whether the profile's checksum mismatches `func`'s CFG (source
    /// drift). Under `Recover`, salvaged functions carry the fresh
    /// checksum and pass.
    fn is_stale(self, func: &csspgo_ir::Function) -> bool {
        matches!(self, Reader::Probes { fp, .. } if is_stale(fp.checksum, func))
    }

    /// The body count the profile records for `inst`: its line, or, for a
    /// block probe, the probe. Every block probe counts, the block's own
    /// and those inlining brought in, so the block takes their MAX.
    fn count(self, module: &Module, inst: &Inst) -> Option<u64> {
        match self {
            Reader::Lines(fp) if inst.loc.line != 0 => {
                let (sub, key) = line_site(fp, module, &inst.loc)?;
                sub.body.get(&key).copied()
            }
            Reader::Lines(_) => None,
            Reader::Probes { fp, .. } => match &inst.kind {
                InstKind::PseudoProbe {
                    owner,
                    index,
                    kind: ProbeKind::Block,
                    inline_stack,
                    ..
                } => probe_site(fp, module, inline_stack, *owner)?
                    .body
                    .get(index)
                    .copied(),
                _ => None,
            },
        }
    }

    /// Whether the call `insts[i]` to `callee` replays an inline the
    /// profile nests at its site: the call's line, or its call probe (the
    /// instruction before it), looked up under the probe's original owner —
    /// an inlined call site keeps its owner, and the profile nests it
    /// there.
    fn replays(self, module: &Module, insts: &[Inst], i: usize, callee: FuncId) -> bool {
        let body = module.func(callee);
        let guid = body.guid;
        match self {
            Reader::Lines(fp) => line_site(fp, module, &insts[i].loc)
                .and_then(|(sub, key)| sub.callsites.get(&(key, guid)))
                .is_some_and(|nested| worth_replaying(nested.total(), body)),
            Reader::Probes { fp, full } => match i.checked_sub(1).map(|p| &insts[p].kind) {
                Some(InstKind::PseudoProbe {
                    owner,
                    index,
                    kind: ProbeKind::Call,
                    inline_stack,
                    ..
                }) => probe_site(fp, module, inline_stack, *owner)
                    .and_then(|sub| sub.callsites.get(&(*index, guid)))
                    .is_some_and(|nested| {
                        if full {
                            !nested.body.is_empty()
                        } else {
                            worth_replaying(nested.total(), body)
                        }
                    }),
                _ => false,
            },
        }
    }
}

/// The sub-profile holding `loc`'s leaf, reached through its debug inline
/// stack, and the leaf's key in it.
fn line_site<'p>(
    fp: &'p FuncProfile<LocKey>,
    module: &Module,
    loc: &DebugLoc,
) -> Option<(&'p FuncProfile<LocKey>, LocKey)> {
    let key = |func: FuncId, line, discriminator| {
        LocKey::new(line, module.func(func).start_line, discriminator)
    };
    if loc.scope == FuncId::INVALID {
        return None;
    }
    let sub = nested(fp, module, &loc.inline_stack, loc.scope, |s| {
        (s.func, key(s.func, s.line, s.discriminator))
    })?;
    Some((sub, key(loc.scope, loc.line, loc.discriminator)))
}

/// The sub-profile a probe of `owner` with inline stack `stack` reads.
fn probe_site<'p>(
    fp: &'p FuncProfile<u32>,
    module: &Module,
    stack: &[ProbeSite],
    owner: FuncId,
) -> Option<&'p FuncProfile<u32>> {
    nested(fp, module, stack, owner, |s| (s.func, s.probe_index))
}

/// The one walk down `callsites`: the sub-profile an inline stack reaches,
/// each frame of `stack` a call site in function `frame(s).0` at anchor
/// `frame(s).1`, calling the next frame's function (`leaf` after the
/// last). `None` when a frame names no function or the profile nests no
/// such call.
fn nested<'p, K: Ord, S>(
    fp: &'p FuncProfile<K>,
    module: &Module,
    stack: &[S],
    leaf: FuncId,
    frame: impl Fn(&S) -> (FuncId, K),
) -> Option<&'p FuncProfile<K>> {
    let mut cur = fp;
    let mut frames = stack.iter().map(frame).peekable();
    while let Some((_, at)) = frames.next() {
        let callee = frames.peek().map_or(leaf, |&(f, _)| f);
        if callee == FuncId::INVALID {
            return None;
        }
        cur = cur.callsites.get(&(at, module.func(callee).guid))?;
    }
    Some(cur)
}

// ---------------------------------------------------------------------
// Instrumentation path (ground truth)
// ---------------------------------------------------------------------

/// Annotates exact counter values measured on an identically-shaped fresh
/// IR (instrumentation-based PGO). Functions in `reconstructed` were
/// measured by a sparse spanning-tree counter placement and carry block
/// counts recovered by Kirchhoff elimination
/// ([`csspgo_ir::flow::reconstruct`]): their blocks are tagged
/// [`Provenance::Reconstructed`]. Other functions carried exact
/// full-fallback counters, tagged [`Provenance::Sampled`]. Only a block
/// with a counter value gets a count and a tag.
pub fn instr_annotate_reconstructed(
    module: &mut Module,
    counts: &HashMap<(FuncId, BlockId), u64>,
    reconstructed: &HashSet<FuncId>,
) -> AnnotateStats {
    let mut stats = AnnotateStats::default();
    for (i, f) in module.functions.iter_mut().enumerate() {
        let fid = FuncId::from_index(i);
        let tag = if reconstructed.contains(&fid) {
            Provenance::Reconstructed
        } else {
            Provenance::Sampled
        };
        let mut any = false;
        let live = f
            .blocks
            .iter_mut()
            .enumerate()
            .filter(|(_, block)| !block.dead);
        for (b, block) in live {
            if let Some(&c) = counts.get(&(fid, BlockId::from_index(b))) {
                block.count = Some(c);
                block.provenance = Some(tag);
                stats.provenance.add(tag, c);
                any = true;
            }
        }
        if any {
            f.entry_count = Some(counts.get(&(fid, f.entry)).copied().unwrap_or(0));
            stats.annotated += 1;
        }
    }
    stats
}

/// How one annotation pass repairs counts: the inference mode, and the
/// solver's working memory, handed from function to function.
struct Repair {
    mode: InferenceMode,
    scratch: mcf::Scratch,
}

impl Repair {
    fn new(mode: InferenceMode) -> Self {
        Repair {
            mode,
            scratch: mcf::Scratch::default(),
        }
    }
}

/// Runs the configured inference on the raw counts and writes the repaired
/// count of every live block onto it, with its provenance tag: `base` (how
/// the raw count was measured) when inference is off or kept it close,
/// [`Provenance::Inferred`] when MCF counted a block no measurement counted
/// or materially adjusted a measured one. Merges inference and provenance
/// accounting into `stats`.
fn apply(
    module: &mut Module,
    fid: FuncId,
    raw: &[Option<u64>],
    entry: u64,
    repair: &mut Repair,
    base: Provenance,
    stats: &mut AnnotateStats,
) {
    let (counts, inference) = infer_dense(
        module.func(fid),
        raw,
        entry,
        repair.mode,
        &mut repair.scratch,
    );
    let f = module.func_mut(fid);
    for (i, block) in f.blocks.iter_mut().enumerate() {
        if block.dead {
            continue;
        }
        let count = counts[i];
        let tag = if repair.mode == InferenceMode::Mcf && materially_adjusted(raw[i], count) {
            Provenance::Inferred
        } else {
            base
        };
        block.count = Some(count);
        block.provenance = Some(tag);
        stats.provenance.add(tag, count);
    }
    f.entry_count = Some(entry);
    stats.inference.merge(&inference);
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
        let src = "fn f(a) { if (a > 0) { return 1; } return 2; }\nfn g(a) { return a; }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        let (f, g) = (FuncId(0), FuncId(1));
        let mut counts = HashMap::new();
        counts.insert((f, BlockId(0)), 100u64);
        counts.insert((f, BlockId(1)), 70u64);
        counts.insert((g, BlockId(0)), 5u64);
        // `g` was measured by a sparse placement and reconstructed.
        let stats = instr_annotate_reconstructed(&mut m, &counts, &HashSet::from([g]));
        assert_eq!(stats.annotated, 2);
        let f = &m.functions[0];
        assert_eq!(f.block(BlockId(1)).count, Some(70));
        assert_eq!(f.entry_count, Some(100));
        for (bid, block) in f.iter_blocks() {
            let counted = counts.contains_key(&(FuncId(0), bid));
            let tag = counted.then_some(Provenance::Sampled);
            assert_eq!(block.provenance, tag, "only a counted block is tagged");
        }
        for (_, block) in m.functions[1].iter_blocks() {
            assert_eq!(block.provenance, Some(Provenance::Reconstructed));
        }
        assert_eq!(stats.provenance.sampled, 170);
        assert_eq!(stats.provenance.reconstructed, 5);
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
        for (bid, block) in m.functions[0].iter_blocks() {
            assert!(block.provenance.is_some(), "{bid:?} is counted and tagged");
        }
    }

    #[test]
    fn an_invented_zero_is_inferred_under_mcf_only() {
        // The else arm (line 5) has no sample at all; the solver routes the
        // whole entry count through the then arm and leaves it at 0.
        let src = "fn f(a) {\n    if (a > 0) {\n        return 1;\n    }\n    return 2;\n}";
        let mut profile = FlatProfile::default();
        let fp = profile
            .funcs
            .entry(csspgo_ir::probe::function_guid("f"))
            .or_default();
        for line_offset in [1, 2] {
            fp.record_max(
                LocKey {
                    line_offset,
                    discriminator: 0,
                },
                100,
            );
        }
        fp.entry = 100;
        for (inference, tag) in [
            (InferenceMode::Mcf, Provenance::Inferred),
            (InferenceMode::Off, Provenance::Sampled),
        ] {
            let mut m = csspgo_lang::compile(src, "t").unwrap();
            csspgo_opt::discriminators::run(&mut m);
            let cfg = AnnotateConfig {
                inference,
                ..AnnotateConfig::default()
            };
            autofdo_annotate(&mut m, &profile, &cfg);
            let else_arm = m.functions[0].block(BlockId(2));
            assert_eq!(else_arm.count, Some(0), "{inference:?}");
            assert_eq!(else_arm.provenance, Some(tag), "{inference:?}");
        }
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
