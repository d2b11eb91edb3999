//! Anchor-based stale-profile matching (the static salvage path).
//!
//! The checksum gate in [`crate::annotate`] is binary: a function whose CFG
//! drifted loses its *entire* profile, exactly where deployments need
//! profile quality most (the paper's §III.A drift story, and LLVM's
//! CSSPGO stale-profile matcher). This module recovers those counts
//! statically — no execution, pure profile/CFG analysis:
//!
//! 1. **Anchors.** Each side is reduced, at most once per run and only
//!    when a comparison needs it, to a per-function view. On the
//!    fresh-module side that is
//!    [`csspgo_ir::probe::anchor_sequence`]: call probes labeled by callee
//!    GUID, and the rest (blocks, unlabelable calls) as a positional pool.
//!    On the profile side the call-site sub-profile keys `(probe index,
//!    callee GUID)` provide the same labeled sequence (every recorded
//!    callee per probe, heaviest first), and the remaining counted probes
//!    are the unlabeled block probes.
//! 2. **Alignment.** The two labeled call-anchor sequences are aligned
//!    with a longest-common-subsequence pass; matched anchors become
//!    *exact* probe mappings (and carry their nested inline sub-profiles
//!    across, recursively).
//! 3. **Interval mapping.** Unmatched (block) probes between two matched
//!    anchors are paired positionally from both ends of the interval —
//!    front-biased for appends, back-biased for prepends — and mapped as
//!    *fuzzy*. Leftovers are dropped, never guessed across an anchor.
//! 4. **Renames.** Profile functions whose GUID no longer exists in the
//!    module are compared against module functions missing from the
//!    profile, on two kinds of evidence: call-anchor-sequence similarity
//!    (with the candidate's *self*-call labels normalized to the orphan's
//!    GUID, so recursion counts as agreement rather than noise), and CFG
//!    checksum equality — a pure rename leaves the shape hash untouched,
//!    which is the strongest signal available when a function has too few
//!    call anchors. Because the shape hash collides on trivially-shaped
//!    functions, checksum evidence only counts when the orphan's probes
//!    fit the candidate's probe space and the recorded call targets agree
//!    with the candidate's labels (the agreement measure `SM004` also
//!    reads). A confident match transplants the profile under the new GUID.
//!
//! Whether a profile is stale at all is one verdict, [`is_stale`], which
//! the annotate-side checksum gate and the `PF004` lint ask too.
//!
//! The mapping is injective by construction — every old probe lands on at
//! most one fresh probe and every fresh probe receives at most one old
//! count — so recovered weight can never exceed the source profile's
//! weight (enforced defensively and property-tested). Functions whose
//! checksum still matches pass through **bit-identical**, so enabling
//! recovery on an undrifted profile is a no-op — with one exception: an
//! inlined sub-profile carries its *own* checksum, and a drifted inlinee
//! under an unchanged parent is re-matched in place (annotation's inline
//! replay applies nested counts by probe index and has no nested checksum
//! gate of its own).

use crate::profile::{ProbeFuncProfile, ProbeProfile};
use csspgo_ir::probe::{anchor_sequence, cfg_checksum};
use csspgo_ir::{FuncId, Function, Module};
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// How annotation treats checksum-mismatched (stale) functions. Lives in
/// [`crate::annotate::AnnotateConfig`] and is surfaced through
/// [`crate::pipeline::PipelineConfig`]'s builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StaleMatching {
    /// Today's behaviour: drop every mismatched function's counts.
    #[default]
    Off,
    /// Consume the recovered counts instead of zeroing them.
    Recover,
}

/// The parameter type of [`match_stale_profile`]. It has no fields: the
/// matcher has one configuration, and its thresholds are constants beside
/// the code that reads them.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchConfig {}

/// Renames adopted below this anchor similarity are low-confidence
/// (`SM005`, raised by `csspgo-analysis`).
pub const STRONG_RENAME_SIMILARITY: f64 = 0.9;

/// What the matcher decided for one profiled function.
#[derive(Clone, Debug, PartialEq)]
pub enum FuncMatchStatus {
    /// Checksum matched: profile passed through bit-identical.
    ChecksumMatch,
    /// Checksum mismatched; counts recovered by anchor alignment.
    Recovered,
    /// The GUID vanished from the module; counts transplanted onto an
    /// anchor-similar function.
    Renamed {
        /// The profiled (old) function's GUID.
        from_guid: u64,
        /// The profiled (old) function's name, when the profile knew it.
        from: String,
        /// Anchor-sequence similarity of the adopted candidate.
        similarity: f64,
    },
    /// Nothing recoverable: counts are lost (as they all were before this
    /// matcher existed).
    Dropped,
}

impl FuncMatchStatus {
    /// Short stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FuncMatchStatus::ChecksumMatch => "checksum-match",
            FuncMatchStatus::Recovered => "recovered",
            FuncMatchStatus::Renamed { .. } => "renamed",
            FuncMatchStatus::Dropped => "dropped",
        }
    }
}

/// Per-function match-quality record (nested sub-profile matching is
/// accumulated into the enclosing top-level function's record).
#[derive(Clone, Debug)]
pub struct FuncMatch {
    /// GUID the counts landed under (the fresh module's GUID; for
    /// [`FuncMatchStatus::Dropped`], the profile's).
    pub guid: u64,
    /// Function name, best effort (module name, else profile name table,
    /// else hex GUID).
    pub name: String,
    /// What happened.
    pub status: FuncMatchStatus,
    /// Probes mapped through an exact anchor (matched call anchors, and
    /// the structurally-pinned entry probe).
    pub matched_probes: usize,
    /// Probes mapped positionally between anchors.
    pub fuzzy_probes: usize,
    /// Profiled probes with no mapping (their counts are lost).
    pub dropped_probes: usize,
    /// Anchor labels that occur more than once on a side of an alignment —
    /// the alignment is positional there (`SM001`).
    pub ambiguous_anchors: usize,
    /// Mappings discarded because the target probe was already taken.
    /// Always 0 unless the matcher itself is broken:
    /// [`match_stale_profile`] asserts it.
    pub two_to_one: usize,
    /// Checksum matched but the call-anchor labels differ — the CFG shape
    /// is identical while call targets changed (`SM004`).
    pub anchor_drift: bool,
    /// Total weight of the source (old) profile for this function.
    pub old_weight: u64,
    /// Weight present in the recovered profile for this function.
    pub recovered_weight: u64,
}

impl FuncMatch {
    /// Fraction of the source weight that survived into the recovered
    /// profile (1.0 for an empty source).
    pub fn recovered_fraction(&self) -> f64 {
        if self.old_weight == 0 {
            1.0
        } else {
            self.recovered_weight as f64 / self.old_weight as f64
        }
    }
}

/// Everything one matching run produced.
#[derive(Clone, Debug)]
pub struct MatchOutcome {
    /// The recovered profile: checksum-matched functions bit-identical,
    /// drifted functions rebuilt against the fresh module's probe space,
    /// dropped functions absent.
    pub profile: ProbeProfile,
    /// Per-function reports, sorted by name then GUID.
    pub funcs: Vec<FuncMatch>,
}

impl MatchOutcome {
    /// Source weight held by checksum-mismatched functions (everything
    /// that is lost without the matcher).
    pub fn stale_old_weight(&self) -> u64 {
        self.funcs
            .iter()
            .filter(|f| f.status != FuncMatchStatus::ChecksumMatch)
            .map(|f| f.old_weight)
            .sum()
    }

    /// Weight recovered for checksum-mismatched functions.
    pub fn stale_recovered_weight(&self) -> u64 {
        self.funcs
            .iter()
            .filter(|f| f.status != FuncMatchStatus::ChecksumMatch)
            .map(|f| f.recovered_weight)
            .sum()
    }

    /// `stale_recovered_weight / stale_old_weight` (1.0 when nothing was
    /// stale).
    pub fn stale_recovered_fraction(&self) -> f64 {
        let old = self.stale_old_weight();
        if old == 0 {
            1.0
        } else {
            self.stale_recovered_weight() as f64 / old as f64
        }
    }

    /// Functions with the given status.
    pub fn count(&self, tag: &str) -> usize {
        self.funcs.iter().filter(|f| f.status.tag() == tag).count()
    }
}

// ---------------------------------------------------------------------
// The staleness verdict, and the two sides of every comparison
// ---------------------------------------------------------------------

/// The CFG checksum a current profile of `func` carries: the one the probe
/// pass recorded, else the shape hash of the body as it stands.
fn current_checksum(func: &Function) -> u64 {
    func.probe_checksum.unwrap_or_else(|| cfg_checksum(func))
}

/// The staleness verdict: a profile recorded under `checksum` no longer
/// describes `func`'s CFG. A profile that recorded no checksum (0) is never
/// stale.
pub fn is_stale(checksum: u64, func: &Function) -> bool {
    checksum != 0 && checksum != current_checksum(func)
}

/// A module function's side, from its one anchor sequence.
struct Fresh<'m> {
    func: &'m Function,
    /// Call anchors labeled by callee GUID, `(probe, callee)`, in probe
    /// order.
    calls: Vec<(u32, u64)>,
    /// Every other probe — blocks, and calls with no label (indirect or
    /// probe-stripped) — in probe order: the positional pool.
    pool: Vec<u32>,
}

impl<'m> Fresh<'m> {
    fn new(module: &'m Module, fid: FuncId) -> Self {
        let anchors = anchor_sequence(module, fid);
        let calls: Vec<(u32, u64)> = anchors
            .iter()
            .filter_map(|a| a.callee.map(|g| (a.index, g)))
            .collect();
        // Anchors come sorted by probe index, so `calls` is too.
        let pool = anchors
            .iter()
            .map(|a| a.index)
            .filter(|p| calls.binary_search_by_key(p, |&(q, _)| q).is_err())
            .collect();
        let func = module.func(fid);
        Fresh { func, calls, pool }
    }
}

/// A profiled function's side.
struct Recorded<'p> {
    fp: &'p ProbeFuncProfile,
    /// Per call-site probe, every recorded callee, heaviest first (GUID
    /// breaks ties): indirect calls and tail-call unwinding record several.
    callees: BTreeMap<u32, Vec<u64>>,
    /// Every probe the profile mentions: counted ones and call sites.
    probes: BTreeSet<u32>,
}

impl<'p> Recorded<'p> {
    fn new(fp: &'p ProbeFuncProfile) -> Self {
        let mut callees: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for &(probe, callee) in fp.callsites.keys() {
            callees.entry(probe).or_default().push(callee);
        }
        for (&probe, recorded) in &mut callees {
            recorded.sort_by_cached_key(|&c| (Reverse(fp.callsites[&(probe, c)].total()), c));
        }
        let mut probes: BTreeSet<u32> = fp.probes.keys().copied().collect();
        probes.extend(callees.keys());
        Recorded {
            fp,
            callees,
            probes,
        }
    }
}

/// The share of `calls` whose label is among the callees `fp` records at
/// their probe, over the calls whose probe has a record (1.0 when none
/// has). A call with no record — tail-called or never sampled — is neutral.
/// Below 1.0 on a checksum-matched function is `SM004`, a call retarget the
/// checksum cannot see; checksum rename evidence needs
/// [`RENAME_SIMILARITY`] of it.
fn agreement(calls: &[(u32, u64)], fp: &ProbeFuncProfile) -> f64 {
    let (mut common, mut agree) = (0usize, 0usize);
    for &(probe, label) in calls {
        if fp
            .callsites
            .range((probe, 0)..=(probe, u64::MAX))
            .next()
            .is_some()
        {
            common += 1;
            agree += usize::from(fp.callsites.contains_key(&(probe, label)));
        }
    }
    if common == 0 {
        1.0
    } else {
        agree as f64 / common as f64
    }
}

// ---------------------------------------------------------------------
// Alignment machinery
// ---------------------------------------------------------------------

/// LCS cell budget before falling back to greedy alignment (keeps the DP
/// quadratic cost bounded on pathological inputs).
const MAX_LCS_CELLS: usize = 4_000_000;

/// Longest common subsequence of two label sequences, as index pairs,
/// strictly increasing on both sides.
fn lcs_pairs(a: &[u64], b: &[u64]) -> Vec<(usize, usize)> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return Vec::new();
    }
    if n.saturating_mul(m) > MAX_LCS_CELLS {
        // Greedy fallback: two-pointer first-match scan.
        let mut out = Vec::new();
        let mut j = 0;
        for (i, &la) in a.iter().enumerate() {
            if let Some(k) = b[j..].iter().position(|&lb| lb == la) {
                out.push((i, j + k));
                j += k + 1;
                if j == m {
                    break;
                }
            }
        }
        return out;
    }
    let w = m + 1;
    let mut dp = vec![0u32; (n + 1) * w];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i * w + j] = if a[i] == b[j] {
                dp[(i + 1) * w + j + 1] + 1
            } else {
                dp[(i + 1) * w + j].max(dp[i * w + j + 1])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] && dp[i * w + j] == dp[(i + 1) * w + j + 1] + 1 {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if dp[(i + 1) * w + j] >= dp[i * w + j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Distinct labels occurring more than once on either side (where the
/// alignment degenerates to positional choice).
fn ambiguous_labels(a: &[u64], b: &[u64]) -> usize {
    let mut mult: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for &l in a {
        mult.entry(l).or_default().0 += 1;
    }
    for &l in b {
        mult.entry(l).or_default().1 += 1;
    }
    mult.values().filter(|(ca, cb)| *ca > 1 || *cb > 1).count()
}

/// Anchor-sequence similarity: `2·LCS / (|a|+|b|)` (1.0 for two empty
/// sequences).
fn label_similarity(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    2.0 * lcs_pairs(a, b).len() as f64 / (a.len() + b.len()) as f64
}

/// Recursion cap for nested (inlined) sub-profile matching: deeper
/// sub-profiles ride along as recorded.
const MAX_DEPTH: usize = 8;

/// One matching run. Each module function's [`Fresh`] side is built the
/// first time a comparison needs it — a stale alignment, a drift check on a
/// profile that records call sites, a rename candidate — and at most once;
/// a current profile without call sites never needs it.
struct Matcher<'m> {
    module: &'m Module,
    fresh: Vec<OnceCell<Fresh<'m>>>,
}

impl<'m> Matcher<'m> {
    fn fresh(&self, fid: FuncId) -> &Fresh<'m> {
        self.fresh[fid.index()].get_or_init(|| Fresh::new(self.module, fid))
    }

    /// Matches one function profile onto `fid`'s fresh body: a stale one
    /// is aligned; a current one passes through bit-identical, unless a
    /// nested sub-profile is itself stale — annotation's inline replay
    /// applies nested counts by probe index against the *fresh* inlinee
    /// body and has no nested checksum gate of its own, so then every
    /// sub-profile is re-matched in place.
    fn match_func(
        &self,
        fid: FuncId,
        fp: &ProbeFuncProfile,
        depth: usize,
        rec: &mut FuncMatch,
    ) -> ProbeFuncProfile {
        if is_stale(fp.checksum, self.module.func(fid)) {
            return self.align(self.fresh(fid), &Recorded::new(fp), depth, rec);
        }
        rec.matched_probes += fp.probes.len();
        let mut out = fp.clone();
        if self.has_stale_nested(fp) {
            for (&(_, callee), sub) in out.callsites.iter_mut() {
                *sub = self.nested(callee, sub, depth, rec);
            }
        }
        out
    }

    /// Does any inlined sub-profile of `fp`, recursively, carry a checksum
    /// the fresh module rejects? (Sub-profiles of functions the module no
    /// longer defines cannot be judged and are left alone.)
    fn has_stale_nested(&self, fp: &ProbeFuncProfile) -> bool {
        fp.callsites.iter().any(|(&(_, callee), sub)| {
            self.module
                .find_function_by_guid(callee)
                .is_some_and(|fid| {
                    is_stale(sub.checksum, self.module.func(fid)) || self.has_stale_nested(sub)
                })
        })
    }

    /// A nested sub-profile of `callee`, one level below `depth`, matched
    /// against the callee's fresh body — or as recorded when the module no
    /// longer defines the callee or the nesting passed [`MAX_DEPTH`].
    fn nested(
        &self,
        callee: u64,
        sub: &ProbeFuncProfile,
        depth: usize,
        rec: &mut FuncMatch,
    ) -> ProbeFuncProfile {
        match self.module.find_function_by_guid(callee) {
            Some(fid) if depth < MAX_DEPTH => self.match_func(fid, sub, depth + 1, rec),
            _ => sub.clone(),
        }
    }

    /// The anchor-alignment core: rebuilds a stale profile against
    /// `fresh`'s probe space.
    fn align(
        &self,
        fresh: &Fresh,
        old: &Recorded,
        depth: usize,
        rec: &mut FuncMatch,
    ) -> ProbeFuncProfile {
        let fp = old.fp;
        // The profile's labeled call anchors: the heaviest recorded callee
        // per call-site probe; the extra ones count as ambiguity.
        let old_calls: Vec<(u32, u64)> = old.callees.iter().map(|(&p, c)| (p, c[0])).collect();
        rec.ambiguous_anchors += old.callees.values().filter(|c| c.len() > 1).count();
        let old_blocks: Vec<u32> = old
            .probes
            .iter()
            .copied()
            .filter(|p| !old.callees.contains_key(p))
            .collect();

        let old_labels: Vec<u64> = old_calls.iter().map(|&(_, l)| l).collect();
        let new_labels: Vec<u64> = fresh.calls.iter().map(|&(_, l)| l).collect();
        rec.ambiguous_anchors += ambiguous_labels(&old_labels, &new_labels);

        // old probe index -> (new probe index, exact?)
        let mut map: BTreeMap<u32, (u32, bool)> = BTreeMap::new();
        let mut boundaries: Vec<(u32, u32)> = vec![(0, 0)];
        // The entry-block probe is structurally pinned: both sides allocate
        // probe 1 to the entry block, so it is an exact anchor even though it
        // carries no label.
        let entry_pinned = old_blocks.contains(&1) && fresh.pool.contains(&1);
        if entry_pinned {
            map.insert(1, (1, true));
            boundaries.push((1, 1));
        }
        for (i, j) in lcs_pairs(&old_labels, &new_labels) {
            let (op, _) = old_calls[i];
            let (np, _) = fresh.calls[j];
            map.insert(op, (np, true));
            boundaries.push((op, np));
        }
        boundaries.push((u32::MAX, u32::MAX));
        boundaries.sort_unstable();
        boundaries.dedup();

        // Interval mapping of the positional pool, paired from both ends.
        for pair in boundaries.windows(2) {
            let (lo_o, lo_n) = pair[0];
            let (hi_o, hi_n) = pair[1];
            let olds: Vec<u32> = old_blocks
                .iter()
                .copied()
                .filter(|&p| p > lo_o && p < hi_o && !map.contains_key(&p))
                .collect();
            let news: Vec<u32> = fresh
                .pool
                .iter()
                .copied()
                .filter(|&p| p > lo_n && p < hi_n && !(entry_pinned && p == 1))
                .collect();
            let d = olds.len().min(news.len());
            let front = d.div_ceil(2);
            let back = d - front;
            for k in 0..front {
                map.insert(olds[k], (news[k], false));
            }
            for k in 0..back {
                map.insert(olds[olds.len() - 1 - k], (news[news.len() - 1 - k], false));
            }
        }

        // Transfer counts through the mapping; injectivity is defended with a
        // seen-set so a matcher bug can never double-count.
        let mut out = ProbeFuncProfile {
            checksum: current_checksum(fresh.func),
            entry: fp.entry,
            ..ProbeFuncProfile::default()
        };
        let mut seen_new: BTreeSet<u32> = BTreeSet::new();
        for (&from, &(to, exact)) in &map {
            if !seen_new.insert(to) {
                rec.two_to_one += 1;
                continue;
            }
            if exact {
                rec.matched_probes += 1;
            } else {
                rec.fuzzy_probes += 1;
            }
            if let Some(&c) = fp.probes.get(&from) {
                out.probes.insert(to, c);
            }
        }
        rec.dropped_probes += old.probes.iter().filter(|p| !map.contains_key(p)).count();

        // Nested inline sub-profiles ride across matched call anchors and are
        // matched recursively against their callee's fresh body.
        for (&(old_probe, callee), sub) in &fp.callsites {
            let Some(&(new_probe, _)) = map.get(&old_probe) else {
                continue;
            };
            if out.callsites.contains_key(&(new_probe, callee)) {
                rec.two_to_one += 1;
                continue;
            }
            let nested = self.nested(callee, sub, depth, rec);
            out.callsites.insert((new_probe, callee), nested);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Renames
// ---------------------------------------------------------------------

/// Minimum evidence to adopt a rename candidate: anchor-sequence
/// similarity, or, when the checksums are equal, [`agreement`].
const RENAME_SIMILARITY: f64 = 0.5;
/// Minimum call anchors on both sides before a rename is adopted on anchor
/// similarity alone (checksum-equal candidates are exempt: a pure rename
/// keeps the CFG checksum, which substitutes for missing anchor evidence).
const MIN_RENAME_ANCHORS: usize = 2;

/// The evidence that the unprofiled `cand` is the orphan `old`, recorded
/// under `old_guid`, renamed: `(checksum evidence, anchor similarity)`, or
/// `None` when neither is enough to adopt it.
fn rename_evidence(old_guid: u64, old: &Recorded, cand: &Fresh) -> Option<(bool, f64)> {
    // A rename moves the GUID: the candidate's recursive calls carry the
    // new one, the orphan's records the old, so the candidate's self-labels
    // are read as the orphan's GUID and recursion counts as agreement.
    let labels: Vec<(u32, u64)> = cand
        .calls
        .iter()
        .map(|&(p, g)| (p, if g == cand.func.guid { old_guid } else { g }))
        .collect();
    let cand_labels: Vec<u64> = labels.iter().map(|&(_, g)| g).collect();
    let cand_set: BTreeSet<u64> = cand_labels.iter().copied().collect();
    // A probe that recorded several callees contributes the one the
    // candidate has: could this candidate have produced these records?
    let old_labels: Vec<u64> = old
        .callees
        .values()
        .map(|c| {
            c.iter()
                .copied()
                .find(|g| cand_set.contains(g))
                .unwrap_or(c[0])
        })
        .collect();
    let sim = label_similarity(&old_labels, &cand_labels);

    // Checksum evidence: a pure rename keeps the CFG-shape hash. The hash
    // collides on trivially-shaped functions, so it only counts when the
    // orphan's probes fit the candidate's probe space and the recorded call
    // targets do not contradict the candidate's labels.
    let fits = old
        .probes
        .iter()
        .all(|&p| p > 0 && p < cand.func.next_probe_index);
    let checksum_eq = old.fp.checksum != 0
        && !is_stale(old.fp.checksum, cand.func)
        && fits
        && agreement(&labels, old.fp) >= RENAME_SIMILARITY;
    let anchors_agree = old_labels.len() >= MIN_RENAME_ANCHORS
        && cand_labels.len() >= MIN_RENAME_ANCHORS
        && sim >= RENAME_SIMILARITY;
    (checksum_eq || anchors_agree).then_some((checksum_eq, sim))
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// The one [`FuncMatch`] constructor: nothing mapped and nothing kept yet.
fn record(guid: u64, name: String, old: &ProbeFuncProfile) -> FuncMatch {
    FuncMatch {
        guid,
        name,
        status: FuncMatchStatus::Dropped,
        matched_probes: 0,
        fuzzy_probes: 0,
        dropped_probes: 0,
        ambiguous_anchors: 0,
        two_to_one: 0,
        anchor_drift: false,
        old_weight: old.total(),
        recovered_weight: 0,
    }
}

/// Matches `profile` (collected on an older build) against the fresh
/// `module`, producing a recovered profile plus per-function match-quality
/// reports. See the module docs for the algorithm.
pub fn match_stale_profile(
    module: &Module,
    profile: &ProbeProfile,
    _: &MatchConfig,
) -> MatchOutcome {
    let matcher = Matcher {
        module,
        fresh: module.functions.iter().map(|_| OnceCell::new()).collect(),
    };
    let mut out = ProbeProfile {
        names: profile.names.clone(),
        ..ProbeProfile::default()
    };
    let mut funcs: Vec<FuncMatch> = Vec::new();
    let mut orphans: Vec<(u64, Recorded)> = Vec::new();

    for (&guid, fp) in &profile.funcs {
        let Some(fid) = module.find_function_by_guid(guid) else {
            orphans.push((guid, Recorded::new(fp)));
            continue;
        };
        let func = module.func(fid);
        let mut rec = record(guid, func.name.clone(), fp);
        let kept = if is_stale(fp.checksum, func) {
            let rebuilt = matcher.align(matcher.fresh(fid), &Recorded::new(fp), 0, &mut rec);
            let salvaged = rebuilt.total() > 0 || rec.matched_probes + rec.fuzzy_probes > 0;
            if salvaged {
                rec.status = FuncMatchStatus::Recovered;
            }
            salvaged.then_some(rebuilt)
        } else {
            rec.status = FuncMatchStatus::ChecksumMatch;
            // A profile that records no call site contradicts no label.
            rec.anchor_drift =
                !fp.callsites.is_empty() && agreement(&matcher.fresh(fid).calls, fp) < 1.0;
            Some(matcher.match_func(fid, fp, 0, &mut rec))
        };
        if let Some(kept) = kept {
            rec.recovered_weight = kept.total();
            out.funcs.insert(guid, kept);
        }
        funcs.push(rec);
    }

    // Rename pass: profile GUIDs absent from the module vs module
    // functions absent from the profile, heaviest orphan first.
    let mut free: Vec<FuncId> = module
        .functions
        .iter()
        .filter(|f| !profile.funcs.contains_key(&f.guid))
        .map(|f| f.id)
        .collect();
    orphans.sort_by_key(|&(guid, ref old)| (Reverse(old.fp.total()), guid));
    for (old_guid, old) in orphans {
        let old_name = profile
            .names
            .get(&old_guid)
            .cloned()
            .unwrap_or_else(|| format!("{old_guid:#018x}"));
        // The strongest evidence wins; the lower name, then the earlier
        // candidate, breaks a tie.
        let best = free
            .iter()
            .enumerate()
            .filter_map(|(slot, &fid)| {
                let cand = matcher.fresh(fid);
                let (checksum_eq, sim) = rename_evidence(old_guid, &old, cand)?;
                Some((checksum_eq, sim, &cand.func.name, slot))
            })
            .min_by(|a, b| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(b.2)));
        let Some((_, similarity, _, slot)) = best else {
            let mut rec = record(old_guid, old_name, old.fp);
            rec.dropped_probes = old.probes.len();
            funcs.push(rec);
            continue;
        };
        let fid = free.remove(slot);
        let func = module.func(fid);
        let mut rec = record(func.guid, func.name.clone(), old.fp);
        rec.status = FuncMatchStatus::Renamed {
            from_guid: old_guid,
            from: old_name,
            similarity,
        };
        let kept = matcher.match_func(fid, old.fp, 0, &mut rec);
        rec.recovered_weight = kept.total();
        out.funcs.insert(rec.guid, kept);
        out.names.insert(rec.guid, rec.name.clone());
        funcs.push(rec);
    }

    funcs.sort_by(|a, b| a.name.cmp(&b.name).then(a.guid.cmp(&b.guid)));
    debug_assert!(
        funcs
            .iter()
            .all(|f| f.two_to_one == 0 && f.recovered_weight <= f.old_weight),
        "the matcher mapped two probes onto one or created weight: {funcs:#?}"
    );
    MatchOutcome {
        profile: out,
        funcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::probe::function_guid;

    /// Compiles, probes, and returns the module.
    fn probed(src: &str) -> Module {
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::probes::run(&mut m);
        m
    }

    /// A synthetic profile for `module`: every probe of every function gets
    /// a deterministic count, call probes gain a nested sub-profile entry.
    fn synthetic_profile(module: &Module) -> ProbeProfile {
        let mut p = ProbeProfile::default();
        for f in &module.functions {
            let fp = p.funcs.entry(f.guid).or_default();
            fp.checksum = f.probe_checksum.unwrap();
            fp.entry = 1000;
            for a in anchor_sequence(module, f.id) {
                fp.record_sum(a.index, 100 + a.index as u64);
                if let Some(callee) = a.callee {
                    fp.callsite_mut(a.index, callee).entry = 10;
                }
            }
            p.names.insert(f.guid, f.name.clone());
        }
        p
    }

    const SRC: &str = r#"
fn leaf(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn mid(x) {
    let a = leaf(x);
    let b = leaf(x + 1);
    return a + b;
}
fn top(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + mid(i);
        i = i + 1;
    }
    return s;
}
"#;

    #[test]
    fn clean_profile_passes_through_bit_identical() {
        let m = probed(SRC);
        let p = synthetic_profile(&m);
        let out = match_stale_profile(&m, &p, &MatchConfig::default());
        assert_eq!(out.profile.funcs, p.funcs);
        assert!(out
            .funcs
            .iter()
            .all(|f| f.status == FuncMatchStatus::ChecksumMatch));
        assert!(!out.funcs.iter().any(|f| f.anchor_drift));
        assert_eq!(out.stale_old_weight(), 0);
    }

    #[test]
    fn stale_inlinee_under_matched_parent_is_rematched() {
        // Only `leaf` drifts. `mid`'s own CFG — and checksum — are
        // untouched, but the inlined leaf sub-profile recorded under mid's
        // call site carries leaf's now-stale checksum and must be rebuilt
        // against the fresh leaf body, not passed through.
        let m_old = probed(SRC);
        let leaf_guid = function_guid("leaf");
        let mid_guid = function_guid("mid");
        let old_leaf_fid = m_old.find_function_by_guid(leaf_guid).unwrap();
        let old_leaf_sum = m_old.func(old_leaf_fid).probe_checksum.unwrap();

        let mut p = synthetic_profile(&m_old);
        let mid_fp = p.funcs.get_mut(&mid_guid).unwrap();
        let nested_keys: Vec<(u32, u64)> = mid_fp
            .callsites
            .keys()
            .copied()
            .filter(|&(_, g)| g == leaf_guid)
            .collect();
        assert!(!nested_keys.is_empty(), "mid must record leaf call sites");
        for key in &nested_keys {
            let sub = mid_fp.callsites.get_mut(key).unwrap();
            sub.checksum = old_leaf_sum;
            for a in anchor_sequence(&m_old, old_leaf_fid) {
                sub.record_sum(a.index, 7 + a.index as u64);
            }
        }
        let old_nested_weight: u64 = nested_keys
            .iter()
            .map(|k| p.funcs[&mid_guid].callsites[k].total())
            .sum();

        let drifted = SRC.replace(
            "fn leaf(x) {",
            "fn leaf(x) {\n    if (0 > 1) { return 0 - 1; }",
        );
        let m_new = probed(&drifted);
        let new_leaf = m_new.func(m_new.find_function_by_guid(leaf_guid).unwrap());
        assert_ne!(new_leaf.probe_checksum.unwrap(), old_leaf_sum);
        assert_eq!(
            m_new
                .func(m_new.find_function_by_guid(mid_guid).unwrap())
                .probe_checksum,
            m_old
                .func(m_old.find_function_by_guid(mid_guid).unwrap())
                .probe_checksum,
            "mid itself must not drift"
        );

        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        let mid_match = out.funcs.iter().find(|f| f.name == "mid").unwrap();
        assert_eq!(mid_match.status, FuncMatchStatus::ChecksumMatch);
        let rec_mid = &out.profile.funcs[&mid_guid];
        let mut rec_nested_weight = 0;
        for key in &nested_keys {
            let sub = &rec_mid.callsites[key];
            assert_eq!(
                sub.checksum,
                new_leaf.probe_checksum.unwrap(),
                "nested sub-profile must carry the fresh inlinee checksum"
            );
            rec_nested_weight += sub.total();
        }
        assert!(rec_nested_weight > 0, "nested counts must survive");
        assert!(
            rec_nested_weight <= old_nested_weight,
            "no weight inflation"
        );
        assert_eq!(mid_match.two_to_one, 0);
    }

    #[test]
    fn cfg_drift_recovers_most_weight() {
        let m_old = probed(SRC);
        let p = synthetic_profile(&m_old);
        let drifted = csspgo_workloads_free_drift(SRC);
        let m_new = probed(&drifted);
        // Every function's CFG changed: all checksums mismatch.
        for f in &m_new.functions {
            assert_ne!(
                f.probe_checksum,
                m_old.functions[f.id.index()].probe_checksum,
                "{} should have drifted",
                f.name
            );
        }
        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        assert_eq!(out.count("recovered"), 3, "{:#?}", out.funcs);
        assert!(
            out.stale_recovered_fraction() >= 0.6,
            "recovered only {:.2} of stale weight",
            out.stale_recovered_fraction()
        );
        // Soundness: never more than the source held, never two-to-one.
        for f in &out.funcs {
            assert!(f.recovered_weight <= f.old_weight, "{f:#?}");
            assert_eq!(f.two_to_one, 0, "{f:#?}");
        }
        // Recovered functions carry the fresh checksum so annotation
        // accepts them.
        for f in &m_new.functions {
            let fp = &out.profile.funcs[&f.guid];
            assert_eq!(fp.checksum, f.probe_checksum.unwrap());
        }
    }

    /// A dead guard prepended to each body, CFG-changing (mirrors
    /// `workloads::drift::change_cfg` without the crate dependency).
    fn csspgo_workloads_free_drift(source: &str) -> String {
        let mut out = String::new();
        for line in source.lines() {
            out.push_str(line);
            out.push('\n');
            if line.starts_with("fn ") && line.trim_end().ends_with('{') {
                out.push_str("    if (0 > 1) { return 0 - 1; }\n");
            }
        }
        out
    }

    #[test]
    fn call_anchors_map_exactly_across_drift() {
        let m_old = probed(SRC);
        let p = synthetic_profile(&m_old);
        let m_new = probed(&csspgo_workloads_free_drift(SRC));
        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        let mid = out
            .funcs
            .iter()
            .find(|f| f.name == "mid")
            .expect("mid reported");
        // mid has two labeled call anchors (leaf, leaf — ambiguous label)
        // plus the pinned entry probe.
        assert!(mid.matched_probes >= 3, "{mid:#?}");
        assert!(mid.ambiguous_anchors >= 1, "{mid:#?}");
        // Nested sub-profiles survive under the matched anchors.
        let mid_fp = &out.profile.funcs[&function_guid("mid")];
        assert_eq!(mid_fp.callsites.len(), 2, "{mid_fp:#?}");
        for (_, callee) in mid_fp.callsites.keys() {
            assert_eq!(*callee, function_guid("leaf"));
        }
    }

    #[test]
    fn renamed_function_is_transplanted() {
        let m_old = probed(SRC);
        let p = synthetic_profile(&m_old);
        let renamed_src = SRC.replace("mid", "mid_v2");
        let m_new = probed(&renamed_src);
        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        let rec = out
            .funcs
            .iter()
            .find(|f| f.name == "mid_v2")
            .expect("rename candidate reported");
        match &rec.status {
            FuncMatchStatus::Renamed {
                from, similarity, ..
            } => {
                assert_eq!(from, "mid");
                assert!(*similarity >= 0.5, "similarity {similarity}");
            }
            other => panic!("expected rename, got {other:?}"),
        }
        assert!(out.profile.funcs.contains_key(&function_guid("mid_v2")));
        assert!(!out.profile.funcs.contains_key(&function_guid("mid")));
        // `top` now calls mid_v2, an unknown label vs the profile's mid:
        // its call anchor drops but the rest of the function recovers.
        let top = out.funcs.iter().find(|f| f.name == "top").unwrap();
        assert_eq!(top.status, FuncMatchStatus::ChecksumMatch);
        assert!(top.anchor_drift, "call-target change under a stable CFG");
    }

    #[test]
    fn leaf_rename_is_adopted_on_checksum_evidence() {
        // `leaf` has no call anchors, so anchor similarity alone can never
        // reach min_rename_anchors — the unchanged CFG checksum is what
        // carries the rename.
        let m_old = probed(SRC);
        let p = synthetic_profile(&m_old);
        let m_new = probed(&SRC.replace("leaf", "leaf_v2"));
        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        let rec = out
            .funcs
            .iter()
            .find(|f| f.name == "leaf_v2")
            .expect("leaf_v2 reported");
        match &rec.status {
            FuncMatchStatus::Renamed { from, .. } => assert_eq!(from, "leaf"),
            other => panic!("expected rename, got {other:?}"),
        }
        assert!(out.profile.funcs.contains_key(&function_guid("leaf_v2")));
        assert_eq!(rec.recovered_weight, rec.old_weight);
    }

    #[test]
    fn checksum_evidence_needs_the_orphans_probes_to_fit_the_candidate() {
        // The leaf rename above, but the orphan also counts a probe the
        // candidate never allocated: equal shape hashes of trivially-shaped
        // functions collide, and a profile that does not fit is not one.
        let m_old = probed(SRC);
        let mut p = synthetic_profile(&m_old);
        let m_new = probed(&SRC.replace("leaf", "leaf_v2"));
        let cand = m_new.func(
            m_new
                .find_function_by_guid(function_guid("leaf_v2"))
                .unwrap(),
        );
        let orphan = p.funcs.get_mut(&function_guid("leaf")).unwrap();
        assert_eq!(orphan.checksum, cand.probe_checksum.unwrap());
        orphan.record_sum(cand.next_probe_index, 5);

        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        assert_eq!(out.count("renamed"), 0, "{:#?}", out.funcs);
        let leaf = out.funcs.iter().find(|f| f.name == "leaf").unwrap();
        assert_eq!(leaf.status, FuncMatchStatus::Dropped);
        assert!(!out.profile.funcs.contains_key(&function_guid("leaf_v2")));
    }

    #[test]
    fn checksum_evidence_is_refused_when_call_labels_contradict_it() {
        // `a` and `b` share a CFG shape, so `f`'s checksum cannot see which
        // one it calls. The candidate `g` has `f`'s shape but calls `b`
        // where `f`'s profile recorded `a`: its one call label contradicts
        // every recorded callee, and one call anchor is too few for anchor
        // evidence, so nothing may adopt `f`'s counts.
        let src = r#"
fn a(x) { return x + 1; }
fn b(x) { return x + 2; }
fn f(x) {
    let u = a(x);
    return u;
}
"#;
        let m_old = probed(src);
        let p = synthetic_profile(&m_old);
        let m_new = probed(&src.replace("fn f(x)", "fn g(x)").replace("a(x);", "b(x);"));
        let g = m_new.func(m_new.find_function_by_guid(function_guid("g")).unwrap());
        assert_eq!(
            p.funcs[&function_guid("f")].checksum,
            g.probe_checksum.unwrap()
        );

        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        assert_eq!(out.count("renamed"), 0, "{:#?}", out.funcs);
        let f = out.funcs.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.status, FuncMatchStatus::Dropped);
        assert!(!out.profile.funcs.contains_key(&function_guid("g")));
    }

    #[test]
    fn recursive_rename_normalizes_self_call_labels() {
        let src = r#"
fn count(n) {
    if (n <= 0) { return 0; }
    return count(n - 1) + count(n - 2);
}
fn top(n) { return count(n); }
"#;
        let m_old = probed(src);
        let p = synthetic_profile(&m_old);
        let m_new = probed(&src.replace("count", "count_v2"));
        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        let rec = out
            .funcs
            .iter()
            .find(|f| f.name == "count_v2")
            .expect("count_v2 reported");
        match &rec.status {
            FuncMatchStatus::Renamed {
                from, similarity, ..
            } => {
                assert_eq!(from, "count");
                // Without self-label folding the two recursive anchors
                // would disagree (count vs count_v2) and similarity would
                // be 0; with it they match exactly.
                assert_eq!(*similarity, 1.0);
            }
            other => panic!("expected rename, got {other:?}"),
        }
    }

    #[test]
    fn unmatchable_function_is_dropped() {
        let m_old = probed(SRC);
        let p = synthetic_profile(&m_old);
        // A module with entirely different functions: nothing to match.
        let m_new = probed("fn other(a) { return a * 2; }");
        let out = match_stale_profile(&m_new, &p, &MatchConfig::default());
        assert!(out
            .funcs
            .iter()
            .all(|f| f.status == FuncMatchStatus::Dropped
                || matches!(f.status, FuncMatchStatus::Renamed { .. })));
        assert_eq!(out.stale_recovered_weight(), 0);
    }

    #[test]
    fn lcs_is_strictly_increasing_and_maximal() {
        let a = [1u64, 2, 3, 2, 5];
        let b = [2u64, 3, 9, 2, 5];
        let pairs = lcs_pairs(&a, &b);
        assert_eq!(pairs.len(), 4); // 2 3 2 5
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
        assert!(lcs_pairs(&[], &b).is_empty());
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let a = [1u64, 2, 3];
        let b = [1u64, 9, 3];
        let s = label_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(s, label_similarity(&b, &a));
        assert_eq!(label_similarity(&a, &a), 1.0);
        assert_eq!(label_similarity(&[], &[]), 1.0);
    }
}
