//! Anchor-based stale-profile matching (the static salvage path).
//!
//! The checksum gate in [`crate::annotate`] is binary: a function whose CFG
//! drifted loses its *entire* profile, exactly where deployments need
//! profile quality most (the paper's §III.A drift story, and LLVM's
//! CSSPGO stale-profile matcher). This module recovers those counts
//! statically — no execution, pure profile/CFG analysis:
//!
//! 1. **Anchors.** Each side is reduced to its per-function anchor
//!    sequence. On the fresh-module side that is
//!    [`csspgo_ir::probe::anchor_sequence`] (call probes labeled by callee
//!    GUID, block probes unlabeled). On the profile side the call-site
//!    sub-profile keys `(probe index, callee GUID)` provide the same
//!    labeled sequence, and the remaining counted probes are the unlabeled
//!    block probes.
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
//!    fit the candidate's probe space and the anchor similarity does not
//!    contradict it. A confident match transplants the profile under the
//!    new GUID.
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
use csspgo_ir::probe::{anchor_sequence, cfg_checksum, ProbeKind};
use csspgo_ir::{FuncId, Module};
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

/// Matcher tuning.
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Minimum anchor-sequence similarity (`2·LCS / (|a|+|b|)`) to adopt a
    /// rename candidate.
    pub rename_similarity: f64,
    /// Renames adopted below this similarity are flagged low-confidence
    /// (`SM005`).
    pub strong_rename_similarity: f64,
    /// Minimum call anchors on both sides before a rename is considered on
    /// anchor similarity alone (checksum-equal candidates are exempt: a
    /// pure rename keeps the CFG checksum, which substitutes for missing
    /// anchor evidence).
    pub min_rename_anchors: usize,
    /// Recursion cap for nested (inlined) sub-profile matching.
    pub max_depth: usize,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            rename_similarity: 0.5,
            strong_rename_similarity: 0.9,
            min_rename_anchors: 2,
            max_depth: 8,
        }
    }
}

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

/// Nested-recursion stat accumulator, folded into one [`FuncMatch`].
#[derive(Clone, Copy, Debug, Default)]
struct Acc {
    matched: usize,
    fuzzy: usize,
    dropped: usize,
    ambiguous: usize,
    two_to_one: usize,
}

/// The profile side's labeled call anchors: per call-site probe index, the
/// callee GUID of the *heaviest* nested sub-profile (indirect call sites
/// can record several callees at one probe; the extra ones count as
/// ambiguity).
fn profile_call_anchors(fp: &ProbeFuncProfile) -> (Vec<(u32, u64)>, usize) {
    let mut by_probe: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for (&(probe, callee), sub) in &fp.callsites {
        by_probe.entry(probe).or_default().push((callee, sub.total));
    }
    let mut multi = 0;
    let anchors = by_probe
        .into_iter()
        .map(|(probe, mut callees)| {
            if callees.len() > 1 {
                multi += 1;
            }
            // Heaviest first; GUID breaks ties deterministically.
            callees.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            (probe, callees[0].0)
        })
        .collect();
    (anchors, multi)
}

/// The profile side's full probe set: everything counted plus every
/// call-site probe.
fn profile_probe_set(fp: &ProbeFuncProfile) -> BTreeSet<u32> {
    let mut set: BTreeSet<u32> = fp.probes.keys().copied().collect();
    set.extend(fp.callsites.keys().map(|&(p, _)| p));
    set
}

/// Matches one function profile onto `fid`, recursively matching nested
/// (inlined) sub-profiles. Checksum-matching (sub-)profiles pass through
/// bit-identical unless a nested sub-profile is itself stale, in which
/// case only the stale subtrees are re-matched.
fn match_func(
    module: &Module,
    fid: FuncId,
    fp: &ProbeFuncProfile,
    cfg: &MatchConfig,
    depth: usize,
    acc: &mut Acc,
) -> ProbeFuncProfile {
    let func = module.func(fid);
    let fresh = func.probe_checksum.unwrap_or_else(|| cfg_checksum(func));
    if fp.checksum == 0 || fp.checksum == fresh {
        acc.matched += fp.probes.len();
        if !has_stale_nested(module, fp) {
            return fp.clone();
        }
        // A drifted inlinee under an unchanged parent: the parent's probe
        // space passes through, but the stale sub-profiles must be rebuilt
        // — annotation's inline replay applies nested counts by probe
        // index against the *fresh* inlinee body and has no nested
        // checksum gate of its own.
        let mut out = fp.clone();
        for ((_, callee_guid), sub) in out.callsites.iter_mut() {
            if let Some(cfid) = module.find_function_by_guid(*callee_guid) {
                if depth < cfg.max_depth {
                    *sub = match_func(module, cfid, sub, cfg, depth + 1, acc);
                }
            }
        }
        out.recompute_totals();
        return out;
    }
    align_func(module, fid, fp, cfg, depth, acc)
}

/// Does any inlined sub-profile of `fp`, recursively, carry a checksum the
/// fresh module rejects? (Sub-profiles of functions the module no longer
/// defines cannot be judged and are left alone.)
fn has_stale_nested(module: &Module, fp: &ProbeFuncProfile) -> bool {
    fp.callsites.iter().any(|(&(_, callee_guid), sub)| {
        match module.find_function_by_guid(callee_guid) {
            Some(cfid) => {
                let func = module.func(cfid);
                let fresh = func.probe_checksum.unwrap_or_else(|| cfg_checksum(func));
                (sub.checksum != 0 && sub.checksum != fresh) || has_stale_nested(module, sub)
            }
            None => false,
        }
    })
}

/// The anchor-alignment core: rebuilds `fp` against `fid`'s fresh probe
/// space.
fn align_func(
    module: &Module,
    fid: FuncId,
    fp: &ProbeFuncProfile,
    cfg: &MatchConfig,
    depth: usize,
    acc: &mut Acc,
) -> ProbeFuncProfile {
    let func = module.func(fid);
    let fresh = func.probe_checksum.unwrap_or_else(|| cfg_checksum(func));

    let anchors = anchor_sequence(module, fid);
    // Labeled call anchors on the fresh side; unlabelable call probes
    // (indirect or probe-stripped calls) join the positional pool.
    let new_calls: Vec<(u32, u64)> = anchors
        .iter()
        .filter(|a| a.kind == ProbeKind::Call)
        .filter_map(|a| a.callee.map(|g| (a.index, g)))
        .collect();
    let labeled: BTreeSet<u32> = new_calls.iter().map(|&(i, _)| i).collect();
    let new_blocks: Vec<u32> = anchors
        .iter()
        .filter(|a| !labeled.contains(&a.index))
        .map(|a| a.index)
        .collect();

    let (old_calls, multi_callee) = profile_call_anchors(fp);
    acc.ambiguous += multi_callee;
    let old_set = profile_probe_set(fp);
    let old_call_set: BTreeSet<u32> = old_calls.iter().map(|&(p, _)| p).collect();
    let old_blocks: Vec<u32> = old_set
        .iter()
        .copied()
        .filter(|p| !old_call_set.contains(p))
        .collect();

    let old_labels: Vec<u64> = old_calls.iter().map(|&(_, l)| l).collect();
    let new_labels: Vec<u64> = new_calls.iter().map(|&(_, l)| l).collect();
    acc.ambiguous += ambiguous_labels(&old_labels, &new_labels);

    // old probe index -> (new probe index, exact?)
    let mut map: BTreeMap<u32, (u32, bool)> = BTreeMap::new();
    let mut boundaries: Vec<(u32, u32)> = vec![(0, 0)];
    // The entry-block probe is structurally pinned: both sides allocate
    // probe 1 to the entry block, so it is an exact anchor even though it
    // carries no label.
    let entry_pinned = old_blocks.contains(&1) && new_blocks.contains(&1);
    if entry_pinned {
        map.insert(1, (1, true));
        boundaries.push((1, 1));
    }
    for (i, j) in lcs_pairs(&old_labels, &new_labels) {
        let (op, _) = old_calls[i];
        let (np, _) = new_calls[j];
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
        let news: Vec<u32> = new_blocks
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
        checksum: fresh,
        entry: fp.entry,
        ..ProbeFuncProfile::default()
    };
    let mut seen_new: BTreeSet<u32> = BTreeSet::new();
    for (&old, &(new, exact)) in &map {
        if !seen_new.insert(new) {
            acc.two_to_one += 1;
            continue;
        }
        if exact {
            acc.matched += 1;
        } else {
            acc.fuzzy += 1;
        }
        if let Some(&c) = fp.probes.get(&old) {
            out.probes.insert(new, c);
        }
    }
    acc.dropped += old_set.iter().filter(|p| !map.contains_key(p)).count();

    // Nested inline sub-profiles ride across matched call anchors and are
    // matched recursively against their callee's fresh body.
    for (&(old_probe, callee_guid), sub) in &fp.callsites {
        let Some(&(new_probe, _)) = map.get(&old_probe) else {
            continue;
        };
        if out.callsites.contains_key(&(new_probe, callee_guid)) {
            acc.two_to_one += 1;
            continue;
        }
        let nested = match module.find_function_by_guid(callee_guid) {
            Some(cfid) if depth < cfg.max_depth => {
                match_func(module, cfid, sub, cfg, depth + 1, acc)
            }
            _ => sub.clone(),
        };
        out.callsites.insert((new_probe, callee_guid), nested);
    }
    out.recompute_totals();
    out
}

/// Checks whether a checksum-matching function's call anchors still agree
/// with the profile's call-site records (`SM004`: a call-target swap keeps
/// the CFG shape, and therefore the checksum, while silently changing what
/// the counts mean).
fn anchor_drift(module: &Module, fid: FuncId, fp: &ProbeFuncProfile) -> bool {
    let mut by_probe: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
    for &(probe, callee) in fp.callsites.keys() {
        by_probe.entry(probe).or_default().insert(callee);
    }
    if by_probe.is_empty() {
        return false;
    }
    let anchors = anchor_sequence(module, fid);
    for a in anchors {
        if a.kind != ProbeKind::Call {
            continue;
        }
        let (Some(label), Some(callees)) = (a.callee, by_probe.get(&a.index)) else {
            continue;
        };
        if !callees.contains(&label) {
            return true;
        }
    }
    false
}

/// A function's total profile weight (probe counts, nested included).
fn profile_weight(fp: &ProbeFuncProfile) -> u64 {
    fp.probes.values().sum::<u64>() + fp.callsites.values().map(profile_weight).sum::<u64>()
}

/// Matches `profile` (collected on an older build) against the fresh
/// `module`, producing a recovered profile plus per-function match-quality
/// reports. See the module docs for the algorithm.
pub fn match_stale_profile(
    module: &Module,
    profile: &ProbeProfile,
    cfg: &MatchConfig,
) -> MatchOutcome {
    let mut out = ProbeProfile {
        names: profile.names.clone(),
        ..ProbeProfile::default()
    };
    let mut funcs: Vec<FuncMatch> = Vec::new();
    let mut orphans: Vec<(u64, &ProbeFuncProfile)> = Vec::new();

    for (&guid, fp) in &profile.funcs {
        let Some(fid) = module.find_function_by_guid(guid) else {
            orphans.push((guid, fp));
            continue;
        };
        let func = module.func(fid);
        let fresh = func.probe_checksum.unwrap_or_else(|| cfg_checksum(func));
        let old_weight = profile_weight(fp);
        if fp.checksum == 0 || fp.checksum == fresh {
            // `match_func` passes a fully-clean profile through
            // bit-identical; with a stale inlinee it re-matches just those
            // subtrees, and the nested mapping stats land in this record.
            let mut acc = Acc::default();
            let rec = match_func(module, fid, fp, cfg, 0, &mut acc);
            let recovered_weight = profile_weight(&rec);
            out.funcs.insert(guid, rec);
            funcs.push(FuncMatch {
                guid,
                name: func.name.clone(),
                status: FuncMatchStatus::ChecksumMatch,
                matched_probes: acc.matched,
                fuzzy_probes: acc.fuzzy,
                dropped_probes: acc.dropped,
                ambiguous_anchors: acc.ambiguous,
                two_to_one: acc.two_to_one,
                anchor_drift: anchor_drift(module, fid, fp),
                old_weight,
                recovered_weight,
            });
            continue;
        }
        let mut acc = Acc::default();
        let rec = align_func(module, fid, fp, cfg, 0, &mut acc);
        let recovered_weight = profile_weight(&rec);
        let salvaged = recovered_weight > 0 || acc.matched + acc.fuzzy > 0;
        if salvaged {
            out.funcs.insert(guid, rec);
        }
        funcs.push(FuncMatch {
            guid,
            name: func.name.clone(),
            status: if salvaged {
                FuncMatchStatus::Recovered
            } else {
                FuncMatchStatus::Dropped
            },
            matched_probes: acc.matched,
            fuzzy_probes: acc.fuzzy,
            dropped_probes: acc.dropped,
            ambiguous_anchors: acc.ambiguous,
            two_to_one: acc.two_to_one,
            anchor_drift: false,
            old_weight,
            recovered_weight: if salvaged { recovered_weight } else { 0 },
        });
    }

    // Rename pass: profile GUIDs absent from the module vs module
    // functions absent from the profile, heaviest orphan first.
    let mut free: Vec<FuncId> = module
        .functions
        .iter()
        .filter(|f| !profile.funcs.contains_key(&f.guid))
        .map(|f| f.id)
        .collect();
    orphans.sort_by(|a, b| {
        profile_weight(b.1)
            .cmp(&profile_weight(a.1))
            .then(a.0.cmp(&b.0))
    });
    for (old_guid, fp) in orphans {
        // Per call-site probe, every recorded callee, heaviest first.
        // Multi-callee probes (indirect calls, tail-call unwinding) are
        // resolved *per candidate* below: if any recorded callee agrees
        // with the candidate's label we take that one — the question is
        // "could this candidate have produced these call records", not
        // "what was the hottest target".
        let mut old_by_probe: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        {
            let mut weighted: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
            for (&(probe, callee), sub) in &fp.callsites {
                weighted.entry(probe).or_default().push((callee, sub.total));
            }
            for (probe, mut callees) in weighted {
                callees.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
                old_by_probe.insert(probe, callees.into_iter().map(|(c, _)| c).collect());
            }
        }
        let old_name = profile
            .names
            .get(&old_guid)
            .cloned()
            .unwrap_or_else(|| format!("{old_guid:#018x}"));
        let old_weight = profile_weight(fp);

        // (checksum evidence, similarity, free-list slot, candidate).
        let mut best: Option<(bool, f64, usize, FuncId)> = None;
        for (slot, &fid) in free.iter().enumerate() {
            let func = module.func(fid);
            let cand_labels: Vec<u64> = anchor_sequence(module, fid)
                .iter()
                .filter(|a| a.kind == ProbeKind::Call)
                .filter_map(|a| a.callee)
                // A rename moves the function's own GUID: the candidate's
                // recursive calls carry the *new* GUID while the orphan's
                // carry the old one. Fold the candidate's self-labels onto
                // the orphan's GUID so recursion counts as agreement.
                .map(|g| if g == func.guid { old_guid } else { g })
                .collect();
            let cand_set: BTreeSet<u64> = cand_labels.iter().copied().collect();
            let old_labels: Vec<u64> = old_by_probe
                .values()
                .map(|callees| {
                    callees
                        .iter()
                        .copied()
                        .find(|c| cand_set.contains(c))
                        .unwrap_or(callees[0])
                })
                .collect();
            let sim = label_similarity(&old_labels, &cand_labels);

            // Checksum evidence: a pure rename keeps the CFG-shape hash.
            // The hash collides on trivially-shaped functions, so it only
            // counts when the orphan's probes fit the candidate's probe
            // space and the recorded call targets do not contradict the
            // candidate. With equal checksums the CFGs — and therefore the
            // probe indices — are directly comparable, so contradiction is
            // judged per probe: an anchor whose profile-recorded callees
            // all differ from the candidate's label. Probes with no
            // profile record (tail-called or never-sampled calls) are
            // *neutral*, not contradictory — absence of evidence.
            let fresh = func.probe_checksum.unwrap_or_else(|| cfg_checksum(func));
            let fits = profile_probe_set(fp)
                .iter()
                .all(|&p| p > 0 && p < func.next_probe_index);
            let cand_anchors: Vec<(u32, u64)> = anchor_sequence(module, fid)
                .iter()
                .filter(|a| a.kind == ProbeKind::Call)
                .filter_map(|a| a.callee.map(|g| (a.index, g)))
                .map(|(i, g)| (i, if g == func.guid { old_guid } else { g }))
                .collect();
            let common: Vec<bool> = cand_anchors
                .iter()
                .filter_map(|&(i, g)| old_by_probe.get(&i).map(|callees| callees.contains(&g)))
                .collect();
            let agreement = if common.is_empty() {
                1.0
            } else {
                common.iter().filter(|&&ok| ok).count() as f64 / common.len() as f64
            };
            let checksum_eq = fp.checksum != 0
                && fp.checksum == fresh
                && fits
                && agreement >= cfg.rename_similarity;
            let enough_anchors = old_labels.len() >= cfg.min_rename_anchors
                && cand_labels.len() >= cfg.min_rename_anchors;
            let anchors_agree = enough_anchors && sim >= cfg.rename_similarity;
            if !checksum_eq && !anchors_agree {
                continue;
            }
            let better = match best {
                None => true,
                Some((bc, bs, _, bfid)) => {
                    (checksum_eq, sim) > (bc, bs)
                        || (checksum_eq == bc && sim == bs && func.name < module.func(bfid).name)
                }
            };
            if better {
                best = Some((checksum_eq, sim, slot, fid));
            }
        }

        match best {
            Some((_, sim, slot, fid)) => {
                free.remove(slot);
                let func = module.func(fid);
                let mut acc = Acc::default();
                let rec = match_func(module, fid, fp, cfg, 0, &mut acc);
                let recovered_weight = profile_weight(&rec);
                out.funcs.insert(func.guid, rec);
                out.names.insert(func.guid, func.name.clone());
                funcs.push(FuncMatch {
                    guid: func.guid,
                    name: func.name.clone(),
                    status: FuncMatchStatus::Renamed {
                        from_guid: old_guid,
                        from: old_name,
                        similarity: sim,
                    },
                    matched_probes: acc.matched,
                    fuzzy_probes: acc.fuzzy,
                    dropped_probes: acc.dropped,
                    ambiguous_anchors: acc.ambiguous,
                    two_to_one: acc.two_to_one,
                    anchor_drift: false,
                    old_weight,
                    recovered_weight,
                });
            }
            _ => {
                funcs.push(FuncMatch {
                    guid: old_guid,
                    name: old_name,
                    status: FuncMatchStatus::Dropped,
                    matched_probes: 0,
                    fuzzy_probes: 0,
                    dropped_probes: profile_probe_set(fp).len(),
                    ambiguous_anchors: 0,
                    two_to_one: 0,
                    anchor_drift: false,
                    old_weight,
                    recovered_weight: 0,
                });
            }
        }
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
            fp.recompute_totals();
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
            sub.recompute_totals();
        }
        mid_fp.recompute_totals();
        let old_nested_weight: u64 = nested_keys
            .iter()
            .map(|k| profile_weight(&p.funcs[&mid_guid].callsites[k]))
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
            rec_nested_weight += profile_weight(sub);
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
