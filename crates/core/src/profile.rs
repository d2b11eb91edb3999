//! Profile data models.
//!
//! AutoFDO and CSSPGO profiles have one shape, [`Profile`]: per function a
//! count per anchor, an entry count, and *nested* sub-profiles for call
//! sites whose callees were observed inlined in the profiled binary, keyed
//! by `(call-site anchor, callee GUID)` (this is what lets the early inliner
//! replay profiling-build inlining, the paper's §II.B "partial
//! context-sensitivity"). The kinds differ only in the anchor:
//!
//! * [`FlatProfile`] — the AutoFDO-style profile, anchored on
//!   `(line offset, discriminator)` ([`LocKey`]). Debug info carries no CFG
//!   checksum, so a flat profile's `checksum` stays 0.
//! * [`ProbeProfile`] — the CSSPGO probe profile, anchored on pseudo-probe
//!   indices, with the CFG checksum for staleness detection.
//!
//! The fully context-sensitive trie, [`crate::context::ContextProfile`], is
//! a tree of the same [`FuncProfile<u32>`]: a context profile is a function
//! profile filed under a calling context. Every kind merges by one rule,
//! [`FuncProfile::merge`].

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// An AutoFDO body-count key: line offset from the function header plus
/// discriminator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LocKey {
    /// `line - function_start_line` (0 when the line precedes the header,
    /// which can happen under source drift).
    pub line_offset: u32,
    /// DWARF discriminator.
    pub discriminator: u32,
}

impl LocKey {
    /// Builds a key from an absolute line and its function's header line.
    pub fn new(line: u32, start_line: u32, discriminator: u32) -> Self {
        LocKey {
            line_offset: line.saturating_sub(start_line),
            discriminator,
        }
    }
}

/// `offset` or `offset.discriminator`, as the LLVM text format prints it.
impl fmt::Display for LocKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.discriminator {
            0 => write!(f, "{}", self.line_offset),
            d => write!(f, "{}.{d}", self.line_offset),
        }
    }
}

/// One function's profile (possibly nested under a call site), anchored on
/// `K`: a [`LocKey`] for AutoFDO, a probe index for CSSPGO.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncProfile<K> {
    /// Calls observed entering this function (LBR call edges).
    pub entry: u64,
    /// The CFG checksum recorded in the profiled binary (0 in a flat
    /// profile: debug info has none).
    pub checksum: u64,
    /// Counts per anchor: MAX over machine instructions sharing a line key
    /// (the debug-info heuristic the paper dissects), SUM over duplicated
    /// probes (the probe advantage).
    pub body: BTreeMap<K, u64>,
    /// Nested profiles for call sites whose callees were inlined in the
    /// profiled binary, keyed by (call-site anchor, callee GUID); in a
    /// context trie, the deeper contexts.
    pub callsites: BTreeMap<(K, u64), FuncProfile<K>>,
    /// The pre-inliner's decision on a context: it will be inlined into
    /// its parent (Algorithm 2's `MarkContextInlined`, LLVM's
    /// `ContextShouldBeInlined`). Only the pre-inliner sets it, on a
    /// context profile; `to_probe_profile` never does, and the flat codec
    /// and `write_profile` never write it.
    pub inlined: bool,
}

impl<K: Ord + Default> FuncProfile<K> {
    /// Registers `count` at `key`, keeping the maximum (the debug-info MAX
    /// heuristic).
    pub fn record_max(&mut self, key: K, count: u64) {
        let slot = self.body.entry(key).or_insert(0);
        *slot = (*slot).max(count);
    }

    /// Adds `count` at `key` (duplicated probes sum).
    pub fn record_sum(&mut self, key: K, count: u64) {
        *self.body.entry(key).or_insert(0) += count;
    }

    /// Child profile for a call site, creating it on first use.
    pub fn callsite_mut(&mut self, key: K, callee_guid: u64) -> &mut FuncProfile<K> {
        self.callsites.entry((key, callee_guid)).or_default()
    }

    /// Samples attributed to this (sub-)profile: its body counts plus its
    /// nested profiles' totals.
    pub fn total(&self) -> u64 {
        self.body.values().sum::<u64>() + self.callsites.values().map(Self::total).sum::<u64>()
    }

    /// This profile and its nested profiles, counted.
    pub fn node_count(&self) -> usize {
        1 + self.callsites.values().map(Self::node_count).sum::<usize>()
    }

    /// Merges a stub — a profile of nothing but `entry` calls and
    /// `checksum` — into `self` by [`merge`](Self::merge)'s rule: the entry
    /// adds and the first non-zero checksum wins.
    pub(crate) fn add_stub(&mut self, entry: u64, checksum: u64) {
        self.entry += entry;
        if self.checksum == 0 {
            self.checksum = checksum;
        }
    }

    /// Merges `other` (the same function) into `self`, the one merge rule
    /// of every profile kind: counts add, the first non-zero checksum wins,
    /// marks are or-ed, and call sites merge recursively — a call site
    /// `self` lacks is taken whole.
    pub fn merge(&mut self, other: FuncProfile<K>) {
        self.add_stub(other.entry, other.checksum);
        self.inlined |= other.inlined;
        for (key, count) in other.body {
            self.record_sum(key, count);
        }
        for (key, sub) in other.callsites {
            match self.callsites.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(sub);
                }
                Entry::Occupied(mut slot) => slot.get_mut().merge(sub),
            }
        }
    }
}

/// A whole-program profile: top-level (outermost) function profiles by
/// GUID, and the names of the GUIDs it references.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile<K> {
    /// Top-level function profiles by GUID.
    pub funcs: BTreeMap<u64, FuncProfile<K>>,
    /// GUID → name, for reporting.
    pub names: BTreeMap<u64, String>,
}

impl<K: Ord + Default> Profile<K> {
    /// Total samples across all functions.
    pub fn total(&self) -> u64 {
        self.funcs.values().map(FuncProfile::total).sum()
    }

    /// Function profiles, nested ones included (a size metric for reports).
    pub fn node_count(&self) -> usize {
        self.funcs.values().map(FuncProfile::node_count).sum()
    }
}

/// A whole-program AutoFDO-style profile.
pub type FlatProfile = Profile<LocKey>;

/// A whole-program probe profile (probe-only CSSPGO).
pub type ProbeProfile = Profile<u32>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockey_offsets_are_relative_to_header() {
        let k = LocKey::new(12, 10, 1);
        assert_eq!(k.line_offset, 2);
        assert_eq!(k.discriminator, 1);
        // Drifted line before the header saturates instead of wrapping.
        assert_eq!(LocKey::new(5, 10, 0).line_offset, 0);
    }

    #[test]
    fn flat_profile_keeps_max() {
        let mut p = FuncProfile::<LocKey>::default();
        let k = LocKey {
            line_offset: 1,
            discriminator: 0,
        };
        p.record_max(k, 10);
        p.record_max(k, 4); // duplicated copy with lower count: ignored
        p.record_max(k, 12);
        assert_eq!(p.body[&k], 12);
    }

    #[test]
    fn probe_profile_sums() {
        let mut p = FuncProfile::<u32>::default();
        p.record_sum(3, 10);
        p.record_sum(3, 4); // duplicated probe: summed
        assert_eq!(p.body[&3], 14);
    }

    #[test]
    fn nested_totals_roll_up() {
        let mut p = FuncProfile::<LocKey>::default();
        p.record_max(
            LocKey {
                line_offset: 0,
                discriminator: 0,
            },
            5,
        );
        let child = p.callsite_mut(
            LocKey {
                line_offset: 1,
                discriminator: 0,
            },
            42,
        );
        child.record_max(
            LocKey {
                line_offset: 0,
                discriminator: 0,
            },
            7,
        );
        assert_eq!(p.total(), 12);
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn lockey_prints_the_discriminator_when_there_is_one() {
        assert_eq!(LocKey::new(13, 10, 0).to_string(), "3");
        assert_eq!(LocKey::new(13, 10, 2).to_string(), "3.2");
    }
}
