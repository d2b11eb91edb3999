//! Profile data models.
//!
//! Two shapes mirror the two correlation mechanisms:
//!
//! * [`FlatProfile`] — the AutoFDO-style profile: per function, counts keyed
//!   by `(line offset, discriminator)`, with *nested* sub-profiles for call
//!   sites whose callees were observed inlined in the profiled binary (this
//!   is what lets AutoFDO's early inliner replay profiling-build inlining,
//!   the paper's §II.B "partial context-sensitivity").
//! * [`ProbeProfile`] — the CSSPGO probe profile: counts keyed by pseudo-
//!   probe index, same nesting by call-site probe, plus the CFG checksum for
//!   staleness detection.
//!
//! The fully context-sensitive trie lives in [`crate::context`].

use serde::Serialize;
use std::collections::BTreeMap;

/// An AutoFDO body-count key: line offset from the function header plus
/// discriminator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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

/// AutoFDO-style per-function profile (possibly nested under a call site).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatFuncProfile {
    /// Calls observed entering this function (LBR call edges).
    pub entry: u64,
    /// Body counts (MAX over machine instructions sharing a key — the
    /// debug-info heuristic the paper dissects).
    pub body: BTreeMap<LocKey, u64>,
    /// Nested profiles for call sites whose callees were inlined in the
    /// profiled binary, keyed by (call-site location, callee GUID).
    pub callsites: BTreeMap<(LocKey, u64), FlatFuncProfile>,
}

impl FlatFuncProfile {
    /// Registers `count` at `key`, keeping the maximum (the debug-info MAX
    /// heuristic).
    pub fn record_max(&mut self, key: LocKey, count: u64) {
        let slot = self.body.entry(key).or_insert(0);
        *slot = (*slot).max(count);
    }

    /// Child profile for a call site, creating it on first use.
    pub fn callsite_mut(&mut self, key: LocKey, callee_guid: u64) -> &mut FlatFuncProfile {
        self.callsites.entry((key, callee_guid)).or_default()
    }

    /// Samples attributed to this (sub-)profile: its body counts plus its
    /// nested profiles' totals.
    pub fn total(&self) -> u64 {
        self.body.values().sum::<u64>() + self.callsites.values().map(Self::total).sum::<u64>()
    }
}

/// A whole-program AutoFDO-style profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatProfile {
    /// Top-level (outermost) function profiles by GUID.
    pub funcs: BTreeMap<u64, FlatFuncProfile>,
    /// GUID → name, for reporting.
    pub names: BTreeMap<u64, String>,
}

impl FlatProfile {
    /// Total samples across all functions.
    pub fn total(&self) -> u64 {
        self.funcs.values().map(FlatFuncProfile::total).sum()
    }
}

/// CSSPGO probe-based per-function profile (possibly nested).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ProbeFuncProfile {
    /// Calls observed entering this function.
    pub entry: u64,
    /// The CFG checksum recorded in the profiled binary.
    pub checksum: u64,
    /// Counts per probe index (SUM over duplicated probes — the probe
    /// advantage over the MAX heuristic).
    pub probes: BTreeMap<u32, u64>,
    /// Nested profiles keyed by (call-site probe index, callee GUID).
    pub callsites: BTreeMap<(u32, u64), ProbeFuncProfile>,
}

impl ProbeFuncProfile {
    /// Adds `count` at probe `index` (duplicated probes sum).
    pub fn record_sum(&mut self, index: u32, count: u64) {
        *self.probes.entry(index).or_insert(0) += count;
    }

    /// Child profile for a call-site probe, creating it on first use.
    pub fn callsite_mut(&mut self, probe: u32, callee_guid: u64) -> &mut ProbeFuncProfile {
        self.callsites.entry((probe, callee_guid)).or_default()
    }

    /// Samples attributed here: its probe counts plus its nested profiles'
    /// totals.
    pub fn total(&self) -> u64 {
        self.probes.values().sum::<u64>() + self.callsites.values().map(Self::total).sum::<u64>()
    }
}

/// A whole-program probe profile (probe-only CSSPGO).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ProbeProfile {
    /// Top-level function profiles by GUID.
    pub funcs: BTreeMap<u64, ProbeFuncProfile>,
    /// GUID → name.
    pub names: BTreeMap<u64, String>,
}

impl ProbeProfile {
    /// Total samples across all functions.
    pub fn total(&self) -> u64 {
        self.funcs.values().map(ProbeFuncProfile::total).sum()
    }
}

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
        let mut p = FlatFuncProfile::default();
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
        let mut p = ProbeFuncProfile::default();
        p.record_sum(3, 10);
        p.record_sum(3, 4); // duplicated probe: summed
        assert_eq!(p.probes[&3], 14);
    }

    #[test]
    fn nested_totals_roll_up() {
        let mut p = FlatFuncProfile::default();
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
    }
}
