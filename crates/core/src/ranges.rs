//! LBR post-processing: turning raw samples into linear execution ranges
//! and branch edges.
//!
//! "From which we can derive a sequence of linear execution paths. By
//! accumulating the linear execution paths from all samples, we can then
//! construct control-flow profile for functions" (paper §III.B).
//!
//! What one LBR entry adds — the range from the previous entry's target to
//! its source, and its own branch — is a pure function of three raw
//! addresses, `(previous to, from, to)`. Like llvm-profgen, a batch counts
//! each distinct triple first and resolves it once after: per entry the
//! batch pays one counter bump, per distinct triple three address lookups.

use crate::fasthash::FastMap;
use csspgo_codegen::Binary;
use csspgo_sim::Sample;
use std::collections::HashMap;

/// One raw LBR entry with the target of the entry before it:
/// `[previous to, from, to]`.
type Triple = [u64; 3];

/// How often a [`Triple`] occurred as a snapshot's first entry, which has
/// no predecessor and so adds its branch but no range, and as a later one.
/// All zero in an empty [`Tally`] slot.
type Seen = [u64; 2];
const FIRST: usize = 0;
const LATER: usize = 1;

/// The `previous to` of a snapshot's first entry. The entry bumps its
/// triple's [`FIRST`] count, and that count, not this value, is what says it
/// has no predecessor: a real previous target equal to it aliases nothing.
const NO_PREV: u64 = u64::MAX;

/// Slots of a [`Tally`]'s front: one per 16 LBR entries of the batch,
/// within these bounds. A 256-sample epoch of the benchmark's server
/// programs holds at most 96 distinct triples and gets 256 slots; a
/// 5 k-sample batch holds at most 126 and gets the maximum.
const MIN_FRONT_SLOTS: usize = 16;
const MAX_FRONT_SLOTS: usize = 1 << 10;

/// Front slots a triple may take, from the one it hashes to on.
const PROBES: usize = 8;

/// A batch's [`Triple`] counts: a small open-addressed front over a map. A
/// triple takes the first free or matching slot of the [`PROBES`] from the
/// one it hashes to, or goes to the map when all of them hold others. A
/// slot is never given up, so a triple lives in one place for the whole
/// batch, and a repeat costs one multiply chain, a compare and an add. (A
/// direct-mapped front that evicts into the map instead thrashed: 0.7 map
/// writes per sample at 256 slots on the benchmark's epochs, none here.)
/// The front is sized to the batch ([`MAX_FRONT_SLOTS`]), so a small batch
/// clears a small one. Raw sample addresses key both — a recorded
/// collision gap, see [`crate::fasthash`] — but they live for one batch and
/// hold at most one entry per LBR entry of it.
struct Tally {
    front: Box<[(Triple, Seen)]>,
    shift: u32,
    spill: FastMap<Triple, Seen>,
}

impl Tally {
    fn new(entries: usize) -> Self {
        let slots = (entries / 16)
            .next_power_of_two()
            .clamp(MIN_FRONT_SLOTS, MAX_FRONT_SLOTS);
        Tally {
            front: vec![([0; 3], [0; 2]); slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            spill: FastMap::default(),
        }
    }

    /// Counts one occurrence of `key` as `which` ([`FIRST`] or [`LATER`]).
    /// The common case — the triple sits in the slot it hashes to — is
    /// straight-line code; the probe loop runs for a triple's first sight
    /// and for one a collision moved along.
    #[inline]
    fn bump(&mut self, key: Triple, which: usize) {
        let [a, b, c] = key;
        let hash =
            (a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ c)
                .wrapping_mul(0x1656_67b1_9e37_79f9);
        let home = (hash >> self.shift) as usize;
        let (held, seen) = &mut self.front[home];
        if same(*held, key) {
            seen[which] += 1;
        } else {
            self.probe(home, key, which);
        }
    }

    /// Out of line: inlined into [`Tally::bump`], the loop made the whole
    /// count 24 % dearer (47 against 38 ns/sample on the benchmark's
    /// `profgen` batches). A slot is free while both its counts are zero.
    #[cold]
    #[inline(never)]
    fn probe(&mut self, home: usize, key: Triple, which: usize) {
        let mask = self.front.len() - 1;
        let mut i = home;
        for _ in 0..PROBES {
            let (held, seen) = &mut self.front[i];
            if same(*held, key) {
                seen[which] += 1;
                return;
            }
            if seen[FIRST] | seen[LATER] == 0 {
                *held = key;
                seen[which] = 1;
                return;
            }
            i = (i + 1) & mask;
        }
        self.spill.entry(key).or_default()[which] += 1;
    }

    /// Hands `each` every distinct triple once, with its counts.
    fn drain(self, mut each: impl FnMut(Triple, Seen)) {
        let taken = self
            .front
            .iter()
            .filter(|(_, seen)| seen[FIRST] | seen[LATER] != 0);
        for (key, seen) in taken.copied().chain(self.spill) {
            each(key, seen);
        }
    }
}

/// `a == b` without a call or a branch per word. `==` on `[u64; 3]` is a
/// `bcmp` call, and with it this table cost as much as resolving every entry
/// (127 against 124 ns/sample on the benchmark's `profgen` batches; 38 with
/// this).
#[inline]
fn same(a: Triple, b: Triple) -> bool {
    (a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) == 0
}

/// Aggregated LBR-derived counts, in flat instruction indices. The maps are
/// keyed by instruction indices the process computed itself, so they hash
/// through [`FastMap`]; nothing may depend on their iteration order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RangeCounts {
    /// `[begin, end]` (inclusive) linear ranges with occurrence counts.
    pub ranges: FastMap<(usize, usize), u64>,
    /// Taken branch edges `(from, to)` with counts.
    pub branches: FastMap<(usize, usize), u64>,
}

impl RangeCounts {
    /// Accumulates all samples of a run. Ranges span from one branch's
    /// target to the next branch's source.
    pub fn add_samples(&mut self, binary: &Binary, samples: &[Sample]) {
        let mut tally = Tally::new(samples.iter().map(|s| s.lbr.len()).sum());
        for s in samples {
            let mut lbr = s.lbr.iter();
            if let Some(&(from, to)) = lbr.next() {
                tally.bump([NO_PREV, from, to], FIRST);
                let mut prev = to;
                for &(from, to) in lbr {
                    tally.bump([prev, from, to], LATER);
                    prev = to;
                }
            }
        }
        tally.drain(|[prev, from, to], seen| {
            let from = binary.index_of_addr(from);
            if let (Some(f), Some(t)) = (from, binary.index_of_addr(to)) {
                *self.branches.entry((f, t)).or_insert(0) += seen[FIRST] + seen[LATER];
            }
            if seen[LATER] == 0 {
                return;
            }
            if let (Some(begin), Some(end)) = (binary.index_of_addr(prev), from) {
                // A sane linear range stays within one function and moves
                // forward.
                if begin <= end && binary.func_of[begin] == binary.func_of[end] {
                    *self.ranges.entry((begin, end)).or_insert(0) += seen[LATER];
                }
            }
        });
    }

    /// Merges another accumulation into this one (count-additive; used to
    /// combine per-shard partial counts).
    pub fn merge(&mut self, other: &RangeCounts) {
        for (&key, &c) in &other.ranges {
            *self.ranges.entry(key).or_insert(0) += c;
        }
        for (&key, &c) in &other.branches {
            *self.branches.entry(key).or_insert(0) += c;
        }
    }

    /// Derives per-instruction execution counts from the ranges.
    pub fn inst_counts(&self, binary: &Binary) -> Vec<u64> {
        let mut counts = vec![0u64; binary.len()];
        for (&(begin, end), &c) in &self.ranges {
            for slot in &mut counts[begin..=end.min(binary.len() - 1)] {
                *slot += c;
            }
        }
        counts
    }

    /// Call-edge counts into each function entry: function index → count.
    pub fn entry_counts(&self, binary: &Binary) -> HashMap<u32, u64> {
        let mut out: HashMap<u32, u64> = HashMap::new();
        for (&(_, to), &c) in &self.branches {
            let fidx = binary.func_of[to];
            if binary.funcs[fidx as usize].entry == to {
                *out.entry(fidx).or_insert(0) += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_sim::{Machine, SimConfig};

    fn run_and_collect(src: &str, entry: &str, arg: i64) -> (Binary, RangeCounts) {
        let m = csspgo_lang::compile(src, "t").unwrap();
        let b = lower_module(&m, &CodegenConfig::default());
        let cfg = SimConfig {
            sample_period: 31,
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&b, cfg);
        machine.call(entry, &[arg]).unwrap();
        let samples = machine.take_samples();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        (b, rc)
    }

    const SRC: &str = r#"
fn hot(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
fn main(n) {
    let r = hot(n);
    return r;
}
"#;

    #[test]
    fn loop_instructions_dominate_counts() {
        let (b, rc) = run_and_collect(SRC, "main", 5000);
        let counts = rc.inst_counts(&b);
        let hot_f = b.func_by_name("hot").unwrap();
        let hot_max: u64 = (hot_f.hot_range.0..hot_f.hot_range.1)
            .map(|i| counts[i])
            .max()
            .unwrap();
        let main_f = b.func_by_name("main").unwrap();
        let main_max: u64 = (main_f.hot_range.0..main_f.hot_range.1)
            .map(|i| counts[i])
            .max()
            .unwrap_or(0);
        assert!(
            hot_max > main_max * 10,
            "loop body must dominate: hot={hot_max} main={main_max}"
        );
    }

    #[test]
    fn call_edges_register_entry_counts() {
        let (b, rc) = run_and_collect(SRC, "main", 5000);
        let entries = rc.entry_counts(&b);
        // `hot` is called once; depending on sample timing the single call
        // edge may or may not be in some LBR window, but the *loop back
        // edge* guarantees branches inside hot. The call edge should appear
        // at least once across thousands of samples because LBR windows
        // cover early execution too.
        let hot_idx = b.funcs.iter().position(|f| f.name == "hot").unwrap() as u32;
        // Weak assertion: map exists and contains no impossible entries.
        for (fidx, c) in &entries {
            assert!(*c > 0);
            assert!((*fidx as usize) < b.funcs.len());
        }
        let _ = hot_idx;
    }

    #[test]
    fn ranges_stay_within_functions() {
        let (b, rc) = run_and_collect(SRC, "main", 2000);
        for &(begin, end) in rc.ranges.keys() {
            assert!(begin <= end);
            assert_eq!(b.func_of[begin], b.func_of[end]);
        }
    }
}
