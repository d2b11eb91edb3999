//! The performance-monitoring unit: LBR ring, branch predictor, i-cache,
//! and the sampling machinery.

use crate::rng::XorShift64;
use serde::{Deserialize, Serialize};

/// One PMU sample: a synchronized LBR + call-stack snapshot (paper Fig. 5).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Cycle at which the sample fired.
    pub cycle: u64,
    /// Precise instruction address at the sample point.
    pub pc: u64,
    /// The LBR: (source, target) addresses of the most recent *taken*
    /// branches, oldest first, newest last.
    pub lbr: Vec<(u64, u64)>,
    /// The sampled call stack as return addresses, leaf first:
    /// `stack[0]` is the sampled PC, `stack[1]` the leaf frame's return
    /// address, and so on up to the root.
    pub stack: Vec<u64>,
}

/// Last Branch Record: a fixed ring of the most recent taken branches.
#[derive(Clone, Debug)]
pub struct Lbr {
    /// One slot per entry of capacity.
    ring: Vec<(u64, u64)>,
    /// The slot the next branch is written to (the oldest entry once full).
    head: usize,
    /// Entries recorded so far, up to the capacity.
    len: usize,
}

impl Lbr {
    /// Creates an LBR with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Lbr {
            ring: vec![(0, 0); capacity],
            head: 0,
            len: 0,
        }
    }

    /// Records a taken branch, evicting the oldest at capacity. An LBR of
    /// capacity 0 records nothing.
    #[inline]
    pub fn record(&mut self, from: u64, to: u64) {
        let Some(slot) = self.ring.get_mut(self.head) else {
            return;
        };
        *slot = (from, to);
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        if self.len < self.ring.len() {
            self.len += 1;
        }
    }

    /// Snapshot, oldest first.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        // Until the ring wraps the oldest entry is slot 0 and `head == len`.
        let oldest = if self.len < self.ring.len() {
            0
        } else {
            self.head
        };
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.ring[oldest..self.len]);
        out.extend_from_slice(&self.ring[..oldest]);
        out
    }
}

/// A 2-bit saturating-counter branch predictor plus a last-target BTB for
/// indirect jumps.
#[derive(Clone, Debug)]
pub struct Predictor {
    counters: Vec<u8>,
    btb: Vec<u64>,
}

const PRED_ENTRIES: usize = 4096;

impl Predictor {
    /// A fresh predictor (weakly not-taken).
    pub fn new() -> Self {
        Predictor {
            counters: vec![1; PRED_ENTRIES],
            btb: vec![0; PRED_ENTRIES],
        }
    }

    fn slot(addr: u64) -> usize {
        ((addr >> 1) as usize) % PRED_ENTRIES
    }

    /// Predicts and updates for a conditional branch at `addr`; returns
    /// whether the prediction was wrong.
    #[inline]
    pub fn conditional(&mut self, addr: u64, taken: bool) -> bool {
        let c = &mut self.counters[Self::slot(addr)];
        let predicted_taken = *c >= 2;
        if taken && *c < 3 {
            *c += 1;
        }
        if !taken && *c > 0 {
            *c -= 1;
        }
        predicted_taken != taken
    }

    /// Predicts and updates for an indirect jump at `addr` going to
    /// `target`; returns whether the prediction was wrong.
    #[inline]
    pub fn indirect(&mut self, addr: u64, target: u64) -> bool {
        let slot = &mut self.btb[Self::slot(addr)];
        let miss = *slot != target;
        *slot = target;
        miss
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor::new()
    }
}

/// A direct-mapped instruction cache (line-granular): 16 KiB in 256 lines
/// of 64 bytes.
#[derive(Clone, Debug)]
pub struct ICache {
    tags: [u64; ICACHE_LINES],
    /// The line fetched last. Fetching it again always hits and changes
    /// nothing — its tag was written by that fetch and no other fetch has
    /// run since — so straight-line code skips the tag array.
    last_line: u64,
}

const ICACHE_LINE_SHIFT: u32 = 6;
const ICACHE_LINES: usize = 256;

impl ICache {
    /// An empty cache.
    pub fn new() -> Self {
        // No address maps to line `u64::MAX`.
        ICache {
            tags: [u64::MAX; ICACHE_LINES],
            last_line: u64::MAX,
        }
    }

    /// Fetches the line containing `addr`; returns whether it missed.
    #[inline]
    pub fn fetch(&mut self, addr: u64) -> bool {
        let line = addr >> ICACHE_LINE_SHIFT;
        if line == self.last_line {
            return false;
        }
        self.last_line = line;
        let tag = &mut self.tags[line as usize % ICACHE_LINES];
        let miss = *tag != line;
        *tag = line;
        miss
    }
}

impl Default for ICache {
    fn default() -> Self {
        ICache::new()
    }
}

/// Decides when the next sample fires: a fixed period with deterministic
/// jitter, like a real cycles event with randomization.
#[derive(Clone, Debug)]
pub struct SampleTimer {
    period: u64,
    next_at: u64,
    rng: XorShift64,
}

impl SampleTimer {
    /// A timer firing roughly every `period` cycles (never when 0).
    pub fn new(period: u64, seed: u64) -> Self {
        let mut rng = XorShift64::new(seed);
        let jitter = if period > 0 {
            rng.below(period / 8 + 1)
        } else {
            0
        };
        SampleTimer {
            period,
            next_at: period + jitter,
            rng,
        }
    }

    /// The first cycle count at which a sample is due: the machine's whole
    /// per-instruction sample check is one compare against it. `u64::MAX`
    /// when the timer is off.
    #[inline]
    pub fn next_at(&self) -> u64 {
        if self.period == 0 {
            u64::MAX
        } else {
            self.next_at
        }
    }

    /// Takes the sample due at `cycle` (`cycle >= self.next_at()`) and
    /// schedules the next one.
    pub fn fire(&mut self, cycle: u64) {
        let jitter = self.rng.below(self.period / 8 + 1);
        self.next_at = cycle + self.period + jitter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lbr_keeps_newest_entries() {
        let mut lbr = Lbr::new(3);
        for i in 0..5u64 {
            lbr.record(i, i + 100);
        }
        let snap = lbr.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], (2, 102));
        assert_eq!(snap[2], (4, 104));
    }

    #[test]
    fn lbr_snapshot_is_oldest_first_before_and_after_wrapping() {
        let mut lbr = Lbr::new(4);
        let mut model: Vec<(u64, u64)> = Vec::new();
        for i in 0..11u64 {
            assert_eq!(lbr.snapshot(), model[model.len().saturating_sub(4)..]);
            lbr.record(i, i + 100);
            model.push((i, i + 100));
        }
        let mut empty = Lbr::new(0);
        empty.record(1, 2);
        assert!(empty.snapshot().is_empty());
    }

    #[test]
    fn predictor_learns_a_steady_branch() {
        let mut p = Predictor::new();
        // Warm up.
        for _ in 0..4 {
            p.conditional(0x40, true);
        }
        assert!(!p.conditional(0x40, true), "steady branch predicted");
        assert!(p.conditional(0x40, false), "surprise flips mispredict");
    }

    #[test]
    fn btb_mispredicts_on_target_change() {
        let mut p = Predictor::new();
        p.indirect(0x80, 0x1000);
        assert!(!p.indirect(0x80, 0x1000));
        assert!(p.indirect(0x80, 0x2000));
    }

    #[test]
    fn icache_hits_within_a_line_and_misses_far() {
        let mut c = ICache::new();
        assert!(c.fetch(0));
        assert!(!c.fetch(32)); // same line
        assert!(c.fetch(64)); // next line
                              // Aliasing at 16 KiB (256 lines * 64B): evicts.
        assert!(c.fetch(64 + 256 * 64));
        assert!(c.fetch(64));
    }

    #[test]
    fn timer_fires_roughly_at_period() {
        let mut t = SampleTimer::new(1000, 9);
        let mut fired = 0;
        for cycle in 0..100_000u64 {
            if cycle >= t.next_at() {
                t.fire(cycle);
                fired += 1;
            }
        }
        assert!((80..=100).contains(&fired), "fired {fired} times");
    }

    #[test]
    fn zero_period_never_fires() {
        assert_eq!(SampleTimer::new(0, 9).next_at(), u64::MAX);
    }
}
