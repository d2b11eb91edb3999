//! The block-overlap profile-quality metric (paper §IV.C, Table I).
//!
//! For a function with block set `V`, measured counts `f` and ground-truth
//! counts `gt`:
//!
//! ```text
//! D(V) = Σ_{v∈V} min( f(v)/Σf ,  gt(v)/Σgt )
//! ```
//!
//! and the program-level degree weights functions by their share of the
//! measured profile:
//!
//! ```text
//! D(P) = Σ_V D(V) · Σ_{v∈V} f(v) / Σ_{V'} Σ_{v∈V'} f(v)
//! ```

use csspgo_ir::BlockId;
use std::collections::{BTreeMap, HashMap};

/// Per-function block counts keyed by GUID.
pub type BlockCounts = HashMap<u64, HashMap<BlockId, u64>>;

/// `Σₖ min(aₖ/Σa, bₖ/Σb)`, the min-of-normalized-shares overlap of two
/// distributions (1.0: identical; 1.0 for two empty ones, 0.0 when only one
/// is empty). Summed in ascending key order — a key missing from either
/// side adds nothing — so the `f64` is a function of the two maps, never of
/// a hasher's seed. Table I's block overlap, the stream's drift metric
/// ([`crate::stream::StreamAggregator::seal_epoch`]) and canary profile
/// agreement are all this sum.
pub fn share_overlap<K: Ord>(a: &BTreeMap<K, u64>, b: &BTreeMap<K, u64>) -> f64 {
    let a_total: u64 = a.values().sum();
    let b_total: u64 = b.values().sum();
    if a_total == 0 || b_total == 0 {
        return if a_total == b_total { 1.0 } else { 0.0 };
    }
    let mut d = 0.0;
    for (key, &av) in a {
        if let Some(&bv) = b.get(key) {
            d += (av as f64 / a_total as f64).min(bv as f64 / b_total as f64);
        }
    }
    d
}

/// Program-level block overlap degree, weighted by the measured profile;
/// functions are summed in GUID order.
pub fn program_overlap(f: &BlockCounts, gt: &BlockCounts) -> f64 {
    let grand_total: u64 = f.values().map(|m| m.values().sum::<u64>()).sum();
    if grand_total == 0 {
        return 0.0;
    }
    let sorted = |m: &HashMap<BlockId, u64>| -> BTreeMap<BlockId, u64> {
        m.iter().map(|(&b, &c)| (b, c)).collect()
    };
    let funcs: BTreeMap<u64, &HashMap<BlockId, u64>> = f.iter().map(|(&g, m)| (g, m)).collect();
    let mut d = 0.0;
    for (guid, f_counts) in funcs {
        let weight = f_counts.values().sum::<u64>() as f64 / grand_total as f64;
        if weight == 0.0 {
            continue;
        }
        let gt_counts = gt.get(&guid).map(sorted).unwrap_or_default();
        d += share_overlap(&sorted(f_counts), &gt_counts) * weight;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts<M: FromIterator<(BlockId, u64)>>(pairs: &[(u32, u64)]) -> M {
        pairs.iter().map(|&(b, c)| (BlockId(b), c)).collect()
    }

    #[test]
    fn identical_profiles_overlap_fully() {
        let a: BTreeMap<_, _> = counts(&[(0, 100), (1, 50), (2, 50)]);
        let d = share_overlap(&a, &a);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_profiles_overlap_fully() {
        // Overlap compares distributions, not magnitudes.
        let a: BTreeMap<_, _> = counts(&[(0, 100), (1, 50)]);
        let b: BTreeMap<_, _> = counts(&[(0, 10), (1, 5)]);
        assert!((share_overlap(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_profiles_do_not_overlap() {
        let a: BTreeMap<_, _> = counts(&[(0, 100)]);
        let b: BTreeMap<_, _> = counts(&[(1, 100)]);
        assert_eq!(share_overlap(&a, &b), 0.0);
    }

    #[test]
    fn partial_overlap_is_proportional() {
        let a: BTreeMap<_, _> = counts(&[(0, 50), (1, 50)]);
        let b: BTreeMap<_, _> = counts(&[(0, 100), (1, 0)]);
        // min(0.5, 1.0) + min(0.5, 0.0) = 0.5
        assert!((share_overlap(&a, &b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_distributions_overlap_by_convention() {
        let empty: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        let a = BTreeMap::from([((1u64, 1u32), 100u64), ((1, 2), 50)]);
        assert_eq!(share_overlap(&empty, &empty), 1.0);
        assert_eq!(share_overlap(&a, &empty), 0.0);
        assert_eq!(share_overlap(&empty, &a), 0.0);
    }

    #[test]
    fn program_overlap_weights_by_measured_share() {
        let mut f = BlockCounts::new();
        f.insert(1, counts(&[(0, 900)])); // 90% of measured samples, perfect
        f.insert(2, counts(&[(0, 100)])); // 10%, totally wrong
        let mut gt = BlockCounts::new();
        gt.insert(1, counts(&[(0, 10)]));
        gt.insert(2, counts(&[(1, 10)]));
        let d = program_overlap(&f, &gt);
        assert!((d - 0.9).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn empty_measured_profile_is_zero() {
        let f = BlockCounts::new();
        let mut gt = BlockCounts::new();
        gt.insert(1, counts(&[(0, 10)]));
        assert_eq!(program_overlap(&f, &gt), 0.0);
    }

    /// Regression: both sums ran in hash order, seeded per map, so equal
    /// counts could give a different last bit from one build of the maps to
    /// the next — and Table I from one run to the next.
    #[test]
    fn overlap_is_one_f64_however_the_maps_were_built() {
        let build = || {
            let (mut f, mut gt) = (BlockCounts::new(), BlockCounts::new());
            for guid in 0..8u32 {
                let shape = |m: u32, k: u32| (0..40).map(move |b| (b, u64::from(b * m % k + guid)));
                f.insert(
                    u64::from(guid),
                    counts(&shape(7919, 101).collect::<Vec<_>>()),
                );
                gt.insert(
                    u64::from(guid),
                    counts(&shape(104_729, 97).collect::<Vec<_>>()),
                );
            }
            (f, gt)
        };
        let (f, gt) = build();
        let want = program_overlap(&f, &gt).to_bits();
        for _ in 0..64 {
            let (f, gt) = build();
            assert_eq!(program_overlap(&f, &gt).to_bits(), want);
        }
    }
}
