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
use std::collections::HashMap;

/// Per-function block counts keyed by GUID.
pub type BlockCounts = HashMap<u64, HashMap<BlockId, u64>>;

/// Block overlap degree of one function; 1.0 means identical distributions.
fn function_overlap(f: &HashMap<BlockId, u64>, gt: &HashMap<BlockId, u64>) -> f64 {
    let f_total: u64 = f.values().sum();
    let gt_total: u64 = gt.values().sum();
    if f_total == 0 || gt_total == 0 {
        // Either side empty: no overlap information; count as zero overlap
        // unless both are empty (trivially identical).
        return if f_total == gt_total { 1.0 } else { 0.0 };
    }
    let mut d = 0.0;
    let blocks: std::collections::HashSet<BlockId> = f.keys().chain(gt.keys()).copied().collect();
    for v in blocks {
        let fv = f.get(&v).copied().unwrap_or(0) as f64 / f_total as f64;
        let gv = gt.get(&v).copied().unwrap_or(0) as f64 / gt_total as f64;
        d += fv.min(gv);
    }
    d
}

/// Program-level block overlap degree, weighted by the measured profile.
pub fn program_overlap(f: &BlockCounts, gt: &BlockCounts) -> f64 {
    let grand_total: u64 = f.values().map(|m| m.values().sum::<u64>()).sum();
    if grand_total == 0 {
        return 0.0;
    }
    let mut d = 0.0;
    for (guid, f_counts) in f {
        let weight = f_counts.values().sum::<u64>() as f64 / grand_total as f64;
        if weight == 0.0 {
            continue;
        }
        let empty = HashMap::new();
        let gt_counts = gt.get(guid).unwrap_or(&empty);
        d += function_overlap(f_counts, gt_counts) * weight;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(u32, u64)]) -> HashMap<BlockId, u64> {
        pairs.iter().map(|&(b, c)| (BlockId(b), c)).collect()
    }

    #[test]
    fn identical_profiles_overlap_fully() {
        let a = counts(&[(0, 100), (1, 50), (2, 50)]);
        let d = function_overlap(&a, &a);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_profiles_overlap_fully() {
        // Overlap compares distributions, not magnitudes.
        let a = counts(&[(0, 100), (1, 50)]);
        let b = counts(&[(0, 10), (1, 5)]);
        assert!((function_overlap(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_profiles_do_not_overlap() {
        let a = counts(&[(0, 100)]);
        let b = counts(&[(1, 100)]);
        assert_eq!(function_overlap(&a, &b), 0.0);
    }

    #[test]
    fn partial_overlap_is_proportional() {
        let a = counts(&[(0, 50), (1, 50)]);
        let b = counts(&[(0, 100), (1, 0)]);
        // min(0.5, 1.0) + min(0.5, 0.0) = 0.5
        assert!((function_overlap(&a, &b) - 0.5).abs() < 1e-9);
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
}
