//! Profile merging (the `llvm-profdata merge` analogue).
//!
//! In the paper's deployment, profiles stream in from many production hosts
//! and build iterations ("the collected profile can be fed to compilation
//! continuously"); compilation consumes one merged artifact. Merging is
//! count-additive.

use crate::context::{ContextArena, ContextProfile};
use crate::profile::{FlatFuncProfile, FlatProfile};
use std::collections::BTreeMap;

/// Merges `b` into `a` (flat/AutoFDO profiles). Body counts keyed the same
/// way are *summed* — two hosts each observing N samples of a line is 2N
/// samples, unlike the intra-binary MAX over duplicated instructions.
pub fn merge_flat(a: &mut FlatProfile, b: &FlatProfile) {
    for (guid, name) in &b.names {
        a.names.entry(*guid).or_insert_with(|| name.clone());
    }
    for (guid, fp) in &b.funcs {
        merge_flat_func(a.funcs.entry(*guid).or_default(), fp);
    }
}

fn merge_flat_func(a: &mut FlatFuncProfile, b: &FlatFuncProfile) {
    a.entry += b.entry;
    for (key, count) in &b.body {
        *a.body.entry(*key).or_insert(0) += count;
    }
    for (key, sub) in &b.callsites {
        merge_flat_func(a.callsites.entry(*key).or_default(), sub);
    }
}

/// Merges context tries (`csspgo merge` on context profiles): every profile
/// is absorbed into one arena, structurally and count-additively, and the
/// result is materialised once. Names are first-wins, in input order.
pub fn merge_tries<'a>(profiles: impl IntoIterator<Item = &'a ContextProfile>) -> ContextProfile {
    let mut arena = ContextArena::default();
    let mut names = BTreeMap::new();
    for p in profiles {
        for (guid, name) in &p.names {
            names.entry(*guid).or_insert_with(|| name.clone());
        }
        arena.absorb(p);
    }
    ContextProfile {
        names,
        ..arena.to_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FrameKey;
    use crate::profile::LocKey;

    fn key(off: u32) -> LocKey {
        LocKey {
            line_offset: off,
            discriminator: 0,
        }
    }

    #[test]
    fn flat_merge_sums_counts() {
        let mut a = FlatProfile::default();
        let mut b = FlatProfile::default();
        a.names.insert(1, "f".into());
        b.names.insert(1, "f".into());
        a.funcs.entry(1).or_default().record_max(key(3), 10);
        b.funcs.entry(1).or_default().record_max(key(3), 7);
        b.funcs.entry(2).or_default().record_max(key(1), 4);
        merge_flat(&mut a, &b);
        assert_eq!(a.funcs[&1].body[&key(3)], 17);
        assert_eq!(a.funcs[&2].body[&key(1)], 4, "new functions adopted");
    }

    #[test]
    fn flat_merge_recurses_into_callsites() {
        let mut a = FlatProfile::default();
        let mut b = FlatProfile::default();
        a.funcs
            .entry(1)
            .or_default()
            .callsite_mut(key(5), 9)
            .record_max(key(0), 100);
        b.funcs
            .entry(1)
            .or_default()
            .callsite_mut(key(5), 9)
            .record_max(key(0), 50);
        merge_flat(&mut a, &b);
        assert_eq!(a.funcs[&1].callsites[&(key(5), 9)].body[&key(0)], 150);
    }

    #[test]
    fn context_merge_is_structural_and_additive() {
        let f = |g: u64, p: u32| FrameKey { guid: g, probe: p };
        let mut a = ContextProfile::new();
        let mut b = ContextProfile::new();
        a.add_probe_hit(&[f(1, 3)], 9, 1, 100);
        b.add_probe_hit(&[f(1, 3)], 9, 1, 40);
        b.add_probe_hit(&[f(1, 4)], 8, 2, 7);
        a.names.insert(1, "main".into());
        b.names.insert(1, "renamed".into());
        b.names.insert(8, "g".into());
        let merged = merge_tries([&a, &b]);
        assert_eq!(merged.total(), 147);
        assert_eq!(merged.roots[&1].children[&(3, 9)].probes[&1], 140);
        assert_eq!(merged.roots[&1].children[&(4, 8)].probes[&2], 7);
        assert_eq!(merged.names[&1], "main", "the first name wins");
        assert_eq!(merged.names[&8], "g");
    }

    #[test]
    fn merge_is_commutative_in_totals() {
        let f = |g: u64, p: u32| FrameKey { guid: g, probe: p };
        let mut x = ContextProfile::new();
        x.add_probe_hit(&[f(1, 1)], 2, 1, 5);
        x.add_entry(&[f(1, 1)], 2, 3);
        let mut y = ContextProfile::new();
        y.add_probe_hit(&[], 1, 1, 11);

        let xy = merge_tries([&x, &y]);
        let yx = merge_tries([&y, &x]);
        assert_eq!(xy, yx);
        assert_eq!(xy.total(), 16);
        assert_eq!(merge_tries([&x]), x, "one input comes back as it is");
    }
}
