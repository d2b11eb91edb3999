//! The reference context trie: the paper's two trie rules (§III.B) written
//! over the `BTreeMap` [`ContextProfile`], one node at a time —
//! [`merge_context`], count-additive like `llvm-profdata merge`, and
//! [`evict_subtree`], which folds a cold depth-1 subtree into the functions'
//! base profiles — plus [`node_for_path`], a lookup that creates nothing.
//! Production applies both rules inside `ContextArena` (`absorb`, `evict`)
//! and never materialises a trie to do it; the epoch oracle
//! (`crates/core/tests/stream_epochs.rs`), the eviction properties
//! (`crates/core/tests/proptest_fleet.rs`) and the `csspgo merge`
//! regression (`tests/regressions.rs`) hold it to these.
//!
//! Test packages include this file through `#[path]`, so it names its
//! dependencies by crate (`csspgo_core`, not `csspgo::core`); each uses
//! some of it.
#![allow(dead_code)]

use csspgo_core::context::{ContextNode, ContextProfile, FrameKey};

/// Merges `b` into `a`: structural and count-additive. A name already in
/// `a` wins; a node `a` lacks starts empty.
pub fn merge_context(a: &mut ContextProfile, b: &ContextProfile) {
    for (guid, name) in &b.names {
        a.names.entry(*guid).or_insert_with(|| name.clone());
    }
    for (guid, node) in &b.roots {
        merge_context_node(a.roots.entry(*guid).or_default(), node);
    }
}

fn merge_context_node(a: &mut ContextNode, b: &ContextNode) {
    a.entry += b.entry;
    if a.checksum == 0 {
        a.checksum = b.checksum;
    }
    a.inlined |= b.inlined;
    for (probe, count) in &b.probes {
        *a.probes.entry(*probe).or_insert(0) += count;
    }
    for (key, child) in &b.children {
        merge_context_node(a.children.entry(*key).or_default(), child);
    }
}

/// Evicts the depth-1 subtree root `root` → `callee` through call-site
/// probe `probe`, folding every node of it context-insensitively into its
/// function's base (root) profile, so [`ContextProfile::total`] is
/// unchanged. Returns `(nodes detached, weight folded)`, or `None` when the
/// edge is not in `profile`.
pub fn evict_subtree(
    profile: &mut ContextProfile,
    root: u64,
    probe: u32,
    callee: u64,
) -> Option<(usize, u64)> {
    let node = profile
        .roots
        .get_mut(&root)?
        .children
        .remove(&(probe, callee))?;
    let nodes = node.node_count();
    let weight = node.total();
    let mut queue = vec![(callee, node)];
    while let Some((guid, n)) = queue.pop() {
        let base = profile.roots.entry(guid).or_default();
        base.entry += n.entry;
        if base.checksum == 0 {
            base.checksum = n.checksum;
        }
        for (p, c) in n.probes {
            *base.probes.entry(p).or_insert(0) += c;
        }
        queue.extend(n.children.into_iter().map(|((_, g), c)| (g, c)));
    }
    Some((nodes, weight))
}

/// The node `path` leads to in `profile`, ending in `owner_guid`, without
/// creating it: `path[0].guid` is the root function, and each `path[k]` is
/// the call-site probe leading to `path[k + 1].guid` (or `owner_guid` for
/// the last).
pub fn node_for_path<'a>(
    profile: &'a ContextProfile,
    path: &[FrameKey],
    owner_guid: u64,
) -> Option<&'a ContextNode> {
    let root_guid = path.first().map_or(owner_guid, |f| f.guid);
    let mut node = profile.roots.get(&root_guid)?;
    for (k, frame) in path.iter().enumerate() {
        let callee = path.get(k + 1).map_or(owner_guid, |f| f.guid);
        node = node.children.get(&(frame.probe, callee))?;
    }
    Some(node)
}
