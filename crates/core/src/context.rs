//! The context-sensitive profile trie (paper §III.B).
//!
//! Each node profiles one function *under one calling context*: the path of
//! `(function, call-site probe)` frames from an un-inlined root function.
//! Children are keyed by `(call-site probe index, callee GUID)` — the same
//! navigation as [`crate::profile::ProbeFuncProfile`], which is what the
//! trie collapses into once the pre-inliner has decided which contexts stay
//! inlined.
//!
//! Cold-context trimming ("we mitigate the profile size increase by only
//! keeping context-sensitive profile for hot functions and trim profiles for
//! cold functions to be context-insensitive") merges cold subtrees into the
//! per-function base profiles.

use crate::fasthash::FastMap;
use crate::profile::{ProbeFuncProfile, ProbeProfile};
use serde::Serialize;
use std::collections::BTreeMap;

/// A frame in a context key: call-site probe `probe` inside function `guid`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct FrameKey {
    pub guid: u64,
    pub probe: u32,
}

/// One function profiled under one calling context. The function is named
/// by the key the node sits under: its `roots` key, or the callee of its
/// `(call-site probe, callee)` key.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ContextNode {
    /// The profiled function's CFG checksum (from the profiled binary).
    pub checksum: u64,
    /// Calls observed entering this context.
    pub entry: u64,
    /// Probe counts within this context.
    pub probes: BTreeMap<u32, u64>,
    /// Deeper contexts: (call-site probe, callee GUID) → node.
    pub children: BTreeMap<(u32, u64), ContextNode>,
    /// Pre-inliner decision: this context will be inlined into its parent
    /// (Algorithm 2's `MarkContextInlined`).
    pub inlined: bool,
}

impl ContextNode {
    /// Samples attributed directly to this node (not children).
    fn self_total(&self) -> u64 {
        self.probes.values().sum()
    }

    /// Samples in this node and all children.
    pub fn total(&self) -> u64 {
        self.self_total() + self.children.values().map(|c| c.total()).sum::<u64>()
    }

    /// Number of nodes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .values()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

/// The whole-program context trie.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ContextProfile {
    /// Root contexts (un-inlined outermost functions) by GUID.
    pub roots: BTreeMap<u64, ContextNode>,
    /// GUID → name.
    pub names: BTreeMap<u64, String>,
}

impl ContextProfile {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` samples of probe `probe_index` of function `owner_guid`
    /// reached via `path` (outer→inner frames; empty for top-level code).
    pub fn add_probe_hit(
        &mut self,
        path: &[FrameKey],
        owner_guid: u64,
        probe_index: u32,
        count: u64,
    ) {
        let node = self.node_for_path_mut(path, owner_guid);
        *node.probes.entry(probe_index).or_insert(0) += count;
    }

    /// Records a call entering `owner_guid` via `path`.
    pub fn add_entry(&mut self, path: &[FrameKey], owner_guid: u64, count: u64) {
        let node = self.node_for_path_mut(path, owner_guid);
        node.entry += count;
    }

    /// Finds or creates the node for `path` leading to `owner_guid`.
    ///
    /// `path[0].guid` is the root function; each `path[k]` is the call-site
    /// probe leading to `path[k+1].guid` (or `owner_guid` for the last).
    pub fn node_for_path_mut(&mut self, path: &[FrameKey], owner_guid: u64) -> &mut ContextNode {
        let root_guid = path.first().map(|f| f.guid).unwrap_or(owner_guid);
        let mut node = self.roots.entry(root_guid).or_default();
        for (k, frame) in path.iter().enumerate() {
            let callee = path.get(k + 1).map(|f| f.guid).unwrap_or(owner_guid);
            node = node.children.entry((frame.probe, callee)).or_default();
        }
        node
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.roots.values().map(|n| n.total()).sum()
    }

    /// Total trie nodes — the paper's profile-size proxy (§III.B
    /// "Scalability": up to 10x without trimming).
    pub fn node_count(&self) -> usize {
        self.roots.values().map(|n| n.node_count()).sum()
    }

    /// Fills per-node checksums from a GUID → checksum table.
    pub fn set_checksums(&mut self, table: &BTreeMap<u64, u64>) {
        fn walk(guid: u64, node: &mut ContextNode, table: &BTreeMap<u64, u64>) {
            if let Some(&c) = table.get(&guid) {
                node.checksum = c;
            }
            for (&(_, callee), child) in &mut node.children {
                walk(callee, child, table);
            }
        }
        for (&guid, node) in &mut self.roots {
            walk(guid, node, table);
        }
    }

    /// Cold-context trimming: contexts with fewer than `threshold` total
    /// samples are merged (context-insensitively) into their function's
    /// base/root profile.
    pub fn trim_cold(&mut self, threshold: u64) {
        // Collect merges first to avoid aliasing the trie while walking it:
        // each detached node with the function its key named.
        let mut merges: Vec<(u64, ContextNode)> = Vec::new();
        fn walk(node: &mut ContextNode, threshold: u64, merges: &mut Vec<(u64, ContextNode)>) {
            let keys: Vec<(u32, u64)> = node.children.keys().copied().collect();
            for key in keys {
                let cold = node.children[&key].total() < threshold;
                if cold {
                    let child = node.children.remove(&key).expect("key collected above");
                    merges.push((key.1, child));
                } else {
                    walk(
                        node.children.get_mut(&key).expect("hot child"),
                        threshold,
                        merges,
                    );
                }
            }
        }
        let roots: Vec<u64> = self.roots.keys().copied().collect();
        for g in roots {
            walk(
                self.roots.get_mut(&g).expect("root"),
                threshold,
                &mut merges,
            );
        }
        // Each detached node merges into its function's root profile, and
        // its children queue for the same treatment.
        while let Some((guid, node)) = merges.pop() {
            let base = self.roots.entry(guid).or_default();
            base.entry += node.entry;
            if base.checksum == 0 {
                base.checksum = node.checksum;
            }
            for (p, c) in node.probes {
                *base.probes.entry(p).or_insert(0) += c;
            }
            merges.extend(node.children.into_iter().map(|((_, g), n)| (g, n)));
        }
        // Roots that lost all content to trimming are dropped.
        self.roots
            .retain(|_, n| n.entry > 0 || !n.probes.is_empty() || !n.children.is_empty());
    }

    /// Collapses the trie into a [`ProbeProfile`]: contexts marked inlined
    /// stay as nested call-site profiles; everything else merges into base
    /// profiles (Algorithm 2's `MoveContextProfileToBaseProfile`).
    ///
    /// Non-inlined call edges leave a zero-body callsite *stub* (entry
    /// count + callee checksum, no probes) in the caller, preserving which
    /// target each call-site probe reached. Stubs carry no weight — probe
    /// totals, replay eligibility, and annotation are identical with or
    /// without them — but they are the call anchors the stale matcher's
    /// rename detection aligns on.
    pub fn to_probe_profile(&self) -> ProbeProfile {
        let mut out = ProbeProfile {
            names: self.names.clone(),
            ..ProbeProfile::default()
        };
        // We process roots, descending into inlined children in place and
        // deferring non-inlined children, each with its function, to their
        // own base profiles.
        fn convert<'a>(
            node: &'a ContextNode,
            dest: &mut ProbeFuncProfile,
            deferred: &mut Vec<(u64, &'a ContextNode)>,
        ) {
            dest.checksum = node.checksum;
            dest.entry += node.entry;
            for (p, c) in &node.probes {
                *dest.probes.entry(*p).or_insert(0) += c;
            }
            for ((probe, callee), child) in &node.children {
                if child.inlined {
                    let slot = dest.callsites.entry((*probe, *callee)).or_default();
                    convert(child, slot, deferred);
                } else {
                    // The child's counts move to its base profile, but the
                    // call *edge* — which target this call-site probe
                    // reached, and how often — is profile data in its own
                    // right (the stale matcher's call anchors). Keep it as
                    // a zero-body stub: entry and checksum only, so totals,
                    // replay gates, and annotation are untouched.
                    let stub = dest.callsites.entry((*probe, *callee)).or_default();
                    stub.entry += child.entry;
                    if stub.checksum == 0 {
                        stub.checksum = child.checksum;
                    }
                    deferred.push((*callee, child));
                }
            }
        }

        let mut deferred: Vec<(u64, &ContextNode)> = Vec::new();
        for (g, node) in &self.roots {
            let dest = out.funcs.entry(*g).or_default();
            convert(node, dest, &mut deferred);
        }
        while let Some((g, node)) = deferred.pop() {
            convert(node, out.funcs.entry(g).or_default(), &mut deferred);
        }
        out
    }
}

/// Dense identifier of one interned context in a [`ContextArena`].
pub(crate) type ContextId = u32;

/// The parent of a root.
const NO_PARENT: ContextId = ContextId::MAX;

/// Arena node of the hash-consed trie: one [`ContextNode`] of the profile
/// the arena holds when `live`, an interned but empty slot otherwise.
#[derive(Debug)]
struct ArenaNode {
    /// The edge that leads here: `(call-site probe, callee)` under
    /// `parent`, or `(0, root key)` for a root. `key.1` is the node's
    /// function.
    key: (u32, u64),
    parent: ContextId,
    checksum: u64,
    inlined: bool,
    /// Part of the profile the arena holds.
    live: bool,
    /// The last [`ContextArena::begin`] under which the node was touched.
    stamp: u32,
    entry: u64,
    /// Every probe ever counted here, sorted, each with its counter's slot
    /// in [`ContextArena::counts`].
    probes: Vec<(u32, u32)>,
    children: Vec<ContextId>,
}

impl ArenaNode {
    fn new(key: (u32, u64), parent: ContextId) -> Self {
        ArenaNode {
            key,
            parent,
            checksum: 0,
            inlined: false,
            live: false,
            stamp: 0,
            entry: 0,
            probes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Leaves the profile: counters and marks back to what a node interned
    /// by a hit starts with, so a later hit re-attaches it as a merge into
    /// a trie without it would re-create it.
    fn detach(&mut self, counts: &mut [u64]) {
        self.checksum = 0;
        self.inlined = false;
        self.live = false;
        self.stamp = 0;
        self.entry = 0;
        for &(_, slot) in &self.probes {
            counts[slot as usize] = 0;
        }
    }
}

/// A hash-consed, write-optimized context trie that *holds* a profile —
/// the one place [`crate::unwind::Unwinder`] counts into, and, for a
/// stream, the cumulative profile itself.
///
/// [`ContextProfile::node_for_path_mut`] walks a chain of `BTreeMap`s —
/// one ordered-map lookup *per frame per hit*. The arena instead interns
/// each `(parent, call-site probe, callee)` edge into a dense
/// [`ContextId`] through one flat hash map, so walking a hot path seen
/// before is a few probes over integer keys, and extending it allocates
/// nothing but the slot.
///
/// The profile it holds is the set of **live** nodes: a node becomes live
/// when it or a node below it is hit or absorbed, and stops being live when
/// it is drained ([`Self::take_profile`]) or evicted ([`Self::evict`]);
/// interned ids stay valid either way, so a memo of ids outlives both. Two
/// counts are kept current — live nodes and live roots — and every hit
/// *touches* its node and the ancestors above it once per
/// [`Self::begin`], so what one call or epoch reached is a list
/// ([`Self::touched`]), not a walk. All counters are `+=`, and every
/// profile the arena emits is sorted into `BTreeMap`s, so it is
/// bit-identical to one built through [`ContextProfile::add_probe_hit`] /
/// [`ContextProfile::add_entry`] from the same hits in any order
/// (`tests/unwind_differential.rs`, `tests/proptest_kernel.rs`).
#[derive(Debug)]
pub(crate) struct ContextArena {
    nodes: Vec<ArenaNode>,
    roots: FastMap<u64, ContextId>,
    /// Edge interner: `(parent id, call-site probe, callee guid)` → child.
    edges: FastMap<(ContextId, u32, u64), ContextId>,
    /// One counter per `(node, probe)` ever counted: `0` while the probe is
    /// not in the profile, `c + 1` while its count is `c` — so a counter
    /// keeps its slot, and a memo its index, across drains and evictions,
    /// and an absorbed zero count stays in the profile.
    counts: Vec<u64>,
    live: usize,
    live_roots: usize,
    stamp: u32,
    /// Nodes touched since the last [`Self::begin`], each once.
    touched: Vec<ContextId>,
}

impl Default for ContextArena {
    fn default() -> Self {
        ContextArena {
            nodes: Vec::new(),
            roots: FastMap::default(),
            edges: FastMap::default(),
            counts: Vec::new(),
            live: 0,
            live_roots: 0,
            stamp: 1,
            touched: Vec::new(),
        }
    }
}

impl ContextArena {
    /// Number of interned contexts (arena size), live or not.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes of the profile the arena holds.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Roots among [`Self::live`].
    pub(crate) fn live_roots(&self) -> usize {
        self.live_roots
    }

    /// An empty arena whose [`Self::begin`] continues `self`'s stamps, for
    /// rebuilding `self` from its own live profile.
    pub(crate) fn successor(&self) -> Self {
        ContextArena {
            stamp: self.stamp,
            ..ContextArena::default()
        }
    }

    /// Starts a new touch window: [`Self::touched`] empties, and the next
    /// hits or absorbs list the nodes they reach again.
    pub(crate) fn begin(&mut self) {
        if self.stamp == u32::MAX {
            for n in &mut self.nodes {
                n.stamp = 0;
            }
            self.stamp = 0;
        }
        self.stamp += 1;
        self.touched.clear();
    }

    /// Nodes hit or absorbed since [`Self::begin`], with every ancestor of
    /// each, once each — the node set of the profile that window alone
    /// would give.
    pub(crate) fn touched(&self) -> &[ContextId] {
        &self.touched
    }

    /// The depth-1 edge `(root key, call-site probe, callee)` that `id`
    /// hangs from, when it sits right below a root.
    pub(crate) fn depth1_edge(&self, id: ContextId) -> Option<(u64, u32, u64)> {
        let n = &self.nodes[id as usize];
        let parent = self.nodes.get(n.parent as usize)?;
        (parent.parent == NO_PARENT).then_some((parent.key.1, n.key.0, n.key.1))
    }

    fn alloc(&mut self, key: (u32, u64), parent: ContextId) -> ContextId {
        let id = self.nodes.len() as ContextId;
        self.nodes.push(ArenaNode::new(key, parent));
        id
    }

    /// The root of function `guid`, interned if new.
    fn root(&mut self, guid: u64) -> ContextId {
        if let Some(&id) = self.roots.get(&guid) {
            return id;
        }
        let id = self.alloc((0, guid), NO_PARENT);
        self.roots.insert(guid, id);
        id
    }

    /// The child of `parent` through `(probe, callee)`, interned if new.
    fn child(&mut self, parent: ContextId, probe: u32, callee: u64) -> ContextId {
        if let Some(&id) = self.edges.get(&(parent, probe, callee)) {
            return id;
        }
        let id = self.alloc((probe, callee), parent);
        self.edges.insert((parent, probe, callee), id);
        self.nodes[parent as usize].children.push(id);
        id
    }

    /// Interns the context reached by `path` into `owner_guid`, returning
    /// its dense id. Same navigation as
    /// [`ContextProfile::node_for_path_mut`]: `path[0].guid` roots the
    /// walk, each frame's probe selects the edge to the next frame's
    /// function (or `owner_guid` for the last).
    pub(crate) fn intern(&mut self, path: &[FrameKey], owner_guid: u64) -> ContextId {
        let root_guid = path.first().map(|f| f.guid).unwrap_or(owner_guid);
        let mut id = self.root(root_guid);
        for (k, frame) in path.iter().enumerate() {
            let callee = path.get(k + 1).map(|f| f.guid).unwrap_or(owner_guid);
            id = self.child(id, frame.probe, callee);
        }
        id
    }

    fn set_live(&mut self, id: ContextId) {
        let n = &mut self.nodes[id as usize];
        if !n.live {
            n.live = true;
            self.live += 1;
            if n.parent == NO_PARENT {
                self.live_roots += 1;
            }
        }
    }

    /// Makes `id` and its ancestors live and lists those not yet touched
    /// in this window. A touched node's ancestors are touched, so the walk
    /// stops at the first one.
    fn touch(&mut self, mut id: ContextId) {
        while id != NO_PARENT && self.nodes[id as usize].stamp != self.stamp {
            self.nodes[id as usize].stamp = self.stamp;
            self.touched.push(id);
            self.set_live(id);
            id = self.nodes[id as usize].parent;
        }
    }

    /// The slot of `probe`'s counter at `id`, made on first use.
    pub(crate) fn probe_slot(&mut self, id: ContextId, probe: u32) -> u32 {
        let probes = &mut self.nodes[id as usize].probes;
        match probes.binary_search_by_key(&probe, |&(p, _)| p) {
            Ok(k) => probes[k].1,
            Err(k) => {
                let slot = self.counts.len() as u32;
                self.counts.push(0);
                probes.insert(k, (probe, slot));
                slot
            }
        }
    }

    /// Adds `count` samples at an already-interned context through the
    /// counter `slot` ([`Self::probe_slot`] of the probe).
    pub(crate) fn add_at_slot(&mut self, id: ContextId, slot: u32, count: u64) {
        self.bump(slot, count);
        self.touch(id);
    }

    /// Adds `count` to counter `slot`, putting its probe in the profile.
    fn bump(&mut self, slot: u32, count: u64) {
        let c = &mut self.counts[slot as usize];
        *c = (*c).max(1) + count;
    }

    /// Adds `count` samples of `probe_index` at an already-interned context.
    #[cfg(test)]
    pub(crate) fn add_probe_hit_at(&mut self, id: ContextId, probe_index: u32, count: u64) {
        let slot = self.probe_slot(id, probe_index);
        self.add_at_slot(id, slot, count);
    }

    /// Records `count` calls entering an already-interned context.
    pub(crate) fn add_entry_at(&mut self, id: ContextId, count: u64) {
        self.nodes[id as usize].entry += count;
        self.touch(id);
    }

    /// Adds `profile` to the profile the arena holds by the trie's merge
    /// rule — structural and count-additive, first nonzero checksum, inline
    /// marks or-ed — touching every node it names. Absorbing into an empty
    /// arena holds exactly `profile` — empty nodes and zero counts included
    /// — names aside. The reference this is held to is
    /// `tests/common/reference_trie.rs`.
    pub(crate) fn absorb(&mut self, profile: &ContextProfile) {
        fn absorb_node(arena: &mut ContextArena, id: ContextId, node: &ContextNode) {
            let n = &mut arena.nodes[id as usize];
            n.entry += node.entry;
            if n.checksum == 0 {
                n.checksum = node.checksum;
            }
            n.inlined |= node.inlined;
            for (&probe, &count) in &node.probes {
                let slot = arena.probe_slot(id, probe);
                arena.add_at_slot(id, slot, count);
            }
            arena.touch(id);
            for (&(probe, callee), child) in &node.children {
                let cid = arena.child(id, probe, callee);
                absorb_node(arena, cid, child);
            }
        }
        for (&guid, node) in &profile.roots {
            let id = self.root(guid);
            absorb_node(self, id, node);
        }
    }

    /// The live subtree under `id` as a [`ContextNode`].
    fn emit(&self, id: ContextId) -> ContextNode {
        let n = &self.nodes[id as usize];
        ContextNode {
            checksum: n.checksum,
            entry: n.entry,
            probes: n
                .probes
                .iter()
                .filter_map(|&(p, slot)| self.counts[slot as usize].checked_sub(1).map(|c| (p, c)))
                .collect(),
            children: n
                .children
                .iter()
                .filter(|&&c| self.nodes[c as usize].live)
                .map(|&c| (self.nodes[c as usize].key, self.emit(c)))
                .collect(),
            inlined: n.inlined,
        }
    }

    /// The profile the arena holds, canonical (`BTreeMap` order), without
    /// names. O(live nodes).
    pub(crate) fn to_profile(&self) -> ContextProfile {
        let mut out = ContextProfile::new();
        for (&key, &id) in &self.roots {
            if self.nodes[id as usize].live {
                out.roots.insert(key, self.emit(id));
            }
        }
        out
    }

    /// Drains the profile the arena holds — everything hit or absorbed
    /// since the previous drain, when every live node was touched in this
    /// window — into a canonical [`ContextProfile`]: the live nodes leave
    /// the profile and their counters go back to zero, while the arena,
    /// the interner and every [`ContextId`] handed out stay valid, so a
    /// memo of ids outlives the drain. A node is emitted only if it or a
    /// node below it was hit, which is exactly the set of nodes an empty
    /// arena would have interned for the same hits. O(touched nodes).
    pub(crate) fn take_profile(&mut self) -> ContextProfile {
        let mut out = ContextProfile::new();
        for &id in &self.touched {
            let n = &self.nodes[id as usize];
            if n.parent == NO_PARENT && n.live {
                out.roots.insert(n.key.1, self.emit(id));
            }
        }
        for &id in &self.touched {
            let n = &mut self.nodes[id as usize];
            if n.live {
                self.live -= 1;
                if n.parent == NO_PARENT {
                    self.live_roots -= 1;
                }
                n.detach(&mut self.counts);
            }
        }
        debug_assert_eq!(self.live, 0, "a live node was not touched in this window");
        out
    }

    /// Evicts the live depth-1 subtree root `root` → `callee` through
    /// call-site probe `probe`, folding every count in it
    /// context-insensitively into its function's base root (the rule of
    /// [`ContextProfile::trim_cold`], held to the reference eviction in
    /// `tests/common/reference_trie.rs`). The subtree's nodes stay
    /// interned: a later hit re-attaches them.
    /// Returns `(nodes detached, weight folded)`, or `None` when the edge
    /// is not in the profile.
    pub(crate) fn evict(&mut self, root: u64, probe: u32, callee: u64) -> Option<(usize, u64)> {
        let root = *self.roots.get(&root)?;
        let top = *self.edges.get(&(root, probe, callee))?;
        if !self.nodes[top as usize].live {
            return None;
        }
        let (mut nodes, mut weight) = (0, 0);
        let mut queue = vec![top];
        while let Some(id) = queue.pop() {
            let n = &mut self.nodes[id as usize];
            if !n.live {
                continue; // nor is anything below it
            }
            queue.extend(n.children.iter().copied());
            nodes += 1;
            self.live -= 1;
            let (guid, checksum, entry) = (n.key.1, n.checksum, n.entry);
            let probes = std::mem::take(&mut n.probes);
            let base = self.root(guid);
            self.set_live(base);
            let b = &mut self.nodes[base as usize];
            b.entry += entry;
            if b.checksum == 0 {
                b.checksum = checksum;
            }
            for &(p, slot) in &probes {
                if let Some(c) = self.counts[slot as usize].checked_sub(1) {
                    weight += c;
                    let to = self.probe_slot(base, p);
                    self.bump(to, c);
                }
            }
            let n = &mut self.nodes[id as usize];
            n.probes = probes;
            n.detach(&mut self.counts);
        }
        Some((nodes, weight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fk(guid: u64, probe: u32) -> FrameKey {
        FrameKey { guid, probe }
    }

    #[test]
    fn paths_build_nested_nodes() {
        let mut cp = ContextProfile::new();
        // main --(probe 3)--> foo --(probe 2)--> bar
        cp.add_probe_hit(&[fk(1, 3), fk(2, 2)], 3, 7, 10);
        let node = &cp.roots[&1].children[&(3, 2)].children[&(2, 3)];
        assert_eq!(node.probes[&7], 10);
        assert_eq!(cp.node_count(), 3);
    }

    #[test]
    fn same_function_different_contexts_stay_separate() {
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[fk(1, 3)], 9, 1, 100); // via add-path
        cp.add_probe_hit(&[fk(2, 5)], 9, 1, 50); // via sub-path
        let a = &cp.roots[&1].children[&(3, 9)];
        let b = &cp.roots[&2].children[&(5, 9)];
        assert_eq!(a.probes[&1], 100);
        assert_eq!(b.probes[&1], 50);
    }

    #[test]
    fn trim_merges_cold_contexts_into_base() {
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[fk(1, 3)], 9, 1, 100); // hot context
        cp.add_probe_hit(&[fk(2, 5)], 9, 1, 2); // cold context
        let before = cp.node_count();
        cp.trim_cold(10);
        assert!(cp.node_count() < before);
        // Cold context merged into base profile of guid 9.
        let base = cp.roots.get(&9).expect("base profile created");
        assert_eq!(base.probes[&1], 2);
        // Hot context untouched.
        assert_eq!(cp.roots[&1].children[&(3, 9)].probes[&1], 100);
        // Totals preserved.
        assert_eq!(cp.total(), 102);
    }

    #[test]
    fn to_probe_profile_respects_inline_marks() {
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[], 1, 1, 5); // main body
        cp.add_probe_hit(&[fk(1, 3)], 9, 1, 100); // callee via probe 3
        cp.add_probe_hit(&[fk(1, 4)], 9, 1, 40); // callee via probe 4
                                                 // Mark only the probe-3 context inlined.
        cp.roots
            .get_mut(&1)
            .unwrap()
            .children
            .get_mut(&(3, 9))
            .unwrap()
            .inlined = true;
        let pp = cp.to_probe_profile();
        // Inlined context stays nested under main.
        assert_eq!(pp.funcs[&1].callsites[&(3, 9)].probes[&1], 100);
        // Non-inlined context became guid 9's base profile...
        assert_eq!(pp.funcs[&9].probes[&1], 40);
        // ...but leaves a weightless call-edge stub behind: the anchor
        // label survives, the counts do not.
        let stub = &pp.funcs[&1].callsites[&(4, 9)];
        assert!(stub.probes.is_empty());
        assert_eq!(stub.total(), 0, "stubs must not add weight");
        // Total weight is conserved: 5 (main) + 100 (inlined) + 40 (base).
        assert_eq!(pp.total(), 145);
    }

    #[test]
    fn checksums_propagate() {
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[fk(1, 3)], 9, 1, 1);
        let mut table = BTreeMap::new();
        table.insert(1u64, 0xaau64);
        table.insert(9u64, 0xbbu64);
        cp.set_checksums(&table);
        assert_eq!(cp.roots[&1].checksum, 0xaa);
        assert_eq!(cp.roots[&1].children[&(3, 9)].checksum, 0xbb);
    }

    #[test]
    fn builder_matches_btreemap_path() {
        let hits: Vec<(Vec<FrameKey>, u64, u32, u64)> = vec![
            (vec![], 1, 1, 5),
            (vec![fk(1, 3)], 9, 1, 100),
            (vec![fk(1, 3), fk(9, 2)], 7, 4, 12),
            (vec![fk(1, 3)], 9, 1, 1), // repeat path reuses interned node
            (vec![fk(2, 5)], 9, 1, 50),
        ];
        let mut reference = ContextProfile::new();
        let mut builder = ContextArena::default();
        for (path, owner, probe, count) in &hits {
            reference.add_probe_hit(path, *owner, *probe, *count);
            let id = builder.intern(path, *owner);
            builder.add_probe_hit_at(id, *probe, *count);
        }
        reference.add_entry(&[fk(1, 3)], 9, 7);
        let id = builder.intern(&[fk(1, 3)], 9);
        builder.add_entry_at(id, 7);
        let built = builder.take_profile();
        assert_eq!(built, reference);
        assert_eq!(
            serde_json::to_string(&built).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
    }

    #[test]
    fn builder_interning_is_stable() {
        let mut b = ContextArena::default();
        let a = b.intern(&[fk(1, 3)], 9);
        let again = b.intern(&[fk(1, 3)], 9);
        assert_eq!(a, again, "same path must intern to the same id");
        let other = b.intern(&[fk(1, 4)], 9);
        assert_ne!(a, other);
        assert_eq!(b.node_count(), 3); // root + two contexts
    }

    /// A drain returns what was counted since the previous one, shaped as
    /// an empty builder would have shaped it, and leaves every id usable.
    #[test]
    fn take_profile_drains_counts_and_keeps_ids() {
        let mut b = ContextArena::default();
        let deep = b.intern(&[fk(1, 3), fk(9, 2)], 7);
        let side = b.intern(&[fk(1, 4)], 9);
        b.add_probe_hit_at(deep, 4, 12);
        b.add_entry_at(side, 2);
        let mut first = ContextProfile::new();
        first.add_probe_hit(&[fk(1, 3), fk(9, 2)], 7, 4, 12);
        first.add_entry(&[fk(1, 4)], 9, 2);
        assert_eq!(b.take_profile(), first);

        // Nothing hit since: nothing emitted, not even the interned roots.
        assert_eq!(b.take_profile(), ContextProfile::new());

        // An old id still lands on its node; the untouched sibling subtree
        // and the unhit interior counters stay out of the drain.
        b.add_probe_hit_at(deep, 5, 1);
        let mut second = ContextProfile::new();
        second.add_probe_hit(&[fk(1, 3), fk(9, 2)], 7, 5, 1);
        assert_eq!(b.take_profile(), second);
        assert_eq!(b.node_count(), 4, "the arena is kept across drains");
    }

    /// A profile the arena did not count itself — a restored snapshot —
    /// comes back out exactly: checksums, inline marks, a zero count, an
    /// empty root.
    #[test]
    fn an_empty_arena_holds_exactly_what_it_absorbs() {
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[fk(1, 3), fk(9, 2)], 7, 4, 12);
        cp.add_probe_hit(&[], 1, 8, 0);
        cp.add_entry(&[fk(1, 4)], 9, 2);
        cp.roots.entry(5).or_default();
        let child = cp
            .roots
            .get_mut(&1)
            .unwrap()
            .children
            .get_mut(&(3, 9))
            .unwrap();
        child.checksum = 0xab;
        child.inlined = true;
        let mut arena = ContextArena::default();
        arena.absorb(&cp);
        assert_eq!(arena.to_profile(), cp);
        assert_eq!((arena.live(), arena.live_roots()), (cp.node_count(), 2));

        // Absorbing again adds, as merging does: every count doubles, and
        // checksums and inline marks stay.
        arena.absorb(&cp);
        let mut twice = cp.clone();
        twice.add_probe_hit(&[fk(1, 3), fk(9, 2)], 7, 4, 12);
        twice.add_entry(&[fk(1, 4)], 9, 2);
        assert_eq!(arena.to_profile(), twice);
    }

    /// Eviction folds a depth-1 subtree into base roots and conserves the
    /// total; the detached nodes stay interned, and a hit through an old id
    /// re-attaches the path as a fresh one.
    #[test]
    fn arena_eviction_folds_into_base_and_a_hit_reattaches() {
        let mut arena = ContextArena::default();
        let deep = arena.intern(&[fk(1, 3), fk(9, 2)], 7);
        let mid = arena.intern(&[fk(1, 3)], 9);
        let side = arena.intern(&[fk(1, 4)], 9);
        let body = arena.intern(&[], 1);
        arena.add_probe_hit_at(deep, 4, 12);
        arena.add_probe_hit_at(mid, 1, 100);
        arena.add_entry_at(mid, 3);
        arena.add_probe_hit_at(side, 1, 40);
        arena.add_probe_hit_at(body, 2, 5);
        let total = arena.to_profile().total();

        assert_eq!(
            arena.evict(1, 3, 9),
            Some((2, 112)),
            "callee + nested grand-callee"
        );
        // The counts fold into the base roots of 9 and 7; the root body and
        // the other context of 9 are intact.
        let mut want = ContextProfile::new();
        want.add_probe_hit(&[], 1, 2, 5);
        want.add_probe_hit(&[fk(1, 4)], 9, 1, 40);
        want.add_probe_hit(&[], 9, 1, 100);
        want.add_entry(&[], 9, 3);
        want.add_probe_hit(&[], 7, 4, 12);
        assert_eq!(arena.to_profile(), want);
        assert_eq!(want.total(), total, "eviction conserves weight");
        assert_eq!(arena.live(), want.node_count());
        assert_eq!(arena.live_roots(), want.roots.len());
        assert_eq!(arena.evict(1, 3, 9), None, "no longer in the profile");
        assert_eq!(arena.evict(42, 0, 0), None);

        arena.begin();
        arena.add_probe_hit_at(deep, 4, 1);
        want.add_probe_hit(&[fk(1, 3), fk(9, 2)], 7, 4, 1);
        assert_eq!(arena.to_profile(), want);
        assert_eq!(arena.touched().len(), 3, "the hit, its parent and the root");
        assert_eq!(arena.node_count(), 6, "nothing interned twice");
    }

    #[test]
    fn totals_roll_up() {
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[], 1, 1, 5);
        cp.add_probe_hit(&[fk(1, 2)], 2, 1, 7);
        assert_eq!(cp.total(), 12);
        assert_eq!(cp.roots[&1].total(), 12);
        assert_eq!(cp.roots[&1].self_total(), 5);
    }
}
