//! **Algorithm 1**: reconstructing the calling context of each LBR range
//! from a synchronized LBR + stack sample (paper §III.B).
//!
//! LBR branches are processed in reverse execution order (newest first). A
//! running context stack starts from the sampled frame-pointer chain and is
//! surgically adjusted at each call/return boundary:
//!
//! * stepping (backwards) over a **call**: the code before the call ran in
//!   the caller, so the caller's call-site frame pops off the context;
//! * stepping over a **return** from `F`: the code before ran inside `F`,
//!   so the call site that had entered `F` (the instruction before the
//!   return target) pushes onto the context;
//! * **tail calls** replace their frame: context unchanged.
//!
//! Each linear range between consecutive taken branches is attributed with
//! the context in effect, and inline frames are expanded per probe
//! (`ExpandInlinedFrames`): every pseudo-probe note carries its own inline
//! stack, so splitting ranges at inline boundaries happens per anchored
//! probe.
//!
//! The missing-frame inferrer ([`crate::tailcall`]) repairs the initial
//! stack where tail-call elimination removed frames.
//!
//! There is **one kernel** here — [`Unwinder::unwind_batched`] — and
//! whoever ingests samples owns an [`Unwinder`] for as long as it ingests:
//! a throw-away one per shard for a batch ([`crate::shard`]), a long-lived
//! one per shard for a stream ([`crate::stream`]), where an epoch is simply
//! a small batch. Everything the unwinder memoizes is a pure function of
//! `(binary, tail-call graph)`, so what a call returns never depends on
//! the calls before it (DESIGN.md §18). The per-sample, memo-free form of
//! the algorithm lives outside this crate, in
//! `tests/common/reference_unwind.rs`, as the oracle the differential tests
//! hold this kernel to.

use crate::context::{ContextId, ContextProfile, ContextTrieBuilder, FrameKey};
use crate::fasthash::FastMap;
use crate::tailcall::{InferStats, TailCallGraph};
use csspgo_codegen::minst::MInstKind;
use csspgo_codegen::Binary;
use csspgo_sim::Sample;
use std::collections::hash_map::Entry;
use std::fmt;

/// Collapses adjacent repeated subsequences in a context path (LLVM's
/// recursion-context compression): `[a b a b c]` → `[a b c]`, `[a a a]` →
/// `[a]`. Without this, recursive programs blow the context trie up
/// unboundedly.
pub fn compress_cycles(path: &mut Vec<FrameKey>) {
    loop {
        let mut changed = false;
        for period in 1..=4usize {
            let mut i = 0;
            while i + 2 * period <= path.len() {
                if path[i..i + period] == path[i + period..i + 2 * period] {
                    path.drain(i + period..i + 2 * period);
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Maximum context depth kept when attributing (deeper paths keep their
/// innermost frames). Recursion would otherwise blow the trie up
/// unboundedly — LLVM's CSSPGO caps context depth the same way.
const MAX_CONTEXT_DEPTH: usize = 8;

/// Memo entries (see [`Memo::len`]) an unwinder may carry into a call. One
/// that holds more starts over with empty memos: the unwinder's memory is
/// O(instructions) plus this many entries plus what one call's own samples
/// add, however many calls it lives through. A ≈5 k-sample batch of the
/// benchmark's heaviest program memoizes ≈10 400 entries, the other four
/// under 800 each.
const MEMO_LIMIT: usize = 1 << 16;

/// Brings an assembled context path to the shape every trie path has:
/// cycle-compressed and capped to its innermost [`MAX_CONTEXT_DEPTH`]
/// frames.
fn canonicalize(path: &mut Vec<FrameKey>) {
    compress_cycles(path);
    if path.len() > MAX_CONTEXT_DEPTH {
        path.drain(..path.len() - MAX_CONTEXT_DEPTH);
    }
}

/// What an [`Unwinder`] has learned so far, plus the trie it counts into.
///
/// Whole-sample dedup leaves 28–70 % of a ≈5 k-sample batch standing — hot
/// samples share the *stack* but differ in LBR history — and the
/// `(context, LBR range)` pairs inside the survivors repeat massively. So
/// each running context stack is interned to a small id and range
/// attributions are keyed on `(ctx, begin, end)`: the first occurrence runs
/// the full per-probe path assembly (cycle compression, depth capping, trie
/// interning) and records the landing `(node, probe)` pairs; every repeat
/// is one hash probe and one add. Entry hits memoize the same way per
/// `(ctx, callee)`, initial contexts per `(stack, pc)`.
///
/// Every map is a pure function of `(binary, tail-call graph)` — no entry
/// depends on which samples came before — so the memo outlives a call, and
/// the recorded [`ContextId`]s stay meaningful because the trie they index
/// is drained ([`ContextTrieBuilder::take_profile`]), never rebuilt, for as
/// long as the memo lives. The `(stack, pc)` and dedup keys are raw
/// addresses from outside (they arrive through
/// [`crate::stream::StreamAggregator::push_batch`]) hashed with
/// [`crate::fasthash`]: hardening that is ROADMAP item 6.
#[derive(Default)]
struct Memo {
    /// Initial-context memo, keyed by the sampled stack with the pc
    /// appended. LBR histories give samples high entropy, but their
    /// `(stack, pc)` projection repeats constantly, and the stack walk
    /// (address resolution, frame expansion, tail-call inference) depends
    /// on nothing else — so it runs once per distinct shape and replays as
    /// a `memcpy` plus weight-scaled diagnostic deltas.
    stack_ctx: FastMap<Vec<u64>, StackCtx>,
    /// Context-stack interner: the running `ctx` → dense id.
    ctx_ids: FastMap<Vec<FrameKey>, u32>,
    /// `(ctx id, range begin, range end)` → index into `ranges`.
    range_ids: FastMap<(u32, usize, usize), u32>,
    ranges: Vec<CachedRange>,
    /// Ranges with weight not yet fanned out: what [`Memo::flush`] visits,
    /// so a call pays for the ranges it touched, not for all it remembers.
    dirty: Vec<u32>,
    /// `(ctx id, callee guid)` → interned entry node.
    entries: FastMap<(u32, u64), ContextId>,
    trie: ContextTrieBuilder,
}

/// One memoized range attribution.
struct CachedRange {
    /// Where each probe anchored in the range lands.
    hits: Vec<(ContextId, u32)>,
    /// Weight of the occurrences seen since the last flush. The per-probe
    /// fan-out happens once per *distinct* range per call.
    pending: u64,
}

/// Memoized outcome of one `(stack, pc)` initial-context reconstruction.
/// Diagnostic counters are stored per occurrence and scale by the
/// sample's weight on replay.
struct StackCtx {
    ok: bool,
    ctx: Vec<FrameKey>,
    recovered: u64,
    failed: u64,
    broken: u64,
}

impl Memo {
    /// Entries held across calls: every map plus the trie arena.
    fn len(&self) -> usize {
        self.stack_ctx.len()
            + self.ctx_ids.len()
            + self.ranges.len()
            + self.entries.len()
            + self.trie.node_count()
    }

    fn ctx_id(&mut self, ctx: &[FrameKey]) -> u32 {
        if let Some(&id) = self.ctx_ids.get(ctx) {
            return id;
        }
        let id = self.ctx_ids.len() as u32;
        self.ctx_ids.insert(ctx.to_vec(), id);
        id
    }

    /// Fans the deferred occurrence weights out to the trie's counters.
    /// Must run before the trie is drained.
    fn flush(&mut self) {
        for idx in self.dirty.drain(..) {
            let range = &mut self.ranges[idx as usize];
            for &(node, probe) in &range.hits {
                self.trie.add_probe_hit_at(node, probe, range.pending);
            }
            range.pending = 0;
        }
    }
}

/// Reusable per-sample working buffers.
#[derive(Default)]
struct UnwindScratch {
    /// Physical call-site instruction indices from the sampled stack.
    callsites: Vec<usize>,
    /// The running context stack.
    ctx: Vec<FrameKey>,
    /// LBR entries resolved to instruction indices.
    resolved: Vec<(usize, usize)>,
    /// Per-hit path assembly buffer (ctx + inline frames, canonicalized).
    path: Vec<FrameKey>,
    /// [`Memo::stack_ctx`] lookup key assembly buffer.
    stack_key: Vec<u64>,
}

/// Expands the call-site instruction at `idx` into context frames: the
/// call probe's inline stack plus the probe itself. `None` when the
/// instruction carries no call probe (probe-less builds).
fn callsite_frames(binary: &Binary, idx: usize) -> Option<Box<[FrameKey]>> {
    let note = binary.insts[idx]
        .probes
        .iter()
        .rev()
        .find(|n| matches!(n.kind, csspgo_ir::ProbeKind::Call))?;
    let inlined = note.inline_stack.iter().map(|s| FrameKey {
        guid: binary.funcs[s.func.index()].guid,
        probe: s.probe_index,
    });
    let own = FrameKey {
        guid: note.owner_guid,
        probe: note.index,
    };
    Some(inlined.chain([own]).collect())
}

/// Context reconstruction engine for one binary and one pinned tail-call
/// graph, owned by whoever ingests samples for as long as it ingests.
pub struct Unwinder<'b> {
    binary: &'b Binary,
    /// Owned, so a long-lived unwinder can sit next to its graph's other
    /// owner (the aggregator's snapshot path) without borrowing from it.
    tail_graph: Option<TailCallGraph>,
    /// Tail-call frame recovery statistics, summed over every call.
    pub infer_stats: InferStats,
    /// Samples whose stack could not be interpreted at all, summed over
    /// every call.
    pub broken_stacks: u64,
    /// Per-instruction call-site frame expansion, precomputed once: the
    /// probe-note scan in [`callsite_frames`] runs per *instruction*
    /// instead of per branch per sample.
    cs_frames: Vec<Option<Box<[FrameKey]>>>,
    memo: Memo,
    /// [`MEMO_LIMIT`], a field so a test can shrink it.
    memo_limit: usize,
    scratch: UnwindScratch,
}

impl fmt::Debug for Unwinder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Unwinder")
            .field("insts", &self.binary.len())
            .field(
                "tail_edges",
                &self.tail_graph.as_ref().map(TailCallGraph::edge_count),
            )
            .field("infer_stats", &self.infer_stats)
            .field("broken_stacks", &self.broken_stacks)
            .field("memo_entries", &self.memo.len())
            .finish_non_exhaustive()
    }
}

impl<'b> Unwinder<'b> {
    /// Creates an unwinder; pass a tail-call graph to enable missing-frame
    /// inference.
    pub fn new(binary: &'b Binary, tail_graph: Option<TailCallGraph>) -> Self {
        Unwinder {
            binary,
            tail_graph,
            infer_stats: InferStats::default(),
            broken_stacks: 0,
            cs_frames: (0..binary.len())
                .map(|i| callsite_frames(binary, i))
                .collect(),
            memo: Memo::default(),
            memo_limit: MEMO_LIMIT,
            scratch: UnwindScratch::default(),
        }
    }

    /// Pushes the precomputed call-site frames of `idx` onto `out`;
    /// `false` — pushing nothing — when the instruction carries no call
    /// probe (probe-less builds).
    fn push_cs(&self, idx: usize, out: &mut Vec<FrameKey>) -> bool {
        match &self.cs_frames[idx] {
            Some(frames) => {
                out.extend_from_slice(frames);
                true
            }
            None => false,
        }
    }

    /// The unique tail-call chain `from → … → to`, if inference is on and
    /// finds one.
    fn tail_path(&self, from: u32, to: u32) -> Option<Vec<usize>> {
        self.tail_graph.as_ref()?.unique_path(from, to)
    }

    /// Converts the sampled stack into an initial context (outer→inner
    /// call-site frames) in `scratch.ctx`, memoized per `(stack, pc)` —
    /// see [`Memo::stack_ctx`]. Returns `false` when the stack is
    /// uninterpretable, scaling diagnostic counters by `weight`.
    fn initial_context_into(
        &mut self,
        sample: &Sample,
        weight: u64,
        scratch: &mut UnwindScratch,
    ) -> bool {
        scratch.ctx.clear();
        scratch.stack_key.clear();
        scratch.stack_key.extend_from_slice(&sample.stack);
        scratch.stack_key.push(sample.pc);
        if let Some(memo) = self.memo.stack_ctx.get(scratch.stack_key.as_slice()) {
            self.infer_stats.recovered += memo.recovered * weight;
            self.infer_stats.failed += memo.failed * weight;
            self.broken_stacks += memo.broken * weight;
            scratch.ctx.extend_from_slice(&memo.ctx);
            return memo.ok;
        }
        // Every diagnostic increment below is a multiple of `weight`, so
        // the per-occurrence deltas divide back out exactly.
        let before = (
            self.infer_stats.recovered,
            self.infer_stats.failed,
            self.broken_stacks,
        );
        let ok =
            self.initial_context_uncached(sample, weight, &mut scratch.ctx, &mut scratch.callsites);
        let memo = StackCtx {
            ok,
            ctx: scratch.ctx.clone(),
            recovered: (self.infer_stats.recovered - before.0) / weight,
            failed: (self.infer_stats.failed - before.1) / weight,
            broken: (self.broken_stacks - before.2) / weight,
        };
        self.memo.stack_ctx.insert(scratch.stack_key.clone(), memo);
        ok
    }

    /// The memo-miss path of [`Unwinder::initial_context_into`]: the
    /// actual stack walk with missing-frame inference across tail-call
    /// gaps.
    fn initial_context_uncached(
        &mut self,
        sample: &Sample,
        weight: u64,
        ctx: &mut Vec<FrameKey>,
        callsites: &mut Vec<usize>,
    ) -> bool {
        callsites.clear();
        // Physical call sites, outermost first.
        for &ret_addr in sample.stack.iter().skip(1).rev() {
            let Some(ret_idx) = self.binary.index_of_addr(ret_addr) else {
                return false;
            };
            if ret_idx == 0 {
                return false;
            }
            let call_idx = ret_idx - 1;
            if !matches!(self.binary.insts[call_idx].kind, MInstKind::Call { .. }) {
                self.broken_stacks += weight;
                return false;
            }
            callsites.push(call_idx);
        }

        let Some(leaf_idx) = self.binary.index_of_addr(sample.pc) else {
            return false;
        };
        for k in 0..callsites.len() {
            let cs = callsites[k];
            let MInstKind::Call { callee, .. } = self.binary.insts[cs].kind else {
                unreachable!("validated above")
            };
            // The function the *next* frame actually executes in.
            let next_func = match callsites.get(k + 1) {
                Some(&next_cs) => self.binary.func_of[next_cs],
                None => self.binary.func_of[leaf_idx],
            };
            if !self.push_cs(cs, ctx) {
                return false; // probe-less build: no context reconstruction
            }
            if callee != next_func {
                // Frames are missing between `callee` and `next_func`:
                // tail-call elimination. Try to infer the unique chain.
                match self.tail_path(callee, next_func) {
                    Some(tail_insts) => {
                        self.infer_stats.recovered += tail_insts.len() as u64 * weight;
                        for ti in tail_insts {
                            if !self.push_cs(ti, ctx) {
                                return false;
                            }
                        }
                    }
                    None => {
                        self.infer_stats.failed += weight;
                        // Context is only trustworthy from here inward.
                        ctx.clear();
                    }
                }
            }
        }
        true
    }

    /// Every probe anchored in `[begin, end]` executed `weight` times under
    /// `ctx` (interned as `ctx_id`). The first sight of a
    /// `(ctx, begin, end)` assembles each probe's path — `ctx` expanded by
    /// the probe's own inline stack — in the reusable `path` buffer and
    /// records where it lands; every sight only defers `weight`.
    fn attribute_range(
        &mut self,
        ctx: &[FrameKey],
        ctx_id: u32,
        begin: usize,
        end: usize,
        weight: u64,
        path: &mut Vec<FrameKey>,
    ) {
        let binary = self.binary;
        let memo = &mut self.memo;
        let idx = match memo.range_ids.entry((ctx_id, begin, end)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(slot) => {
                let mut hits = Vec::new();
                if begin <= end && binary.func_of[begin] == binary.func_of[end] {
                    for note in binary.insts[begin..=end].iter().flat_map(|i| &i.probes) {
                        path.clear();
                        path.extend_from_slice(ctx);
                        path.extend(note.inline_stack.iter().map(|s| FrameKey {
                            guid: binary.funcs[s.func.index()].guid,
                            probe: s.probe_index,
                        }));
                        canonicalize(path);
                        hits.push((memo.trie.intern(path, note.owner_guid), note.index));
                    }
                }
                memo.ranges.push(CachedRange { hits, pending: 0 });
                *slot.insert(memo.ranges.len() as u32 - 1)
            }
        };
        let range = &mut memo.ranges[idx as usize];
        if range.pending == 0 {
            memo.dirty.push(idx);
        }
        range.pending += weight;
    }

    /// `weight` calls entered `owner` under `ctx` (interned as `ctx_id`).
    fn attribute_entry(
        &mut self,
        ctx: &[FrameKey],
        ctx_id: u32,
        owner: u64,
        weight: u64,
        path: &mut Vec<FrameKey>,
    ) {
        let memo = &mut self.memo;
        let node = match memo.entries.entry((ctx_id, owner)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(slot) => {
                path.clear();
                path.extend_from_slice(ctx);
                canonicalize(path);
                *slot.insert(memo.trie.intern(path, owner))
            }
        };
        memo.trie.add_entry_at(node, weight);
    }

    /// Unwinds one sample observed `weight` times into the memo's trie. All
    /// diagnostic counters scale by `weight`, so unwinding a deduplicated
    /// `(sample, count)` batch leaves the unwinder in exactly the state
    /// `count` repeats would have.
    fn unwind_sample(&mut self, sample: &Sample, weight: u64, scratch: &mut UnwindScratch) {
        if !self.initial_context_into(sample, weight, scratch) {
            return;
        }
        let Some(pc_idx) = self.binary.index_of_addr(sample.pc) else {
            return;
        };

        // Resolve LBR entries to instruction indices, newest last.
        scratch.resolved.clear();
        for &(from, to) in &sample.lbr {
            if let (Some(f), Some(t)) = (
                self.binary.index_of_addr(from),
                self.binary.index_of_addr(to),
            ) {
                scratch.resolved.push((f, t));
            }
        }

        let mut window_end = pc_idx;
        // The interned id of `scratch.ctx`, dropped whenever the context is
        // (possibly) mutated: consecutive ranges under an unchanged context
        // (the common case — conditional branches inside one function) skip
        // the interner entirely.
        let mut ctx_id: Option<u32> = None;
        for i in (0..scratch.resolved.len()).rev() {
            let (from_idx, to_idx) = scratch.resolved[i];
            let id = match ctx_id {
                Some(id) => id,
                None => *ctx_id.insert(self.memo.ctx_id(&scratch.ctx)),
            };
            // Attribute the linear range executed after this branch.
            self.attribute_range(
                &scratch.ctx,
                id,
                to_idx,
                window_end,
                weight,
                &mut scratch.path,
            );
            // Step backwards over the branch, adjusting the context.
            match self.binary.insts[from_idx].kind {
                MInstKind::Call { .. } | MInstKind::TailCall { .. } => {
                    // Entry hit: the callee runs under the current ctx.
                    let callee = &self.binary.funcs[self.binary.func_of[to_idx] as usize];
                    if callee.entry == to_idx {
                        let guid = callee.guid;
                        self.attribute_entry(&scratch.ctx, id, guid, weight, &mut scratch.path);
                    }
                    ctx_id = None;
                    // Before the call we were in the caller: its call-site
                    // frames (as many as the call expands to) pop off. A
                    // tail call's frame was synthesized by the inferrer, so
                    // it pops the same way.
                    match &self.cs_frames[from_idx] {
                        Some(frames) => {
                            let keep = scratch.ctx.len().saturating_sub(frames.len());
                            scratch.ctx.truncate(keep);
                        }
                        None => scratch.ctx.clear(),
                    }
                }
                MInstKind::Ret { .. } => {
                    ctx_id = None;
                    // Before the return we were inside the returning
                    // function; the call site that entered it pushes on. If
                    // the call site's static callee is not the returning
                    // function, tail calls elided frames in between —
                    // re-run the missing-frame inference.
                    let callsite = to_idx.checked_sub(1);
                    let call_target = callsite.and_then(|cs| match self.binary.insts[cs].kind {
                        MInstKind::Call { callee, .. } => Some((cs, callee)),
                        _ => None,
                    });
                    match call_target {
                        Some((cs, callee)) => {
                            if !self.push_cs(cs, &mut scratch.ctx) {
                                scratch.ctx.clear();
                            }
                            let src_func = self.binary.func_of[from_idx];
                            if callee != src_func {
                                match self.tail_path(callee, src_func) {
                                    Some(tail_insts) => {
                                        self.infer_stats.recovered +=
                                            tail_insts.len() as u64 * weight;
                                        for ti in tail_insts {
                                            if !self.push_cs(ti, &mut scratch.ctx) {
                                                scratch.ctx.clear();
                                                break;
                                            }
                                        }
                                    }
                                    None => {
                                        self.infer_stats.failed += weight;
                                        scratch.ctx.clear();
                                    }
                                }
                            }
                        }
                        None => {
                            // Return into the harness or unknown code.
                            scratch.ctx.clear();
                        }
                    }
                }
                _ => {}
            }
            window_end = from_idx;
        }
    }

    /// The correlation kernel. Returns the context profile of `samples`
    /// alone — what was counted *since the previous call* — while
    /// [`Unwinder::infer_stats`] and [`Unwinder::broken_stacks`] keep
    /// summing; counts, trie structure and diagnostics are exactly what a
    /// fresh unwinder gives for the same samples, whatever this one has
    /// seen before (`tests/proptest_kernel.rs`), and exactly what the
    /// per-sample reference in `tests/common/reference_unwind.rs` gives
    /// (`tests/unwind_differential.rs`).
    ///
    /// Identical samples are pre-aggregated so each distinct
    /// `(pc, lbr, stack)` shape is unwound **once** with its multiplicity
    /// as the hit weight; within the unwind every distinct attribution is
    /// assembled once per unwinder and replayed as counter increments
    /// thereafter (see `Memo`).
    pub fn unwind_batched(&mut self, samples: &[Sample]) -> ContextProfile {
        // Between calls the trie is drained and nothing is pending, so the
        // memos can be dropped without losing a count.
        if self.memo.len() > self.memo_limit {
            self.memo = Memo::default();
        }
        /// Dedup key borrowing a sample's content verbatim.
        type SampleKey<'a> = (u64, &'a [(u64, u64)], &'a [u64]);
        let mut index: FastMap<SampleKey<'_>, usize> =
            FastMap::with_capacity_and_hasher(samples.len(), Default::default());
        let mut uniques: Vec<(&Sample, u64)> = Vec::new();
        for s in samples {
            match index.entry((s.pc, s.lbr.as_slice(), s.stack.as_slice())) {
                Entry::Occupied(e) => uniques[*e.get()].1 += 1,
                Entry::Vacant(e) => {
                    e.insert(uniques.len());
                    uniques.push((s, 1));
                }
            }
        }
        // The scratch set steps out of `self` for the duration so the
        // borrow checker can see its buffers and `self`'s memo disjointly.
        let mut scratch = std::mem::take(&mut self.scratch);
        for &(s, w) in &uniques {
            self.unwind_sample(s, w, &mut scratch);
        }
        self.scratch = scratch;
        self.memo.flush();
        self.memo.trie.take_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::RangeCounts;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_sim::{Machine, SimConfig};

    /// The paper's Fig. 4 shape: a shared helper whose behaviour depends on
    /// the calling context.
    const SRC: &str = r#"
fn scalar_add(a, b) { return a + b; }
fn scalar_sub(a, b) { return a - b; }
fn scalar_op(a, b, is_add) {
    if (is_add == 1) { return scalar_add(a, b); }
    return scalar_sub(a, b);
}
fn add_vector_head(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = scalar_op(s, i, 1); i = i + 1; }
    return s;
}
fn sub_vector_head(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = scalar_op(s, i, 0); i = i + 1; }
    return s;
}
fn main(n) {
    let x = add_vector_head(n);
    let y = sub_vector_head(n);
    return x + y;
}
"#;

    /// A probed build of `src`, the samples of `main(arg)` on it, and the
    /// tail-call graph they give.
    fn sampled(src: &str, arg: i64) -> (Binary, Vec<Sample>, TailCallGraph) {
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::probes::run(&mut m);
        let b = lower_module(&m, &CodegenConfig::default());
        let cfg = SimConfig {
            sample_period: 41,
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&b, cfg);
        machine.call("main", &[arg]).unwrap();
        let samples = machine.take_samples();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        let graph = TailCallGraph::build(&b, &rc);
        (b, samples, graph)
    }

    fn profile_with_contexts(src: &str, arg: i64) -> (Binary, ContextProfile, InferStats) {
        let (b, samples, graph) = sampled(src, arg);
        let mut uw = Unwinder::new(&b, Some(graph));
        let profile = uw.unwind_batched(&samples);
        let stats = uw.infer_stats;
        (b, profile, stats)
    }

    /// Finds every subtree node with `guid`, noting whether `ancestor` was
    /// passed through on the way.
    fn subtree_total_under(
        node: &crate::context::ContextNode,
        target: u64,
        ancestor: u64,
        under: bool,
    ) -> u64 {
        let own = if node.guid == target && under {
            node.self_total()
        } else {
            0
        };
        own + node
            .children
            .values()
            .map(|c| subtree_total_under(c, target, ancestor, under || node.guid == ancestor))
            .sum::<u64>()
    }

    /// The binary's byte→instruction map must agree with a linear scan on
    /// every address — in-range, boundary, and garbage.
    #[test]
    fn addr_index_agrees_with_binary_search() {
        let (b, _, _) = profile_with_contexts(SRC, 500);
        let scan = |addr: u64| {
            (0..b.len()).find(|&i| b.addrs[i] <= addr && addr < b.addrs[i] + b.insts[i].size as u64)
        };
        let lo = b.addrs.first().copied().unwrap();
        let hi = b.addrs.last().copied().unwrap() + b.insts.last().unwrap().size as u64;
        for addr in lo.saturating_sub(8)..hi + 8 {
            assert_eq!(
                b.index_of_addr(addr),
                scan(addr),
                "disagreement at {addr:#x}"
            );
        }
        assert_eq!(b.index_of_addr(u64::MAX), None);
    }

    #[test]
    fn contexts_distinguish_callers_of_shared_helper() {
        let (b, profile, _) = profile_with_contexts(SRC, 3000);
        let guid = |n: &str| b.func_by_name(n).unwrap().guid;
        // scalar_op must appear under BOTH vector heads as distinct contexts
        // (somewhere below the main root).
        let op = guid("scalar_op");
        let via_add: u64 = profile
            .roots
            .values()
            .map(|r| subtree_total_under(r, op, guid("add_vector_head"), false))
            .sum();
        let via_sub: u64 = profile
            .roots
            .values()
            .map(|r| subtree_total_under(r, op, guid("sub_vector_head"), false))
            .sum();
        assert!(via_add > 0, "scalar_op context under add_vector_head");
        assert!(via_sub > 0, "scalar_op context under sub_vector_head");
    }

    #[test]
    fn context_profile_reflects_divergent_callees() {
        let (b, profile, _) = profile_with_contexts(SRC, 3000);
        let guid = |n: &str| b.func_by_name(n).unwrap().guid;
        // Under add_vector_head, scalar_add should dominate scalar_sub (and
        // vice versa) — the paper's Fig. 3b insight.
        let totals = |ancestor: &str, target: &str| -> u64 {
            profile
                .roots
                .values()
                .map(|r| subtree_total_under(r, guid(target), guid(ancestor), false))
                .sum()
        };
        let add_in_add = totals("add_vector_head", "scalar_add");
        let sub_in_add = totals("add_vector_head", "scalar_sub");
        let add_in_sub = totals("sub_vector_head", "scalar_add");
        let sub_in_sub = totals("sub_vector_head", "scalar_sub");
        assert!(add_in_add > sub_in_add, "{add_in_add} vs {sub_in_add}");
        assert!(sub_in_sub > add_in_sub, "{sub_in_sub} vs {add_in_sub}");
    }

    #[test]
    fn tail_call_frames_recovered() {
        let src = r#"
fn leaf(n) {
    let i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
fn mid(n) { return leaf(n); }
fn top(n) { let r = mid(n); return r; }
fn main(n) { return top(n); }
"#;
        let (b, profile, stats) = profile_with_contexts(src, 4000);
        assert!(
            stats.recovered > 0,
            "tail frames must be recovered: {stats:?}"
        );
        // leaf's hot loop must appear under a context mentioning mid.
        let guid = |n: &str| b.func_by_name(n).unwrap().guid;
        fn has_leaf_under_mid(
            node: &crate::context::ContextNode,
            mid: u64,
            leaf: u64,
            under_mid: bool,
        ) -> bool {
            if node.guid == leaf && under_mid && node.self_total() > 0 {
                return true;
            }
            node.children
                .values()
                .any(|c| has_leaf_under_mid(c, mid, leaf, under_mid || node.guid == mid))
        }
        let ok = profile
            .roots
            .values()
            .any(|r| has_leaf_under_mid(r, guid("mid"), guid("leaf"), false));
        assert!(ok, "leaf must be contextualized under mid despite TCE");
    }

    #[test]
    fn compress_cycles_collapses_repeats() {
        let f = |g: u64, p: u32| FrameKey { guid: g, probe: p };
        let mut p = vec![f(1, 2), f(1, 2), f(1, 2)];
        compress_cycles(&mut p);
        assert_eq!(p, vec![f(1, 2)]);
        let mut p = vec![f(1, 5), f(1, 7), f(1, 5), f(1, 7), f(2, 1)];
        compress_cycles(&mut p);
        assert_eq!(p, vec![f(1, 5), f(1, 7), f(2, 1)]);
        let mut p = vec![f(1, 5), f(2, 5), f(3, 5)];
        compress_cycles(&mut p);
        assert_eq!(p.len(), 3, "aperiodic paths untouched");
    }

    /// The memory bound (DESIGN.md §18): an unwinder whose memos start
    /// over every few entries — here at every call but the first — returns
    /// call by call what one that never forgets returns.
    #[test]
    fn crossing_the_memo_bound_mid_stream_changes_no_output() {
        let (b, samples, graph) = sampled(SRC, 3000);

        let mut keeps = Unwinder::new(&b, Some(graph.clone()));
        let mut forgets = Unwinder::new(&b, Some(graph));
        forgets.memo_limit = 5;
        for (k, chunk) in samples.chunks(samples.len().div_ceil(9)).enumerate() {
            // Every call but the first finds the memo over its bound.
            assert!(k == 0 || forgets.memo.len() > forgets.memo_limit);
            assert_eq!(forgets.unwind_batched(chunk), keeps.unwind_batched(chunk));
            assert_eq!(forgets.infer_stats, keeps.infer_stats);
            assert_eq!(forgets.broken_stacks, keeps.broken_stacks);
        }
        assert!(
            forgets.memo.len() < keeps.memo.len(),
            "a restarted memo holds what its last call taught it, not the stream"
        );
    }

    #[test]
    fn probeless_binary_produces_no_contexts() {
        let m = csspgo_lang::compile(SRC, "t").unwrap();
        let b = lower_module(&m, &CodegenConfig::default());
        let cfg = SimConfig {
            sample_period: 41,
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&b, cfg);
        machine.call("main", &[500]).unwrap();
        let samples = machine.take_samples();
        let profile = Unwinder::new(&b, None).unwind_batched(&samples);
        assert_eq!(profile.total(), 0, "no probes, no probe hits");
    }
}
