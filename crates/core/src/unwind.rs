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

use crate::context::{ContextId, ContextProfile, ContextTrieBuilder, FrameKey};
use crate::fasthash::FastMap;
use crate::tailcall::{InferStats, TailCallGraph};
use csspgo_codegen::minst::MInstKind;
use csspgo_codegen::Binary;
use csspgo_sim::Sample;
use std::collections::hash_map::Entry;

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

/// Where unwound attributions land. The sink receives each hit's context
/// path as a borrowed slice (valid only for the duration of the call) plus
/// the sample multiplicity `count`, so implementations that aggregate
/// (profile tries) never force a per-hit allocation.
pub trait HitSink {
    /// Probe `index` of `owner` executed `count` times under `path`.
    fn probe(&mut self, path: &[FrameKey], owner: u64, index: u32, count: u64);
    /// `count` calls entered `owner` under `path`.
    fn entry(&mut self, path: &[FrameKey], owner: u64, count: u64);
}

impl HitSink for ContextProfile {
    fn probe(&mut self, path: &[FrameKey], owner: u64, index: u32, count: u64) {
        self.add_probe_hit(path, owner, index, count);
    }
    fn entry(&mut self, path: &[FrameKey], owner: u64, count: u64) {
        self.add_entry(path, owner, count);
    }
}

impl HitSink for ContextTrieBuilder {
    fn probe(&mut self, path: &[FrameKey], owner: u64, index: u32, count: u64) {
        self.add_probe_hit(path, owner, index, count);
    }
    fn entry(&mut self, path: &[FrameKey], owner: u64, count: u64) {
        self.add_entry(path, owner, count);
    }
}

/// Attributes every probe anchored in `[begin, end]` with `ctx` expanded
/// by each probe's own inline stack, assembled in the reusable `path`
/// buffer.
#[allow(clippy::too_many_arguments)]
fn attribute_range(
    binary: &Binary,
    max_context_depth: usize,
    ctx: &[FrameKey],
    begin: usize,
    end: usize,
    weight: u64,
    path: &mut Vec<FrameKey>,
    sink: &mut impl HitSink,
) {
    if begin > end || binary.func_of[begin] != binary.func_of[end] {
        return;
    }
    for idx in begin..=end {
        for note in &binary.insts[idx].probes {
            path.clear();
            path.extend_from_slice(ctx);
            path.extend(note.inline_stack.iter().map(|s| FrameKey {
                guid: binary.funcs[s.func.index()].guid,
                probe: s.probe_index,
            }));
            compress_cycles(path);
            if path.len() > max_context_depth {
                path.drain(..path.len() - max_context_depth);
            }
            sink.probe(path, note.owner_guid, note.index, weight);
        }
    }
}

/// Builds the entry-hit context for `ctx` (compressed, depth-capped) into
/// `path`.
fn entry_context(max_context_depth: usize, ctx: &[FrameKey], path: &mut Vec<FrameKey>) {
    path.clear();
    path.extend_from_slice(ctx);
    compress_cycles(path);
    if path.len() > max_context_depth {
        path.drain(..path.len() - max_context_depth);
    }
}

/// How the unwind loop materializes attributions: either streamed through
/// a generic [`HitSink`] per hit, or replayed through the range-attribution
/// memo of the batched kernel. The two must stay observably identical —
/// `tests/proptest_kernel.rs` pins bit-identity of the resulting profiles.
trait Emit {
    /// Every probe in `[begin, end]` executed `weight` times under `ctx`.
    /// `ctx_gen` stamps the context's mutation generation within the
    /// current sample: equal stamps guarantee an unchanged `ctx`, letting
    /// memoizing emitters skip re-hashing it.
    #[allow(clippy::too_many_arguments)]
    fn range(
        &mut self,
        binary: &Binary,
        max_context_depth: usize,
        ctx: &[FrameKey],
        ctx_gen: u32,
        begin: usize,
        end: usize,
        weight: u64,
        path: &mut Vec<FrameKey>,
    );
    /// `weight` calls entered `owner` under `ctx`.
    fn entry(
        &mut self,
        max_context_depth: usize,
        ctx: &[FrameKey],
        ctx_gen: u32,
        owner: u64,
        weight: u64,
        path: &mut Vec<FrameKey>,
    );
}

/// The streaming emitter: assemble each hit's path and hand it straight to
/// the sink.
struct SinkEmit<'s, S: HitSink>(&'s mut S);

impl<S: HitSink> Emit for SinkEmit<'_, S> {
    fn range(
        &mut self,
        binary: &Binary,
        max_context_depth: usize,
        ctx: &[FrameKey],
        _ctx_gen: u32,
        begin: usize,
        end: usize,
        weight: u64,
        path: &mut Vec<FrameKey>,
    ) {
        attribute_range(
            binary,
            max_context_depth,
            ctx,
            begin,
            end,
            weight,
            path,
            self.0,
        );
    }

    fn entry(
        &mut self,
        max_context_depth: usize,
        ctx: &[FrameKey],
        _ctx_gen: u32,
        owner: u64,
        weight: u64,
        path: &mut Vec<FrameKey>,
    ) {
        entry_context(max_context_depth, ctx, path);
        self.0.entry(path, owner, weight);
    }
}

/// Memo of where attributions land in a paired [`ContextTrieBuilder`].
///
/// Whole-sample dedup collapses little on real streams — hot samples share
/// the *stack* but differ in LBR history — yet the `(context, LBR range)`
/// pairs inside them repeat massively. The cache interns each context
/// stack to a small id and keys range attributions on `(ctx, begin, end)`:
/// the first occurrence runs the full per-probe path assembly (cycle
/// compression, depth capping, trie interning) and records the landing
/// `(node, probe)` pairs; every repeat replays them as bare counter
/// increments. Entry hits memoize the same way per `(ctx, callee)`.
///
/// The recorded [`ContextId`]s are only meaningful for the builder they
/// were recorded against, so the cache lives and dies with one
/// [`CachedEmit`] batch.
#[derive(Default)]
struct AttributionCache {
    /// Context-stack interner: the running `ctx` → dense id.
    ctx_ids: FastMap<Vec<FrameKey>, u32>,
    /// `(ctx id, range begin, range end)` → recorded probe landings plus
    /// the weight of occurrences seen since recording. Repeats cost one
    /// hash probe and one add; the per-probe fan-out happens once per
    /// *distinct* range, in [`AttributionCache::flush`].
    ranges: FastMap<(u32, usize, usize), CachedRange>,
    /// `(ctx id, callee guid)` → interned entry node.
    entries: FastMap<(u32, u64), ContextId>,
}

/// One memoized range attribution.
#[derive(Default)]
struct CachedRange {
    /// Probe landings recorded on first occurrence (weight applied then).
    hits: Vec<(ContextId, u32)>,
    /// Accumulated weight of later occurrences, not yet fanned out.
    pending: u64,
}

impl AttributionCache {
    fn ctx_id(&mut self, ctx: &[FrameKey]) -> u32 {
        if let Some(&id) = self.ctx_ids.get(ctx) {
            return id;
        }
        let id = self.ctx_ids.len() as u32;
        self.ctx_ids.insert(ctx.to_vec(), id);
        id
    }

    /// Fans the deferred occurrence weights out to the builder's counters.
    /// Must run before the builder is read.
    fn flush(&mut self, builder: &mut ContextTrieBuilder) {
        for range in self.ranges.values_mut() {
            if range.pending > 0 {
                for &(node, probe) in &range.hits {
                    builder.add_probe_hit_at(node, probe, range.pending);
                }
                range.pending = 0;
            }
        }
    }
}

/// Sink that interns each hit into the builder *and* records where it
/// landed, so the attribution can be replayed without re-assembly.
struct RecordingSink<'a> {
    builder: &'a mut ContextTrieBuilder,
    hits: Vec<(ContextId, u32)>,
}

impl HitSink for RecordingSink<'_> {
    fn probe(&mut self, path: &[FrameKey], owner: u64, index: u32, count: u64) {
        let id = self.builder.intern(path, owner);
        self.builder.add_probe_hit_at(id, index, count);
        self.hits.push((id, index));
    }
    fn entry(&mut self, path: &[FrameKey], owner: u64, count: u64) {
        // Range attribution emits probe hits only; entries go through
        // `CachedEmit::entry` directly.
        let id = self.builder.intern(path, owner);
        self.builder.add_entry_at(id, count);
    }
}

/// The memoizing emitter behind [`Unwinder::unwind_batched`].
struct CachedEmit<'a> {
    builder: &'a mut ContextTrieBuilder,
    cache: &'a mut AttributionCache,
    /// `(ctx_gen, ctx id)` of the last interned context: consecutive
    /// ranges under an unchanged context (the common case — conditional
    /// branches inside one function) skip the interner entirely.
    last_ctx: Option<(u32, u32)>,
}

impl CachedEmit<'_> {
    fn ctx_id(&mut self, ctx: &[FrameKey], ctx_gen: u32) -> u32 {
        if let Some((gen, id)) = self.last_ctx {
            if gen == ctx_gen {
                return id;
            }
        }
        let id = self.cache.ctx_id(ctx);
        self.last_ctx = Some((ctx_gen, id));
        id
    }
}

impl Emit for CachedEmit<'_> {
    fn range(
        &mut self,
        binary: &Binary,
        max_context_depth: usize,
        ctx: &[FrameKey],
        ctx_gen: u32,
        begin: usize,
        end: usize,
        weight: u64,
        path: &mut Vec<FrameKey>,
    ) {
        let ctx_id = self.ctx_id(ctx, ctx_gen);
        match self.cache.ranges.entry((ctx_id, begin, end)) {
            Entry::Occupied(e) => e.into_mut().pending += weight,
            Entry::Vacant(slot) => {
                let mut rec = RecordingSink {
                    builder: self.builder,
                    hits: Vec::new(),
                };
                attribute_range(
                    binary,
                    max_context_depth,
                    ctx,
                    begin,
                    end,
                    weight,
                    path,
                    &mut rec,
                );
                slot.insert(CachedRange {
                    hits: rec.hits,
                    pending: 0,
                });
            }
        }
    }

    fn entry(
        &mut self,
        max_context_depth: usize,
        ctx: &[FrameKey],
        ctx_gen: u32,
        owner: u64,
        weight: u64,
        path: &mut Vec<FrameKey>,
    ) {
        let ctx_id = self.ctx_id(ctx, ctx_gen);
        let id = match self.cache.entries.entry((ctx_id, owner)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(slot) => {
                entry_context(max_context_depth, ctx, path);
                *slot.insert(self.builder.intern(path, owner))
            }
        };
        self.builder.add_entry_at(id, weight);
    }
}

/// Reusable per-sample working buffers. One allocation set lives for the
/// unwinder's whole lifetime instead of being rebuilt per sample/hit.
#[derive(Default)]
struct UnwindScratch {
    /// Physical call-site instruction indices from the sampled stack.
    callsites: Vec<usize>,
    /// The running context stack.
    ctx: Vec<FrameKey>,
    /// LBR entries resolved to instruction indices.
    resolved: Vec<(usize, usize)>,
    /// Per-hit path assembly buffer (ctx + inline frames, compressed).
    path: Vec<FrameKey>,
    /// Initial-context memo: `stack → pc → outcome`. LBR histories give
    /// samples high entropy, but their `(stack, pc)` projection repeats
    /// constantly, and the stack walk (address resolution, frame
    /// expansion, tail-call inference) depends on nothing else — so it
    /// runs once per distinct shape and replays as a `memcpy` plus
    /// weight-scaled diagnostic deltas.
    stack_ctx: FastMap<Vec<u64>, FastMap<u64, StackCtx>>,
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

/// Expands the call-site instruction at `idx` into context frames pushed
/// onto `out`: the call probe's inline stack plus the probe itself. Returns
/// `false` — pushing nothing — when the instruction carries no call probe
/// (probe-less builds).
fn push_callsite_frames(binary: &Binary, idx: usize, out: &mut Vec<FrameKey>) -> bool {
    let Some(note) = binary.insts[idx]
        .probes
        .iter()
        .rev()
        .find(|n| matches!(n.kind, csspgo_ir::ProbeKind::Call))
    else {
        return false;
    };
    out.extend(note.inline_stack.iter().map(|s| FrameKey {
        guid: binary.funcs[s.func.index()].guid,
        probe: s.probe_index,
    }));
    out.push(FrameKey {
        guid: note.owner_guid,
        probe: note.index,
    });
    true
}

/// Context reconstruction engine for one binary.
pub struct Unwinder<'b> {
    binary: &'b Binary,
    tail_graph: Option<&'b TailCallGraph>,
    /// Maximum context depth kept when attributing (deeper paths keep their
    /// innermost frames). Recursion would otherwise blow the trie up
    /// unboundedly — LLVM's CSSPGO caps context depth the same way.
    pub max_context_depth: usize,
    /// Tail-call frame recovery statistics.
    pub infer_stats: InferStats,
    /// Samples whose stack could not be interpreted at all.
    pub broken_stacks: u64,
    scratch: UnwindScratch,
    /// Per-instruction call-site frame expansion, precomputed once: the
    /// probe-note scan in [`push_callsite_frames`] runs per *instruction*
    /// instead of per branch per sample. `None` marks instructions without
    /// a call probe.
    cs_frames: Vec<Option<Box<[FrameKey]>>>,
}

impl<'b> Unwinder<'b> {
    /// Creates an unwinder; pass a tail-call graph to enable missing-frame
    /// inference.
    pub fn new(binary: &'b Binary, tail_graph: Option<&'b TailCallGraph>) -> Self {
        let cs_frames = (0..binary.insts.len())
            .map(|i| {
                let mut frames = Vec::new();
                push_callsite_frames(binary, i, &mut frames).then(|| frames.into_boxed_slice())
            })
            .collect();
        Unwinder {
            binary,
            tail_graph,
            max_context_depth: 8,
            infer_stats: InferStats::default(),
            broken_stacks: 0,
            scratch: UnwindScratch::default(),
            cs_frames,
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

    /// Converts the sampled stack into an initial context (outer→inner
    /// call-site frames) in `scratch.ctx`, memoized per `(stack, pc)` —
    /// see [`UnwindScratch::stack_ctx`]. Returns `false` when the stack is
    /// uninterpretable, scaling diagnostic counters by `weight`.
    fn initial_context_into(
        &mut self,
        sample: &Sample,
        weight: u64,
        scratch: &mut UnwindScratch,
    ) -> bool {
        scratch.ctx.clear();
        if let Some(memo) = scratch
            .stack_ctx
            .get(sample.stack.as_slice())
            .and_then(|per_pc| per_pc.get(&sample.pc))
        {
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
        scratch
            .stack_ctx
            .entry(sample.stack.clone())
            .or_default()
            .insert(sample.pc, memo);
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
        ctx.clear();
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
                let path = self
                    .tail_graph
                    .and_then(|g| g.unique_path(callee, next_func));
                match path {
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

    /// Unwinds one sample observed `weight` times, streaming every hit into
    /// `sink` with multiplicity `weight`. All diagnostic counters scale by
    /// `weight`, so unwinding a deduplicated `(sample, count)` batch leaves
    /// the unwinder in exactly the state `count` repeats would have.
    pub fn unwind_each(&mut self, sample: &Sample, weight: u64, sink: &mut impl HitSink) {
        // The scratch set steps out of `self` for the duration so the
        // borrow checker can see its buffers and `&self` lookups disjointly.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.unwind_with_scratch(sample, weight, &mut SinkEmit(sink), &mut scratch);
        self.scratch = scratch;
    }

    fn unwind_with_scratch(
        &mut self,
        sample: &Sample,
        weight: u64,
        emit: &mut impl Emit,
        scratch: &mut UnwindScratch,
    ) {
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
        // Bumped whenever `scratch.ctx` is (possibly) mutated, so memoizing
        // emitters re-hash the context only when it could have changed.
        let mut ctx_gen: u32 = 0;
        for i in (0..scratch.resolved.len()).rev() {
            let (from_idx, to_idx) = scratch.resolved[i];
            // Attribute the linear range executed after this branch.
            emit.range(
                self.binary,
                self.max_context_depth,
                &scratch.ctx,
                ctx_gen,
                to_idx,
                window_end,
                weight,
                &mut scratch.path,
            );
            // Entry hit for calls (the callee runs under the current ctx).
            match self.binary.insts[from_idx].kind {
                MInstKind::Call { .. } | MInstKind::TailCall { .. } => {
                    let callee_fidx = self.binary.func_of[to_idx];
                    if self.binary.funcs[callee_fidx as usize].entry == to_idx {
                        emit.entry(
                            self.max_context_depth,
                            &scratch.ctx,
                            ctx_gen,
                            self.binary.funcs[callee_fidx as usize].guid,
                            weight,
                            &mut scratch.path,
                        );
                    }
                }
                _ => {}
            }
            // Step backwards over the branch, adjusting the context.
            match self.binary.insts[from_idx].kind {
                MInstKind::Call { .. } | MInstKind::TailCall { .. } => {
                    ctx_gen += 1;
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
                    ctx_gen += 1;
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
                                match self
                                    .tail_graph
                                    .and_then(|g| g.unique_path(callee, src_func))
                                {
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

    /// Unwinds a batch of samples one by one straight into a context
    /// profile — the sequential reference that tests and benches compare
    /// [`Unwinder::unwind_batched`] against; production callers use the
    /// batched kernel.
    pub fn unwind_into(&mut self, samples: &[Sample], profile: &mut ContextProfile) {
        for s in samples {
            self.unwind_each(s, 1, profile);
        }
    }

    /// The fast correlation path: pre-aggregates identical samples so each
    /// distinct `(pc, lbr, stack)` shape is unwound **once** with its
    /// multiplicity as the hit weight, then memoizes *within* the unwind —
    /// real streams rarely repeat whole samples (hot code shares the stack
    /// but varies the LBR history), yet the `(context, LBR range)` pairs
    /// inside them repeat constantly, so each distinct attribution is
    /// assembled once and replayed as counter increments thereafter (see
    /// `AttributionCache`). Hits land in a hash-consed
    /// [`ContextTrieBuilder`]. The result — counts, structure, and the
    /// unwinder's diagnostic counters — is bit-identical to
    /// [`Unwinder::unwind_into`] over the same stream (see
    /// `tests/proptest_kernel.rs`).
    pub fn unwind_batched(&mut self, samples: &[Sample]) -> ContextProfile {
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
        let mut builder = ContextTrieBuilder::new();
        let mut cache = AttributionCache::default();
        let mut scratch = std::mem::take(&mut self.scratch);
        for &(s, w) in &uniques {
            let mut emit = CachedEmit {
                builder: &mut builder,
                cache: &mut cache,
                last_ctx: None,
            };
            self.unwind_with_scratch(s, w, &mut emit, &mut scratch);
        }
        self.scratch = scratch;
        cache.flush(&mut builder);
        builder.into_profile()
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

    fn profile_with_contexts(src: &str, arg: i64) -> (Binary, ContextProfile, InferStats) {
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
        let mut profile = ContextProfile::new();
        let mut uw = Unwinder::new(&b, Some(&graph));
        uw.unwind_into(&samples, &mut profile);
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

    #[test]
    fn batched_unwind_matches_sequential() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::probes::run(&mut m);
        let b = lower_module(&m, &CodegenConfig::default());
        let mut machine = Machine::new(
            &b,
            SimConfig {
                sample_period: 41,
                ..SimConfig::default()
            },
        );
        machine.call("main", &[3000]).unwrap();
        let samples = machine.take_samples();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        let graph = TailCallGraph::build(&b, &rc);

        let mut seq = ContextProfile::new();
        let mut uw_seq = Unwinder::new(&b, Some(&graph));
        uw_seq.unwind_into(&samples, &mut seq);

        let mut uw_fast = Unwinder::new(&b, Some(&graph));
        let fast = uw_fast.unwind_batched(&samples);

        assert_eq!(fast, seq);
        assert_eq!(uw_fast.infer_stats.recovered, uw_seq.infer_stats.recovered);
        assert_eq!(uw_fast.infer_stats.failed, uw_seq.infer_stats.failed);
        assert_eq!(uw_fast.broken_stacks, uw_seq.broken_stacks);
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
        let mut profile = ContextProfile::new();
        let mut uw = Unwinder::new(&b, None);
        uw.unwind_into(&samples, &mut profile);
        assert_eq!(profile.total(), 0, "no probes, no probe hits");
    }
}
