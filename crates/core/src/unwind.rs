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
//! the calls before it (DESIGN.md §7.3). The per-sample, memo-free form of
//! the algorithm lives outside this crate, in
//! `tests/common/reference_unwind.rs`, as the oracle the differential tests
//! hold this kernel to.

use crate::context::{ContextArena, ContextId, ContextProfile, FrameKey};
use crate::fasthash::{FastMap, Lanes};
use crate::tailcall::{InferStats, TailCallGraph};
use csspgo_codegen::minst::MInstKind;
use csspgo_codegen::Binary;
use csspgo_ir::probe::{ProbeKind, ProbeSite};
use csspgo_sim::Sample;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{Hash, Hasher};

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

/// Memo entries plus dead arena nodes (see [`Memo::garbage`]) an unwinder
/// may carry into a call. One that holds more rebuilds its arena from the
/// live profile and starts over with empty memos: the unwinder's memory is
/// O(instructions) plus its live profile plus this many entries plus what
/// one call's own samples add, however many calls it lives through. A
/// ≈5 k-sample batch of the benchmark's heaviest program memoizes ≈10 400
/// entries, the other four under 800 each.
const MEMO_LIMIT: usize = 1 << 16;

/// Slots of each direct-mapped [`Front`].
const FRONT_SLOTS: usize = 1 << 12;

/// Brings an assembled context path to the shape every trie path has:
/// cycle-compressed and capped to its innermost [`MAX_CONTEXT_DEPTH`]
/// frames.
fn canonicalize(path: &mut Vec<FrameKey>) {
    compress_cycles(path);
    if path.len() > MAX_CONTEXT_DEPTH {
        path.drain(..path.len() - MAX_CONTEXT_DEPTH);
    }
}

/// A running context stack as an id into [`Memo::ctxs`]; [`EMPTY_CTX`] is
/// the empty stack.
type CtxId = u32;
const EMPTY_CTX: CtxId = 0;

/// One running context: its innermost frame on top of `parent`.
struct CtxNode {
    parent: CtxId,
    frame: FrameKey,
}

/// A direct-mapped cache in front of a memo keyed by a context and two
/// instruction indices: a recently seen key's value sits in the slot the key
/// hashes to, so a repeat costs one multiply chain and one load instead of a
/// hash-map probe. A miss (an empty slot, or another key in it) goes to the
/// map behind and takes the slot over.
struct Front<V: Copy> {
    slots: Box<[Option<(FrontKey, V)>]>,
}

/// A context and two instruction indices.
type FrontKey = (CtxId, u32, u32);

impl<V: Copy> Front<V> {
    fn new() -> Self {
        Front {
            slots: vec![None; FRONT_SLOTS].into_boxed_slice(),
        }
    }

    fn slot(key: FrontKey) -> usize {
        ((u64::from(key.0).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ u64::from(key.1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ u64::from(key.2))
        .wrapping_mul(0x1656_67b1_9e37_79f9)
            >> (64 - FRONT_SLOTS.trailing_zeros())) as usize
    }

    fn get(&self, key: FrontKey) -> Option<V> {
        match self.slots[Self::slot(key)] {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    fn put(&mut self, key: FrontKey, value: V) {
        self.slots[Self::slot(key)] = Some((key, value));
    }
}

/// What an [`Unwinder`] has learned so far, plus the arena it counts into.
///
/// Whole-sample dedup leaves 28–70 % of a ≈5 k-sample batch standing — hot
/// samples share the *stack* but differ in LBR history — and the
/// `(context, LBR range)` pairs inside the survivors repeat massively. So
/// the running context stack is an id in a trie of push/pop transitions
/// (neither direction re-hashes the stack), and each LBR entry is two memo
/// lookups: the range executed after the branch, keyed `(ctx, begin, end)`,
/// and — for a call or a return only — the step back over the branch, keyed
/// `(ctx, from, to)`. A range's first sight records where each of its
/// probes lands (memoized per probe *site* under the context; a site's
/// first sight runs the path assembly — cycle compression, depth capping,
/// arena interning); every later sight is one add to its pending weight.
/// Entry nodes memoize per `(ctx, callee)`, initial contexts per
/// `(stack, pc)`, tail-call chains per `(callee, function)`.
///
/// Every map is a pure function of `(binary, tail-call graph)` — no entry
/// depends on which samples came before — so the memo outlives a call, and
/// the recorded [`ContextId`]s and counter slots stay meaningful because
/// the arena they index is drained or evicted, never rebuilt, for as long
/// as the memo lives. The `(stack, pc)` and dedup keys are raw addresses
/// from outside (they arrive through
/// [`crate::stream::StreamAggregator::push_batch`]) hashed with
/// [`crate::fasthash`]: hardening that is ROADMAP item 6.
struct Memo {
    /// Initial-context memo, keyed by the sampled stack with the pc
    /// appended. LBR histories give samples high entropy, but their
    /// `(stack, pc)` projection repeats constantly, and the stack walk
    /// (address resolution, frame expansion, tail-call inference) depends
    /// on nothing else — so it runs once per distinct shape and replays as
    /// a context id plus weight-scaled diagnostic deltas.
    stack_ctx: FastMap<Vec<u64>, StackCtx>,
    /// The running-context trie: `ctxs[id]` is context `id`, `ctx_push` the
    /// transition that pushes a frame onto one; a pop walks parents.
    ctxs: Vec<CtxNode>,
    ctx_push: FastMap<(CtxId, FrameKey), CtxId>,
    /// `(ctx, range begin, range end)` → index into `ranges`.
    range_ids: FastMap<FrontKey, u32>,
    range_front: Front<u32>,
    /// Where each probe anchored in a range lands: `(node, its counter slot
    /// there, weight slot)`.
    ranges: Vec<Box<[(ContextId, u32, u32)]>>,
    /// Each range's weight since the last flush: the per-probe fan-out
    /// happens once per *distinct* range per call.
    pending: Vec<u64>,
    /// Ranges with pending weight: what [`Unwinder::flush`] visits, so a
    /// call pays for the ranges it touched, not for all it remembers.
    dirty: Vec<u32>,
    /// `(ctx, probe site)` → the node a probe of that site lands on.
    site_nodes: FastMap<(CtxId, u32), ContextId>,
    /// `(ctx, call or return instruction, its target)` → the step back over
    /// that branch.
    steps: FastMap<FrontKey, Step>,
    step_front: Front<Step>,
    /// `(ctx, callee guid)` → the node a call entering the callee lands on.
    entries: FastMap<(CtxId, u64), ContextId>,
    /// `(callee, function)` → the unique tail-call chain between them.
    tail_paths: FastMap<(u32, u32), Option<Box<[usize]>>>,
    arena: ContextArena,
}

/// What stepping backwards over one call or return does: the next running
/// context, and — per occurrence — the entry a call counts and what the
/// missing-frame inference made of a tail-call gap.
#[derive(Clone, Copy)]
struct Step {
    next: CtxId,
    /// The node a call into a function's first instruction enters, or
    /// [`NO_ENTRY`].
    entry: ContextId,
    /// Frames recovered over tail calls.
    recovered: u32,
    /// A tail-call gap that could not be bridged.
    failed: bool,
}

const NO_ENTRY: ContextId = ContextId::MAX;

/// Memoized outcome of one `(stack, pc)` initial-context reconstruction.
/// Diagnostic counters are stored per occurrence and scale by the
/// sample's weight on replay.
struct StackCtx {
    ok: bool,
    ctx: CtxId,
    recovered: u64,
    failed: u64,
    broken: u64,
}

impl Memo {
    fn new(arena: ContextArena) -> Self {
        Memo {
            stack_ctx: FastMap::default(),
            ctxs: vec![CtxNode {
                parent: EMPTY_CTX,
                frame: FrameKey { guid: 0, probe: 0 },
            }],
            ctx_push: FastMap::default(),
            range_ids: FastMap::default(),
            range_front: Front::new(),
            ranges: Vec::new(),
            pending: Vec::new(),
            dirty: Vec::new(),
            site_nodes: FastMap::default(),
            steps: FastMap::default(),
            step_front: Front::new(),
            entries: FastMap::default(),
            tail_paths: FastMap::default(),
            arena,
        }
    }

    /// Entries held across calls: every map plus the arena.
    fn len(&self) -> usize {
        self.stack_ctx.len()
            + self.ctxs.len()
            + self.ranges.len()
            + self.site_nodes.len()
            + self.steps.len()
            + self.entries.len()
            + self.tail_paths.len()
            + self.arena.node_count()
    }

    /// What [`MEMO_LIMIT`] bounds: every entry but the arena's live nodes,
    /// which are the profile the arena holds, not memo.
    fn garbage(&self) -> usize {
        self.len() - self.arena.live()
    }

    /// `ctx` with `frame` pushed on.
    fn push(&mut self, ctx: CtxId, frame: FrameKey) -> CtxId {
        let next = self.ctxs.len() as CtxId;
        match self.ctx_push.entry((ctx, frame)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(next);
                self.ctxs.push(CtxNode { parent: ctx, frame });
                next
            }
        }
    }

    /// `ctx` with its `n` innermost frames popped (all of them, if fewer).
    fn pop(&self, mut ctx: CtxId, n: usize) -> CtxId {
        for _ in 0..n {
            if ctx == EMPTY_CTX {
                break;
            }
            ctx = self.ctxs[ctx as usize].parent;
        }
        ctx
    }

    /// Writes the frames of `ctx`, outermost first, into `out`.
    fn frames(&self, mut ctx: CtxId, out: &mut Vec<FrameKey>) {
        out.clear();
        while ctx != EMPTY_CTX {
            out.push(self.ctxs[ctx as usize].frame);
            ctx = self.ctxs[ctx as usize].parent;
        }
        out.reverse();
    }
}

/// How stepping backwards over a branch from an instruction can change the
/// running context.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Branch {
    /// A call or tail call: frames pop.
    Call,
    /// A return: the call site pushes.
    Ret,
    /// Anything else: the context stays.
    Other,
}

/// A probe note as dense indices: the *site* it lands through — notes with
/// the same inline stack and owner share one, so a context's landings are
/// memoized per site, not per note — its probe, and the `(owner, probe)`
/// weight slot it counts toward.
#[derive(Clone, Copy)]
struct Note {
    site: u32,
    probe: u32,
    slot: u32,
}

/// The binary's instructions as the walk reads them, built once per
/// unwinder so no branch, call site or probe note is decoded per sample.
struct InstTable {
    /// The context frames each call site stands for — its call probe's
    /// inline stack plus the probe itself — or `None` without a call probe
    /// (probe-less builds).
    cs_frames: Vec<Option<Box<[FrameKey]>>>,
    kinds: Vec<Branch>,
    /// The notes of instruction `i` are `notes[note_start[i]..note_start[i + 1]]`.
    note_start: Vec<u32>,
    notes: Vec<Note>,
    /// Site → (inline frames, owner guid).
    sites: Vec<(Box<[FrameKey]>, u64)>,
    /// Weight slot → `(owner guid, probe)`.
    slots: Vec<(u64, u32)>,
}

impl InstTable {
    fn new(binary: &Binary) -> Self {
        let frame = |s: &ProbeSite| FrameKey {
            guid: binary.funcs[s.func.index()].guid,
            probe: s.probe_index,
        };
        let mut table = InstTable {
            cs_frames: Vec::with_capacity(binary.len()),
            kinds: Vec::with_capacity(binary.len()),
            note_start: Vec::with_capacity(binary.len() + 1),
            notes: Vec::new(),
            sites: Vec::new(),
            slots: Vec::new(),
        };
        let mut owner_sites: FastMap<u64, Vec<u32>> = FastMap::default();
        let mut slot_ids: FastMap<(u64, u32), u32> = FastMap::default();
        let mut inline = Vec::new();
        for inst in &binary.insts {
            let call_note = inst.probes.iter().rfind(|n| n.kind == ProbeKind::Call);
            table.cs_frames.push(call_note.map(|note| {
                let own = FrameKey {
                    guid: note.owner_guid,
                    probe: note.index,
                };
                note.inline_stack.iter().map(frame).chain([own]).collect()
            }));
            table.kinds.push(match inst.kind {
                MInstKind::Call { .. } | MInstKind::TailCall { .. } => Branch::Call,
                MInstKind::Ret { .. } => Branch::Ret,
                _ => Branch::Other,
            });
            table.note_start.push(table.notes.len() as u32);
            for note in &inst.probes {
                inline.clear();
                inline.extend(note.inline_stack.iter().map(frame));
                let known = owner_sites.entry(note.owner_guid).or_default();
                let site = match known
                    .iter()
                    .find(|&&s| *table.sites[s as usize].0 == inline[..])
                {
                    Some(&site) => site,
                    None => {
                        let site = table.sites.len() as u32;
                        table
                            .sites
                            .push((inline.as_slice().into(), note.owner_guid));
                        known.push(site);
                        site
                    }
                };
                let next = table.slots.len() as u32;
                let slot = *slot_ids
                    .entry((note.owner_guid, note.index))
                    .or_insert_with(|| {
                        table.slots.push((note.owner_guid, note.index));
                        next
                    });
                table.notes.push(Note {
                    site,
                    probe: note.index,
                    slot,
                });
            }
        }
        table.note_start.push(table.notes.len() as u32);
        table
    }
}

/// Reusable per-sample working buffers.
#[derive(Default)]
struct UnwindScratch {
    /// Physical call-site instruction indices from the sampled stack.
    callsites: Vec<usize>,
    /// LBR entries resolved to instruction indices (which the binary's
    /// address index keeps below `u32::MAX`).
    resolved: Vec<(u32, u32)>,
    /// Path assembly buffer (context + inline frames, canonicalized).
    path: Vec<FrameKey>,
    /// [`Memo::stack_ctx`] lookup key assembly buffer.
    stack_key: Vec<u64>,
    /// A memoized tail-call chain, copied out of [`Memo::tail_paths`].
    tail: Vec<usize>,
}

/// A whole sample as a dedup key: compared by content, hashed in four
/// lanes (one multiply chain per lane instead of one over every word).
struct SampleKey<'a>(&'a Sample);

impl PartialEq for SampleKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        a.pc == b.pc && a.lbr == b.lbr && a.stack == b.stack
    }
}

impl Eq for SampleKey<'_> {}

impl Hash for SampleKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let s = self.0;
        let mut lanes = Lanes::default();
        lanes.block([s.pc, s.lbr.len() as u64, s.stack.len() as u64, 0]);
        lanes.pairs(&s.lbr);
        lanes.words(&s.stack);
        state.write_u64(lanes.finish());
    }
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
    insts: InstTable,
    memo: Memo,
    /// Probe weight attributed by the current call, per weight slot, and
    /// the slots it reached ([`Unwinder::call_weights`]).
    weights: Vec<u64>,
    weighted: Vec<u32>,
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
            .field("live_contexts", &self.memo.arena.live())
            .finish_non_exhaustive()
    }
}

impl<'b> Unwinder<'b> {
    /// Creates an unwinder; pass a tail-call graph to enable missing-frame
    /// inference.
    pub fn new(binary: &'b Binary, tail_graph: Option<TailCallGraph>) -> Self {
        let insts = InstTable::new(binary);
        Unwinder {
            binary,
            tail_graph,
            infer_stats: InferStats::default(),
            broken_stacks: 0,
            weights: vec![0; insts.slots.len()],
            weighted: Vec::new(),
            insts,
            memo: Memo::new(ContextArena::default()),
            memo_limit: MEMO_LIMIT,
            scratch: UnwindScratch::default(),
        }
    }

    /// `ctx` with the call-site frames of `idx` pushed on; `None` when the
    /// instruction carries no call probe (probe-less builds).
    fn push_cs(&mut self, ctx: CtxId, idx: usize) -> Option<CtxId> {
        let frames = self.insts.cs_frames[idx].as_deref()?;
        Some(frames.iter().fold(ctx, |c, &f| self.memo.push(c, f)))
    }

    /// Copies the unique tail-call chain `from → … → to` into `tail`, if
    /// inference is on and finds one; memoized per `(from, to)`.
    fn tail_path(&mut self, from: u32, to: u32, tail: &mut Vec<usize>) -> bool {
        let graph = &self.tail_graph;
        let path = self.memo.tail_paths.entry((from, to)).or_insert_with(|| {
            graph
                .as_ref()?
                .unique_path(from, to)
                .map(Vec::into_boxed_slice)
        });
        tail.clear();
        tail.extend_from_slice(path.as_deref().unwrap_or_default());
        path.is_some()
    }

    /// Converts the sampled stack into an initial context (outer→inner
    /// call-site frames), memoized per `(stack, pc)` — see
    /// [`Memo::stack_ctx`]. `None` when the stack is uninterpretable,
    /// scaling diagnostic counters by `weight`.
    fn initial_context(
        &mut self,
        sample: &Sample,
        weight: u64,
        scratch: &mut UnwindScratch,
    ) -> Option<CtxId> {
        scratch.stack_key.clear();
        scratch.stack_key.extend_from_slice(&sample.stack);
        scratch.stack_key.push(sample.pc);
        if let Some(memo) = self.memo.stack_ctx.get(scratch.stack_key.as_slice()) {
            self.infer_stats.recovered += memo.recovered * weight;
            self.infer_stats.failed += memo.failed * weight;
            self.broken_stacks += memo.broken * weight;
            return memo.ok.then_some(memo.ctx);
        }
        // Every diagnostic increment below is a multiple of `weight`, so
        // the per-occurrence deltas divide back out exactly.
        let before = (
            self.infer_stats.recovered,
            self.infer_stats.failed,
            self.broken_stacks,
        );
        let ctx = self.initial_context_uncached(sample, weight, scratch);
        let memo = StackCtx {
            ok: ctx.is_some(),
            ctx: ctx.unwrap_or(EMPTY_CTX),
            recovered: (self.infer_stats.recovered - before.0) / weight,
            failed: (self.infer_stats.failed - before.1) / weight,
            broken: (self.broken_stacks - before.2) / weight,
        };
        self.memo.stack_ctx.insert(scratch.stack_key.clone(), memo);
        ctx
    }

    /// The memo-miss path of [`Unwinder::initial_context`]: the actual
    /// stack walk with missing-frame inference across tail-call gaps.
    fn initial_context_uncached(
        &mut self,
        sample: &Sample,
        weight: u64,
        scratch: &mut UnwindScratch,
    ) -> Option<CtxId> {
        let callsites = &mut scratch.callsites;
        callsites.clear();
        // Physical call sites, outermost first.
        for &ret_addr in sample.stack.iter().skip(1).rev() {
            let ret_idx = self.binary.index_of_addr(ret_addr)?;
            if ret_idx == 0 {
                return None;
            }
            let call_idx = ret_idx - 1;
            if !matches!(self.binary.insts[call_idx].kind, MInstKind::Call { .. }) {
                self.broken_stacks += weight;
                return None;
            }
            callsites.push(call_idx);
        }

        let leaf_idx = self.binary.index_of_addr(sample.pc)?;
        let mut ctx = EMPTY_CTX;
        for k in 0..scratch.callsites.len() {
            let cs = scratch.callsites[k];
            let MInstKind::Call { callee, .. } = self.binary.insts[cs].kind else {
                unreachable!("validated above")
            };
            // The function the *next* frame actually executes in.
            let next_func = match scratch.callsites.get(k + 1) {
                Some(&next_cs) => self.binary.func_of[next_cs],
                None => self.binary.func_of[leaf_idx],
            };
            // Probe-less build: no context reconstruction.
            ctx = self.push_cs(ctx, cs)?;
            if callee != next_func {
                // Frames are missing between `callee` and `next_func`:
                // tail-call elimination. Try to infer the unique chain.
                if self.tail_path(callee, next_func, &mut scratch.tail) {
                    self.infer_stats.recovered += scratch.tail.len() as u64 * weight;
                    for &ti in &scratch.tail {
                        ctx = self.push_cs(ctx, ti)?;
                    }
                } else {
                    self.infer_stats.failed += weight;
                    // Context is only trustworthy from here inward.
                    ctx = EMPTY_CTX;
                }
            }
        }
        Some(ctx)
    }

    /// The range every probe anchored in `[begin, end]` is counted through
    /// under `ctx`. Its first sight looks up where each probe lands — the
    /// frames of `ctx` expanded by the probe's own inline stack, memoized
    /// per probe site — and records the landings; every sight after is a
    /// memo hit.
    fn range(&mut self, ctx: CtxId, begin: u32, end: u32, path: &mut Vec<FrameKey>) -> u32 {
        let key = (ctx, begin, end);
        if let Some(range) = self.memo.range_front.get(key) {
            return range;
        }
        let range = match self.memo.range_ids.get(&key) {
            Some(&range) => range,
            None => {
                let hits = self.range_hits(ctx, begin as usize, end as usize, path);
                let range = self.memo.ranges.len() as u32;
                self.memo.ranges.push(hits);
                self.memo.pending.push(0);
                self.memo.range_ids.insert(key, range);
                range
            }
        };
        self.memo.range_front.put(key, range);
        range
    }

    /// Where every probe anchored in `[begin, end]` lands under `ctx`.
    fn range_hits(
        &mut self,
        ctx: CtxId,
        begin: usize,
        end: usize,
        path: &mut Vec<FrameKey>,
    ) -> Box<[(ContextId, u32, u32)]> {
        let mut hits = Vec::new();
        if begin <= end && self.binary.func_of[begin] == self.binary.func_of[end] {
            for inst in begin..=end {
                for k in self.insts.note_start[inst]..self.insts.note_start[inst + 1] {
                    let note = self.insts.notes[k as usize];
                    let node = self.site_node(ctx, note.site, path);
                    let counter = self.memo.arena.probe_slot(node, note.probe);
                    hits.push((node, counter, note.slot));
                }
            }
        }
        hits.into_boxed_slice()
    }

    /// The node a probe of `site` lands on under `ctx`: the frames of `ctx`
    /// expanded by the site's inline stack, canonicalized, interned.
    fn site_node(&mut self, ctx: CtxId, site: u32, path: &mut Vec<FrameKey>) -> ContextId {
        if let Some(&node) = self.memo.site_nodes.get(&(ctx, site)) {
            return node;
        }
        let (inline, owner) = &self.insts.sites[site as usize];
        self.memo.frames(ctx, path);
        path.extend_from_slice(inline);
        canonicalize(path);
        let node = self.memo.arena.intern(path, *owner);
        self.memo.site_nodes.insert((ctx, site), node);
        node
    }

    /// The node a call entering `owner` under `ctx` lands on.
    fn entry_node(&mut self, ctx: CtxId, owner: u64, path: &mut Vec<FrameKey>) -> ContextId {
        if let Some(&node) = self.memo.entries.get(&(ctx, owner)) {
            return node;
        }
        self.memo.frames(ctx, path);
        canonicalize(path);
        let node = self.memo.arena.intern(path, owner);
        self.memo.entries.insert((ctx, owner), node);
        node
    }

    /// Unwinds one sample observed `weight` times into the memo's arena.
    /// All diagnostic counters scale by `weight`, so unwinding a
    /// deduplicated `(sample, count)` batch leaves the unwinder in exactly
    /// the state `count` repeats would have.
    fn unwind_sample(&mut self, sample: &Sample, weight: u64, scratch: &mut UnwindScratch) {
        let Some(mut ctx) = self.initial_context(sample, weight, scratch) else {
            return;
        };
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
                scratch.resolved.push((f as u32, t as u32));
            }
        }

        let mut window_end = pc_idx as u32;
        for i in (0..scratch.resolved.len()).rev() {
            let (from, to) = scratch.resolved[i];
            // Every probe in the linear range executed after this branch.
            let range = self.range(ctx, to, window_end, &mut scratch.path);
            let pending = &mut self.memo.pending[range as usize];
            if *pending == 0 {
                self.memo.dirty.push(range);
            }
            *pending += weight;
            // Step backwards over the branch, adjusting the context. Most
            // branches are neither calls nor returns and leave it as it is,
            // which the walk sees without waiting on a memo.
            if self.insts.kinds[from as usize] != Branch::Other {
                let step = self.step(ctx, from, to, scratch);
                if step.entry != NO_ENTRY {
                    self.memo.arena.add_entry_at(step.entry, weight);
                }
                self.infer_stats.recovered += u64::from(step.recovered) * weight;
                self.infer_stats.failed += u64::from(step.failed) * weight;
                ctx = step.next;
            }
            window_end = from;
        }
    }

    /// What stepping backwards over the call or return `from → to` does
    /// under `ctx`, memoized per `(ctx, from, to)` — see [`Memo::steps`].
    fn step(&mut self, ctx: CtxId, from: u32, to: u32, scratch: &mut UnwindScratch) -> Step {
        let key = (ctx, from, to);
        if let Some(step) = self.memo.step_front.get(key) {
            return step;
        }
        if let Some(&step) = self.memo.steps.get(&key) {
            self.memo.step_front.put(key, step);
            return step;
        }
        let (from, to) = (from as usize, to as usize);
        let mut step = Step {
            next: EMPTY_CTX,
            entry: NO_ENTRY,
            recovered: 0,
            failed: false,
        };
        if self.insts.kinds[from] == Branch::Call {
            // Entry hit: the callee runs under the current ctx.
            let callee = &self.binary.funcs[self.binary.func_of[to] as usize];
            if callee.entry == to {
                step.entry = self.entry_node(ctx, callee.guid, &mut scratch.path);
            }
            // Before the call we were in the caller: its call-site frames
            // (as many as the call expands to) pop off. A tail call's frame
            // was synthesized by the inferrer, so it pops the same way.
            if let Some(frames) = &self.insts.cs_frames[from] {
                step.next = self.memo.pop(ctx, frames.len());
            }
        } else {
            // Before the return we were inside the returning function; the
            // call site that entered it pushes on. If the call site's static
            // callee is not the returning function, tail calls elided frames
            // in between — re-run the missing-frame inference. A return
            // into the harness or unknown code leaves no context.
            let call_target = to
                .checked_sub(1)
                .and_then(|cs| match self.binary.insts[cs].kind {
                    MInstKind::Call { callee, .. } => Some((cs, callee)),
                    _ => None,
                });
            if let Some((cs, callee)) = call_target {
                step.next = self.push_cs(ctx, cs).unwrap_or(EMPTY_CTX);
                let src_func = self.binary.func_of[from];
                if callee != src_func {
                    if self.tail_path(callee, src_func, &mut scratch.tail) {
                        step.recovered = scratch.tail.len() as u32;
                        for &ti in &scratch.tail {
                            match self.push_cs(step.next, ti) {
                                Some(next) => step.next = next,
                                None => {
                                    step.next = EMPTY_CTX;
                                    break;
                                }
                            }
                        }
                    } else {
                        step.failed = true;
                        step.next = EMPTY_CTX;
                    }
                }
            }
        }
        self.memo.steps.insert(key, step);
        self.memo.step_front.put(key, step);
        step
    }

    /// Counts `samples` into the arena and keeps them there: the arena then
    /// holds this unwinder's cumulative profile, and what the call reached
    /// is its [`ContextArena::touched`] list and [`Self::call_weights`].
    /// The one body under [`Self::unwind_batched`] too.
    ///
    /// Identical samples are pre-aggregated so each distinct
    /// `(pc, lbr, stack)` shape is unwound **once** with its multiplicity
    /// as the hit weight; within the unwind every distinct attribution is
    /// assembled once per unwinder and replayed as counter increments
    /// thereafter (see `Memo`).
    pub(crate) fn fold(&mut self, samples: &[Sample]) {
        // Between calls nothing is pending and the arena holds only its
        // live profile, so a rebuild from that profile loses no count and,
        // the memos being pure, changes no output.
        if self.memo.garbage() > self.memo_limit {
            let mut arena = self.memo.arena.successor();
            arena.absorb(&self.memo.arena.to_profile());
            self.memo = Memo::new(arena);
        }
        self.memo.arena.begin();
        for slot in self.weighted.drain(..) {
            self.weights[slot as usize] = 0;
        }
        let mut index: FastMap<SampleKey<'_>, usize> =
            FastMap::with_capacity_and_hasher(samples.len(), Default::default());
        let mut uniques: Vec<(&Sample, u64)> = Vec::new();
        for s in samples {
            match index.entry(SampleKey(s)) {
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
        self.flush();
    }

    /// Fans the deferred occurrence weights out to the arena's counters and
    /// to this call's probe weights.
    fn flush(&mut self) {
        let memo = &mut self.memo;
        for idx in memo.dirty.drain(..) {
            let pending = std::mem::take(&mut memo.pending[idx as usize]);
            for &(node, counter, slot) in memo.ranges[idx as usize].iter() {
                memo.arena.add_at_slot(node, counter, pending);
                let w = &mut self.weights[slot as usize];
                if *w == 0 {
                    self.weighted.push(slot);
                }
                *w += pending;
            }
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
    pub fn unwind_batched(&mut self, samples: &[Sample]) -> ContextProfile {
        self.fold(samples);
        self.memo.arena.take_profile()
    }

    /// The arena this unwinder counts into.
    pub(crate) fn arena(&self) -> &ContextArena {
        &self.memo.arena
    }

    pub(crate) fn arena_mut(&mut self) -> &mut ContextArena {
        &mut self.memo.arena
    }

    /// Probe weight the last call attributed, `((owner guid, probe),
    /// weight)`, in no particular order — what `probe_weights` of the
    /// call's own profile gives.
    pub(crate) fn call_weights(&self) -> impl Iterator<Item = ((u64, u32), u64)> + '_ {
        self.weighted
            .iter()
            .map(|&s| (self.insts.slots[s as usize], self.weights[s as usize]))
    }
}

#[cfg(test)]
impl Unwinder<'_> {
    /// Shrinks [`MEMO_LIMIT`] for a test of the memory bound.
    pub(crate) fn set_memo_limit(&mut self, limit: usize) {
        self.memo_limit = limit;
    }

    /// [`Memo::garbage`]: what the limit bounds.
    pub(crate) fn memo_garbage(&self) -> usize {
        self.memo.garbage()
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

    /// Sums the probe counts of every node of function `target` in
    /// `profile`, but only where `ancestor` was passed through on the way.
    fn total_under(profile: &crate::context::ContextProfile, target: u64, ancestor: u64) -> u64 {
        fn walk(
            guid: u64,
            node: &crate::profile::FuncProfile<u32>,
            target: u64,
            ancestor: u64,
            under: bool,
        ) -> u64 {
            let own = if guid == target && under {
                node.body.values().sum::<u64>()
            } else {
                0
            };
            let under = under || guid == ancestor;
            own + node
                .callsites
                .iter()
                .map(|(&(_, callee), c)| walk(callee, c, target, ancestor, under))
                .sum::<u64>()
        }
        profile
            .roots
            .iter()
            .map(|(&guid, r)| walk(guid, r, target, ancestor, false))
            .sum()
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
        let via_add = total_under(&profile, op, guid("add_vector_head"));
        let via_sub = total_under(&profile, op, guid("sub_vector_head"));
        assert!(via_add > 0, "scalar_op context under add_vector_head");
        assert!(via_sub > 0, "scalar_op context under sub_vector_head");
    }

    #[test]
    fn context_profile_reflects_divergent_callees() {
        let (b, profile, _) = profile_with_contexts(SRC, 3000);
        let guid = |n: &str| b.func_by_name(n).unwrap().guid;
        // Under add_vector_head, scalar_add should dominate scalar_sub (and
        // vice versa) — the paper's Fig. 3b insight.
        let totals =
            |ancestor: &str, target: &str| total_under(&profile, guid(target), guid(ancestor));
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
        assert!(
            total_under(&profile, guid("leaf"), guid("mid")) > 0,
            "leaf must be contextualized under mid despite TCE"
        );
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

    /// The memory bound (DESIGN.md §7.4): an unwinder whose memos start
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
