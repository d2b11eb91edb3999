//! Streaming profile aggregation: epoch-based incremental ingestion of an
//! unbounded PMU sample stream.
//!
//! The paper's deployment runs against *continuous* production profiling
//! (AlwaysOn-style `perf` collection feeding periodic profile refreshes),
//! not a single offline run. This module is that ingestion path:
//!
//! * samples arrive in bounded batches ([`StreamAggregator::push_batch`])
//!   and are folded at *epoch* boundaries
//!   ([`StreamAggregator::seal_epoch`]) — raw samples are dropped after
//!   each fold, so memory stays bounded by the epoch size, not the stream;
//! * each epoch is a small batch through the same sharded machinery as
//!   the batch pipeline ([`crate::shard`]) — the aggregator keeps one
//!   [`Unwinder`] per ingestion shard for its whole life, and the first
//!   one's arena *is* the cumulative context profile: an epoch is counted
//!   straight into it (other shards' epoch profiles are absorbed into it),
//!   so what an epoch pays is its own samples and the nodes they reach —
//!   not the unwinder's set-up, and not the size of what it already holds.
//!   A [`ContextProfile`] is materialised from the arena only when one is
//!   asked for ([`StreamAggregator::context_profile`], a snapshot,
//!   [`StreamAggregator::to_generated`]) and kept until the next seal or
//!   eviction;
//! * the cumulative state round-trips through a snapshot
//!   ([`StreamAggregator::snapshot_as`] /
//!   [`StreamAggregator::restore_from`]) in either [`SnapshotFormat`]:
//!   the compact binary format ([`crate::binprof`]) is the production
//!   path, the text form stays as the human-readable debug format, and
//!   the two are losslessly interchangeable — `restore_from` sniffs the
//!   binprof magic, so callers never track which format was persisted.
//!   Both encode one snapshot value and check only their own syntax; one
//!   check fits a decoded snapshot to the binary, whichever format it came
//!   in;
//! * under a resident-context cap, cold context subtrees can be evicted
//!   ([`StreamAggregator::evict_contexts`]): their weight folds into the
//!   per-function base profiles (the [`crate::context`] conservation
//!   rule), so fleet memory stays bounded while totals are conserved;
//! * consecutive epochs are compared for *drift* (distribution overlap of
//!   probe weights, [`EpochSummary::stale`]); the fleet answers a stale
//!   epoch by rebuilding from the live state
//!   ([`StreamAggregator::to_generated`] →
//!   [`crate::pipeline::build_from_context`]).
//!
//! **The epoch invariant** (enforced by unit, golden, and property tests):
//! for a fixed tail-call graph, folding N epochs incrementally produces a
//! profile *bit-identical* to one-shot batch ingestion of the concatenated
//! samples, and every per-epoch fact ([`EpochSummary`],
//! [`StreamAggregator::last_epoch_edges`], residency, eviction) is what
//! materialising each epoch's profile and merging it would give
//! (`tests/stream_epochs.rs`). This holds because every per-sample
//! contribution is an order-independent `+=` into keyed maps and what the
//! unwinder counts for a batch depends on no earlier batch — the same two
//! facts that make sharded ingestion exact. The tail-call graph is
//! therefore pinned at construction (typically from a calibration epoch)
//! and persisted inside snapshots; rebuilding it mid-stream would change
//! how later samples unwind.

use crate::binprof;
use crate::context::ContextProfile;
use crate::overlap::share_overlap;
use crate::pipeline::{fnv_words, ContextGenerated, PipelineError};
use crate::profile::FuncProfile;
use crate::ranges::RangeCounts;
use crate::shard::{diagnostics, fold_sharded, resolve_shards};
use crate::tailcall::{InferStats, TailCallGraph};
use crate::textprof;
use crate::unwind::Unwinder;
use csspgo_codegen::Binary;
use csspgo_sim::Sample;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;

/// Streaming-aggregation knobs (embedded in
/// [`crate::pipeline::PipelineConfig`] and validated by its builder).
#[derive(Clone, Debug, PartialEq)]
pub struct StreamConfig {
    /// Maximum samples buffered between epoch seals; `push_batch` refuses
    /// to grow past this, which is the bounded-memory contract.
    pub max_pending_samples: usize,
    /// Epoch-to-epoch probe-weight overlap below which the profile counts
    /// as drifted (stale). A fraction in `[0, 1]`; `0.0` disables.
    pub drift_threshold: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            max_pending_samples: 1 << 20,
            drift_threshold: 0.5,
        }
    }
}

/// What one sealed epoch did: sizes, drift verdict, and the two wall times
/// the frozen benchmark reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochSummary {
    /// 0-based index of the sealed epoch.
    pub epoch: u64,
    /// Samples folded by this epoch.
    pub samples: usize,
    /// Samples folded across all epochs so far.
    pub total_samples: u64,
    /// Context-trie nodes contributed by this epoch alone.
    pub nodes_epoch: usize,
    /// Context-trie nodes in the cumulative profile after the fold.
    pub nodes_cumulative: usize,
    /// Range/branch accumulation time (ms). Wall clock: differs run to run.
    pub ingest_ms: f64,
    /// Context unwinding time (ms). Wall clock: differs run to run.
    pub unwind_ms: f64,
    /// Probe-weight overlap with the previous epoch (1.0 = identical
    /// distribution; 1.0 for the first epoch and for one that attributed
    /// no probe weight, an empty one included).
    pub overlap: f64,
    /// Whether this epoch's overlap fell below the drift threshold.
    pub stale: bool,
}

/// The snapshot wire formats a [`StreamAggregator`] speaks, unified behind
/// [`StreamAggregator::snapshot_as`] / [`StreamAggregator::restore_from`].
///
/// `Binary` is the production format ([`crate::binprof`], magic-tagged);
/// `Text` is the human-readable debug format. Both are lossless and
/// interchangeable: restoring either and re-snapshotting yields canonical
/// output, and `restore_from` sniffs the binprof magic so callers never
/// need to remember which format a payload was persisted in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SnapshotFormat {
    /// Human-readable debug snapshot (`# csspgo-stream-snapshot v1` text).
    Text,
    /// Compact binprof snapshot (the production path).
    Binary,
}

impl fmt::Display for SnapshotFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnapshotFormat::Text => "text",
            SnapshotFormat::Binary => "binary",
        })
    }
}

/// A depth-1 context-trie edge — root function `root` calling `callee`
/// through call-site probe `probe`. This is the granule the fleet's shared
/// context store tracks (LRU-by-epoch) and evicts
/// ([`StreamAggregator::evict_contexts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextEdge {
    /// Root (un-inlined outermost) function GUID.
    pub root: u64,
    /// Call-site probe index inside the root.
    pub probe: u32,
    /// Callee GUID the probe reached.
    pub callee: u64,
}

/// Outcome of one cold-context eviction pass
/// ([`StreamAggregator::evict_contexts`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EvictStats {
    /// Depth-1 subtrees detached.
    pub subtrees: usize,
    /// Trie nodes the detached subtrees held.
    pub nodes_folded: usize,
    /// Sample weight folded into base profiles (conserved, not dropped).
    pub weight_folded: u64,
}

impl EvictStats {
    /// Accumulates another pass's counters.
    pub fn absorb(&mut self, other: EvictStats) {
        self.subtrees += other.subtrees;
        self.nodes_folded += other.nodes_folded;
        self.weight_folded += other.weight_folded;
    }
}

/// A content fingerprint of the profiled binary, persisted in snapshots so
/// a restore onto a different build is rejected instead of silently
/// mis-correlating counts.
fn binary_fingerprint(binary: &Binary) -> u64 {
    let funcs = (binary.funcs.iter()).flat_map(|f| [f.guid, f.probe_checksum.unwrap_or(0)]);
    fnv_words(std::iter::once(binary.len() as u64).chain(funcs))
}

/// A flat instruction index read from a snapshot payload. Restored counts
/// are indexed into the binary's tables on their next use, so an index past
/// the binary must be refused here, not panic there.
fn inst_index(binary: &Binary, v: u64) -> Result<usize, &'static str> {
    usize::try_from(v)
        .ok()
        .filter(|&i| i < binary.len())
        .ok_or("instruction index outside the binary")
}

/// A function index read from a snapshot payload (see [`inst_index`]).
fn func_index(binary: &Binary, v: u64) -> Result<u32, &'static str> {
    u32::try_from(v)
        .ok()
        .filter(|&i| (i as usize) < binary.funcs.len())
        .ok_or("function index outside the binary")
}

/// An inclusive `[begin, end]` linear range read from a snapshot payload.
fn inst_range(binary: &Binary, begin: u64, end: u64) -> Result<(usize, usize), &'static str> {
    let range = (inst_index(binary, begin)?, inst_index(binary, end)?);
    if range.0 > range.1 {
        return Err("range ends before it begins");
    }
    Ok(range)
}

/// Flattens a context profile into context-insensitive probe weights
/// `(guid, probe) → count` — the distribution the drift detector compares.
/// Public so canary evaluation can measure per-version profile agreement
/// with the same [`share_overlap`] metric the watchdog uses.
pub fn probe_weights(profile: &ContextProfile) -> BTreeMap<(u64, u32), u64> {
    fn walk(guid: u64, node: &FuncProfile<u32>, out: &mut BTreeMap<(u64, u32), u64>) {
        for (&probe, &count) in &node.body {
            *out.entry((guid, probe)).or_insert(0) += count;
        }
        for (&(_, callee), child) in &node.callsites {
            walk(callee, child, out);
        }
    }
    let mut out = BTreeMap::new();
    for (&guid, node) in &profile.roots {
        walk(guid, node, &mut out);
    }
    out
}

/// The streaming profile aggregator: accepts PMU sample batches
/// incrementally across epochs and maintains a bounded-memory incremental
/// context-sensitive profile (see the module docs for the invariant).
#[derive(Debug)]
pub struct StreamAggregator<'b> {
    binary: &'b Binary,
    config: StreamConfig,
    ingest_shards: usize,
    tail_graph: Option<TailCallGraph>,
    /// One per ingestion shard, made the first time an epoch needs that
    /// shard (the first one also by a restore) and kept for every later
    /// one; they carry the diagnostic counters, and the first one's arena
    /// holds the cumulative context profile.
    unwinders: Vec<Unwinder<'b>>,
    rc: RangeCounts,
    /// Function names a restored profile carried; the aggregator's own
    /// counting names nothing.
    names: BTreeMap<u64, String>,
    /// The cumulative profile materialised from the first arena, kept until
    /// the next seal or eviction changes it.
    profile: OnceCell<ContextProfile>,
    pending: Vec<Sample>,
    epochs_sealed: u64,
    total_samples: u64,
    last_weights: Option<BTreeMap<(u64, u32), u64>>,
    last_epoch_edges: Vec<ContextEdge>,
    evicted: EvictStats,
}

impl<'b> StreamAggregator<'b> {
    /// An aggregator unwinding with a *pinned* tail-call graph (usually
    /// built from a calibration epoch's [`RangeCounts`]). Pinning is what
    /// keeps incremental folds bit-identical to a batch ingestion that
    /// uses the same graph.
    pub fn with_tail_graph(
        binary: &'b Binary,
        config: StreamConfig,
        ingest_shards: usize,
        graph: TailCallGraph,
    ) -> Self {
        Self::build(binary, config, ingest_shards, Some(graph))
    }

    fn build(
        binary: &'b Binary,
        config: StreamConfig,
        ingest_shards: usize,
        tail_graph: Option<TailCallGraph>,
    ) -> Self {
        StreamAggregator {
            binary,
            config,
            ingest_shards,
            tail_graph,
            unwinders: Vec::new(),
            rc: RangeCounts::default(),
            names: BTreeMap::new(),
            profile: OnceCell::new(),
            pending: Vec::new(),
            epochs_sealed: 0,
            total_samples: 0,
            last_weights: None,
            last_epoch_edges: Vec::new(),
            evicted: EvictStats::default(),
        }
    }

    /// Buffers one batch of samples into the current (unsealed) epoch.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stream`] when the batch would overflow
    /// `max_pending_samples` — the caller must [`Self::seal_epoch`] first.
    pub fn push_batch(&mut self, samples: Vec<Sample>) -> Result<(), PipelineError> {
        let would_hold = self.pending.len() + samples.len();
        if would_hold > self.config.max_pending_samples {
            return Err(PipelineError::Stream(format!(
                "pending buffer would hold {would_hold} samples, over the \
                 max_pending_samples cap of {} — seal_epoch before pushing more",
                self.config.max_pending_samples
            )));
        }
        self.pending.extend(samples);
        Ok(())
    }

    /// Folds the buffered samples into the cumulative profile as one epoch
    /// and runs drift detection against the previous epoch.
    ///
    /// What a seal costs is the epoch's own samples and the context nodes
    /// they reach: the ranges go straight into the cumulative counts, the
    /// samples straight into the first unwinder's arena, and every fact
    /// reported — the epoch's node count, its depth-1 edges, its probe
    /// weights — is read off what the epoch touched.
    ///
    /// An empty epoch is legal (no traffic arrived): it folds nothing and
    /// reports `overlap = 1.0`. So does an epoch whose samples attribute no
    /// probe weight (every address outside the binary, say): it is no
    /// evidence of drift, and the previous epoch stays the baseline.
    pub fn seal_epoch(&mut self) -> EpochSummary {
        let samples = std::mem::take(&mut self.pending);
        let mut summary = EpochSummary {
            epoch: self.epochs_sealed,
            samples: samples.len(),
            overlap: 1.0,
            ..EpochSummary::default()
        };

        self.last_epoch_edges.clear();
        if !samples.is_empty() {
            // The library's only two clocks. They stay because the frozen
            // `benchmark/src/kernels/stream.rs` reads `ingest_ms` and
            // `unwind_ms` to split a seal into its `ranges.count` and
            // `unwind.ctx` layers; every other timing is taken by
            // `benchmark/` from outside (DESIGN.md §16).
            let t = Instant::now();
            self.rc.add_samples(self.binary, &samples);
            summary.ingest_ms = t.elapsed().as_secs_f64() * 1e3;

            let t = Instant::now();
            let shards = resolve_shards(self.ingest_shards, samples.len());
            self.make_unwinders(shards);
            let ran = fold_sharded(&mut self.unwinders[..shards], &samples);
            summary.unwind_ms = t.elapsed().as_secs_f64() * 1e3;
            self.profile.take();

            // Depth-1 edges this epoch touched — the LRU signal the fleet's
            // context store keeps per tenant (see `evict_contexts`).
            let arena = self.unwinders[0].arena();
            summary.nodes_epoch = arena.touched().len();
            self.last_epoch_edges.extend(
                arena
                    .touched()
                    .iter()
                    .filter_map(|&id| arena.depth1_edge(id))
                    .map(|(root, probe, callee)| ContextEdge {
                        root,
                        probe,
                        callee,
                    }),
            );
            self.last_epoch_edges.sort_unstable();

            // Drift: compare this epoch's probe-weight distribution with
            // the previous epoch's.
            let mut weights: Vec<((u64, u32), u64)> = self.unwinders[..ran]
                .iter()
                .flat_map(Unwinder::call_weights)
                .collect();
            weights.sort_unstable_by_key(|&(key, _)| key);
            weights.dedup_by(|(key, w), (kept, sum)| {
                let same = key == kept;
                if same {
                    *sum += *w;
                }
                same
            });
            if !weights.is_empty() {
                let weights: BTreeMap<(u64, u32), u64> = weights.into_iter().collect();
                if let Some(prev) = &self.last_weights {
                    summary.overlap = share_overlap(prev, &weights);
                    summary.stale = self.config.drift_threshold > 0.0
                        && summary.overlap < self.config.drift_threshold;
                }
                self.last_weights = Some(weights);
            }
        }

        self.total_samples += summary.samples as u64;
        self.epochs_sealed += 1;
        summary.total_samples = self.total_samples;
        summary.nodes_cumulative = self.unwinders.first().map_or(0, |u| u.arena().live());
        summary
    }

    /// Makes the unwinders of the first `shards` shards that do not exist
    /// yet.
    fn make_unwinders(&mut self, shards: usize) {
        while self.unwinders.len() < shards {
            self.unwinders
                .push(Unwinder::new(self.binary, self.tail_graph.clone()));
        }
    }

    /// The cumulative context profile folded so far, materialised from the
    /// first unwinder's arena on the first call after a seal or eviction
    /// changed it.
    pub fn context_profile(&self) -> &ContextProfile {
        self.profile.get_or_init(|| {
            let mut profile = self
                .unwinders
                .first()
                .map_or_else(ContextProfile::new, |u| u.arena().to_profile());
            profile.names = self.names.clone();
            profile
        })
    }

    /// The cumulative LBR range/branch counts folded so far.
    pub fn range_counts(&self) -> &RangeCounts {
        &self.rc
    }

    /// Sealed epoch count.
    pub fn epochs_sealed(&self) -> u64 {
        self.epochs_sealed
    }

    /// Samples folded across all sealed epochs.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Missing-frame inference counters of every epoch this aggregator
    /// sealed (a restored one starts them at zero).
    pub fn infer_stats(&self) -> InferStats {
        diagnostics(&self.unwinders).0
    }

    /// Uninterpretable-stack counter of every epoch this aggregator sealed.
    pub fn broken_stacks(&self) -> u64 {
        diagnostics(&self.unwinders).1
    }

    /// Depth-1 context edges the most recent sealed epoch contributed
    /// samples to — the per-epoch touch signal a context store's
    /// LRU bookkeeping consumes. Empty for an empty epoch.
    pub fn last_epoch_edges(&self) -> &[ContextEdge] {
        &self.last_epoch_edges
    }

    /// Context-trie nodes resident *beyond* the per-function base/root
    /// profiles — the quantity a fleet's resident-context cap bounds.
    /// Root nodes are one flat profile per sampled function (bounded by
    /// program size); the context nodes under them grow with distinct
    /// calling contexts, and they are what [`Self::evict_contexts`]
    /// reclaims (folding always *shrinks* this count, even though it may
    /// add base roots to conserve weight).
    pub fn resident_contexts(&self) -> usize {
        self.unwinders
            .first()
            .map_or(0, |u| u.arena().live() - u.arena().live_roots())
    }

    /// Cumulative eviction counters across all `evict_contexts` passes.
    pub fn evict_stats(&self) -> EvictStats {
        self.evicted
    }

    /// Cold-context compaction: detaches each named depth-1 subtree from
    /// the cumulative profile and folds its weight context-insensitively
    /// into the functions' base profiles (the rule of
    /// [`ContextProfile::trim_cold`], applied in the arena), so the trie
    /// shrinks while [`ContextProfile::total`] is conserved. Edges that no
    /// longer exist (already evicted, or never materialized) are skipped. A
    /// detached context stays interned and re-attaches on its next hit.
    ///
    /// Eviction is deterministic given the same edge list, so a tenant
    /// served in a fleet and the same tenant served alone stay
    /// bit-identical as long as their eviction policies see the same
    /// tenant-local state.
    pub fn evict_contexts(&mut self, edges: &[ContextEdge]) -> EvictStats {
        let mut stats = EvictStats::default();
        if let Some(first) = self.unwinders.first_mut() {
            for e in edges {
                if let Some((nodes, weight)) = first.arena_mut().evict(e.root, e.probe, e.callee) {
                    stats.subtrees += 1;
                    stats.nodes_folded += nodes;
                    stats.weight_folded += weight;
                }
            }
        }
        if stats.subtrees > 0 {
            self.profile.take();
        }
        self.evicted.absorb(stats);
        stats
    }

    /// The live state in the shape [`crate::pipeline::context_profile`]
    /// returns for a batch — a checksummed clone of the cumulative trie, the
    /// cumulative range counts, the diagnostic counters — so a build from
    /// what the aggregator holds goes through
    /// [`crate::pipeline::build_from_context`] like a build from a batch.
    pub fn to_generated(&self) -> ContextGenerated {
        let (profile, rc) = (self.context_profile().clone(), self.rc.clone());
        ContextGenerated::new(self.binary, profile, rc, diagnostics(&self.unwinders))
    }

    // -----------------------------------------------------------------
    // Snapshot / restore
    // -----------------------------------------------------------------

    /// Serializes the cumulative state in the requested wire format.
    ///
    /// Both formats encode the same snapshot value — fingerprint guard,
    /// epoch/sample counters, pinned tail-call graph, range/branch counts,
    /// previous-epoch probe weights, the context profile — and both are
    /// canonical: restore → re-snapshot is byte-identical.
    pub fn snapshot_as(&self, format: SnapshotFormat) -> Vec<u8> {
        let mut snap = self.to_snapshot();
        match format {
            SnapshotFormat::Binary => binprof::encode_snapshot(&snap),
            SnapshotFormat::Text => {
                // GUIDs cross the text format as function names, so the
                // context is named from the binary's symbol table.
                let names = &mut snap.context.to_mut().names;
                for f in &self.binary.funcs {
                    names.insert(f.guid, f.name.clone());
                }
                write_text(&snap).into_bytes()
            }
        }
    }

    /// Rebuilds an aggregator from a snapshot in *either* format: the
    /// payload is sniffed for the [`crate::binprof`] magic and decoded as
    /// binary when it matches, as UTF-8 text otherwise. The inverse of
    /// [`Self::snapshot_as`], without the caller having to remember which
    /// format was persisted. Whichever format it came in, the decoded
    /// snapshot passes the same check against `binary`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Decode`] for a malformed binary payload,
    /// [`PipelineError::Profile`] for an unparsable text context section,
    /// and [`PipelineError::Stream`] when the payload is neither format, is
    /// malformed text, or does not fit `binary` (another build, an index
    /// outside it).
    pub fn restore_from(
        binary: &'b Binary,
        config: StreamConfig,
        ingest_shards: usize,
        bytes: &[u8],
    ) -> Result<Self, PipelineError> {
        let snap = if bytes.starts_with(&binprof::MAGIC) {
            binprof::decode_snapshot(bytes)?
        } else {
            let text = std::str::from_utf8(bytes).map_err(|_| {
                PipelineError::Stream(
                    "snapshot payload is neither binprof (no magic) nor UTF-8 text".into(),
                )
            })?;
            parse_text(text)?
        };
        Self::from_snapshot(binary, config, ingest_shards, snap)
    }

    /// The cumulative state as a [`Snapshot`], rows sorted and the context
    /// borrowed.
    fn to_snapshot(&self) -> Snapshot<'_> {
        let rows = |map: &crate::fasthash::FastMap<(usize, usize), u64>| {
            let mut rows: Vec<(u64, u64, u64)> = map
                .iter()
                .map(|(&(a, b), &c)| (a as u64, b as u64, c))
                .collect();
            rows.sort_unstable();
            rows
        };
        let mut tail_edges: Vec<(u64, u64, u64)> = self
            .tail_graph
            .iter()
            .flat_map(TailCallGraph::edges)
            .map(|(caller, callee, inst)| (u64::from(caller), u64::from(callee), inst as u64))
            .collect();
        tail_edges.sort_unstable();
        Snapshot {
            fingerprint: binary_fingerprint(self.binary),
            epochs: self.epochs_sealed,
            samples: self.total_samples,
            tail_edges,
            ranges: rows(&self.rc.ranges),
            branches: rows(&self.rc.branches),
            weights: (self.last_weights.iter().flatten())
                .map(|(&(guid, probe), &count)| (guid, u64::from(probe), count))
                .collect(),
            context: Cow::Borrowed(self.context_profile()),
        }
    }

    /// The one check of a decoded snapshot against the binary it is
    /// restored onto, for both formats: the fingerprint must be `binary`'s,
    /// every tail-graph, range and branch row must index inside it, every
    /// weight's probe must fit a `u32`, and no row may repeat the key of one
    /// before it (a tail edge's caller and callee, a range's ends, a
    /// branch's ends, a weight's function and probe), which would silently
    /// replace it. A restored aggregator so holds no index its next seal or
    /// build could trip on. The context's nesting and count bounds
    /// ([`binprof::MAX_DEPTH`], [`binprof::MAX_COUNT_SUM`]) were held by the
    /// reader that produced it, `binprof::decode_snapshot` or
    /// `textprof::parse_context`, in the pass that read it, so both
    /// formats arrive checked without a second walk. What passes is
    /// adopted as is: an empty edge or weight list is no graph, no baseline.
    fn from_snapshot(
        binary: &'b Binary,
        config: StreamConfig,
        ingest_shards: usize,
        snap: Snapshot<'_>,
    ) -> Result<Self, PipelineError> {
        if snap.fingerprint != binary_fingerprint(binary) {
            return Err(PipelineError::Stream(
                "snapshot was taken against a different binary build".into(),
            ));
        }
        let refuse = |rows: &str, (a, b, c): (u64, u64, u64), why: &str| {
            PipelineError::Stream(format!("snapshot {rows} row `{a} {b} {c}`: {why}"))
        };
        const REPEATED: &str = "repeats the key of a row before it";
        let mut graph = TailCallGraph::default();
        let mut edges = BTreeSet::new();
        for &row @ (caller, callee, inst) in &snap.tail_edges {
            let at = |why| refuse("tail-graph", row, why);
            let (from, to) = (
                func_index(binary, caller).map_err(at)?,
                func_index(binary, callee).map_err(at)?,
            );
            if !edges.insert((from, to)) {
                return Err(at(REPEATED));
            }
            graph.insert_edge(from, to, inst_index(binary, inst).map_err(at)?);
        }
        let tail_graph = (!snap.tail_edges.is_empty()).then_some(graph);
        let mut agg = Self::build(binary, config, ingest_shards, tail_graph);
        agg.epochs_sealed = snap.epochs;
        agg.total_samples = snap.samples;
        for &row @ (begin, end, count) in &snap.ranges {
            let at = |why| refuse("ranges", row, why);
            let range = inst_range(binary, begin, end).map_err(at)?;
            if agg.rc.ranges.insert(range, count).is_some() {
                return Err(at(REPEATED));
            }
        }
        for &row @ (from, to, count) in &snap.branches {
            let at = |why| refuse("branches", row, why);
            let branch = (
                inst_index(binary, from).map_err(at)?,
                inst_index(binary, to).map_err(at)?,
            );
            if agg.rc.branches.insert(branch, count).is_some() {
                return Err(at(REPEATED));
            }
        }
        let mut weights = BTreeMap::new();
        for &row @ (guid, probe, count) in &snap.weights {
            let probe = u32::try_from(probe)
                .map_err(|_| refuse("weights", row, "weight probe overflow"))?;
            if weights.insert((guid, probe), count).is_some() {
                return Err(refuse("weights", row, REPEATED));
            }
        }
        agg.last_weights = (!weights.is_empty()).then_some(weights);
        agg.adopt(snap.context.into_owned());
        Ok(agg)
    }

    /// Makes a restored `profile` the cumulative one: absorbed into the
    /// first unwinder's arena (an empty arena holds exactly what it
    /// absorbs), and kept as the materialised profile it equals.
    fn adopt(&mut self, profile: ContextProfile) {
        if !profile.roots.is_empty() {
            self.make_unwinders(1);
            self.unwinders[0].arena_mut().absorb(&profile);
        }
        self.names = profile.names.clone();
        self.profile = OnceCell::from(profile);
    }
}

/// A stream's cumulative state as a snapshot carries it: raw values, checked
/// against no binary. Both wire formats encode exactly this and check only
/// their own syntax — `binprof::{encode_snapshot, decode_snapshot}`
/// ([`SnapshotFormat::Binary`]) and `write_text` / `parse_text` below
/// ([`SnapshotFormat::Text`]) — and `StreamAggregator::from_snapshot` is the
/// one check of what the values mean, for both.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Snapshot<'a> {
    /// Fingerprint of the build the state was counted on.
    pub(crate) fingerprint: u64,
    /// Epochs sealed.
    pub(crate) epochs: u64,
    /// Samples folded across them.
    pub(crate) samples: u64,
    /// The pinned tail-call graph's `(caller, callee, tail-call
    /// instruction)` edges, sorted; empty for no graph or an edgeless one.
    pub(crate) tail_edges: Vec<(u64, u64, u64)>,
    /// LBR range counts `(begin, end, count)`, sorted.
    pub(crate) ranges: Vec<(u64, u64, u64)>,
    /// Branch counts `(from, to, count)`, sorted.
    pub(crate) branches: Vec<(u64, u64, u64)>,
    /// The previous epoch's probe weights `(guid, probe, count)`, sorted;
    /// empty for no baseline.
    pub(crate) weights: Vec<(u64, u64, u64)>,
    /// The cumulative context profile.
    pub(crate) context: Cow<'a, ContextProfile>,
}

/// The text snapshot's row-section markers, in the order of
/// [`Snapshot`]'s row fields.
const TEXT_SECTIONS: [&str; 4] = ["!tail-graph", "!ranges", "!branches", "!weights"];

/// Writes `snap` as the human-readable **debug** snapshot: `# key: value`
/// header lines, each row section under its marker one `a b c` line per
/// row, then `!context` and the [`crate::textprof`] CS text of the context.
fn write_text(snap: &Snapshot<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# csspgo-stream-snapshot v1");
    let _ = writeln!(out, "# fingerprint: {:#x}", snap.fingerprint);
    let _ = writeln!(out, "# epochs: {}", snap.epochs);
    let _ = writeln!(out, "# samples: {}", snap.samples);
    let rows = [
        &snap.tail_edges,
        &snap.ranges,
        &snap.branches,
        &snap.weights,
    ];
    for (marker, rows) in TEXT_SECTIONS.iter().zip(rows) {
        let _ = writeln!(out, "{marker}");
        for (a, b, c) in rows {
            let _ = writeln!(out, "{a} {b} {c}");
        }
    }
    let _ = writeln!(out, "!context");
    out.push_str(&textprof::write_context(&snap.context));
    out
}

/// Splits a text snapshot at its `!context` marker: the header and row
/// sections before the marker, and the context section after it; `None`
/// when the marker is missing. Offsets are each line's own byte length,
/// line ending included, so a CRLF snapshot splits where its LF original
/// does, and a snapshot that ends at the marker has an empty context
/// section.
fn split_snapshot_context(text: &str) -> Option<(&str, &str)> {
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        if line.trim() == "!context" {
            return Some((&text[..offset], &text[offset + line.len()..]));
        }
        offset += line.len();
    }
    None
}

/// Reads a snapshot written by [`write_text`], checking its syntax only:
/// the three header lines must be present, every row must be three integers
/// under a section marker, and the context must parse.
fn parse_text(text: &str) -> Result<Snapshot<'static>, PipelineError> {
    let bad = |msg: String| PipelineError::Stream(msg);
    let Some((head, ctx_text)) = split_snapshot_context(text) else {
        return Err(bad("snapshot has no !context section".into()));
    };
    let (mut fingerprint, mut epochs, mut samples) = (None, None, None);
    let mut sections: [Vec<(u64, u64, u64)>; 4] = Default::default();
    let mut current = None;
    for (lineno, line) in head.lines().enumerate() {
        let at = |msg: &str| bad(format!("line {}: {msg}", lineno + 1));
        let line = line.trim();
        if let Some(v) = line.strip_prefix("# fingerprint:") {
            let v = v.trim().trim_start_matches("0x");
            fingerprint = Some(u64::from_str_radix(v, 16).map_err(|_| at("bad fingerprint"))?);
        } else if let Some(v) = line.strip_prefix("# epochs:") {
            epochs = Some(v.trim().parse().map_err(|_| at("bad epoch count"))?);
        } else if let Some(v) = line.strip_prefix("# samples:") {
            samples = Some(v.trim().parse().map_err(|_| at("bad sample count"))?);
        } else if line.is_empty() || line.starts_with('#') {
            continue;
        } else if let Some(k) = TEXT_SECTIONS.iter().position(|&m| m == line) {
            current = Some(k);
        } else {
            let k = current.ok_or_else(|| at("data before any section marker"))?;
            let mut nums = line.split_whitespace().map(str::parse::<u64>);
            let mut next =
                || (nums.next().and_then(Result::ok)).ok_or_else(|| at("expected three integers"));
            sections[k].push((next()?, next()?, next()?));
        }
    }
    // Without these a snapshot would restore onto any build, or restart
    // its counters at zero, without a word.
    let need = |v: Option<u64>, key: &str| {
        v.ok_or_else(|| bad(format!("snapshot has no `# {key}:` header")))
    };
    let [tail_edges, ranges, branches, weights] = sections;
    let mut snap = Snapshot {
        fingerprint: need(fingerprint, "fingerprint")?,
        epochs: need(epochs, "epochs")?,
        samples: need(samples, "samples")?,
        tail_edges,
        ranges,
        branches,
        weights,
        context: Cow::Owned(textprof::parse_context(ctx_text)?),
    };
    // The names only carried GUIDs across the text; the aggregator's own
    // profile has none, exactly like the batch unwinding path's.
    snap.context.to_mut().names.clear();
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::sharded_context_profile;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_sim::{Machine, SimConfig};
    use proptest::prelude::*;

    const SRC: &str = r#"
fn helper(x, mode) {
    if (mode == 1) {
        if (x % 3 == 0) { return x * 2; }
        return x + 1;
    }
    if (x % 5 == 0) { return x - 7; }
    return x * 3;
}
fn serve(n, mode) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i, mode);
        i = i + 1;
    }
    return s;
}
"#;

    fn probed_binary() -> Binary {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::probes::run(&mut m);
        lower_module(&m, &CodegenConfig::default())
    }

    fn traffic(binary: &Binary, calls: &[(i64, i64)]) -> Vec<Sample> {
        let mut machine = Machine::new(
            binary,
            SimConfig {
                sample_period: 23,
                ..SimConfig::default()
            },
        );
        for &(n, mode) in calls {
            machine.call("serve", &[n, mode]).unwrap();
        }
        machine.take_samples()
    }

    /// One-shot batch ingestion on one shard — production against
    /// production; `crates/core/tests/stream_epochs.rs` holds the same
    /// folds to the per-sample reference unwinder.
    fn batch_reference(
        binary: &Binary,
        graph: &TailCallGraph,
        samples: &[Sample],
    ) -> (RangeCounts, ContextProfile) {
        let mut rc = RangeCounts::default();
        rc.add_samples(binary, samples);
        let profile = sharded_context_profile(binary, Some(graph), samples, 1).profile;
        (rc, profile)
    }

    fn calibration_graph(binary: &Binary, samples: &[Sample]) -> TailCallGraph {
        let mut rc = RangeCounts::default();
        rc.add_samples(binary, samples);
        TailCallGraph::build(binary, &rc)
    }

    #[test]
    fn epoch_folds_match_batch_ingestion_bit_for_bit() {
        let b = probed_binary();
        let samples = traffic(&b, &[(3000, 1), (2500, 2), (2800, 1)]);
        assert!(samples.len() > 100, "need a meaningful stream");
        let graph = calibration_graph(&b, &samples);
        let (rc_ref, profile_ref) = batch_reference(&b, &graph, &samples);

        for epochs in [1usize, 2, 3, 7] {
            let mut agg =
                StreamAggregator::with_tail_graph(&b, StreamConfig::default(), 3, graph.clone());
            let chunk = samples.len().div_ceil(epochs);
            for batch in samples.chunks(chunk) {
                agg.push_batch(batch.to_vec()).unwrap();
                agg.seal_epoch();
            }
            assert_eq!(
                agg.context_profile(),
                &profile_ref,
                "{epochs} epochs diverged"
            );
            assert_eq!(agg.range_counts(), &rc_ref, "{epochs} epochs: rc diverged");
            assert_eq!(agg.total_samples(), samples.len() as u64);
        }
    }

    #[test]
    fn evict_contexts_conserves_total_weight_and_shrinks_residency() {
        let b = probed_binary();
        let samples = traffic(&b, &[(2600, 1), (2400, 2)]);
        let graph = calibration_graph(&b, &samples);
        let mut agg = StreamAggregator::with_tail_graph(&b, StreamConfig::default(), 2, graph);
        agg.push_batch(samples).unwrap();
        agg.seal_epoch();

        let edges: Vec<ContextEdge> = agg.last_epoch_edges().to_vec();
        assert!(!edges.is_empty(), "expected depth-1 context edges");
        let total_before = agg.context_profile().total();
        let contexts_before = agg.resident_contexts();
        assert!(contexts_before > 0);

        let stats = agg.evict_contexts(&edges);
        assert_eq!(stats.subtrees, edges.len());
        assert!(stats.nodes_folded > 0);
        assert!(stats.weight_folded > 0);
        // Every folded subtree node was a context node, so residency
        // drops by exactly the folded count.
        assert_eq!(
            agg.resident_contexts(),
            contexts_before - stats.nodes_folded
        );
        // Conservation: evicted weight folds into base profiles, so the
        // profile total is unchanged.
        assert_eq!(agg.context_profile().total(), total_before);
        assert_eq!(agg.evict_stats().weight_folded, stats.weight_folded);

        // Re-evicting the same edges is a no-op.
        let again = agg.evict_contexts(&edges);
        assert_eq!(again.subtrees, 0);
        assert_eq!(again.weight_folded, 0);
    }

    /// The memory bound (DESIGN.md §7.4): an aggregator whose first arena
    /// is rebuilt from its live profile, and its memos dropped, at every
    /// epoch but the first two reports epoch by epoch — summary, edges,
    /// evictions, residency, profile — what one that never forgets
    /// reports, and a rebuilt arena holds no node outside its profile.
    #[test]
    fn crossing_the_memo_bound_every_epoch_changes_no_fact() {
        let b = probed_binary();
        let samples = traffic(&b, &[(3000, 1), (2500, 2), (2800, 1)]);
        let graph = calibration_graph(&b, &samples);
        let make =
            || StreamAggregator::with_tail_graph(&b, StreamConfig::default(), 1, graph.clone());
        let (mut keeps, mut forgets) = (make(), make());
        for (k, chunk) in samples.chunks(samples.len().div_ceil(9)).enumerate() {
            if k == 1 {
                forgets.unwinders[0].set_memo_limit(5);
            }
            // Every call from here on finds more than the limit.
            assert!(k < 2 || forgets.unwinders[0].memo_garbage() > 5);
            keeps.push_batch(chunk.to_vec()).unwrap();
            forgets.push_batch(chunk.to_vec()).unwrap();
            let (kept, forgot) = (keeps.seal_epoch(), forgets.seal_epoch());
            assert_eq!(
                (kept.nodes_epoch, kept.nodes_cumulative, kept.stale),
                (forgot.nodes_epoch, forgot.nodes_cumulative, forgot.stale)
            );
            assert_eq!(kept.overlap.to_bits(), forgot.overlap.to_bits());
            assert_eq!(keeps.last_epoch_edges(), forgets.last_epoch_edges());
            if k >= 2 {
                let arena = forgets.unwinders[0].arena();
                assert_eq!(arena.node_count(), arena.live(), "garbage after a rebuild");
            }
            let edges = keeps.last_epoch_edges()[..1].to_vec();
            let (a, b) = (keeps.evict_contexts(&edges), forgets.evict_contexts(&edges));
            assert_eq!(
                (a.nodes_folded, a.weight_folded),
                (b.nodes_folded, b.weight_folded)
            );
            assert_eq!(keeps.resident_contexts(), forgets.resident_contexts());
            assert_eq!(keeps.context_profile(), forgets.context_profile());
        }
        assert_eq!(keeps.infer_stats(), forgets.infer_stats());
        assert!(
            forgets.unwinders[0].memo_garbage() < keeps.unwinders[0].memo_garbage(),
            "a rebuilt memo holds what its last call taught it, not the stream"
        );
    }

    #[test]
    fn push_batch_enforces_bounded_memory() {
        let b = probed_binary();
        let samples = traffic(&b, &[(1500, 1)]);
        assert!(samples.len() > 10);
        let cfg = StreamConfig {
            max_pending_samples: samples.len() - 1,
            ..StreamConfig::default()
        };
        let mut agg = StreamAggregator::with_tail_graph(&b, cfg, 1, TailCallGraph::default());
        let err = agg.push_batch(samples.clone()).unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err}");
        // Sealing drains the buffer and makes room again.
        agg.push_batch(samples[..samples.len() / 2].to_vec())
            .unwrap();
        agg.seal_epoch();
        agg.push_batch(samples[..samples.len() / 2].to_vec())
            .unwrap();
    }

    #[test]
    fn snapshot_restore_resume_matches_uninterrupted_fold() {
        let b = probed_binary();
        let samples = traffic(&b, &[(2600, 1), (2400, 2)]);
        let graph = calibration_graph(&b, &samples);
        let (rc_ref, profile_ref) = batch_reference(&b, &graph, &samples);

        let cut = samples.len() / 3;
        let mut agg =
            StreamAggregator::with_tail_graph(&b, StreamConfig::default(), 2, graph.clone());
        agg.push_batch(samples[..cut].to_vec()).unwrap();
        agg.seal_epoch();
        let snap = agg.snapshot_as(SnapshotFormat::Text);

        let mut resumed =
            StreamAggregator::restore_from(&b, StreamConfig::default(), 2, &snap).unwrap();
        assert_eq!(resumed.epochs_sealed(), 1);
        assert_eq!(resumed.total_samples(), cut as u64);
        resumed.push_batch(samples[cut..].to_vec()).unwrap();
        resumed.seal_epoch();

        assert_eq!(resumed.context_profile(), &profile_ref);
        assert_eq!(resumed.range_counts(), &rc_ref);

        // A second snapshot of untouched state is byte-identical.
        let resnap = StreamAggregator::restore_from(&b, StreamConfig::default(), 2, &snap)
            .unwrap()
            .snapshot_as(SnapshotFormat::Text);
        assert_eq!(snap, resnap);
    }

    #[test]
    fn binary_snapshot_roundtrips_and_matches_text_restore() {
        let b = probed_binary();
        let samples = traffic(&b, &[(2600, 1), (2400, 2)]);
        let graph = calibration_graph(&b, &samples);
        let (rc_ref, profile_ref) = batch_reference(&b, &graph, &samples);

        let cut = samples.len() / 3;
        let mut agg =
            StreamAggregator::with_tail_graph(&b, StreamConfig::default(), 2, graph.clone());
        agg.push_batch(samples[..cut].to_vec()).unwrap();
        agg.seal_epoch();

        let text = agg.snapshot_as(SnapshotFormat::Text);
        let bin = agg.snapshot_as(SnapshotFormat::Binary);
        assert!(
            bin.len() < text.len(),
            "binary snapshot ({}) should be smaller than text ({})",
            bin.len(),
            text.len()
        );

        // restore_from sniffs the binprof magic and resumes exactly like
        // the text restore.
        let mut resumed =
            StreamAggregator::restore_from(&b, StreamConfig::default(), 2, &bin).unwrap();
        assert_eq!(resumed.epochs_sealed(), 1);
        assert_eq!(resumed.total_samples(), cut as u64);
        resumed.push_batch(samples[cut..].to_vec()).unwrap();
        resumed.seal_epoch();
        assert_eq!(resumed.context_profile(), &profile_ref);
        assert_eq!(resumed.range_counts(), &rc_ref);

        // Both formats restore to the same state: text-restored and
        // binary-restored aggregators re-emit identical binary snapshots.
        let from_text =
            StreamAggregator::restore_from(&b, StreamConfig::default(), 2, &text).unwrap();
        assert_eq!(from_text.snapshot_as(SnapshotFormat::Binary), bin);

        // Canonical: restore → re-snapshot is byte-identical.
        let resnap = StreamAggregator::restore_from(&b, StreamConfig::default(), 2, &bin)
            .unwrap()
            .snapshot_as(SnapshotFormat::Binary);
        assert_eq!(resnap, bin);
    }

    #[test]
    fn snapshot_context_splits_at_marker() {
        let text = "# header\n!ranges\n1 2 3\n!context\n[main]:10:1\n 1: 10\n";
        let (head, ctx) = split_snapshot_context(text).unwrap();
        assert!(head.contains("!ranges"));
        assert!(!head.contains("!context"));
        assert!(ctx.starts_with("[main]"));
        // Marker with nothing after it: empty context, not a panic.
        let (_, ctx) = split_snapshot_context("# h\n!context").unwrap();
        assert_eq!(ctx, "");
        assert!(split_snapshot_context("# no marker\n").is_none());
    }

    #[test]
    fn snapshot_format_displays() {
        assert_eq!(SnapshotFormat::Text.to_string(), "text");
        assert_eq!(SnapshotFormat::Binary.to_string(), "binary");
    }

    #[test]
    fn restore_from_rejects_untagged_binary_garbage() {
        let b = probed_binary();
        // Neither binprof magic nor UTF-8 text: a distinct Stream error.
        let err = StreamAggregator::restore_from(&b, StreamConfig::default(), 1, &[0xff, 0xfe])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err}");
        // Magic-prefixed garbage routes to the binary decoder.
        let mut bytes = binprof::MAGIC.to_vec();
        bytes.extend_from_slice(b"nonsense");
        let err =
            StreamAggregator::restore_from(&b, StreamConfig::default(), 1, &bytes).unwrap_err();
        assert!(matches!(err, PipelineError::Decode(_)), "{err}");
    }

    #[test]
    fn binary_restore_rejects_wrong_binary_and_garbage() {
        let b = probed_binary();
        let samples = traffic(&b, &[(1200, 1)]);
        let mut agg = StreamAggregator::with_tail_graph(
            &b,
            StreamConfig::default(),
            1,
            TailCallGraph::default(),
        );
        agg.push_batch(samples).unwrap();
        agg.seal_epoch();
        let bin = agg.snapshot_as(SnapshotFormat::Binary);

        let mut m2 =
            csspgo_lang::compile("fn serve(n, mode) { return n + mode; }", "other").unwrap();
        csspgo_opt::discriminators::run(&mut m2);
        csspgo_opt::probes::run(&mut m2);
        let other = lower_module(&m2, &CodegenConfig::default());
        let err =
            StreamAggregator::restore_from(&other, StreamConfig::default(), 1, &bin).unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err}");

        // Truncation anywhere must error, never panic. (Cuts shorter than
        // the magic sniff as text and still error; longer ones hit the
        // binary decoder.)
        for cut in [0, 5, 11, bin.len() / 2, bin.len() - 1] {
            assert!(
                StreamAggregator::restore_from(&b, StreamConfig::default(), 1, &bin[..cut])
                    .is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn restore_rejects_wrong_binary_and_garbage() {
        let b = probed_binary();
        let samples = traffic(&b, &[(1200, 1)]);
        let mut agg = StreamAggregator::with_tail_graph(
            &b,
            StreamConfig::default(),
            1,
            TailCallGraph::default(),
        );
        agg.push_batch(samples).unwrap();
        agg.seal_epoch();
        let snap = agg.snapshot_as(SnapshotFormat::Text);

        let mut m2 =
            csspgo_lang::compile("fn serve(n, mode) { return n + mode; }", "other").unwrap();
        csspgo_opt::discriminators::run(&mut m2);
        csspgo_opt::probes::run(&mut m2);
        let other = lower_module(&m2, &CodegenConfig::default());
        let err =
            StreamAggregator::restore_from(&other, StreamConfig::default(), 1, &snap).unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err}");

        let err = StreamAggregator::restore_from(&b, StreamConfig::default(), 1, b"nonsense")
            .unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err}");
    }

    /// A binary snapshot repeating the key of a row before it — a tail
    /// edge, a range, a branch, a weight — is refused by the one restore
    /// check, naming the row, where it used to restore with the later row
    /// silently replacing the earlier.
    #[test]
    fn binary_restore_refuses_a_repeated_row() {
        let b = probed_binary();
        let samples = traffic(&b, &[(2600, 1), (2400, 2)]);
        let graph = calibration_graph(&b, &samples);
        let mut agg = StreamAggregator::with_tail_graph(&b, StreamConfig::default(), 1, graph);
        agg.push_batch(samples).unwrap();
        agg.seal_epoch();
        let snap = agg.to_snapshot();
        for name in ["tail-graph", "ranges", "branches", "weights"] {
            let mut bad = snap.clone();
            let rows = match name {
                "tail-graph" => &mut bad.tail_edges,
                "ranges" => &mut bad.ranges,
                "branches" => &mut bad.branches,
                _ => &mut bad.weights,
            };
            if rows.is_empty() {
                // This program makes no tail call: one edge inside it.
                rows.push((0, 0, 0));
            }
            let (x, y, z) = rows[0];
            rows.insert(1, (x, y, z + 1));
            let bytes = binprof::encode_snapshot(&bad);
            let err =
                StreamAggregator::restore_from(&b, StreamConfig::default(), 1, &bytes).unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, PipelineError::Stream(_))
                    && msg.contains(&format!("snapshot {name} row `{x} {y} {}`", z + 1))
                    && msg.contains("repeats the key"),
                "{name}: {msg}"
            );
        }
    }

    /// `with_tail_graph(.., TailCallGraph::default())` is what a graphless
    /// aggregator was: an edgeless graph infers no frame, writes no edge
    /// into either snapshot format, and restores as no graph at all.
    #[test]
    fn an_edgeless_graph_snapshots_and_restores_as_no_graph() {
        let b = probed_binary();
        let samples = traffic(&b, &[(2600, 1), (2400, 2)]);
        let cfg = StreamConfig::default();
        let mut edgeless =
            StreamAggregator::with_tail_graph(&b, cfg.clone(), 1, TailCallGraph::default());
        let mut none = StreamAggregator::build(&b, cfg.clone(), 1, None);
        for agg in [&mut edgeless, &mut none] {
            agg.push_batch(samples.clone()).unwrap();
            agg.seal_epoch();
        }
        assert_eq!(edgeless.context_profile(), none.context_profile());
        assert_eq!(edgeless.infer_stats(), none.infer_stats());
        for format in [SnapshotFormat::Text, SnapshotFormat::Binary] {
            let snap = edgeless.snapshot_as(format);
            assert_eq!(snap, none.snapshot_as(format), "{format}");
            let restored = StreamAggregator::restore_from(&b, cfg.clone(), 1, &snap).unwrap();
            assert!(restored.tail_graph.is_none(), "{format}");
            assert_eq!(restored.snapshot_as(format), snap, "{format}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Snapshot interchange, over random epoch splits of real traffic
        /// with random evictions between the seals: both formats decode to
        /// the same [`Snapshot`] (the aggregator's own), restoring either
        /// gives aggregators whose binary snapshots are equal, and each
        /// format re-snapshots byte-identically.
        #[test]
        fn both_formats_carry_one_snapshot(
            cuts in proptest::collection::vec(0usize..1000, 0..5),
            evictions in proptest::collection::vec(0usize..64, 0..6),
            shards in 1usize..3,
        ) {
            let b = probed_binary();
            let samples = traffic(&b, &[(2600, 1), (2400, 2)]);
            let cfg = StreamConfig::default();
            let graph = calibration_graph(&b, &samples);
            let mut agg = StreamAggregator::with_tail_graph(&b, cfg.clone(), shards, graph);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c * samples.len() / 1000).collect();
            cuts.sort_unstable();
            cuts.push(samples.len());
            let mut from = 0;
            for (k, &cut) in cuts.iter().enumerate() {
                agg.push_batch(samples[from..cut].to_vec()).unwrap();
                agg.seal_epoch();
                from = cut;
                let edges = agg.last_epoch_edges();
                if let (Some(&pick), false) = (evictions.get(k), edges.is_empty()) {
                    let edge = edges[pick % edges.len()];
                    agg.evict_contexts(&[edge]);
                }
            }

            let (text, bin) = (
                agg.snapshot_as(SnapshotFormat::Text),
                agg.snapshot_as(SnapshotFormat::Binary),
            );
            let from_text = parse_text(std::str::from_utf8(&text).unwrap()).unwrap();
            let from_bin = binprof::decode_snapshot(&bin).unwrap();
            prop_assert_eq!(&from_text, &from_bin);
            prop_assert_eq!(&from_bin, &agg.to_snapshot());

            let restore = |payload: &[u8]| {
                StreamAggregator::restore_from(&b, cfg.clone(), shards, payload).unwrap()
            };
            let (via_text, via_bin) = (restore(&text), restore(&bin));
            prop_assert_eq!(via_text.snapshot_as(SnapshotFormat::Binary), bin.clone());
            prop_assert_eq!(via_bin.snapshot_as(SnapshotFormat::Binary), bin);
            prop_assert_eq!(via_text.snapshot_as(SnapshotFormat::Text), text);
        }
    }

    #[test]
    fn drift_detector_flags_behaviour_shift() {
        let b = probed_binary();
        // Two epochs of mode-1 traffic, then a hard shift to mode 2.
        let steady1 = traffic(&b, &[(2500, 1)]);
        let mut machine = Machine::new(
            &b,
            SimConfig {
                sample_period: 23,
                ..SimConfig::default()
            },
        );
        machine.call("serve", &[2500, 1]).unwrap();
        let _ = machine.take_samples();
        machine.call("serve", &[2500, 1]).unwrap();
        let steady2 = machine.take_samples();
        machine.call("serve", &[2500, 2]).unwrap();
        let shifted = machine.take_samples();

        let cfg = StreamConfig {
            drift_threshold: 0.9,
            ..StreamConfig::default()
        };
        let mut agg = StreamAggregator::with_tail_graph(&b, cfg, 1, TailCallGraph::default());
        agg.push_batch(steady1).unwrap();
        let s1 = agg.seal_epoch();
        assert!(!s1.stale, "first epoch has no baseline to drift from");
        agg.push_batch(steady2).unwrap();
        let s2 = agg.seal_epoch();
        assert!(
            !s2.stale,
            "steady traffic must not drift: overlap {:.3}",
            s2.overlap
        );
        agg.push_batch(shifted).unwrap();
        let s3 = agg.seal_epoch();
        assert!(s3.stale, "mode shift must drift: overlap {:.3}", s3.overlap);
        assert!(s3.overlap < s2.overlap);
    }

    #[test]
    fn live_state_is_the_batch_profile_of_the_same_samples() {
        let b = probed_binary();
        let samples = traffic(&b, &[(3000, 1), (2500, 2)]);
        let batch = crate::pipeline::context_profile(&b, &samples, 0);
        assert!(batch.profile.total() > 0, "need a meaningful stream");

        let graph = calibration_graph(&b, &samples);
        let mut agg = StreamAggregator::with_tail_graph(&b, StreamConfig::default(), 0, graph);
        for epoch in samples.chunks(samples.len().div_ceil(3)) {
            agg.push_batch(epoch.to_vec()).unwrap();
            agg.seal_epoch();
        }
        let live = agg.to_generated();
        assert_eq!(live.profile, batch.profile, "checksums included");
        assert_eq!(live.range_counts, batch.range_counts);
        assert_eq!(live.infer_stats, batch.infer_stats);
        assert_eq!(live.broken_stacks, batch.broken_stacks);
        // The working profile stays unstamped: a snapshot carries no checksums.
        assert_ne!(&live.profile, agg.context_profile());
    }
}
