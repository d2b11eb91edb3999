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
//!   binprof magic, so callers never track which format was persisted;
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

use crate::binprof::{self, put_uvarint, Kind};
use crate::context::ContextProfile;
use crate::pipeline::{ContextGenerated, PipelineError};
use crate::ranges::RangeCounts;
use crate::shard::{diagnostics, fold_sharded, resolve_shards};
use crate::tailcall::{InferStats, TailCallGraph};
use crate::textprof;
use crate::unwind::Unwinder;
use csspgo_codegen::Binary;
use csspgo_sim::Sample;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;

/// Streaming-aggregation knobs (embedded in
/// [`crate::pipeline::PipelineConfig`] and validated by its builder).
#[derive(Clone, Debug)]
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
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(&mut h, binary.len() as u64);
    for f in &binary.funcs {
        mix(&mut h, f.guid);
        mix(&mut h, f.probe_checksum.unwrap_or(0));
    }
    h
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
/// with the same [`weight_overlap`] metric the watchdog uses.
pub fn probe_weights(profile: &ContextProfile) -> BTreeMap<(u64, u32), u64> {
    fn walk(node: &crate::context::ContextNode, out: &mut BTreeMap<(u64, u32), u64>) {
        for (&probe, &count) in &node.probes {
            *out.entry((node.guid, probe)).or_insert(0) += count;
        }
        for child in node.children.values() {
            walk(child, out);
        }
    }
    let mut out = BTreeMap::new();
    for node in profile.roots.values() {
        walk(node, &mut out);
    }
    out
}

/// Distribution overlap of two weight maps: `Σ min(aᵢ/Σa, bᵢ/Σb)`, the
/// same min-of-normalized-shares shape as the paper's block-overlap
/// quality metric. 1.0 means identical distributions.
pub fn weight_overlap(a: &BTreeMap<(u64, u32), u64>, b: &BTreeMap<(u64, u32), u64>) -> f64 {
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
    /// An aggregator without missing-frame inference.
    pub fn new(binary: &'b Binary, config: StreamConfig, ingest_shards: usize) -> Self {
        Self::build(binary, config, ingest_shards, None)
    }

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
                    summary.overlap = weight_overlap(prev, &weights);
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
    /// Both formats carry the same content — fingerprint guard,
    /// epoch/sample counters, pinned tail-call graph, range/branch counts,
    /// previous-epoch probe weights, the context profile — and both are
    /// canonical: restore → re-snapshot is byte-identical.
    pub fn snapshot_as(&self, format: SnapshotFormat) -> Vec<u8> {
        match format {
            SnapshotFormat::Text => self.snapshot_text().into_bytes(),
            SnapshotFormat::Binary => self.snapshot_binary(),
        }
    }

    /// Rebuilds an aggregator from a snapshot in *either* format: the
    /// payload is sniffed for the [`crate::binprof`] magic and decoded as
    /// binary when it matches, as UTF-8 text otherwise. The inverse of
    /// [`Self::snapshot_as`], without the caller having to remember which
    /// format was persisted.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Decode`] for a malformed binary payload,
    /// [`PipelineError::Profile`] for an unparsable text context section,
    /// and [`PipelineError::Stream`] when the payload is neither format or
    /// was taken against a different binary build.
    pub fn restore_from(
        binary: &'b Binary,
        config: StreamConfig,
        ingest_shards: usize,
        bytes: &[u8],
    ) -> Result<Self, PipelineError> {
        if bytes.starts_with(&binprof::MAGIC) {
            return Self::restore_binary(binary, config, ingest_shards, bytes);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| {
            PipelineError::Stream(
                "snapshot payload is neither binprof (no magic) nor UTF-8 text".into(),
            )
        })?;
        Self::restore_text(binary, config, ingest_shards, text)
    }

    /// Serializes the cumulative state to text — the human-readable
    /// **debug** snapshot format (production snapshots use
    /// [`SnapshotFormat::Binary`]). The context section is the
    /// [`crate::textprof`] CS format (named via the binary's symbol table
    /// so GUIDs survive the name-hash round-trip); ranges, branches, and
    /// the pinned tail-call graph ride along in sorted line sections, and
    /// a binary fingerprint guards against restoring onto a different
    /// build.
    fn snapshot_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# csspgo-stream-snapshot v1");
        let _ = writeln!(out, "# fingerprint: {:#x}", binary_fingerprint(self.binary));
        let _ = writeln!(out, "# epochs: {}", self.epochs_sealed);
        let _ = writeln!(out, "# samples: {}", self.total_samples);

        let _ = writeln!(out, "!tail-graph");
        if let Some(g) = &self.tail_graph {
            let mut edges: Vec<(u32, u32, usize)> = g.edges().collect();
            edges.sort_unstable();
            for (caller, callee, inst) in edges {
                let _ = writeln!(out, "{caller} {callee} {inst}");
            }
        }

        let _ = writeln!(out, "!ranges");
        let mut ranges: Vec<((usize, usize), u64)> =
            self.rc.ranges.iter().map(|(&k, &v)| (k, v)).collect();
        ranges.sort_unstable();
        for ((b, e), c) in ranges {
            let _ = writeln!(out, "{b} {e} {c}");
        }

        let _ = writeln!(out, "!branches");
        let mut branches: Vec<((usize, usize), u64)> =
            self.rc.branches.iter().map(|(&k, &v)| (k, v)).collect();
        branches.sort_unstable();
        for ((f, t), c) in branches {
            let _ = writeln!(out, "{f} {t} {c}");
        }

        let _ = writeln!(out, "!weights");
        if let Some(w) = &self.last_weights {
            for (&(guid, probe), &count) in w {
                let _ = writeln!(out, "{guid} {probe} {count}");
            }
        }

        let _ = writeln!(out, "!context");
        let mut named = self.context_profile().clone();
        for f in &self.binary.funcs {
            named.names.insert(f.guid, f.name.clone());
        }
        out.push_str(&textprof::write_context(&named));
        out
    }

    /// Rebuilds an aggregator from a text snapshot, ready to resume
    /// folding epochs where the snapshot left off.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stream`] when the snapshot structure is
    /// malformed or was taken against a different binary, and
    /// [`PipelineError::Profile`] when the context section fails to parse.
    fn restore_text(
        binary: &'b Binary,
        config: StreamConfig,
        ingest_shards: usize,
        text: &str,
    ) -> Result<Self, PipelineError> {
        let bad = |msg: String| PipelineError::Stream(msg);
        let mut agg = Self::build(binary, config, ingest_shards, None);

        #[derive(PartialEq)]
        enum Section {
            Header,
            TailGraph,
            Ranges,
            Branches,
            Weights,
        }
        let mut section = Section::Header;
        let mut saw_fingerprint = false;
        let mut graph = TailCallGraph::default();
        let mut saw_graph_edges = false;
        let mut weights: BTreeMap<(u64, u32), u64> = BTreeMap::new();

        let Some((head, ctx_text)) = textprof::split_snapshot_context(text) else {
            return Err(bad("snapshot has no !context section".into()));
        };
        for (lineno, line) in head.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix("# fingerprint:") {
                let v = rest.trim().trim_start_matches("0x");
                let fp = u64::from_str_radix(v, 16)
                    .map_err(|_| bad(format!("line {}: bad fingerprint", lineno + 1)))?;
                if fp != binary_fingerprint(binary) {
                    return Err(bad(
                        "snapshot was taken against a different binary build".into()
                    ));
                }
                saw_fingerprint = true;
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix("# epochs:") {
                agg.epochs_sealed = rest
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("line {}: bad epoch count", lineno + 1)))?;
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix("# samples:") {
                agg.total_samples = rest
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("line {}: bad sample count", lineno + 1)))?;
                continue;
            }
            if trimmed.starts_with('#') {
                continue;
            }
            match trimmed {
                "!tail-graph" => section = Section::TailGraph,
                "!ranges" => section = Section::Ranges,
                "!branches" => section = Section::Branches,
                "!weights" => section = Section::Weights,
                _ => {
                    let mut nums = trimmed.split_whitespace().map(str::parse::<u64>);
                    let mut next = || {
                        nums.next().and_then(Result::ok).ok_or_else(|| {
                            bad(format!("line {}: expected three integers", lineno + 1))
                        })
                    };
                    let (a, b, c) = (next()?, next()?, next()?);
                    let at = |m: &str| bad(format!("line {}: {m}", lineno + 1));
                    match section {
                        Section::Header => {
                            return Err(bad(format!(
                                "line {}: data before any section marker",
                                lineno + 1
                            )))
                        }
                        Section::TailGraph => {
                            graph.insert_edge(
                                func_index(binary, a).map_err(at)?,
                                func_index(binary, b).map_err(at)?,
                                inst_index(binary, c).map_err(at)?,
                            );
                            saw_graph_edges = true;
                        }
                        Section::Ranges => {
                            let range = inst_range(binary, a, b).map_err(at)?;
                            agg.rc.ranges.insert(range, c);
                        }
                        Section::Branches => {
                            let from = inst_index(binary, a).map_err(at)?;
                            let to = inst_index(binary, b).map_err(at)?;
                            agg.rc.branches.insert((from, to), c);
                        }
                        Section::Weights => {
                            let probe =
                                u32::try_from(b).map_err(|_| at("weight probe overflow"))?;
                            weights.insert((a, probe), c);
                        }
                    }
                }
            }
        }

        if !saw_fingerprint {
            // Without the guard a snapshot would restore onto any build and
            // silently mis-correlate its counts.
            return Err(bad("snapshot has no `# fingerprint:` header".into()));
        }

        let mut profile = textprof::parse_context(ctx_text)?;
        // The aggregator's working profile carries no names (exactly like
        // the batch unwinding path); the snapshot only named functions so
        // GUIDs would survive the text round-trip.
        profile.names.clear();
        if saw_graph_edges {
            agg.tail_graph = Some(graph);
        }
        if !weights.is_empty() {
            agg.last_weights = Some(weights);
        }
        agg.adopt(profile);
        Ok(agg)
    }

    /// Serializes the cumulative state to the compact binary snapshot — the
    /// production snapshot path ([`SnapshotFormat::Text`] is the debug
    /// format). Same content as the text snapshot: fingerprint guard,
    /// epoch/sample counters, pinned tail-call graph, range/branch counts,
    /// previous-epoch probe weights, and the context profile (as a nested
    /// [`crate::binprof`] payload — GUIDs are stored natively, so no name
    /// round-trip is needed). The encoding is canonical: restoring and
    /// re-snapshotting yields byte-identical output.
    fn snapshot_binary(&self) -> Vec<u8> {
        let mut buf = binprof::header(Kind::StreamSnapshot);

        let mut meta = Vec::new();
        put_uvarint(&mut meta, binary_fingerprint(self.binary));
        put_uvarint(&mut meta, self.epochs_sealed);
        put_uvarint(&mut meta, self.total_samples);
        binprof::put_section(&mut buf, binprof::section::STREAM_META, &meta);

        if let Some(g) = &self.tail_graph {
            let mut edges: Vec<(u32, u32, usize)> = g.edges().collect();
            edges.sort_unstable();
            // An edgeless pinned graph is indistinguishable from "no graph"
            // in the text snapshot; mirror that so the formats stay
            // losslessly interchangeable.
            if !edges.is_empty() {
                let mut sec = Vec::new();
                put_uvarint(&mut sec, edges.len() as u64);
                for (caller, callee, inst) in edges {
                    put_uvarint(&mut sec, u64::from(caller));
                    put_uvarint(&mut sec, u64::from(callee));
                    put_uvarint(&mut sec, inst as u64);
                }
                binprof::put_section(&mut buf, binprof::section::STREAM_TAILGRAPH, &sec);
            }
        }

        let counts_section = |map: &crate::fasthash::FastMap<(usize, usize), u64>| {
            let mut entries: Vec<((usize, usize), u64)> =
                map.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable();
            let mut sec = Vec::new();
            put_uvarint(&mut sec, entries.len() as u64);
            let mut prev = 0u64;
            for ((a, b), c) in entries {
                put_uvarint(&mut sec, (a as u64).wrapping_sub(prev));
                put_uvarint(&mut sec, b as u64);
                put_uvarint(&mut sec, c);
                prev = a as u64;
            }
            sec
        };
        binprof::put_section(
            &mut buf,
            binprof::section::STREAM_RANGES,
            &counts_section(&self.rc.ranges),
        );
        binprof::put_section(
            &mut buf,
            binprof::section::STREAM_BRANCHES,
            &counts_section(&self.rc.branches),
        );

        if let Some(w) = self.last_weights.as_ref().filter(|w| !w.is_empty()) {
            let mut sec = Vec::new();
            put_uvarint(&mut sec, w.len() as u64);
            let mut prev = 0u64;
            for (&(guid, probe), &count) in w {
                put_uvarint(&mut sec, guid.wrapping_sub(prev));
                put_uvarint(&mut sec, u64::from(probe));
                put_uvarint(&mut sec, count);
                prev = guid;
            }
            binprof::put_section(&mut buf, binprof::section::STREAM_WEIGHTS, &sec);
        }

        binprof::put_section(
            &mut buf,
            binprof::section::STREAM_CONTEXT,
            &binprof::encode_context(self.context_profile()),
        );
        buf
    }

    /// Rebuilds an aggregator from a binary snapshot payload.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Decode`] when the payload is malformed and
    /// [`PipelineError::Stream`] when it was taken against a different
    /// binary build.
    fn restore_binary(
        binary: &'b Binary,
        config: StreamConfig,
        ingest_shards: usize,
        bytes: &[u8],
    ) -> Result<Self, PipelineError> {
        use crate::binprof::DecodeError;
        let mut r = binprof::check_header(bytes, Kind::StreamSnapshot)?;
        let sections = binprof::read_sections(&mut r)?;
        let find = |tag: u8| sections.iter().find(|(t, _)| *t == tag).map(|(_, p)| *p);

        let mut agg = Self::build(binary, config, ingest_shards, None);

        let meta = find(binprof::section::STREAM_META)
            .ok_or(DecodeError::Corrupt("missing stream metadata section"))?;
        let mut mr = binprof::Reader::new(meta);
        let fp = mr.uvarint()?;
        if fp != binary_fingerprint(binary) {
            return Err(PipelineError::Stream(
                "snapshot was taken against a different binary build".into(),
            ));
        }
        agg.epochs_sealed = mr.uvarint()?;
        agg.total_samples = mr.uvarint()?;

        if let Some(sec) = find(binprof::section::STREAM_TAILGRAPH) {
            let mut gr = binprof::Reader::new(sec);
            let n = gr.uvarint()?;
            let mut graph = TailCallGraph::default();
            for _ in 0..n {
                let caller = func_index(binary, gr.uvarint()?).map_err(DecodeError::Corrupt)?;
                let callee = func_index(binary, gr.uvarint()?).map_err(DecodeError::Corrupt)?;
                let inst = inst_index(binary, gr.uvarint()?).map_err(DecodeError::Corrupt)?;
                graph.insert_edge(caller, callee, inst);
            }
            if n > 0 {
                agg.tail_graph = Some(graph);
            }
        }

        type PairCounts = Vec<((u64, u64), u64)>;
        let read_counts = |payload: &[u8]| -> Result<PairCounts, DecodeError> {
            let mut cr = binprof::Reader::new(payload);
            let n = cr.uvarint()?;
            let mut out = Vec::new();
            let mut prev = 0u64;
            for _ in 0..n {
                let a = prev.wrapping_add(cr.uvarint()?);
                let b = cr.uvarint()?;
                let c = cr.uvarint()?;
                out.push(((a, b), c));
                prev = a;
            }
            Ok(out)
        };
        if let Some(sec) = find(binprof::section::STREAM_RANGES) {
            for ((begin, end), v) in read_counts(sec)? {
                let range = inst_range(binary, begin, end).map_err(DecodeError::Corrupt)?;
                agg.rc.ranges.insert(range, v);
            }
        }
        if let Some(sec) = find(binprof::section::STREAM_BRANCHES) {
            for ((from, to), v) in read_counts(sec)? {
                let from = inst_index(binary, from).map_err(DecodeError::Corrupt)?;
                let to = inst_index(binary, to).map_err(DecodeError::Corrupt)?;
                agg.rc.branches.insert((from, to), v);
            }
        }

        if let Some(sec) = find(binprof::section::STREAM_WEIGHTS) {
            let mut wr = binprof::Reader::new(sec);
            let n = wr.uvarint()?;
            let mut weights: BTreeMap<(u64, u32), u64> = BTreeMap::new();
            let mut prev = 0u64;
            for _ in 0..n {
                let guid = prev.wrapping_add(wr.uvarint()?);
                let probe = u32::try_from(wr.uvarint()?)
                    .map_err(|_| DecodeError::Corrupt("weight probe overflow"))?;
                weights.insert((guid, probe), wr.uvarint()?);
                prev = guid;
            }
            if !weights.is_empty() {
                agg.last_weights = Some(weights);
            }
        }

        let ctx = find(binprof::section::STREAM_CONTEXT)
            .ok_or(DecodeError::Corrupt("missing stream context section"))?;
        agg.adopt(binprof::decode_context(ctx)?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::sharded_context_profile;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_sim::{Machine, SimConfig};

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

    /// The memory bound (DESIGN.md §18.4): an aggregator whose first arena
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
        let mut agg = StreamAggregator::new(&b, cfg, 1);
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
        let mut agg = StreamAggregator::new(&b, StreamConfig::default(), 1);
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
        let mut agg = StreamAggregator::new(&b, StreamConfig::default(), 1);
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
        let mut agg = StreamAggregator::new(&b, cfg, 1);
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

    #[test]
    fn weight_overlap_behaves_like_a_distribution_metric() {
        let mut a = BTreeMap::new();
        a.insert((1u64, 1u32), 100u64);
        a.insert((1, 2), 50);
        assert!((weight_overlap(&a, &a) - 1.0).abs() < 1e-12);
        let mut scaled = BTreeMap::new();
        scaled.insert((1u64, 1u32), 10u64);
        scaled.insert((1, 2), 5);
        assert!((weight_overlap(&a, &scaled) - 1.0).abs() < 1e-12);
        let mut disjoint = BTreeMap::new();
        disjoint.insert((2u64, 1u32), 100u64);
        assert_eq!(weight_overlap(&a, &disjoint), 0.0);
        assert_eq!(weight_overlap(&BTreeMap::new(), &BTreeMap::new()), 1.0);
        assert_eq!(weight_overlap(&a, &BTreeMap::new()), 0.0);
    }
}
