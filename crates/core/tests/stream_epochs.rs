//! The streaming aggregation epoch invariant, end to end: folding N epochs
//! incrementally must produce a profile *bit-identical* to one-shot batch
//! ingestion of the concatenated samples — for real simulated traffic
//! (golden test), for arbitrary epoch boundaries over arbitrary sample
//! streams (property test), and across a snapshot→restore→resume cut — and
//! every per-epoch fact the aggregator reports must be what materialising
//! each epoch's profile and merging it into a cumulative trie gives (the
//! epoch oracle).

use csspgo_codegen::Binary;
use csspgo_core::context::ContextProfile;
use csspgo_core::overlap::share_overlap;
use csspgo_core::pipeline::{
    finish_probe_profile, profiling_build, profiling_run, PgoVariant, PipelineConfig, PipelineError,
};
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_context_profile;
use csspgo_core::stream::{
    probe_weights, ContextEdge, EpochSummary, EvictStats, SnapshotFormat, StreamAggregator,
    StreamConfig,
};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_sim::{Machine, Sample, SimConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[path = "../../../tests/common/reference_trie.rs"]
mod reference_trie;
use reference_trie::{evict_subtree, merge_context};

#[path = "../../../tests/common/reference_unwind.rs"]
mod reference_unwind;
use reference_unwind::reference_unwind;

#[path = "../../../tests/common/sample_gen.rs"]
mod sample_gen;
use sample_gen::{probed_binary, sample_stream_strategy, to_samples};

/// The batch reference: full-stream RangeCounts + the per-sample reference
/// unwinder over the whole stream.
fn batch_reference(
    binary: &Binary,
    graph: &TailCallGraph,
    samples: &[Sample],
) -> (RangeCounts, ContextProfile) {
    let mut rc = RangeCounts::default();
    rc.add_samples(binary, samples);
    (rc, reference_unwind(binary, Some(graph), samples).profile)
}

fn real_traffic(binary: &Binary) -> Vec<Sample> {
    let mut machine = Machine::new(
        binary,
        SimConfig {
            sample_period: 19,
            ..SimConfig::default()
        },
    );
    for n in [2000i64, 1700, 2300] {
        machine.call("main", &[n]).unwrap();
    }
    machine.take_samples()
}

#[test]
fn golden_incremental_epochs_equal_batch_ingestion() {
    let binary = probed_binary();
    let samples = real_traffic(&binary);
    assert!(samples.len() > 200, "need a substantial stream");

    let mut rc = RangeCounts::default();
    rc.add_samples(&binary, &samples);
    let graph = TailCallGraph::build(&binary, &rc);
    let (rc_ref, profile_ref) = batch_reference(&binary, &graph, &samples);

    for (epochs, shards) in [(1usize, 0usize), (3, 1), (5, 4), (11, 3)] {
        let mut agg = StreamAggregator::with_tail_graph(
            &binary,
            StreamConfig::default(),
            shards,
            graph.clone(),
        );
        for batch in samples.chunks(samples.len().div_ceil(epochs)) {
            agg.push_batch(batch.to_vec()).unwrap();
            agg.seal_epoch();
        }
        assert_eq!(
            agg.context_profile(),
            &profile_ref,
            "{epochs} epochs x {shards} shards diverged from batch"
        );
        assert_eq!(agg.range_counts(), &rc_ref);
    }
}

/// Splits `samples` at fractional positions (in permille) drawn by
/// proptest, producing arbitrary (possibly empty) epoch batches that
/// concatenate to the stream.
fn split_at_fractions(samples: &[Sample], permille: &[usize]) -> Vec<Vec<Sample>> {
    let mut cuts: Vec<usize> = permille.iter().map(|f| f * samples.len() / 1000).collect();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut prev = 0;
    for c in cuts {
        out.push(samples[prev..c].to_vec());
        prev = c;
    }
    out.push(samples[prev..].to_vec());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY sample stream (including garbage addresses and broken
    /// stacks), ANY epoch partition of it, and ANY shard count, the
    /// incrementally folded profile is bit-identical to the batch one.
    #[test]
    fn random_epoch_boundaries_preserve_bit_identity(
        raw in sample_stream_strategy(64),
        fractions in proptest::collection::vec(0usize..1000, 0..6),
        shards in 0usize..5,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);
        let (rc_ref, profile_ref) = batch_reference(&binary, &graph, &samples);

        let mut agg = StreamAggregator::with_tail_graph(
            &binary,
            StreamConfig::default(),
            shards,
            graph.clone(),
        );
        let batches = split_at_fractions(&samples, &fractions);
        let epochs = batches.len();
        for batch in batches {
            agg.push_batch(batch).unwrap();
            agg.seal_epoch();
        }
        prop_assert_eq!(agg.epochs_sealed(), epochs as u64);
        prop_assert_eq!(agg.total_samples(), samples.len() as u64);
        prop_assert_eq!(agg.range_counts(), &rc_ref);
        prop_assert_eq!(agg.context_profile(), &profile_ref);
    }

    /// Snapshotting at ANY epoch boundary, restoring, and resuming the
    /// remaining epochs lands on the same batch-identical profile.
    #[test]
    fn snapshot_restore_at_random_cut_preserves_bit_identity(
        raw in sample_stream_strategy(64),
        cut_permille in 0usize..1000,
        shards in 0usize..4,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);
        let (rc_ref, profile_ref) = batch_reference(&binary, &graph, &samples);

        let cut = cut_permille * samples.len() / 1000;
        let mut agg = StreamAggregator::with_tail_graph(
            &binary,
            StreamConfig::default(),
            shards,
            graph.clone(),
        );
        agg.push_batch(samples[..cut].to_vec()).unwrap();
        agg.seal_epoch();

        let snap = agg.snapshot_as(SnapshotFormat::Text);
        let mut resumed =
            StreamAggregator::restore_from(&binary, StreamConfig::default(), shards, &snap)
                .unwrap();
        prop_assert_eq!(resumed.total_samples(), cut as u64);
        resumed.push_batch(samples[cut..].to_vec()).unwrap();
        resumed.seal_epoch();

        prop_assert_eq!(resumed.range_counts(), &rc_ref);
        prop_assert_eq!(resumed.context_profile(), &profile_ref);
    }
}

/// Regression: a snapshot truncated *exactly* at the `!context` marker (no
/// trailing newline) used to make `restore` index one byte past the end of
/// the text and panic. A fresh aggregator's context section is legitimately
/// empty, so such a snapshot must restore cleanly instead.
#[test]
fn restore_survives_snapshot_truncated_at_context_marker() {
    let binary = probed_binary();
    let agg = StreamAggregator::with_tail_graph(
        &binary,
        StreamConfig::default(),
        1,
        TailCallGraph::default(),
    );
    let snap = String::from_utf8(agg.snapshot_as(SnapshotFormat::Text)).unwrap();

    let cut = snap.find("!context").unwrap() + "!context".len();
    let truncated = &snap.as_bytes()[..cut];
    let restored = StreamAggregator::restore_from(&binary, StreamConfig::default(), 1, truncated)
        .expect("truncation at the marker leaves a valid, empty context section");
    assert_eq!(restored.total_samples(), 0);
    assert_eq!(restored.context_profile().roots.len(), 0);

    // Truncating *before* the marker loses the section entirely and must
    // stay a structured error, not a panic.
    let cut = snap.find("!context").unwrap();
    let err = match StreamAggregator::restore_from(
        &binary,
        StreamConfig::default(),
        1,
        &snap.as_bytes()[..cut],
    ) {
        Ok(_) => panic!("missing !context section must be an error"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("context"),
        "error should name the missing section: {err}"
    );
}

/// Regression: the text restore found the `!context` marker by adding
/// `line.len() + 1` per line, one byte short per CRLF line ending. A CRLF
/// snapshot then split inside its header: with a non-ASCII comment line the
/// cut fell inside a character and `restore_from` panicked; without one it
/// failed on a mangled row. Both now restore, and re-snapshot to the LF
/// original byte for byte.
#[test]
fn a_crlf_text_snapshot_restores_like_its_lf_original() {
    let binary = probed_binary();
    let agg = StreamAggregator::with_tail_graph(
        &binary,
        StreamConfig::default(),
        1,
        TailCallGraph::default(),
    );
    let lf = String::from_utf8(agg.snapshot_as(SnapshotFormat::Text)).unwrap();
    let commented = lf.replacen(
        "!context\n",
        &format!("# {}\n!context\n", "é".repeat(20)),
        1,
    );
    assert_ne!(commented, lf);
    for text in [&lf, &commented] {
        let crlf = text.replace('\n', "\r\n");
        let restored =
            StreamAggregator::restore_from(&binary, StreamConfig::default(), 1, crlf.as_bytes())
                .unwrap();
        assert_eq!(restored.snapshot_as(SnapshotFormat::Text), lf.as_bytes());
    }
}

/// A sealed one-epoch aggregator over real traffic, snapshotted as text.
///
/// Both formats decode to one snapshot value, and one check restores it
/// whichever format it came in, so a snapshot that is wrong for the binary
/// is refused alike in both; the text format is the one a test can poison
/// without knowing the binary framing (whose own faults — a missing section,
/// truncation, an overlong count — `binprof`'s unit tests hold).
fn real_text_snapshot(binary: &Binary) -> String {
    let samples = real_traffic(binary);
    let mut rc = RangeCounts::default();
    rc.add_samples(binary, &samples);
    let graph = TailCallGraph::build(binary, &rc);
    let mut agg = StreamAggregator::with_tail_graph(binary, StreamConfig::default(), 1, graph);
    agg.push_batch(samples).unwrap();
    agg.seal_epoch();
    String::from_utf8(agg.snapshot_as(SnapshotFormat::Text)).unwrap()
}

fn restore_err(binary: &Binary, payload: &[u8]) -> PipelineError {
    match StreamAggregator::restore_from(binary, StreamConfig::default(), 1, payload) {
        Ok(_) => panic!("a poisoned snapshot must not restore"),
        Err(e) => e,
    }
}

/// `text` without its lines starting with `prefix`.
fn without_line(text: &str, prefix: &str) -> String {
    let stripped: String = text
        .lines()
        .filter(|l| !l.starts_with(prefix))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(stripped, text, "the snapshot carries a `{prefix}` line");
    stripped
}

/// Regression: the text restore only compared the fingerprint when the
/// `# fingerprint:` line was present, so a snapshot with the line deleted
/// restored onto *any* binary. The guard is mandatory.
#[test]
fn restore_refuses_a_snapshot_without_its_fingerprint() {
    let binary = probed_binary();
    let text = real_text_snapshot(&binary);
    let err = restore_err(&binary, without_line(&text, "# fingerprint:").as_bytes());
    assert!(matches!(err, PipelineError::Stream(_)), "{err}");
    assert!(err.to_string().contains("fingerprint"), "{err}");
}

/// Regression: a text snapshot without its `# epochs:` or `# samples:` line
/// restored with that counter at 0, while a binary snapshot without its
/// meta section was refused. Both counters are now as mandatory as the
/// fingerprint.
#[test]
fn restore_refuses_a_snapshot_without_its_epoch_or_sample_count() {
    let binary = probed_binary();
    let text = real_text_snapshot(&binary);
    for key in ["epochs", "samples"] {
        let err = restore_err(
            &binary,
            without_line(&text, &format!("# {key}:")).as_bytes(),
        );
        assert!(matches!(err, PipelineError::Stream(_)), "{key}: {err}");
        assert!(err.to_string().contains(key), "{err}");
    }
}

/// Regression: range, branch and tail-graph rows were inserted straight
/// from the payload, so an index past the binary restored `Ok` and panicked
/// on the next entry back-fill / unwind. Every such row is now refused at
/// restore time, naming the row, in both formats through the one check.
#[test]
fn restore_refuses_out_of_binary_indices_in_both_formats() {
    let binary = probed_binary();
    let past = binary.len() as u64 + 2000;
    let no_func = binary.funcs.len() as u64 + 7;

    // One poisoned row appended right under the section marker.
    let text = real_text_snapshot(&binary);
    for (marker, row) in [
        ("!ranges", format!("{past} {past} 1")),
        ("!ranges", "5 2 1".to_string()),
        ("!branches", format!("0 {past} 1")),
        ("!branches", format!("{past} 0 1")),
        ("!tail-graph", format!("0 {no_func} 0")),
        ("!tail-graph", format!("{no_func} 0 0")),
        ("!tail-graph", format!("0 1 {past}")),
    ] {
        let poisoned = text.replacen(&format!("{marker}\n"), &format!("{marker}\n{row}\n"), 1);
        assert_ne!(poisoned, text, "{marker} present");
        let err = restore_err(&binary, poisoned.as_bytes());
        assert!(
            matches!(err, PipelineError::Stream(_)) && err.to_string().contains(&row),
            "{marker} `{row}`: {err}"
        );
    }

    // The untouched snapshot still restores and finalizes, in both formats.
    let restored =
        StreamAggregator::restore_from(&binary, StreamConfig::default(), 1, text.as_bytes())
            .unwrap();
    let bin = restored.snapshot_as(SnapshotFormat::Binary);
    for payload in [text.as_bytes(), &bin[..]] {
        let restored =
            StreamAggregator::restore_from(&binary, StreamConfig::default(), 1, payload).unwrap();
        let live = restored.to_generated();
        let probe = finish_probe_profile(&live.profile, &live.range_counts, &binary);
        assert!(probe.total() > 0);
    }
}

/// Regression: a text row repeating the key of a row before it — a tail
/// edge's caller and callee, a range's or a branch's ends, a weight's
/// function and probe — restored, the later row silently replacing the
/// earlier. The one restore check now refuses it, naming the row.
#[test]
fn restore_refuses_a_repeated_text_row() {
    let binary = probed_binary();
    let text = real_text_snapshot(&binary);
    for marker in ["!tail-graph", "!ranges", "!branches", "!weights"] {
        let rows = text.split(&format!("{marker}\n")).nth(1).unwrap();
        let (text, first) = match rows.lines().next().filter(|l| !l.starts_with('!')) {
            Some(first) => (text.clone(), first.to_string()),
            // The program makes no tail call: one edge inside it.
            None => (
                text.replacen(&format!("{marker}\n"), &format!("{marker}\n0 0 0\n"), 1),
                "0 0 0".to_string(),
            ),
        };
        let (key, last) = first.rsplit_once(' ').unwrap();
        let again = format!("{key} {}", last.parse::<u64>().unwrap() + 1);
        let poisoned = text.replacen(
            &format!("{marker}\n{first}\n"),
            &format!("{marker}\n{first}\n{again}\n"),
            1,
        );
        let err = restore_err(&binary, poisoned.as_bytes());
        let msg = err.to_string();
        assert!(
            matches!(err, PipelineError::Stream(_))
                && msg.contains(&format!("`{again}`"))
                && msg.contains("repeats the key"),
            "{marker}: {msg}"
        );
    }
}

/// Regression: the text restore narrowed a `!weights` probe index with
/// `as u32`, so probe 2³²+1 silently restored as probe 1 while the binary
/// format refused the same row. Both formats now refuse it, through the one
/// check.
#[test]
fn restore_refuses_a_weight_probe_past_u32_in_both_formats() {
    let binary = probed_binary();
    let wide = u64::from(u32::MAX) + 2;

    let text = real_text_snapshot(&binary);
    let poisoned = text.replacen("!weights\n", &format!("!weights\n7 {wide} 1\n"), 1);
    assert_ne!(poisoned, text, "!weights present");
    let err = restore_err(&binary, poisoned.as_bytes());
    assert!(matches!(err, PipelineError::Stream(_)), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("`7 {wide} 1`")) && msg.contains("weight probe overflow"),
        "{msg}"
    );
}

/// What materialising and merging says an aggregator should hold: the
/// cumulative trie and range counts, the previous epoch's probe weights and
/// the eviction counters, kept with public items and the reference trie only
/// — each epoch's profile from [`sharded_context_profile`], folded by
/// [`merge_context`], drift from [`probe_weights`] and [`share_overlap`],
/// eviction by [`evict_subtree`].
struct Materialised<'a> {
    binary: &'a Binary,
    graph: &'a TailCallGraph,
    drift_threshold: f64,
    profile: ContextProfile,
    rc: RangeCounts,
    last_weights: Option<BTreeMap<(u64, u32), u64>>,
    epochs: u64,
    total_samples: u64,
    evicted: EvictStats,
}

impl<'a> Materialised<'a> {
    fn new(binary: &'a Binary, graph: &'a TailCallGraph, drift_threshold: f64) -> Self {
        Materialised {
            binary,
            graph,
            drift_threshold,
            profile: ContextProfile::new(),
            rc: RangeCounts::default(),
            last_weights: None,
            epochs: 0,
            total_samples: 0,
            evicted: EvictStats::default(),
        }
    }

    /// Seals `samples` as one epoch: the summary's non-clock fields and the
    /// depth-1 edges the epoch touched, in `last_epoch_edges()` order.
    fn seal(&mut self, samples: &[Sample]) -> (EpochSummary, Vec<ContextEdge>) {
        let mut summary = EpochSummary {
            epoch: self.epochs,
            samples: samples.len(),
            overlap: 1.0,
            ..EpochSummary::default()
        };
        let mut edges = Vec::new();
        if !samples.is_empty() {
            self.rc.add_samples(self.binary, samples);
            let epoch = sharded_context_profile(self.binary, Some(self.graph), samples, 1).profile;
            summary.nodes_epoch = epoch.node_count();
            merge_context(&mut self.profile, &epoch);
            for (&root, node) in &epoch.roots {
                for &(probe, callee) in node.callsites.keys() {
                    edges.push(ContextEdge {
                        root,
                        probe,
                        callee,
                    });
                }
            }
            let weights = probe_weights(&epoch);
            // Every epoch of real traffic attributes probe weight; what an
            // epoch without any does to the drift baseline is not this
            // oracle's subject.
            assert!(
                !weights.is_empty(),
                "an epoch of real traffic with no probe weight"
            );
            if let Some(prev) = &self.last_weights {
                summary.overlap = share_overlap(prev, &weights);
                summary.stale =
                    self.drift_threshold > 0.0 && summary.overlap < self.drift_threshold;
            }
            self.last_weights = Some(weights);
        }
        self.epochs += 1;
        self.total_samples += samples.len() as u64;
        summary.total_samples = self.total_samples;
        summary.nodes_cumulative = self.profile.node_count();
        (summary, edges)
    }

    fn evict(&mut self, edge: ContextEdge) -> EvictStats {
        let mut stats = EvictStats::default();
        if let Some((nodes, weight)) =
            evict_subtree(&mut self.profile, edge.root, edge.probe, edge.callee)
        {
            stats = EvictStats {
                subtrees: 1,
                nodes_folded: nodes,
                weight_folded: weight,
            };
        }
        self.evicted.absorb(stats);
        stats
    }

    fn resident_contexts(&self) -> usize {
        self.profile.node_count() - self.profile.roots.len()
    }
}

fn assert_evict_stats_eq(got: EvictStats, want: EvictStats, what: &str) {
    assert_eq!(
        (got.subtrees, got.nodes_folded, got.weight_folded),
        (want.subtrees, want.nodes_folded, want.weight_folded),
        "{what}"
    );
}

/// The epoch oracle. Real evaluation-program streams go through an
/// aggregator at one, two and three shards in epochs of uneven size (an
/// empty one among them), with an LRU over `last_epoch_edges()` evicting
/// down to a small resident cap after every seal and a snapshot → restore in
/// alternating formats every few epochs; after every seal and every eviction
/// each fact the aggregator reports is held to [`Materialised`]: every
/// non-clock [`EpochSummary`] field (`overlap` to the bit), the edges and
/// their order, `resident_contexts()`, `evict_stats()`, and the profile
/// after every other seal and every third eviction pass; at the end the
/// profile and the range counts.
#[test]
fn every_epoch_fact_matches_materialise_and_merge() {
    const EPOCH_SIZES: [usize; 6] = [256, 97, 0, 400, 31, 256];
    const RESIDENT_CAP: usize = 4;
    const RESTORE_EVERY: usize = 5;
    let config = PipelineConfig::default();
    let mut stale_epochs = 0;
    let stream_cfg = StreamConfig {
        drift_threshold: 0.9,
        ..StreamConfig::default()
    };
    for (w, scale) in [
        (csspgo_workloads::ad_retriever(), 0.3),
        (csspgo_workloads::haas(), 0.3),
        (csspgo_workloads::hhvm(), 0.2),
        (csspgo_workloads::client_compiler(), 0.03),
    ] {
        let binary = profiling_build(&w.source, &w.name, PgoVariant::CsspgoFull, &config)
            .unwrap()
            .binary;
        let samples = profiling_run(
            &binary,
            &w.scaled(scale),
            config.sim_config(config.sample_period),
        )
        .unwrap()
        .samples;
        assert!(
            samples.len() > 1500,
            "{}: {} samples",
            w.name,
            samples.len()
        );
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);

        let (mut evictions, mut stale) = (0, 0);
        for shards in [1, 2, 3] {
            let what = |epoch: u64| format!("{} at {shards} shard(s), epoch {epoch}", w.name);
            let mut agg = StreamAggregator::with_tail_graph(
                &binary,
                stream_cfg.clone(),
                shards,
                graph.clone(),
            );
            let mut model = Materialised::new(&binary, &graph, stream_cfg.drift_threshold);
            let mut lru: BTreeMap<ContextEdge, u64> = BTreeMap::new();
            let mut rest = &samples[..];
            let mut k = 0;
            while !rest.is_empty() {
                let (chunk, tail) =
                    rest.split_at(EPOCH_SIZES[k % EPOCH_SIZES.len()].min(rest.len()));
                rest = tail;
                k += 1;

                agg.push_batch(chunk.to_vec()).unwrap();
                let got = agg.seal_epoch();
                let (want, edges) = model.seal(chunk);
                let at = what(got.epoch);
                assert_eq!(got.epoch, want.epoch, "{at}");
                assert_eq!(got.samples, want.samples, "{at}");
                assert_eq!(got.total_samples, want.total_samples, "{at}");
                assert_eq!(got.nodes_epoch, want.nodes_epoch, "{at}: nodes_epoch");
                assert_eq!(
                    got.nodes_cumulative, want.nodes_cumulative,
                    "{at}: nodes_cumulative"
                );
                assert_eq!(
                    got.overlap.to_bits(),
                    want.overlap.to_bits(),
                    "{at}: overlap"
                );
                assert_eq!(got.stale, want.stale, "{at}: stale");
                assert_eq!(agg.last_epoch_edges(), &edges[..], "{at}: edges");
                assert_eq!(agg.resident_contexts(), model.resident_contexts(), "{at}");
                assert_evict_stats_eq(agg.evict_stats(), model.evicted, &at);
                // The profile is read after some seals and some evictions
                // only, so that snapshots are taken both right after a read
                // and with no read since the last change.
                if k % 2 == 1 {
                    assert_eq!(agg.context_profile(), &model.profile, "{at}: profile");
                }
                stale += usize::from(got.stale);

                for &edge in agg.last_epoch_edges() {
                    lru.insert(edge, got.epoch);
                }
                while agg.resident_contexts() > RESIDENT_CAP {
                    let (&edge, _) = lru.iter().min_by_key(|&(e, &ep)| (ep, *e)).unwrap();
                    lru.remove(&edge);
                    let got_stats = agg.evict_contexts(&[edge]);
                    let want_stats = model.evict(edge);
                    let at = format!("{at}: evicting {edge:?}");
                    assert_evict_stats_eq(got_stats, want_stats, &at);
                    assert_evict_stats_eq(agg.evict_stats(), model.evicted, &at);
                    assert_eq!(agg.resident_contexts(), model.resident_contexts(), "{at}");
                    evictions += got_stats.subtrees;
                }
                if k % 3 == 0 {
                    assert_eq!(agg.context_profile(), &model.profile, "{at}: evicted");
                }

                if k % RESTORE_EVERY == 0 {
                    let format = if k % (2 * RESTORE_EVERY) == 0 {
                        SnapshotFormat::Text
                    } else {
                        SnapshotFormat::Binary
                    };
                    let bytes = agg.snapshot_as(format);
                    agg =
                        StreamAggregator::restore_from(&binary, stream_cfg.clone(), shards, &bytes)
                            .unwrap();
                    // Like the diagnostic counters, a restored aggregator's
                    // eviction counters start at zero.
                    model.evicted = EvictStats::default();
                    assert_eq!(agg.context_profile(), &model.profile, "{at}: restored");
                    assert_eq!(agg.resident_contexts(), model.resident_contexts(), "{at}");
                    assert_evict_stats_eq(agg.evict_stats(), model.evicted, &at);
                }
            }
            let at = what(model.epochs);
            assert_eq!(agg.context_profile(), &model.profile, "{at}: profile");
            assert_eq!(agg.range_counts(), &model.rc, "{at}: range counts");
            assert_eq!(agg.total_samples(), samples.len() as u64, "{at}");
        }
        assert!(evictions > 0, "{}: the cap must evict", w.name);
        stale_epochs += stale;
    }
    assert!(stale_epochs > 0, "some epoch must read stale");
}
