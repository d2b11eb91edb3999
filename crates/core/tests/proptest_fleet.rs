//! Property tests for the fleet's cold-context compaction granule, on the
//! path production runs: [`StreamAggregator::evict_contexts`] (the arena's
//! eviction) must conserve total sample weight and shrink residency by
//! exactly the detached node count, for the trie *any* sample stream
//! unwinds to and *any* eviction sequence, interleaved with more traffic
//! that re-attaches evicted contexts — and must agree, stats and profile,
//! with the reference eviction of `tests/common/reference_trie.rs` on the
//! materialised trie.

use csspgo_codegen::Binary;
use csspgo_core::context::ContextProfile;
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_context_profile;
use csspgo_core::stream::{ContextEdge, StreamAggregator, StreamConfig};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_sim::Sample;
use proptest::prelude::*;

#[path = "../../../tests/common/reference_trie.rs"]
mod reference_trie;
use reference_trie::{evict_subtree, merge_context};

#[path = "../../../tests/common/sample_gen.rs"]
mod sample_gen;
use sample_gen::{probed_binary, sample_stream_strategy, to_samples};

/// Context nodes beyond the per-function base profiles — the quantity the
/// fleet's resident-context cap bounds.
fn resident(profile: &ContextProfile) -> usize {
    profile.node_count() - profile.roots.len()
}

/// Every depth-1 edge currently evictable.
fn edges(profile: &ContextProfile) -> Vec<ContextEdge> {
    profile
        .roots
        .iter()
        .flat_map(|(&root, node)| {
            node.children
                .keys()
                .map(move |&(probe, callee)| ContextEdge {
                    root,
                    probe,
                    callee,
                })
        })
        .collect()
}

/// Seals `epoch` in `agg` and folds the profile it unwinds to into `model`
/// by the reference merge, as the epoch oracle does.
fn seal(
    agg: &mut StreamAggregator<'_>,
    model: &mut ContextProfile,
    binary: &Binary,
    graph: &TailCallGraph,
    epoch: &[Sample],
) {
    let profile = sharded_context_profile(binary, Some(graph), epoch, 1).profile;
    merge_context(model, &profile);
    agg.push_batch(epoch.to_vec()).unwrap();
    agg.seal_epoch();
}

/// The tail-call graph of the whole stream, pinned in the aggregator and
/// the model alike.
fn tail_graph(binary: &Binary, samples: &[Sample]) -> TailCallGraph {
    let mut rc = RangeCounts::default();
    rc.add_samples(binary, samples);
    TailCallGraph::build(binary, &rc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any eviction sequence conserves the trie total, each eviction
    /// shrinks residency by exactly the detached node count (folding may
    /// mint base roots, but those are never resident contexts), and a
    /// second eviction of the same edge is a no-op — in two epochs, so the
    /// second re-attaches some of what the first evicted.
    #[test]
    fn eviction_conserves_weight_and_shrinks_residency(
        raw in sample_stream_strategy(64),
        cut in 0usize..1000,
        picks in proptest::collection::vec(any::<u64>(), 0..24),
        shards in 1usize..4,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let graph = tail_graph(&binary, &samples);
        let mut agg =
            StreamAggregator::with_tail_graph(&binary, StreamConfig::default(), shards, graph.clone());
        let mut model = ContextProfile::new();
        let cut = cut * samples.len() / 1000;
        let half = picks.len() / 2;
        for (epoch, picks) in [(&samples[..cut], &picks[..half]), (&samples[cut..], &picks[half..])] {
            seal(&mut agg, &mut model, &binary, &graph, epoch);
            prop_assert_eq!(agg.context_profile(), &model);
            let total = model.total();
            for &pick in picks {
                let evictable = edges(&model);
                if evictable.is_empty() {
                    break;
                }
                let edge = evictable[(pick % evictable.len() as u64) as usize];
                let before = agg.resident_contexts();
                let got = agg.evict_contexts(&[edge]);
                let (nodes, weight) = evict_subtree(&mut model, edge.root, edge.probe, edge.callee)
                    .expect("edge enumerated from the model");
                prop_assert_eq!((got.subtrees, got.nodes_folded, got.weight_folded), (1, nodes, weight));
                prop_assert!(nodes >= 1);
                prop_assert_eq!(agg.resident_contexts(), before - nodes);
                prop_assert_eq!(agg.resident_contexts(), resident(&model));
                prop_assert_eq!(agg.context_profile().total(), total, "weight {} not conserved", weight);
                prop_assert_eq!(agg.context_profile(), &model);
                // The edge is gone: a second eviction is a no-op.
                prop_assert_eq!(agg.evict_contexts(&[edge]).subtrees, 0);
            }
        }
    }

    /// Draining every context leaves exactly the base profiles — same
    /// total, zero resident contexts, and no root with a child.
    #[test]
    fn full_drain_collapses_to_base_profiles(
        raw in sample_stream_strategy(64),
        shards in 1usize..4,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let graph = tail_graph(&binary, &samples);
        let mut agg =
            StreamAggregator::with_tail_graph(&binary, StreamConfig::default(), shards, graph.clone());
        let mut model = ContextProfile::new();
        seal(&mut agg, &mut model, &binary, &graph, &samples);
        let total = model.total();

        while let Some(&edge) = edges(agg.context_profile()).first() {
            prop_assert_eq!(agg.evict_contexts(&[edge]).subtrees, 1);
            evict_subtree(&mut model, edge.root, edge.probe, edge.callee).unwrap();
        }

        prop_assert_eq!(agg.resident_contexts(), 0);
        let drained = agg.context_profile();
        prop_assert_eq!(drained.total(), total);
        prop_assert!(drained.roots.values().all(|n| n.children.is_empty()));
        prop_assert_eq!(drained, &model);
    }
}
