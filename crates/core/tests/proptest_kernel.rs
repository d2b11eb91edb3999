//! Property tests for the correlation kernel: for *any* sample stream —
//! garbage addresses, truncated LBRs, broken stacks, heavy duplication —
//! the one kernel (sample dedup, memos that outlive a call, hash-consed
//! context-trie interning) and the sharded fan-out on top of it must be
//! **bit-identical** to the per-sample reference unwinder
//! (`tests/common/reference_unwind.rs`), down to the serialized JSON and
//! every diagnostic counter; and a call on a long-lived unwinder must
//! return what a fresh unwinder returns for the same samples.

use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_context_profile;
use csspgo_core::stream::{StreamAggregator, StreamConfig};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::unwind::Unwinder;
use csspgo_sim::Sample;
use proptest::prelude::*;

#[path = "../../../tests/common/reference_unwind.rs"]
mod reference_unwind;
use reference_unwind::reference_unwind;

#[path = "../../../tests/common/sample_gen.rs"]
mod sample_gen;
use sample_gen::{addr_strategy, probed_binary, sample_stream_strategy, to_samples, RawSample};

/// An LBR address as `(instruction index, byte offset)`: mostly an
/// instruction start; otherwise a few bytes into one (mid-instruction, or
/// past its end into the next instruction or the padding between functions),
/// around the end of the text (index = instruction count), or garbage
/// (a larger index is taken as an address).
fn lbr_addr_strategy(n_insts: usize) -> BoxedStrategy<(u64, u64)> {
    let n = n_insts as u64;
    prop_oneof![
        6 => (0..n).prop_map(|i| (i, 0)),
        3 => (0..n + 1, 0u64..20),
        1 => (0..n).prop_map(|i| (i, u64::MAX)), // the byte before an instruction
        1 => any::<u64>().prop_map(|a| (a, 0)),
    ]
    .boxed()
}

/// Sample streams with deliberately *few* distinct shapes, so the kernel's
/// dedup and memos actually collapse repeats (the regime they optimize for).
fn duplicated_stream_strategy(n_insts: usize) -> BoxedStrategy<Vec<RawSample>> {
    let addr = || addr_strategy(n_insts);
    let lbr = proptest::collection::vec((addr(), addr()), 0..6);
    let stack = proptest::collection::vec(addr(), 0..5);
    let shapes = proptest::collection::vec((addr(), lbr, stack), 1..12);
    // Pick each sample from the small shape pool by index, so the stream
    // contains many exact repeats in arbitrary interleavings.
    (shapes, proptest::collection::vec(any::<usize>(), 0..150))
        .prop_map(|(shapes, picks)| {
            picks
                .into_iter()
                .map(|ix| shapes[ix % shapes.len()].clone())
                .collect()
        })
        .boxed()
}

/// Either regime.
fn any_stream_strategy(n_insts: usize) -> BoxedStrategy<Vec<RawSample>> {
    prop_oneof![
        sample_stream_strategy(n_insts),
        duplicated_stream_strategy(n_insts),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The kernel at any shard count ≡ the per-sample reference, on
    /// high-entropy and on heavily duplicated streams alike, including
    /// every diagnostic counter.
    #[test]
    fn sharded_kernel_byte_identical_to_the_reference(
        raw in any_stream_strategy(64),
        shards in 1usize..9,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);

        let reference = reference_unwind(&binary, Some(&graph), &samples);
        let out = sharded_context_profile(&binary, Some(&graph), &samples, shards);
        prop_assert_eq!(&out.profile, &reference.profile);
        prop_assert_eq!(out.infer_stats, reference.infer_stats);
        prop_assert_eq!(out.broken_stacks, reference.broken_stacks);

        // Bit-identity, not just logical equality.
        let j_ref = serde_json::to_string(&reference.profile).unwrap();
        let j_par = serde_json::to_string(&out.profile).unwrap();
        prop_assert_eq!(j_ref, j_par);
    }

    /// Streaming is a small batch: however a stream is cut into calls, call
    /// *k* on one long-lived unwinder returns exactly what a fresh unwinder
    /// returns for chunk *k* alone — counts and structure, so no node is
    /// left over from an earlier call — and the diagnostic counters sum.
    /// The aggregator on top reports the same per epoch.
    #[test]
    fn a_call_on_a_long_lived_unwinder_is_a_call_on_a_fresh_one(
        raw in any_stream_strategy(64),
        fractions in proptest::collection::vec(0usize..1000, 0..6),
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);

        let mut cuts: Vec<usize> = fractions.iter().map(|f| f * samples.len() / 1000).collect();
        cuts.extend([0, samples.len()]);
        cuts.sort_unstable();

        let mut long_lived = Unwinder::new(&binary, Some(graph.clone()));
        let mut agg =
            StreamAggregator::with_tail_graph(&binary, StreamConfig::default(), 1, graph.clone());
        let (mut recovered, mut failed, mut broken) = (0, 0, 0);
        for w in cuts.windows(2) {
            let chunk = &samples[w[0]..w[1]];
            let mut fresh = Unwinder::new(&binary, Some(graph.clone()));
            let alone = fresh.unwind_batched(chunk);
            let streamed = long_lived.unwind_batched(chunk);
            prop_assert_eq!(
                serde_json::to_string(&streamed).unwrap(),
                serde_json::to_string(&alone).unwrap()
            );
            recovered += fresh.infer_stats.recovered;
            failed += fresh.infer_stats.failed;
            broken += fresh.broken_stacks;
            prop_assert_eq!(long_lived.infer_stats.recovered, recovered);
            prop_assert_eq!(long_lived.infer_stats.failed, failed);
            prop_assert_eq!(long_lived.broken_stacks, broken);

            agg.push_batch(chunk.to_vec()).unwrap();
            let summary = agg.seal_epoch();
            prop_assert_eq!(summary.nodes_epoch, alone.node_count());
            let depth1: usize = alone.roots.values().map(|r| r.children.len()).sum();
            prop_assert_eq!(agg.last_epoch_edges().len(), depth1);
            prop_assert_eq!(agg.infer_stats(), long_lived.infer_stats);
            prop_assert_eq!(agg.broken_stacks(), broken);
        }
    }

    /// Range counting through the binary's dense address index and the
    /// fast-hashed maps ≡ a naive reference — a linear scan per lookup, four
    /// lookups per LBR window, ordered maps — on LBRs whose addresses are
    /// instruction starts, mid-instruction bytes, padding, just outside the
    /// text or plain garbage, so that backwards and cross-function pairs
    /// all occur.
    #[test]
    fn range_counts_match_a_naive_per_entry_reference(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                (
                    lbr_addr_strategy(probed_binary().len()),
                    lbr_addr_strategy(probed_binary().len()),
                ),
                0..20,
            ),
            0..40,
        ),
    ) {
        let binary = probed_binary();
        let text_end = binary.addrs[binary.len() - 1] + binary.insts[binary.len() - 1].size as u64;
        let place = |(idx, offset): (u64, u64)| match idx as usize {
            i if i < binary.len() => binary.addrs[i].wrapping_add(offset),
            i if i == binary.len() => text_end.wrapping_add(offset),
            _ => idx.wrapping_add(offset),
        };
        let samples: Vec<Sample> = raw
            .iter()
            .map(|lbr| Sample {
                cycle: 0,
                pc: 0,
                lbr: lbr.iter().map(|&(f, t)| (place(f), place(t))).collect(),
                stack: Vec::new(),
            })
            .collect();

        let scan = |addr: u64| {
            (0..binary.len()).find(|&i| {
                binary.addrs[i] <= addr && addr < binary.addrs[i] + binary.insts[i].size as u64
            })
        };
        let mut ranges = std::collections::BTreeMap::new();
        let mut branches = std::collections::BTreeMap::new();
        for s in &samples {
            for w in s.lbr.windows(2) {
                if let (Some(begin), Some(end)) = (scan(w[0].1), scan(w[1].0)) {
                    if begin <= end && binary.func_of[begin] == binary.func_of[end] {
                        *ranges.entry((begin, end)).or_insert(0u64) += 1;
                    }
                }
            }
            for &(from, to) in &s.lbr {
                if let (Some(f), Some(t)) = (scan(from), scan(to)) {
                    *branches.entry((f, t)).or_insert(0u64) += 1;
                }
            }
        }

        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let sorted = |m: &csspgo_core::fasthash::FastMap<(usize, usize), u64>| {
            m.iter().map(|(&k, &v)| (k, v)).collect::<std::collections::BTreeMap<_, _>>()
        };
        prop_assert_eq!(sorted(&rc.ranges), ranges);
        prop_assert_eq!(sorted(&rc.branches), branches);
    }
}
