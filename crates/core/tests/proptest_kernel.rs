//! Property tests for the correlation kernel: for *any* sample stream —
//! garbage addresses, truncated LBRs, broken stacks, heavy duplication —
//! the one kernel (sample dedup, memos that outlive a call, hash-consed
//! context-trie interning) and the sharded fan-out on top of it must be
//! **bit-identical** to the per-sample reference unwinder
//! (`tests/common/reference_unwind.rs`), down to the serialized JSON and
//! every diagnostic counter; and a call on a long-lived unwinder must
//! return what a fresh unwinder returns for the same samples.

use csspgo_codegen::Binary;
use csspgo_core::fasthash::FastMap;
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::{sharded_context_profile, sharded_range_counts};
use csspgo_core::stream::{StreamAggregator, StreamConfig};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::unwind::Unwinder;
use csspgo_sim::Sample;
use proptest::prelude::*;
use std::collections::BTreeMap;

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

    /// Range counting through the binary's dense address index, the
    /// batch's triple table and the fast-hashed maps ≡ a naive reference
    /// — a linear scan per lookup, four lookups per LBR window, ordered
    /// maps — on LBRs whose addresses are instruction starts,
    /// mid-instruction bytes, padding, just outside the text or plain
    /// garbage, so that backwards and cross-function pairs all occur. So
    /// are the same samples fed in arbitrary consecutive chunks into one
    /// `RangeCounts` (the stream's cumulative counts) and split across 1–3
    /// shards.
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
        fractions in proptest::collection::vec(0usize..1000, 0..6),
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
            .map(|lbr| lbr_sample(lbr.iter().map(|&(f, t)| (place(f), place(t))).collect()))
            .collect();
        let scan = |addr: u64| {
            (0..binary.len()).find(|&i| {
                binary.addrs[i] <= addr && addr < binary.addrs[i] + binary.insts[i].size as u64
            })
        };
        let reference = naive_range_counts(&binary, &samples, scan);
        let cuts: Vec<usize> = fractions.iter().map(|f| f * samples.len() / 1000).collect();
        for (how, counted) in count_every_way(&binary, &samples, cuts) {
            prop_assert_eq!(&counted, &reference, "{}", how);
        }
    }
}

/// `[begin, end]` ranges and `(from, to)` branches with their counts, in
/// key order.
type Sorted = BTreeMap<(usize, usize), u64>;

/// A sample carrying nothing but `lbr`.
fn lbr_sample(lbr: Vec<(u64, u64)>) -> Sample {
    Sample {
        cycle: 0,
        pc: 0,
        lbr,
        stack: Vec::new(),
    }
}

/// The per-entry statement of range counting: each LBR entry resolved on
/// its own through `resolve`, each window of two adding the range between
/// them, each entry its branch.
fn naive_range_counts(
    binary: &Binary,
    samples: &[Sample],
    resolve: impl Fn(u64) -> Option<usize>,
) -> (Sorted, Sorted) {
    let mut ranges = Sorted::new();
    let mut branches = Sorted::new();
    for s in samples {
        for w in s.lbr.windows(2) {
            if let (Some(begin), Some(end)) = (resolve(w[0].1), resolve(w[1].0)) {
                if begin <= end && binary.func_of[begin] == binary.func_of[end] {
                    *ranges.entry((begin, end)).or_insert(0) += 1;
                }
            }
        }
        for &(from, to) in &s.lbr {
            if let (Some(f), Some(t)) = (resolve(from), resolve(to)) {
                *branches.entry((f, t)).or_insert(0) += 1;
            }
        }
    }
    (ranges, branches)
}

/// `samples` counted every way production counts them: in one call; cut at
/// `cuts` into consecutive chunks added one after another to one
/// `RangeCounts`; and by `sharded_range_counts` at 1–3 shards.
fn count_every_way(
    binary: &Binary,
    samples: &[Sample],
    mut cuts: Vec<usize>,
) -> Vec<(String, (Sorted, Sorted))> {
    let sorted = |rc: &RangeCounts| {
        let sort = |m: &FastMap<(usize, usize), u64>| m.iter().map(|(&k, &v)| (k, v)).collect();
        (sort(&rc.ranges), sort(&rc.branches))
    };
    let mut out = Vec::new();
    let mut whole = RangeCounts::default();
    whole.add_samples(binary, samples);
    out.push(("one call".to_string(), sorted(&whole)));

    cuts.extend([0, samples.len()]);
    cuts.sort_unstable();
    let mut cumulative = RangeCounts::default();
    for w in cuts.windows(2) {
        cumulative.add_samples(binary, &samples[w[0]..w[1]]);
    }
    out.push((format!("chunks cut at {cuts:?}"), sorted(&cumulative)));

    for shards in 1..=3 {
        let rc = sharded_range_counts(binary, samples, shards);
        out.push((format!("{shards} shards"), sorted(&rc)));
    }
    out
}

/// A snapshot's first entry has no predecessor; the triple table keys it
/// with `u64::MAX` as the previous target. Here `u64::MAX` is a real `from`
/// and `to`, on a binary that does not resolve it and on one whose address
/// map (as a file may carry it) does, next to empty and one-entry LBRs: a
/// first entry and a later entry after a jump to `u64::MAX` then share all
/// three raw addresses, and only the later one may add a range.
#[test]
fn the_no_predecessor_marker_aliases_no_address() {
    let plain = probed_binary();
    let entry = plain.funcs.iter().find(|f| f.name == "main").unwrap().entry;
    // One more address-map segment, last, mapping the byte at `u64::MAX`
    // to `main`'s entry: the segments array ends at the first `]}]` (a
    // map's end, its segment's end, the array's end) after its key.
    let mut json = serde_json::to_string(&plain).unwrap();
    let key = json.find("\"addr_index\"").unwrap();
    let end = key + json[key..].find("]}]").unwrap() + 2;
    json.insert_str(
        end,
        &format!(",{{\"base\":{},\"map\":[{entry}]}}", u64::MAX),
    );
    let resolving: Binary = serde_json::from_str(&json).unwrap();
    resolving.check_tables().unwrap();
    assert_eq!(resolving.index_of_addr(u64::MAX), Some(entry));
    assert_eq!(plain.index_of_addr(u64::MAX), None);

    // A later instruction of `main` and a branch out of it.
    let later = (entry + 1..plain.len())
        .find(|&i| plain.func_of[i] == plain.func_of[entry])
        .unwrap();
    let (a, t) = (plain.addrs[later], plain.addrs[0]);
    let samples = vec![
        lbr_sample(vec![]),
        lbr_sample(vec![(a, t)]),
        lbr_sample(vec![(t, u64::MAX), (a, t)]),
        lbr_sample(vec![(u64::MAX, t)]),
        lbr_sample(vec![(u64::MAX, u64::MAX)]),
        lbr_sample(vec![(a, u64::MAX), (u64::MAX, u64::MAX), (a, t)]),
        lbr_sample(vec![(a, t), (a, t)]),
    ];
    for binary in [&plain, &resolving] {
        let reference = naive_range_counts(binary, &samples, |addr| binary.index_of_addr(addr));
        for (how, counted) in count_every_way(binary, &samples, vec![1, 2, 4]) {
            assert_eq!(counted, reference, "{how}");
        }
    }
    // On the resolving binary the third and sixth samples each add the range
    // from `main`'s entry to `later`; the second, a first entry with the
    // third's second entry's raw addresses, adds none.
    let reference = naive_range_counts(&resolving, &samples, |addr| resolving.index_of_addr(addr));
    assert_eq!(reference.0.get(&(entry, later)), Some(&2));
}
