//! Property tests for the correlation-kernel overhaul: for *any* sample
//! stream — garbage addresses, truncated LBRs, broken stacks, heavy
//! duplication — the batched fast path (sample dedup + hash-consed
//! context-trie interning) and the sharded fan-out on top of it must be
//! **bit-identical** to the per-sample BTreeMap reference, down to the
//! serialized JSON and every diagnostic counter.

use csspgo_codegen::{lower_module, Binary, CodegenConfig};
use csspgo_core::context::ContextProfile;
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_context_profile;
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::unwind::Unwinder;
use csspgo_sim::Sample;
use proptest::prelude::*;

const SRC: &str = r#"
fn leaf(x) {
    if (x % 5 == 0) { return x * 3; }
    return x - 1;
}
fn mid(x) {
    return leaf(x) + leaf(x + 1);
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + mid(i);
        i = i + 1;
    }
    return s;
}
"#;

fn probed_binary() -> Binary {
    let mut m = csspgo_lang::compile(SRC, "kernelprop").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    lower_module(&m, &CodegenConfig::default())
}

/// A strategy for raw addresses: mostly instruction starts (mapped from a
/// flat index), sometimes arbitrary garbage the lookup must reject.
fn addr_strategy(n_insts: usize) -> BoxedStrategy<u64> {
    let n = n_insts as u64;
    prop_oneof![
        8 => (0..n).prop_map(|i| i), // resolved to addr_of later
        1 => any::<u64>(),
    ]
    .boxed()
}

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

fn resolve(binary: &Binary, raw: u64) -> u64 {
    if (raw as usize) < binary.len() {
        binary.addr_of(raw as usize)
    } else {
        raw
    }
}

/// An unresolved sample: `(pc, lbr pairs, stack)`.
type RawSample = (u64, Vec<(u64, u64)>, Vec<u64>);

/// Sample streams with deliberately *few* distinct shapes, so the batched
/// path's dedup actually collapses repeats (the regime it optimizes for).
fn duplicated_stream_strategy(n_insts: usize) -> BoxedStrategy<Vec<Sampleish>> {
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

type Sampleish = RawSample;

fn to_samples(binary: &Binary, raw: &[RawSample]) -> Vec<Sample> {
    raw.iter()
        .enumerate()
        .map(|(i, (pc, lbr, stack))| Sample {
            cycle: i as u64 * 17,
            pc: resolve(binary, *pc),
            lbr: lbr
                .iter()
                .map(|&(f, t)| (resolve(binary, f), resolve(binary, t)))
                .collect(),
            stack: stack.iter().map(|&a| resolve(binary, a)).collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched (dedup + interned trie) ≡ the sequential per-sample sink
    /// path, including every diagnostic counter.
    #[test]
    fn batched_and_interned_match_per_sample_reference(
        raw in duplicated_stream_strategy(64),
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);

        // Reference: the sequential per-sample sink path.
        let mut from_sink = ContextProfile::new();
        let mut uw_sink = Unwinder::new(&binary, Some(&graph));
        uw_sink.unwind_into(&samples, &mut from_sink);

        // Candidate: dedup + hash-consed trie.
        let mut uw_batched = Unwinder::new(&binary, Some(&graph));
        let batched = uw_batched.unwind_batched(&samples);

        prop_assert_eq!(&batched, &from_sink);
        prop_assert_eq!(uw_batched.infer_stats.recovered, uw_sink.infer_stats.recovered);
        prop_assert_eq!(uw_batched.infer_stats.failed, uw_sink.infer_stats.failed);
        prop_assert_eq!(uw_batched.broken_stacks, uw_sink.broken_stacks);

        // Bit-identity, not just logical equality.
        let j_ref = serde_json::to_string(&from_sink).unwrap();
        let j_batched = serde_json::to_string(&batched).unwrap();
        prop_assert_eq!(j_ref, j_batched);
    }

    /// The sharded fan-out over the batched kernel stays bit-identical to
    /// the reference for random shard counts on duplicated streams.
    #[test]
    fn sharded_batched_kernel_byte_identical(
        raw in duplicated_stream_strategy(64),
        shards in 1usize..9,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);
        let mut rc = RangeCounts::default();
        rc.add_samples(&binary, &samples);
        let graph = TailCallGraph::build(&binary, &rc);

        let mut seq = ContextProfile::new();
        let mut uw = Unwinder::new(&binary, Some(&graph));
        uw.unwind_into(&samples, &mut seq);

        let out = sharded_context_profile(&binary, Some(&graph), &samples, shards);
        prop_assert_eq!(&out.profile, &seq);
        prop_assert_eq!(out.infer_stats.recovered, uw.infer_stats.recovered);
        prop_assert_eq!(out.infer_stats.failed, uw.infer_stats.failed);
        prop_assert_eq!(out.broken_stacks, uw.broken_stacks);

        let j_seq = serde_json::to_string(&seq).unwrap();
        let j_par = serde_json::to_string(&out.profile).unwrap();
        prop_assert_eq!(j_seq, j_par);
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
            i if i < binary.len() => binary.addr_of(i).wrapping_add(offset),
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
