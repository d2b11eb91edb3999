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
}
