//! Property tests for sharded sample ingestion: for *any* sample stream —
//! including garbage addresses, truncated LBRs and broken stacks — the
//! sharded-parallel path must produce profiles byte-identical (same
//! serialized JSON) to the sequential path, for flat/DWARF profiles and
//! probe profiles. The context trie's shard property lives in
//! `proptest_kernel.rs` (`sharded_kernel_byte_identical_to_the_reference`,
//! which takes this file's stream strategy as well as its own).

use csspgo_codegen::{lower_module, Binary, CodegenConfig};
use csspgo_core::correlate::{dwarf_profile, probe_profile};
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_range_counts;
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
    let mut m = csspgo_lang::compile(SRC, "shardprop").unwrap();
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

/// Resolves the strategy's encoded value: small values are instruction
/// indices, everything else is taken verbatim.
fn resolve(binary: &Binary, raw: u64) -> u64 {
    if (raw as usize) < binary.len() {
        binary.addr_of(raw as usize)
    } else {
        raw
    }
}

/// An unresolved sample: `(pc, lbr pairs, stack)`, all in the encoded
/// address form of [`addr_strategy`].
type RawSample = (u64, Vec<(u64, u64)>, Vec<u64>);

fn sample_stream_strategy(n_insts: usize) -> BoxedStrategy<Vec<RawSample>> {
    let addr = || addr_strategy(n_insts);
    let lbr = proptest::collection::vec((addr(), addr()), 0..8);
    let stack = proptest::collection::vec(addr(), 0..6);
    proptest::collection::vec((addr(), lbr, stack), 0..120).boxed()
}

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

    #[test]
    fn sharded_flat_and_probe_profiles_byte_identical(
        raw in sample_stream_strategy(64),
        shards in 1usize..9,
    ) {
        let binary = probed_binary();
        let samples = to_samples(&binary, &raw);

        let mut seq = RangeCounts::default();
        seq.add_samples(&binary, &samples);
        let par = sharded_range_counts(&binary, &samples, shards);
        prop_assert_eq!(&par, &seq);

        // Byte-identity of the derived profiles, not just map equality.
        let flat_seq = serde_json::to_string(&dwarf_profile(&binary, &seq)).unwrap();
        let flat_par = serde_json::to_string(&dwarf_profile(&binary, &par)).unwrap();
        prop_assert_eq!(flat_seq, flat_par);

        let probe_seq = serde_json::to_string(&probe_profile(&binary, &seq)).unwrap();
        let probe_par = serde_json::to_string(&probe_profile(&binary, &par)).unwrap();
        prop_assert_eq!(probe_seq, probe_par);
    }
}
