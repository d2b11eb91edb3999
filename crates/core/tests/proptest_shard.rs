//! Property tests for sharded sample ingestion: for *any* sample stream —
//! including garbage addresses, truncated LBRs and broken stacks — the
//! sharded-parallel path must produce profiles byte-identical (same
//! serialized JSON) to the sequential path, for flat/DWARF profiles and
//! probe profiles. The context trie's shard property lives in
//! `proptest_kernel.rs` (`sharded_kernel_byte_identical_to_the_reference`,
//! which takes this file's stream strategy as well as its own).

use csspgo_core::correlate::{dwarf_profile, probe_profile};
use csspgo_core::ranges::RangeCounts;
use csspgo_core::shard::sharded_range_counts;
use proptest::prelude::*;

#[path = "../../../tests/common/sample_gen.rs"]
mod sample_gen;
use sample_gen::{probed_binary, sample_stream_strategy, to_samples};

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
