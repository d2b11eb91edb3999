//! Property tests for the binary profile wire format (`core::binprof`):
//! encode→decode must be lossless for *arbitrary* context tries (random
//! shapes, counts, checksums, inlined flags), the text and binary formats
//! must interchange losslessly in both directions, and the encoding must
//! be canonical (decode→re-encode is byte-identical). A golden fixture
//! pins the version-2 wire bytes so silent format drift fails CI, and the
//! last version-1 fixture stays to show such a payload is refused.

use csspgo_core::binprof::{self, DecodeError};
use csspgo_core::context::{ContextProfile, FrameKey};
use csspgo_core::profile::FuncProfile;
use csspgo_core::textprof;
use csspgo_ir::probe::function_guid;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[path = "../../../tests/common/golden.rs"]
mod golden;

/// Function-name pool; GUIDs derive from these the way real builds derive
/// them, so the name-keyed text format can round-trip the profile.
const POOL: [&str; 12] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "mu",
];

fn guid_of(i: usize) -> u64 {
    function_guid(POOL[i % POOL.len()])
}

/// One profile-building operation: `(path frames, owner, probe, count,
/// entry-or-probe)` with functions as pool indices.
type Op = (Vec<(usize, u32)>, usize, u32, u64, bool);

fn collect_guids(node: &FuncProfile<u32>, out: &mut BTreeSet<u64>) {
    for (&(_, callee), child) in &node.callsites {
        out.insert(callee);
        collect_guids(child, out);
    }
}

/// Random context profiles built through the public trie API: random
/// paths, owners, probe indices and counts, plus entry hits.
fn profile_strategy() -> BoxedStrategy<ContextProfile> {
    let frame = (0usize..12, 0u32..8);
    let path = proptest::collection::vec(frame, 0..5);
    let op = (path, 0usize..12, 0u32..16, 1u64..1_000, any::<bool>());
    proptest::collection::vec(op, 0..60)
        .prop_map(|ops: Vec<Op>| {
            let mut p = ContextProfile::new();
            for (path, owner, probe, count, is_entry) in ops {
                let frames: Vec<FrameKey> = path
                    .into_iter()
                    .map(|(i, probe)| FrameKey {
                        guid: guid_of(i),
                        probe,
                    })
                    .collect();
                if is_entry {
                    p.add_entry(&frames, guid_of(owner), count);
                } else {
                    p.add_probe_hit(&frames, guid_of(owner), probe, count);
                }
            }
            // Exercise the non-default node fields too: checksums from a
            // synthetic table, inlined flags derived from node identity.
            let table: BTreeMap<u64, u64> = (0..POOL.len())
                .map(|i| (guid_of(i), (i as u64 + 1).wrapping_mul(0x9e37)))
                .collect();
            p.set_checksums(&table);
            fn flag(guid: u64, node: &mut FuncProfile<u32>) {
                node.inlined = guid.is_multiple_of(3);
                for (&(_, callee), child) in &mut node.callsites {
                    flag(callee, child);
                }
            }
            for (&guid, root) in &mut p.roots {
                flag(guid, root);
            }
            // Name every referenced function, as real correlation does —
            // the text format identifies functions by name.
            let mut used: BTreeSet<u64> = p.roots.keys().copied().collect();
            for root in p.roots.values() {
                collect_guids(root, &mut used);
            }
            for g in used {
                let name = POOL.iter().find(|n| function_guid(n) == g).unwrap();
                p.names.insert(g, name.to_string());
            }
            p
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode→decode is lossless and the encoding is canonical.
    #[test]
    fn binary_context_roundtrip_lossless(profile in profile_strategy()) {
        let bytes = binprof::encode_context(&profile);
        let back = binprof::decode_context(&bytes).unwrap();
        prop_assert_eq!(&back, &profile);

        // Canonical: a decoded profile re-encodes to the same bytes.
        prop_assert_eq!(binprof::encode_context(&back), bytes);
    }

    /// Binary to text: a decoded profile renders the text of the profile
    /// encoded (what `csspgo show` prints). The text's way back is the text
    /// snapshot's, held by `stream::tests::both_formats_carry_one_snapshot`.
    #[test]
    fn text_and_binary_formats_interchange(profile in profile_strategy()) {
        let via_binary = binprof::decode_context(&binprof::encode_context(&profile)).unwrap();
        prop_assert_eq!(
            textprof::write_context(&via_binary),
            textprof::write_context(&profile)
        );
    }
}

/// The fixed profile behind the golden fixture: touches nesting, entry
/// counts, checksums and the inlined flag.
fn golden_profile() -> ContextProfile {
    let mut p = ContextProfile::new();
    let a = FrameKey { guid: 3, probe: 2 };
    let b = FrameKey { guid: 7, probe: 5 };
    p.add_entry(&[], 3, 10);
    p.add_probe_hit(&[a], 7, 1, 400);
    p.add_probe_hit(&[a, b], 9, 6, 25);
    p.add_entry(&[a, b], 9, 3);
    p.add_probe_hit(&[], 3, 0, 1_000_000);
    let table: BTreeMap<u64, u64> = [(3, 0xabc), (7, 0xdef), (9, 0x123)].into_iter().collect();
    p.set_checksums(&table);
    p.roots
        .get_mut(&3)
        .unwrap()
        .callsites
        .values_mut()
        .for_each(|c| c.inlined = true);
    p
}

/// The version-2 wire bytes of [`golden_profile`] are pinned on disk: any
/// byte-level drift of the format must come with a `binprof::VERSION` bump
/// and a deliberate re-bless.
#[test]
fn golden_binary_fixture_is_stable() {
    let profile = golden_profile();
    let bytes = binprof::encode_context(&profile);
    golden::check(
        "tests/fixtures/context_v2.binprof",
        &bytes,
        "binprof wire bytes drifted from the v2 fixture; bump VERSION and re-bless deliberately",
    );
    assert_eq!(binprof::decode_context(&bytes).unwrap(), profile);
}

/// Version 1 wrote each context node's GUID beside the key that names it,
/// and each sub-profile's total beside the counts it sums. Its payloads are
/// refused, not read: there is one reader, for the current version.
#[test]
fn a_version_1_payload_is_refused() {
    let v1 = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/context_v1.binprof"
    ))
    .unwrap();
    assert_eq!(
        binprof::decode_context(&v1),
        Err(DecodeError::Version {
            found: 1,
            supported: 2
        })
    );
}

/// A reader built for version N must reject version N+1 (and garbage)
/// with the right typed error, not misparse it.
#[test]
fn future_version_and_wrong_kind_are_rejected() {
    let bytes = binprof::encode_context(&golden_profile());

    // Bump the little-endian u16 version field after the 8-byte magic.
    let mut newer = bytes.clone();
    newer[8] = newer[8].wrapping_add(1);
    match binprof::decode_context(&newer) {
        Err(DecodeError::Version { found, supported }) => {
            assert_eq!(supported, 2, "the v2 fixture");
            assert_eq!(found, supported + 1);
        }
        other => panic!("expected version rejection, got {other:?}"),
    }

    // A context payload is not a probe payload.
    match binprof::decode_probe(&bytes) {
        Err(DecodeError::Kind { .. }) => {}
        other => panic!("expected kind rejection, got {other:?}"),
    }

    // Corrupted magic.
    let mut bad = bytes;
    bad[0] ^= 0xff;
    assert_eq!(
        binprof::decode_context(&bad).unwrap_err(),
        DecodeError::BadMagic
    );
}
