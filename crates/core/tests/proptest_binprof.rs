//! Property tests for the binary profile wire format (`core::binprof`):
//! encode→decode must be lossless for *arbitrary* context tries (random
//! shapes, counts, entries either side of the node head's varint steps,
//! checksums that differ from their function's default or are 0, inlined
//! flags, functions only the names name) and for the probe and flat
//! profiles derived from them (probe nodes marked too), the text and binary
//! formats must interchange losslessly, and the encoding must be canonical
//! (decode→re-encode is byte-identical). A golden fixture pins the
//! version-4 wire bytes so silent format drift fails CI, and the last
//! version-1, version-2 and version-3 fixtures stay to show such payloads
//! are refused.

use csspgo_core::binprof::{self, DecodeError};
use csspgo_core::context::{ContextProfile, FrameKey};
use csspgo_core::profile::{FlatProfile, FuncProfile, LocKey};
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

/// Entries either side of the node head's varint steps: a probe-anchored
/// head `entry × 4 + own checksum × 2 + mark` grows a byte at 32 and 4 096.
const HEAD_STEPS: [u64; 4] = [31, 32, 4_095, 4_096];

/// Rewrites nodes in pre-order by `edits`, cycled: 0 keeps the node, 1
/// sets its checksum to 0, 2 to one that differs from its function's, and
/// 3–6 set its entry to a [`HEAD_STEPS`] value.
fn edit_nodes(node: &mut FuncProfile<u32>, edits: &[u8], at: &mut usize) {
    if !edits.is_empty() {
        match edits[*at % edits.len()] {
            1 => node.checksum = 0,
            2 => node.checksum ^= 0x5a5a,
            e @ 3..=6 => node.entry = HEAD_STEPS[usize::from(e - 3)],
            _ => {}
        }
        *at += 1;
    }
    for child in node.callsites.values_mut() {
        edit_nodes(child, edits, at);
    }
}

/// Sets the pre-inliner's mark on every node of a function whose GUID is a
/// multiple of 3, the node `guid` names and its call sites below.
fn mark(guid: u64, node: &mut FuncProfile<u32>) {
    node.inlined = guid.is_multiple_of(3);
    for (&(_, callee), child) in &mut node.callsites {
        mark(callee, child);
    }
}

/// Random context profiles built through the public trie API: random
/// paths, owners, probe indices and counts, plus entry hits; checksums
/// edited per node, and extra names for functions no node is.
fn profile_strategy() -> BoxedStrategy<ContextProfile> {
    let frame = (0usize..12, 0u32..8);
    let path = proptest::collection::vec(frame, 0..5);
    let op = (path, 0usize..12, 0u32..16, 1u64..1_000, any::<bool>());
    let edits = proptest::collection::vec(0u8..7, 0..8);
    let extra_names = proptest::collection::vec(0usize..12, 0..4);
    (proptest::collection::vec(op, 0..60), edits, extra_names)
        .prop_map(
            |(ops, edits, extra_names): (Vec<Op>, Vec<u8>, Vec<usize>)| {
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
                let mut at = 0;
                for (&guid, root) in &mut p.roots {
                    mark(guid, root);
                    edit_nodes(root, &edits, &mut at);
                }
                // Name every referenced function, as real correlation does —
                // the text format identifies functions by name — and some that
                // no node is.
                let mut used: BTreeSet<u64> = p.roots.keys().copied().collect();
                for root in p.roots.values() {
                    collect_guids(root, &mut used);
                }
                used.extend(extra_names.into_iter().map(guid_of));
                for g in used {
                    let name = POOL.iter().find(|n| function_guid(n) == g).unwrap();
                    p.names.insert(g, name.to_string());
                }
                p
            },
        )
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

    /// The probe and flat documents round-trip the same shapes: the probe
    /// profile the context flattens to, its nodes edited and marked too,
    /// and a flat profile keyed by the same anchors.
    #[test]
    fn binary_probe_and_flat_roundtrip_lossless(
        profile in profile_strategy(),
        edits in proptest::collection::vec(0u8..7, 0..8),
    ) {
        let mut probe = profile.to_probe_profile();
        let mut at = 0;
        for (&guid, f) in &mut probe.funcs {
            mark(guid, f);
            edit_nodes(f, &edits, &mut at);
        }
        let bytes = binprof::encode_probe(&probe);
        let back = binprof::decode_probe(&bytes).unwrap();
        prop_assert_eq!(&back, &probe);
        prop_assert_eq!(binprof::encode_probe(&back), bytes);

        let flat = FlatProfile {
            funcs: probe.funcs.iter().map(|(&g, f)| (g, to_flat(f))).collect(),
            names: probe.names.clone(),
        };
        let bytes = binprof::encode_flat(&flat);
        let back = binprof::decode_flat(&bytes).unwrap();
        prop_assert_eq!(&back, &flat);
        prop_assert_eq!(binprof::encode_flat(&back), bytes);
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

/// `node` keyed by line offsets (discriminator `probe % 3`), with no
/// checksum: what a flat document stores.
fn to_flat(node: &FuncProfile<u32>) -> FuncProfile<LocKey> {
    let key = |probe: u32| LocKey {
        line_offset: probe,
        discriminator: probe % 3,
    };
    FuncProfile {
        entry: node.entry,
        checksum: 0,
        body: node.body.iter().map(|(&p, &c)| (key(p), c)).collect(),
        callsites: (node.callsites.iter())
            .map(|(&(p, callee), child)| ((key(p), callee), to_flat(child)))
            .collect(),
        inlined: false,
    }
}

/// The fixed profile behind the golden fixture: touches nesting, entry
/// counts, checksums (a function's default, one node's own, one 0), the
/// inlined flag and a function only the names name.
fn golden_profile() -> ContextProfile {
    let mut p = ContextProfile::new();
    let a = FrameKey { guid: 3, probe: 2 };
    let b = FrameKey { guid: 7, probe: 5 };
    p.add_entry(&[], 3, 10);
    p.add_probe_hit(&[a], 7, 1, 400);
    p.add_probe_hit(&[a, b], 9, 6, 25);
    p.add_entry(&[a, b], 9, 3);
    p.add_probe_hit(&[], 3, 0, 1_000_000);
    p.add_probe_hit(&[], 7, 4, 50);
    p.add_entry(&[], 9, 2);
    let table: BTreeMap<u64, u64> = [(3, 0xabc), (7, 0xdef), (9, 0x123)].into_iter().collect();
    p.set_checksums(&table);
    let root = p.roots.get_mut(&3).unwrap();
    root.callsites.values_mut().for_each(|c| c.inlined = true);
    // The first `7` and `9` nodes met in pre-order, under root 3, set those
    // functions' defaults; roots 7 and 9 then store their own checksums.
    let inner = root.callsites.get_mut(&(2, 7)).unwrap();
    inner.checksum = 0xfed;
    inner.callsites.get_mut(&(5, 9)).unwrap().checksum = 0;
    p.names.insert(11, "named_only".into());
    p
}

/// The version-4 wire bytes of [`golden_profile`] are pinned on disk: any
/// byte-level drift of the format must come with a `binprof::VERSION` bump
/// and a deliberate re-bless.
#[test]
fn golden_binary_fixture_is_stable() {
    let profile = golden_profile();
    let bytes = binprof::encode_context(&profile);
    golden::check(
        "tests/fixtures/context_v4.binprof",
        &bytes,
        "binprof wire bytes drifted from the v4 fixture; bump VERSION and re-bless deliberately",
    );
    assert_eq!(binprof::decode_context(&bytes).unwrap(), profile);
}

/// Version 1 wrote each context node's GUID beside the key that names it,
/// and each sub-profile's total beside the counts it sums; version 2 wrote
/// a GUID at every key and a checksum at every node; version 3 wrote a
/// context node with a flag byte of its own and nested a whole second
/// document in a stream snapshot. Their payloads are refused, not read:
/// there is one reader, for the current version.
#[test]
fn versions_1_to_3_are_refused() {
    for found in [1, 2, 3] {
        let old = std::fs::read(format!(
            "{}/tests/fixtures/context_v{found}.binprof",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap();
        assert_eq!(
            binprof::decode_context(&old),
            Err(DecodeError::Version {
                found,
                supported: 4
            })
        );
    }
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
            assert_eq!(supported, 4, "the v4 fixture");
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
