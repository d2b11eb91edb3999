//! Property tests for the core profile machinery: inference conservation,
//! overlap metric axioms, context-trie accounting, and text-format
//! round-trips.

use csspgo_core::binprof;
use csspgo_core::context::{ContextProfile, FrameKey};
use csspgo_core::inference::{infer_counts, InferenceMode};
use csspgo_core::overlap::{program_overlap, BlockCounts};
use csspgo_core::profile::{FlatFuncProfile, FlatProfile, LocKey};
use csspgo_core::textprof;
use csspgo_ir::builder::ModuleBuilder;
use csspgo_ir::inst::{CmpPred, Operand};
use csspgo_ir::probe::function_guid;
use csspgo_ir::{cfg, BlockId, Module, VReg};
use proptest::prelude::*;
use std::collections::HashMap;

/// Random acyclic-ish diamond CFG for inference tests (ret-terminated).
fn build_cfg(n: usize, edges: &[(u8, u8, u8)]) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let f = mb.declare_function("f", 1);
    {
        let mut fb = mb.function_builder(f);
        let entry = fb.entry_block();
        let mut blocks = vec![entry];
        for _ in 1..n {
            blocks.push(fb.add_block());
        }
        for (i, &(kind, a, b)) in edges.iter().enumerate().take(n) {
            fb.switch_to(blocks[i]);
            let t1 = blocks[a as usize % n];
            let t2 = blocks[b as usize % n];
            match kind % 3 {
                0 => fb.ret(Some(Operand::Reg(VReg(0)))),
                1 => fb.br(t1),
                _ => {
                    let c = fb.cmp(CmpPred::Gt, Operand::Reg(VReg(0)), Operand::Imm(i as i64));
                    fb.cond_br(Operand::Reg(c), t1, t2);
                }
            }
        }
    }
    mb.finish()
}

fn cfg_strategy() -> impl Strategy<Value = (usize, Vec<(u8, u8, u8)>, Vec<u16>)> {
    (2usize..10).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), n..=n),
            prop::collection::vec(any::<u16>(), n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn inference_conserves_flow_at_forward_joins((n, edges, raws) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let mut raw = HashMap::new();
        for (i, &r) in raws.iter().enumerate() {
            raw.insert(BlockId::from_index(i), r as u64);
        }
        let entry_count = 1000u64;
        let res = infer_counts(f, &raw, entry_count, InferenceMode::Mcf);
        let rep = res.counts;
        if res.edges.is_some() {
            // The entry receives at least the entry flow.
            prop_assert!(rep[&f.entry] >= entry_count, "entry {} < {entry_count}", rep[&f.entry]);
            // No repaired count is absurdly larger than total possible flow.
            for (&b, &c) in &rep {
                prop_assert!(c <= entry_count.saturating_mul(1 << 20), "{b} exploded: {c}");
            }
        } else {
            // Declined (no reachable return): measured counts pass through.
            prop_assert_eq!(res.stats.declined, 1);
            prop_assert_eq!(&rep, &raw);
        }
        // Deterministic.
        let rep2 = infer_counts(f, &raw, entry_count, InferenceMode::Mcf).counts;
        prop_assert_eq!(rep, rep2);
    }

    #[test]
    fn inference_single_successor_chains_conserve((n, edges, raws) in cfg_strategy()) {
        let m = build_cfg(n, &edges);
        let f = &m.functions[0];
        let mut raw = HashMap::new();
        for (i, &r) in raws.iter().enumerate() {
            raw.insert(BlockId::from_index(i), r as u64);
        }
        let res = infer_counts(f, &raw, 500, InferenceMode::Mcf);
        let rep = res.counts;
        if res.edges.is_none() {
            // Declined (no reachable return): nothing is conserved, the
            // measured counts pass through.
            prop_assert_eq!(&rep, &raw);
            return Ok(());
        }
        let preds = cfg::predecessors(f);
        let dom = csspgo_ir::dom::Dominators::compute(f);
        for (b, _) in f.iter_blocks() {
            if !rep.contains_key(&b) {
                continue; // unreachable blocks get no repaired count
            }
            let succs = cfg::successors(f, b);
            // A single-successor *forward* edge to a non-entry block with a
            // single predecessor must carry the full flow (within rounding).
            if succs.len() == 1 {
                let s = succs[0];
                if s != f.entry
                    && rep.contains_key(&s)
                    && preds[s.index()].len() == 1
                    && !dom.dominates(s, b)
                {
                    let diff = rep[&b].abs_diff(rep[&s]);
                    prop_assert!(
                        diff <= 1 + rep[&b] / 100,
                        "chain {b}({}) -> {s}({}) leaks flow",
                        rep[&b],
                        rep[&s]
                    );
                }
            }
        }
    }

    /// The axioms of the overlap degree on a one-function program, where
    /// the program's degree is the function's.
    #[test]
    fn overlap_axioms(counts in prop::collection::vec((0u32..8, 0u64..1000), 1..10)) {
        let program = |blocks: HashMap<BlockId, u64>| BlockCounts::from([(7, blocks)]);
        let a = program(counts.iter().map(|&(b, c)| (BlockId(b), c)).collect());
        // Self-overlap is 1 (or trivially for empty/zero profiles).
        let d = program_overlap(&a, &a);
        let total: u64 = a[&7].values().sum();
        if total > 0 {
            prop_assert!((d - 1.0).abs() < 1e-9);
        }
        // Symmetry.
        let b = program(counts.iter().map(|&(k, c)| (BlockId(k ^ 1), c / 2 + 1)).collect());
        let ab = program_overlap(&a, &b);
        let ba = program_overlap(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        // Bounded.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
    }

    #[test]
    fn context_trie_totals_are_sums(paths in prop::collection::vec(
        (prop::collection::vec((1u64..6, 1u32..9), 0..4), 1u64..6, 1u32..9, 1u64..100),
        1..20
    )) {
        let mut cp = ContextProfile::new();
        let mut expected_total = 0u64;
        for (frames, owner, probe, count) in &paths {
            let path: Vec<FrameKey> = frames
                .iter()
                .map(|&(g, p)| FrameKey { guid: g, probe: p })
                .collect();
            cp.add_probe_hit(&path, *owner, *probe, *count);
            expected_total += count;
        }
        prop_assert_eq!(cp.total(), expected_total);
        // Trimming with threshold 0 never drops counts.
        let before = cp.total();
        cp.trim_cold(0);
        prop_assert_eq!(cp.total(), before);
        // Trimming with a huge threshold merges everything but keeps totals.
        cp.trim_cold(u64::MAX);
        prop_assert_eq!(cp.total(), before);
    }

    #[test]
    fn flat_binprof_roundtrip(entries in prop::collection::vec(
        (0u32..50, 0u32..4, 1u64..10_000), 1..12
    ), entry in 0u64..1000) {
        let mut p = FlatProfile::default();
        let guid = function_guid("prop_fn");
        p.names.insert(guid, "prop_fn".into());
        let fp = p.funcs.entry(guid).or_default();
        fp.entry = entry;
        for (off, disc, count) in &entries {
            fp.record_max(LocKey { line_offset: *off, discriminator: *disc }, *count);
        }
        let back = binprof::decode_flat(&binprof::encode_flat(&p)).unwrap();
        prop_assert_eq!(&p, &back, "text:\n{}", textprof::write_flat(&p));
    }

    #[test]
    fn nested_flat_binprof_roundtrip(
        outer in prop::collection::vec((0u32..30, 1u64..1000), 1..6),
        inner in prop::collection::vec((0u32..30, 1u64..1000), 1..6),
        site_off in 0u32..30,
    ) {
        let mut p = FlatProfile::default();
        let main = function_guid("m");
        let callee = function_guid("c");
        p.names.insert(main, "m".into());
        p.names.insert(callee, "c".into());
        let fp = p.funcs.entry(main).or_default();
        for (off, count) in &outer {
            fp.record_max(LocKey { line_offset: *off, discriminator: 0 }, *count);
        }
        let sub: &mut FlatFuncProfile =
            fp.callsite_mut(LocKey { line_offset: site_off, discriminator: 0 }, callee);
        for (off, count) in &inner {
            sub.record_max(LocKey { line_offset: *off, discriminator: 0 }, *count);
        }
        let back = binprof::decode_flat(&binprof::encode_flat(&p)).unwrap();
        prop_assert_eq!(&p, &back, "text:\n{}", textprof::write_flat(&p));
    }
}
