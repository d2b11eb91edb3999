//! Binary-image query tests: symbolization and section accounting, which
//! the correlators and Algorithm 3 rely on.

use csspgo_codegen::minst::ProbeNote;
use csspgo_codegen::{lower_module, Binary, CodegenConfig};
use csspgo_opt::OptConfig;

const SRC: &str = r#"
fn helper(x) {
    if (x > 3) { return x * 2; }
    return x + 1;
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i);
        i = i + 1;
    }
    return s;
}
"#;

fn build(optimize: bool) -> Binary {
    let mut m = csspgo_lang::compile(SRC, "t").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    if optimize {
        csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
    }
    lower_module(&m, &CodegenConfig::default())
}

#[test]
fn symbol_lookup_by_name_and_guid_agree() {
    let b = build(false);
    for f in &b.funcs {
        assert_eq!(b.func_by_name(&f.name).unwrap().guid, f.guid);
        assert_eq!(b.func_by_guid(f.guid).unwrap().name, f.name);
    }
    assert!(b.func_by_name("nope").is_none());
    assert!(b.func_by_guid(0xdead_beef).is_none());
}

#[test]
fn every_instruction_belongs_to_its_function_range() {
    let b = build(true);
    for idx in 0..b.len() {
        let f = &b.funcs[b.func_of[idx] as usize];
        let inside = |(lo, hi): (usize, usize)| (lo..hi).contains(&idx);
        assert!(
            inside(f.hot_range) || inside(f.cold_range),
            "inst {idx} outside {}",
            f.name
        );
    }
}

#[test]
fn debug_frames_leaf_scope_defaults_to_containing_function() {
    let b = build(false);
    let main = b.func_by_name("main").unwrap();
    // Every located instruction in main's (un-inlined) body resolves with
    // main itself as the leaf frame.
    for idx in main.hot_range.0..main.hot_range.1 {
        let frames = b.debug_frames(idx);
        if frames.is_empty() {
            continue;
        }
        assert_eq!(frames.last().unwrap().0, main.id);
    }
}

#[test]
fn inlined_funcs_report_the_frame_chain() {
    let b = build(true);
    let main = b.func_by_name("main").unwrap();
    let helper = b.func_by_name("helper").unwrap();
    let mut saw_inlined = false;
    for idx in main.hot_range.0..main.hot_range.1 {
        let funcs: Vec<_> = b.inlined_funcs(idx).collect();
        if funcs.len() >= 2 {
            assert_eq!(funcs[0], main.id, "outermost frame is the host");
            if funcs.contains(&helper.id) {
                saw_inlined = true;
            }
        }
    }
    assert!(saw_inlined, "helper must appear inlined in main");
}

#[test]
fn section_totals_are_consistent() {
    let b = build(true);
    let text: u64 = b.insts.iter().map(|i| i.size as u64).sum();
    assert_eq!(b.sections.text, text);
    assert_eq!(
        b.sections.total(),
        b.sections.text + b.sections.debug_line + b.sections.pseudo_probe
    );
    assert!(b.sections.pseudo_probe > 0, "probed build carries metadata");
}

#[test]
fn addr_lookup_rejects_gaps_and_out_of_range() {
    let b = build(true);
    let last = b.len() - 1;
    let end = b.addrs[last] + b.insts[last].size as u64;
    assert_eq!(b.index_of_addr(end), None, "one past the end");
    assert_eq!(b.index_of_addr(u64::MAX), None);
    // Alignment padding between functions must not resolve.
    for w in 0..b.len() - 1 {
        let gap_start = b.addrs[w] + b.insts[w].size as u64;
        let next = b.addrs[w + 1];
        if next > gap_start {
            assert_eq!(
                b.index_of_addr(gap_start),
                None,
                "padding byte {gap_start:#x} must not resolve"
            );
        }
    }
}

/// The definition `index_of_addr` must meet, as a linear scan.
fn naive_index_of_addr(b: &Binary, addr: u64) -> Option<usize> {
    (0..b.len()).find(|&i| b.addrs[i] <= addr && addr < b.addrs[i] + b.insts[i].size as u64)
}

/// Checks the index on every byte from 8 before the text to 8 past it.
fn assert_index_matches_scan(b: &Binary) {
    let first = b.addrs[0];
    let end = b.addrs[b.len() - 1] + b.insts[b.len() - 1].size as u64;
    for addr in first.saturating_sub(8)..end + 8 {
        assert_eq!(
            b.index_of_addr(addr),
            naive_index_of_addr(b, addr),
            "address {addr:#x}"
        );
    }
    assert_eq!(b.index_of_addr(u64::MAX), None);
}

#[test]
fn addr_index_agrees_with_a_linear_scan_on_every_byte() {
    assert_index_matches_scan(&build(false));
    assert_index_matches_scan(&build(true));
}

#[test]
fn addr_index_agrees_with_a_linear_scan_across_the_cold_section_gap() {
    let src = "fn f(a) {\n    if (a > 0) { return 1; }\n    return 2;\n}\n";
    let mut m = csspgo_lang::compile(src, "t").unwrap();
    let ids: Vec<csspgo_ir::BlockId> = m.functions[0].iter_blocks().map(|(b, _)| b).collect();
    let cold = *ids.last().unwrap();
    for bid in ids {
        m.functions[0].block_mut(bid).count = Some(if bid == cold { 0 } else { 100 });
    }
    csspgo_opt::layout::run(&mut m);
    let b = lower_module(&m, &CodegenConfig::default());
    let f = &b.funcs[0];
    assert!(f.cold_range.1 > f.cold_range.0, "function must be split");
    assert_index_matches_scan(&b);
}

#[test]
fn stripped_functions_emit_stub_text() {
    let mut m = csspgo_lang::compile(SRC, "t").unwrap();
    let full = lower_module(&m, &CodegenConfig::default());
    let main = m.find_function("main").unwrap();
    // Strip helper away (pretend main no longer calls it).
    let helper = m.find_function("helper").unwrap();
    let ids: Vec<csspgo_ir::BlockId> = m.func(main).iter_blocks().map(|(b, _)| b).collect();
    for bid in ids {
        m.func_mut(main)
            .block_mut(bid)
            .insts
            .retain(|i| !matches!(i.kind, csspgo_ir::inst::InstKind::Call { .. }));
    }
    // Re-terminate any block whose call got removed mid-block is unnecessary
    // here (calls were not terminators); verify still holds:
    assert_eq!(csspgo_ir::verify::verify_module(&m), vec![]);
    csspgo_opt::strip::run(&mut m, &[main]);
    let stripped = lower_module(&m, &CodegenConfig::default());
    assert!(
        stripped.sections.text < full.sections.text,
        "stripping must shrink text: {} vs {}",
        stripped.sections.text,
        full.sections.text
    );
    let h = stripped.func_by_guid(m.func(helper).guid).unwrap();
    assert_eq!(h.hot_range.1 - h.hot_range.0, 1, "stub is one ret");
}

/// Every index from one table into another that `check_tables` vouches for
/// is refused when it dangles; what `lower_module` builds passes.
#[test]
fn check_tables_refuses_every_dangling_index() {
    let good = build(true);
    assert_eq!(good.check_tables(), Ok(()));
    fn notes(b: &mut Binary) -> impl Iterator<Item = &mut ProbeNote> {
        b.insts.iter_mut().flat_map(|i| &mut i.probes)
    }
    type Corruption = fn(&mut Binary);
    let cases: Vec<(&str, Corruption)> = vec![
        ("owners", |b| b.func_of.truncate(5)),
        ("addresses", |b| {
            b.addrs.pop();
        }),
        ("frame spans", |b| {
            b.frame_spans.pop();
        }),
        ("enters at", |b| b.funcs[0].entry = 9999),
        ("belongs to no function", |b| b.func_of[0] = 77),
        ("names function 77", |b| {
            notes(b).next().unwrap().owner.0 = 77
        }),
        ("inline stack names function 77", |b| {
            let mut inlined = notes(b).filter(|p| !p.inline_stack.is_empty());
            let note = inlined
                .next()
                .expect("the optimised build inlines `helper`");
            note.inline_stack[0].func.0 = 77;
        }),
        ("run past the frame table", |b| {
            b.frame_spans[0] = (0, u32::MAX)
        }),
        ("a debug frame names function 77", |b| {
            b.frame_table[0].0 .0 = 77
        }),
        ("address map points past", |b| {
            // One instruction fewer, and the map still covers its bytes.
            b.insts.pop();
            b.addrs.pop();
            b.func_of.pop();
            b.frame_spans.pop();
        }),
    ];
    for (what, corrupt) in cases {
        let mut bad = good.clone();
        corrupt(&mut bad);
        match bad.check_tables() {
            Err(why) => assert!(why.contains(what), "{what}: {why}"),
            Ok(()) => panic!("{what}: accepted"),
        }
    }
}
