//! Hostile and drifted inputs, kept as files under `tests/regressions/` and
//! fed through the function the CLI calls: `Analyzer::judge_file` for
//! `csspgo_lint --profile P --source S`, `Binary::check_tables` for every
//! binary `csspgo` loads and `Machine::try_new` for `csspgo run`,
//! `merge_flat` / `merge_tries` for `csspgo merge`,
//! `StreamAggregator::push_batch` for a sample batch from a profiling host.
//! Every input is *text from
//! outside the process* — which is what "reachable" means in the lint
//! census (DESIGN.md §8): each id still in the registry fires here, by name,
//! on a source text and a profile text; none needs a mutated in-memory
//! struct. `tests/regressions/README.md` says where each file came from.

use csspgo::analysis::{Analyzer, Policy, Report, ScenarioReport, LINTS};
use csspgo::codegen::{lower_module, Binary, CodegenConfig};
use csspgo::core::annotate::{
    autofdo_annotate, collect_block_counts, csspgo_annotate, AnnotateConfig, AnnotateStats,
};
use csspgo::core::context::{ContextProfile, FrameKey};
use csspgo::core::merge::{merge_flat, merge_tries};
use csspgo::core::overlap::BlockCounts;
use csspgo::core::pipeline::{prepared_module, PipelineError};
use csspgo::core::profile::{FlatFuncProfile, FlatProfile};
use csspgo::core::stream::{StreamAggregator, StreamConfig};
use csspgo::core::tailcall::TailCallGraph;
use csspgo::core::textprof;
use csspgo::ir::probe::function_guid;
use csspgo::ir::Module;
use csspgo::sim::{Machine, Sample, SimConfig, SimError};
use std::collections::BTreeMap;
use std::path::Path;

#[path = "common/reference_trie.rs"]
mod reference_trie;
use reference_trie::{merge_context, node_for_path};

fn input(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/regressions")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// What `csspgo_lint --profile <profile> --source <source>` finds.
fn lint_files(source: &str, profile: &str) -> (ScenarioReport, Report) {
    let mut analyzer = Analyzer::new(Policy::default());
    let pair = analyzer
        .judge_file("regression", source, profile)
        .expect("both texts load");
    (pair, analyzer.into_report())
}

/// The ids `report` carries, in order, deduplicated.
fn ids(report: &Report) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for d in &report.diagnostics {
        if !out.contains(&d.lint.as_str()) {
            out.push(&d.lint);
        }
    }
    out
}

/// What `csspgo run <name>` does before the first instruction.
fn load_and_decode(name: &str) -> Result<(), SimError> {
    let binary: Binary = serde_json::from_str(&input(name)).expect("the JSON itself is valid");
    Machine::try_new(&binary, SimConfig::default()).map(|_| ())
}

// ---- the four inputs of ISSUE 21 -------------------------------------

#[test]
fn a_fresh_profile_of_its_own_source_is_silent() {
    for (source, profile) in [
        ("serve.mini", "serve.prof"),
        ("dispatch.mini", "dispatch.prof"),
    ] {
        let (pair, report) = lint_files(&input(source), &input(profile));
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        assert_eq!((pair.funcs_total, pair.checksum_matched), (1, 1));
    }
}

/// Parent: `1 matched … 0 warning(s)`, exit 0 — file mode never ran PF005.
#[test]
fn a_probe_the_function_never_allocated_is_pf005() {
    let (_, report) = lint_files(&input("serve.mini"), &input("serve_unallocated_probe.prof"));
    assert_eq!(ids(&report), ["PF005"], "{}", report.render_human());
    assert!(report.diagnostics[0].message.contains("probe 77"));
}

/// Parent: `1 matched … 0 warning(s)`, exit 0 — the top-level checksum still
/// matches; only the inlined callee's does not.
#[test]
fn a_changed_inlined_callee_is_pf004_at_its_call_site_path() {
    let (_, report) = lint_files(&input("serve_callee_branch.mini"), &input("serve.prof"));
    assert_eq!(ids(&report), ["PF004"], "{}", report.render_human());
    let d = &report.diagnostics[0];
    assert_eq!(d.func.as_deref(), Some("helper"));
    assert_eq!(d.location.as_deref(), Some("serve@4:helper"));
}

/// Parent: panic in `Machine::new` (`decode.rs:180`).
#[test]
fn a_register_outside_its_frame_is_a_typed_error() {
    assert_eq!(
        load_and_decode("bad_register.bin"),
        Err(SimError::MalformedBinary(
            "register VReg(200) outside a 3-register frame".into()
        ))
    );
}

/// Parent: ran, then `index out of bounds` in `Machine::call`
/// (`machine.rs:402`) once the branch was taken.
#[test]
fn a_jump_past_the_text_is_a_typed_error() {
    assert_eq!(
        load_and_decode("bad_jump_target.bin"),
        Err(SimError::MalformedBinary(
            "branch target 9999 past the 5-instruction text".into()
        ))
    );
}

/// Parent: `csspgo profgen` panicked on both files under every `--format`
/// (`ranges.rs:36` on the short owner table; `correlate.rs:112` and the
/// unwinder's table build on the inline stack, whose probes only `probe` and
/// `context` read), and `csspgo run` ran the second. Now the table check
/// every load runs, [`Binary::check_tables`], refuses both with the
/// simulator's typed error, and the CLI prints it under the file's name.
#[test]
fn a_binary_whose_tables_point_nowhere_is_a_typed_error_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("csspgo-regressions-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let samples = dir.join("serve.samples");
    let binary = serve_binary();
    let mut machine = Machine::new(
        &binary,
        SimConfig {
            sample_period: 199,
            ..SimConfig::default()
        },
    );
    std::fs::write(
        &samples,
        serde_json::to_string(&steady_samples(&mut machine)).unwrap(),
    )
    .unwrap();
    let regressions = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    for (file, why) in [
        (
            "serve_short_func_of.bin",
            "28 instructions but 28 addresses, 5 owners and 28 frame spans",
        ),
        (
            "serve_inline_func77.bin",
            "probe 1 at instruction 13's inline stack names function 77 of 2",
        ),
    ] {
        let bad: Binary = serde_json::from_str(&input(file)).expect("the JSON itself is valid");
        let want = Err(SimError::MalformedBinary(why.into()));
        assert_eq!(
            bad.check_tables().map_err(SimError::MalformedBinary),
            want,
            "{file}"
        );
        assert_eq!(
            Machine::try_new(&bad, SimConfig::default()).map(|_| ()),
            want,
            "{file}"
        );

        let path = regressions.join(file);
        let path = path.to_str().unwrap();
        let samples = samples.to_str().unwrap();
        for args in [
            ["profgen", path, "--samples", samples, "--format", "flat"],
            ["profgen", path, "--samples", samples, "--format", "probe"],
            ["profgen", path, "--samples", samples, "--format", "context"],
            ["run", path, "--entry", "serve", "--args", "300,1"],
        ] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_csspgo"))
                .args(args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert_eq!(
                stderr,
                format!("csspgo: {path}: malformed binary: {why}\n"),
                "{args:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- one firing case per id the census kept --------------------------

#[test]
fn counts_no_execution_can_produce_are_pf001_and_pf002() {
    // `helper`'s entry ran 100 times, both arms 5 000.
    let (_, report) = lint_files(
        &input("serve.mini"),
        &input("helper_impossible_counts.prof"),
    );
    let found = ids(&report);
    assert!(
        found.contains(&"PF001") && found.contains(&"PF002"),
        "{}",
        report.render_human()
    );
}

#[test]
fn a_child_context_entered_more_often_than_it_was_called_is_pf003() {
    let (pair, report) = lint_files(
        &input("serve.mini"),
        &input("serve_overcounted_child.snapshot"),
    );
    let found: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == "PF003")
        .collect();
    assert_eq!(found.len(), 1, "{}", report.render_human());
    assert_eq!(found[0].location.as_deref(), Some("serve@4:helper"));
    // The snapshot's context section is what got matched.
    assert_eq!(pair.funcs_total, 2);
}

#[test]
fn a_guard_above_repeated_calls_is_sm001() {
    let guarded = input("dispatch.mini").replace(
        "    let i = 0;",
        "    if (n > 1000000) { return 0; }\n    let i = 0;",
    );
    let (pair, report) = lint_files(&guarded, &input("dispatch.prof"));
    assert_eq!(
        ids(&report),
        ["PF004", "SM001"],
        "{}",
        report.render_human()
    );
    assert_eq!(pair.recovered, 1);
    assert_eq!(
        pair.diagnostics.len(),
        1,
        "the pair carries its SM findings"
    );
}

#[test]
fn a_retargeted_call_under_an_unchanged_checksum_is_sm004() {
    let retargeted = input("dispatch.mini").replace("s = s + b(i);", "s = s + a(i);");
    let (pair, report) = lint_files(&retargeted, &input("dispatch.prof"));
    assert_eq!(ids(&report), ["SM004"], "{}", report.render_human());
    assert_eq!(pair.checksum_matched, 1);
}

#[test]
fn a_renamed_and_edited_function_is_sm005_and_all_salvage_is_wp003() {
    let renamed = input("dispatch.mini")
        .replace("fn serve(n, k)", "fn serve_v2(n, k)")
        .replace(
            "        s = s + b(i);",
            "        s = s + b(i);\n        s = s + b(s);",
        );
    let (pair, report) = lint_files(&renamed, &input("dispatch.prof"));
    assert_eq!(
        ids(&report),
        ["SM005", "WP003"],
        "{}",
        report.render_human()
    );
    assert_eq!(pair.renamed, 1);
    assert!(pair.provenance.stale_matched_share > 0.99);
}

#[test]
fn an_entry_count_the_body_cannot_carry_is_wp001() {
    // The body counts say ~12 000 iterations; the header claims 200 000
    // calls, so inference has to invent nearly all of the weight.
    let inflated = input("dispatch.prof").replacen("\"entry\": 0", "\"entry\": 200000", 1);
    let (pair, report) = lint_files(&input("dispatch.mini"), &inflated);
    assert_eq!(ids(&report), ["WP001"], "{}", report.render_human());
    assert!(pair.provenance.inferred_share > 0.9);
}

#[test]
fn every_registered_lint_fires_in_this_file() {
    let me = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file!())).unwrap();
    for l in LINTS {
        assert!(
            me.contains(&format!("\"{}\"", l.id)),
            "{} is registered but no regression input makes it fire",
            l.id
        );
    }
}

// ---- sample batches ----------------------------------------------------

/// `csspgo compile serve.mini --probes`.
fn serve_binary() -> Binary {
    let mut module = prepared_module(&input("serve.mini"), "serve.mini", true).unwrap();
    csspgo::opt::run_pipeline(&mut module, &csspgo::opt::OptConfig::default());
    lower_module(&module, &CodegenConfig::default())
}

/// Five `serve(300, 1)` requests' samples at the CLI's period.
fn steady_samples(machine: &mut Machine<'_>) -> Vec<Sample> {
    for _ in 0..5 {
        machine.call("serve", &[300, 1]).unwrap();
    }
    machine.take_samples()
}

/// ROADMAP 6(b), `push_batch` with out-of-range addresses: an epoch whose
/// samples attribute no probe weight says nothing about drift. Parent: that
/// epoch read `overlap 0.000, stale true`, and — its empty distribution
/// having become the baseline — so did the steady epoch after it; in the
/// fleet each is a refresh.
#[test]
fn an_epoch_outside_the_binary_is_no_evidence_of_drift() {
    let binary = serve_binary();
    let stray: Vec<Sample> =
        serde_json::from_str(&input("serve_outside_binary.samples")).expect("a sample batch");
    assert_eq!(stray.len(), 50);
    assert!(stray.iter().all(|s| binary.index_of_addr(s.pc).is_none()));
    let mut machine = Machine::new(
        &binary,
        SimConfig {
            sample_period: 199,
            ..SimConfig::default()
        },
    );
    let mut agg = StreamAggregator::with_tail_graph(
        &binary,
        StreamConfig::default(),
        1,
        TailCallGraph::default(),
    );
    agg.push_batch(steady_samples(&mut machine)).unwrap();
    let first = agg.seal_epoch();
    assert!(first.nodes_epoch > 0);

    agg.push_batch(stray).unwrap();
    let stray = agg.seal_epoch();
    assert_eq!((stray.samples, stray.nodes_epoch), (50, 0), "{stray:?}");
    assert_eq!((stray.overlap, stray.stale), (1.0, false), "{stray:?}");

    agg.push_batch(steady_samples(&mut machine)).unwrap();
    let next = agg.seal_epoch();
    assert!(!next.stale && next.overlap > 0.9, "{next:?}");
    assert_eq!(
        agg.total_samples(),
        (first.samples + 50 + next.samples) as u64
    );
}

// ---- csspgo merge ------------------------------------------------------

/// Every counter of a flat profile — entries and body counts, down through
/// the inlined call sites — by where it sits.
fn flat_counters(profile: &FlatProfile) -> BTreeMap<String, u64> {
    fn walk(f: &FlatFuncProfile, at: String, out: &mut BTreeMap<String, u64>) {
        out.insert(format!("{at} entry"), f.entry);
        for (key, count) in &f.body {
            out.insert(format!("{at} {key:?}"), *count);
        }
        for ((site, callee), sub) in &f.callsites {
            walk(sub, format!("{at} {site:?}@{callee}"), out);
        }
    }
    let mut out = BTreeMap::new();
    for (guid, f) in &profile.funcs {
        walk(f, guid.to_string(), &mut out);
    }
    out
}

/// `csspgo merge --format flat` on two `csspgo profgen --format flat`
/// outputs of `serve.mini`'s probed build, trained with different
/// arguments: every counter of the result is the sum of the inputs'.
#[test]
fn a_flat_merge_is_count_additive() {
    let a = textprof::parse_flat(&input("serve_n300_k1.flat.prof")).unwrap();
    let b = textprof::parse_flat(&input("serve_n120_k2.flat.prof")).unwrap();
    let mut merged = a.clone();
    merge_flat(&mut merged, &b);
    let mut want = flat_counters(&a);
    for (at, count) in flat_counters(&b) {
        *want.entry(at).or_insert(0) += count;
    }
    assert_eq!(flat_counters(&merged), want);
    assert_eq!(merged.total(), a.total() + b.total());
    assert_eq!(merged.names, a.names);
}

/// `csspgo merge --format context` on the same two runs' context profiles
/// is the reference merge of `tests/common/reference_trie.rs`, in either
/// order and with an input repeated.
#[test]
fn a_context_merge_is_the_reference_merge() {
    let a = textprof::parse_context(&input("serve_n300_k1.context.prof")).unwrap();
    let b = textprof::parse_context(&input("serve_n120_k2.context.prof")).unwrap();
    for inputs in [vec![&a, &b], vec![&b, &a], vec![&a, &b, &a]] {
        let mut want = inputs[0].clone();
        for p in &inputs[1..] {
            merge_context(&mut want, p);
        }
        assert_eq!(merge_tries(inputs.iter().copied()), want);
    }
    let inlined = |p: &ContextProfile| {
        let serve = FrameKey {
            guid: function_guid("serve"),
            probe: 4,
        };
        node_for_path(p, &[serve], function_guid("helper"))
            .expect("helper inlined at probe 4")
            .probes[&1]
    };
    assert_eq!(inlined(&merge_tries([&a, &b])), inlined(&a) + inlined(&b));
}

// ---- a file cannot lie about a sum ---------------------------------------

/// What `annotate` leaves on `serve.mini`'s prepared module: the inlines
/// replayed and every block count.
fn annotation(
    probes: bool,
    annotate: impl FnOnce(&mut Module) -> AnnotateStats,
) -> (usize, BlockCounts) {
    let mut module = prepared_module(&input("serve.mini"), "serve.mini", probes).unwrap();
    let stats = annotate(&mut module);
    (stats.replayed_inlines, collect_block_counts(&module))
}

/// `serve_n300_k1.flat.prof` with `helper`'s inlined body cut to one count
/// of 3 under its unchanged header, which still claims 21 605 samples.
/// Parent: the stated total passed the replay gate (8 samples), so AutoFDO
/// replayed an inline that the same profile with its true total of 3 does
/// not. Now the stated total is ignored: both annotate alike.
#[test]
fn a_flat_header_claiming_more_than_its_counts_annotates_like_its_true_total() {
    let lying = input("serve_lying_total.flat.prof");
    let truthful = lying.replacen("4@helper:21605:0", "4@helper:3:0", 1);
    assert_ne!(lying, truthful);
    let annotate = |text: &str| {
        let profile = textprof::parse_flat(text).unwrap();
        annotation(false, |m| {
            autofdo_annotate(m, &profile, &AnnotateConfig::default())
        })
    };
    let want = annotate(&truthful);
    assert_eq!(want.0, 0, "3 samples do not replay the inline");
    assert_eq!(annotate(&lying), want);
}

/// `serve.prof` with `helper`'s inlined probe counts cut to one count of 3
/// under its unchanged `"total": 28841`. Parent: probe-only CSSPGO replayed
/// the inline on the stated total. Now the JSON's `total` is ignored.
#[test]
fn a_probe_json_total_claiming_more_than_its_counts_annotates_like_its_true_total() {
    let lying = input("serve_lying_total.prof");
    let truthful = lying.replacen("\"total\": 28841", "\"total\": 3", 1);
    assert_ne!(lying, truthful);
    let annotate = |text: &str| {
        let profile = textprof::parse_probe_json(text).unwrap();
        annotation(true, |m| {
            csspgo_annotate(m, &profile, None, &AnnotateConfig::default())
        })
    };
    let want = annotate(&truthful);
    assert_eq!(want.0, 0, "3 samples do not replay the inline");
    assert_eq!(annotate(&lying), want);
}

// ---- one nesting bound for the binary and text profile readers ---------

/// ROADMAP 6(b): `binprof` refused a sub-profile nested past its bound of
/// 512, but the text reader took a context path of any depth. Parent: one
/// 50 000-frame path aborted `csspgo_lint --profile … --source serve.mini`
/// and `csspgo merge --format context` with a stack overflow (10 000
/// frames passed), and aborted this test process. Now each of the three
/// surfaces below refuses the path at the shared bound with a `ParseError`
/// naming its line.
#[test]
fn a_context_path_past_the_nesting_bound_is_a_typed_error() {
    let frames = 50_000;
    let context = format!("[{}helper]:1:1\n 1: 1\n", "serve:4 @ ".repeat(frames));
    let why = format!("profile line 1: nested {frames} call sites deep, past the bound of 512");

    // `csspgo_lint --profile <snapshot> --source serve.mini`.
    let snapshot =
        format!("# csspgo-stream-snapshot v1\n# fingerprint: 0x1\n# epochs: 1\n# samples: 1\n!context\n{context}");
    let err = Analyzer::new(Policy::default())
        .judge_file("deep", &input("serve.mini"), &snapshot)
        .unwrap_err();
    assert_eq!(err, format!("profile: {why}"));

    // The text restore parses the same section.
    let binary = serve_binary();
    match StreamAggregator::restore_from(&binary, StreamConfig::default(), 1, snapshot.as_bytes()) {
        Err(PipelineError::Profile(e)) => assert_eq!(e.to_string(), why),
        Err(e) => panic!("{e}"),
        Ok(_) => panic!("a path past the bound restored"),
    }

    // `csspgo merge --format context`.
    let dir = std::env::temp_dir().join(format!("csspgo-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.context.prof");
    std::fs::write(&deep, &context).unwrap();
    let deep = deep.to_str().unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_csspgo"))
        .args(["merge", "--format", "context", deep, deep])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr, format!("csspgo: {deep}: {why}\n"));
}

/// A probe-profile JSON whose `serve` profile nests `depth` call sites of
/// `helper` at probe 4, with one count at the bottom, on one line.
fn nested_probe_json(depth: usize) -> String {
    let (serve, helper) = (function_guid("serve"), function_guid("helper"));
    let open =
        format!(r#"{{"entry": 0, "checksum": 0, "probes": {{}}, "callsites": {{"[4,{helper}]": "#);
    let bottom = r#"{"entry": 0, "checksum": 0, "probes": {"1": 1}, "callsites": {}}"#;
    format!(
        r#"{{"funcs": {{"{serve}": {}{bottom}{}}}, "names": {{}}}}"#,
        open.repeat(depth),
        "}}".repeat(depth)
    )
}

/// ROADMAP 6(b), the JSON readers. Parent: a probe JSON 50 000 call sites
/// deep aborted `csspgo_lint --profile … --source serve.mini`, and 400 000
/// nested brackets aborted `csspgo run` (as the binary) and `csspgo profgen
/// --samples` (as the samples), each with a stack overflow. Now the JSON
/// parser refuses nesting past `serde_json::MAX_NESTING` with its typed
/// error, and the probe-profile reader holds the profile readers' bound of
/// 512 call sites with their message.
#[test]
fn json_nested_past_the_bounds_is_a_typed_error() {
    assert!(textprof::parse_probe_json(&nested_probe_json(512)).is_ok());
    assert_eq!(
        textprof::parse_probe_json(&nested_probe_json(513))
            .unwrap_err()
            .to_string(),
        "profile line 0: nested 513 call sites deep, past the bound of 512"
    );
    let too_deep = format!(
        "nested deeper than {} arrays and objects at line 1",
        serde_json::MAX_NESTING
    );

    let dir = std::env::temp_dir().join(format!("csspgo-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let profile = write("deep.json", &nested_probe_json(50_000));
    let brackets = write(
        "brackets.json",
        &format!("{}{}", "[".repeat(400_000), "]".repeat(400_000)),
    );
    let binary = write(
        "serve.bin",
        &serde_json::to_string(&serve_binary()).unwrap(),
    );
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions/serve.mini");
    let source = source.to_str().unwrap();

    // `csspgo_lint` exits 2 on an input it cannot use; 1 means a denied lint.
    for (bin, args, code, want) in [
        (
            env!("CARGO_BIN_EXE_csspgo_lint"),
            vec!["--profile", &profile, "--source", source],
            2,
            format!("csspgo_lint: profile: profile line 1: {too_deep}\n"),
        ),
        (
            env!("CARGO_BIN_EXE_csspgo"),
            vec!["run", &brackets, "--entry", "serve"],
            1,
            format!("csspgo: {brackets}: not a csspgo binary: {too_deep}\n"),
        ),
        (
            env!("CARGO_BIN_EXE_csspgo"),
            vec!["profgen", &binary, "--samples", &brackets],
            1,
            format!("csspgo: {brackets}: {too_deep}\n"),
        ),
    ] {
        let out = std::process::Command::new(bin)
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert_eq!(stderr, want, "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- unloadable files are messages, not panics -----------------------

#[test]
fn unloadable_files_are_errors_naming_the_file() {
    let mut analyzer = Analyzer::new(Policy::default());
    let source = input("serve.mini");
    for (src, prof, what) in [
        ("fn serve(", "{\"funcs\": {}, \"names\": {}}", "source:"),
        (source.as_str(), "{not json", "profile:"),
        (
            source.as_str(),
            "# csspgo-stream-snapshot v1\n",
            "no !context",
        ),
        (
            source.as_str(),
            "# csspgo-stream-snapshot v1\n!context\n 1: 2\n",
            "profile:",
        ),
    ] {
        let err = analyzer.judge_file("bad", src, prof).unwrap_err();
        assert!(err.contains(what), "{err}");
    }
}
