//! Hostile and drifted inputs, kept as files under `tests/regressions/` and
//! fed through the function the CLI calls: `Analyzer::judge_file` for
//! `csspgo_lint --profile P --source S`, `Binary::check_tables` for every
//! binary `csspgo` loads and `Machine::try_new` for `csspgo run`,
//! `merge_flat` / `merge_tries` for `csspgo merge`,
//! `StreamAggregator::push_batch` for a sample batch from a profiling host.
//! Every input is *bytes from outside the process* — which is what
//! "reachable" means in the lint census (DESIGN.md §8): each id still in the
//! registry fires here, by name, on a source text and a binprof profile.
//! A hand-edited profile is an edit of a decoded file, written below as a
//! function and encoded back to the bytes the CLI would read.
//! `tests/regressions/README.md` says where each file came from.

use csspgo::analysis::{Analyzer, Policy, Report, ScenarioReport, LINTS};
use csspgo::codegen::{lower_module, Binary, CodegenConfig};
use csspgo::core::binprof;
use csspgo::core::context::{ContextProfile, FrameKey};
use csspgo::core::merge::{merge_flat, merge_tries};
use csspgo::core::pipeline::{prepared_module, PipelineError};
use csspgo::core::profile::{FlatFuncProfile, FlatProfile, LocKey, ProbeFuncProfile, ProbeProfile};
use csspgo::core::stream::{SnapshotFormat, StreamAggregator, StreamConfig};
use csspgo::core::tailcall::TailCallGraph;
use csspgo::ir::probe::function_guid;
use csspgo::sim::{Machine, Sample, SimConfig, SimError};
use std::collections::BTreeMap;
use std::path::Path;

#[path = "common/reference_trie.rs"]
mod reference_trie;
use reference_trie::{merge_context, node_for_path};

/// The path of an input under `tests/regressions/`.
fn input_path(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/regressions")
        .join(name);
    path.to_str().unwrap().to_string()
}

fn bytes(name: &str) -> Vec<u8> {
    let path = input_path(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn input(name: &str) -> String {
    String::from_utf8(bytes(name)).unwrap()
}

fn probe_input(name: &str) -> ProbeProfile {
    binprof::decode_probe(&bytes(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn flat_input(name: &str) -> FlatProfile {
    binprof::decode_flat(&bytes(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn context_input(name: &str) -> ContextProfile {
    binprof::decode_context(&bytes(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `serve.binprof` with `77: 5` added to `serve`'s probes: a probe index
/// the function never allocated.
fn serve_unallocated_probe() -> ProbeProfile {
    let mut profile = probe_input("serve.binprof");
    let serve = profile.funcs.get_mut(&function_guid("serve")).unwrap();
    serve.probes.insert(77, 5);
    profile
}

/// A profile of `serve.mini`'s `helper` alone, under the checksum
/// `serve.binprof` records for it: entry 100, both arms and the join 5 000.
fn helper_impossible_counts() -> ProbeProfile {
    let (serve, helper) = (function_guid("serve"), function_guid("helper"));
    let checksum = probe_input("serve.binprof").funcs[&serve].callsites[&(4, helper)].checksum;
    ProbeProfile {
        funcs: [(
            helper,
            ProbeFuncProfile {
                entry: 100,
                checksum,
                probes: [(1, 100), (2, 5_000), (3, 5_000), (4, 5_000)].into(),
                callsites: BTreeMap::new(),
            },
        )]
        .into(),
        names: [(helper, "helper".to_string())].into(),
    }
}

/// `serve_n300_k1.context.binprof` with the inlined `helper` context's entry
/// count raised from 0 to 99 999, against a call-site probe that counted
/// 11 335.
fn serve_overcounted_child() -> ContextProfile {
    let mut profile = context_input("serve_n300_k1.context.binprof");
    let serve = profile.roots.get_mut(&function_guid("serve")).unwrap();
    let child = serve
        .children
        .get_mut(&(4, function_guid("helper")))
        .unwrap();
    child.entry = 99_999;
    profile
}

/// `dispatch.binprof` with `serve`'s entry count raised from 0 to 200 000.
fn dispatch_inflated_entry() -> ProbeProfile {
    let mut profile = probe_input("dispatch.binprof");
    profile
        .funcs
        .get_mut(&function_guid("serve"))
        .unwrap()
        .entry = 200_000;
    profile
}

/// What `csspgo_lint --profile <profile> --source <source>` finds.
fn lint_files(source: &str, profile: &[u8]) -> (ScenarioReport, Report) {
    let mut analyzer = Analyzer::new(Policy::default());
    let pair = analyzer
        .judge_file("regression", source, profile)
        .expect("both files load");
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
        ("serve.mini", "serve.binprof"),
        ("dispatch.mini", "dispatch.binprof"),
    ] {
        let (pair, report) = lint_files(&input(source), &bytes(profile));
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        assert_eq!((pair.funcs_total, pair.checksum_matched), (1, 1));
    }
}

/// Parent: `1 matched … 0 warning(s)`, exit 0 — file mode never ran PF005.
#[test]
fn a_probe_the_function_never_allocated_is_pf005() {
    let (_, report) = lint_files(
        &input("serve.mini"),
        &binprof::encode_probe(&serve_unallocated_probe()),
    );
    assert_eq!(ids(&report), ["PF005"], "{}", report.render_human());
    assert!(report.diagnostics[0].message.contains("probe 77"));
}

/// Parent: `1 matched … 0 warning(s)`, exit 0 — the top-level checksum still
/// matches; only the inlined callee's does not.
#[test]
fn a_changed_inlined_callee_is_pf004_at_its_call_site_path() {
    let (_, report) = lint_files(&input("serve_callee_branch.mini"), &bytes("serve.binprof"));
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

        let path = &input_path(file);
        let samples = samples.to_str().unwrap();
        let out = dir.join("out.prof");
        let out = out.to_str().unwrap();
        let profgen = |format| {
            [
                "profgen",
                path,
                "--samples",
                samples,
                "--format",
                format,
                "-o",
                out,
            ]
        };
        for args in [
            &profgen("flat")[..],
            &profgen("probe"),
            &profgen("context"),
            &["run", path, "--entry", "serve", "--args", "300,1"],
        ] {
            assert_eq!(
                run_bin(env!("CARGO_BIN_EXE_csspgo"), args),
                (
                    Some(1),
                    format!("csspgo: {path}: malformed binary: {why}\n")
                ),
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
        &binprof::encode_probe(&helper_impossible_counts()),
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
        &binprof::encode_context(&serve_overcounted_child()),
    );
    let found: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == "PF003")
        .collect();
    assert_eq!(found.len(), 1, "{}", report.render_human());
    assert_eq!(found[0].location.as_deref(), Some("serve@4:helper"));
    // The context, flattened, is what got matched.
    assert_eq!(pair.funcs_total, 2);
}

#[test]
fn a_guard_above_repeated_calls_is_sm001() {
    let guarded = input("dispatch.mini").replace(
        "    let i = 0;",
        "    if (n > 1000000) { return 0; }\n    let i = 0;",
    );
    let (pair, report) = lint_files(&guarded, &bytes("dispatch.binprof"));
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
    let (pair, report) = lint_files(&retargeted, &bytes("dispatch.binprof"));
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
    let (pair, report) = lint_files(&renamed, &bytes("dispatch.binprof"));
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
    // The body counts say ~12 000 iterations; the entry claims 200 000
    // calls, so inference has to invent nearly all of the weight.
    let (pair, report) = lint_files(
        &input("dispatch.mini"),
        &binprof::encode_probe(&dispatch_inflated_entry()),
    );
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

/// `csspgo merge` on two `csspgo profgen --format flat`
/// outputs of `serve.mini`'s probed build, trained with different
/// arguments: every counter of the result is the sum of the inputs'.
#[test]
fn a_flat_merge_is_count_additive() {
    let a = flat_input("serve_n300_k1.flat.binprof");
    let b = flat_input("serve_n120_k2.flat.binprof");
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

/// `csspgo merge` on the same two runs' context profiles
/// is the reference merge of `tests/common/reference_trie.rs`, in either
/// order and with an input repeated.
#[test]
fn a_context_merge_is_the_reference_merge() {
    let a = context_input("serve_n300_k1.context.binprof");
    let b = context_input("serve_n120_k2.context.binprof");
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

// ---- the CLI's profile readers ------------------------------------------

/// A fresh directory for files handed to the built bins.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("csspgo-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `contents` to `dir/name` and returns the path.
fn write(dir: &Path, name: &str, contents: impl AsRef<[u8]>) -> String {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_str().unwrap().to_string()
}

/// Runs a built bin on `args`: its exit code and stderr.
fn run_bin(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(bin).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `serve`'s profile with `depth` call sites below it, each a `serve` at
/// site 4 and the last `helper`, with one count at the bottom: as a flat, a
/// probe and a context document.
fn nested_profiles(depth: usize) -> [Vec<u8>; 3] {
    let (serve, helper) = (function_guid("serve"), function_guid("helper"));
    let key = |line_offset| LocKey {
        line_offset,
        discriminator: 0,
    };
    let mut flat = FlatFuncProfile {
        body: [(key(1), 1)].into(),
        ..FlatFuncProfile::default()
    };
    let mut probe = ProbeFuncProfile {
        probes: [(1, 1)].into(),
        ..ProbeFuncProfile::default()
    };
    for level in 0..depth {
        let callee = if level == 0 { helper } else { serve };
        flat = FlatFuncProfile {
            callsites: [((key(4), callee), flat)].into(),
            ..FlatFuncProfile::default()
        };
        probe = ProbeFuncProfile {
            callsites: [((4, callee), probe)].into(),
            ..ProbeFuncProfile::default()
        };
    }
    let mut context = ContextProfile::new();
    let path = vec![
        FrameKey {
            guid: serve,
            probe: 4
        };
        depth
    ];
    context.add_probe_hit(&path, helper, 1, 1);
    [
        binprof::encode_flat(&FlatProfile {
            funcs: [(serve, flat)].into(),
            ..FlatProfile::default()
        }),
        binprof::encode_probe(&ProbeProfile {
            funcs: [(serve, probe)].into(),
            ..ProbeProfile::default()
        }),
        binprof::encode_context(&context),
    ]
}

/// ROADMAP 6(b): one nesting bound, `binprof`'s 512 call sites, for every
/// profile reader. Parent: a 50 000-frame context path aborted
/// `csspgo_lint --profile … --source serve.mini` and `csspgo merge` with a
/// stack overflow, until their text readers held the bound. Now the
/// tools read binprof only: `csspgo show` and `csspgo merge` refuse a
/// profile 513 call sites deep with exit 1 and `csspgo_lint --profile` with
/// exit 2, each naming the decoder's error, and show 512. The text restore
/// still reads a text context and refuses the 50 000-frame path.
#[test]
fn a_context_path_past_the_nesting_bound_is_a_typed_error() {
    let frames = 50_000;
    let context = format!("[{}helper]:1:1\n 1: 1\n", "serve:4 @ ".repeat(frames));
    let why = format!("profile line 1: nested {frames} call sites deep, past the bound of 512");
    let snapshot =
        format!("# csspgo-stream-snapshot v1\n# fingerprint: 0x1\n# epochs: 1\n# samples: 1\n!context\n{context}");
    let binary = serve_binary();
    match StreamAggregator::restore_from(&binary, StreamConfig::default(), 1, snapshot.as_bytes()) {
        Err(PipelineError::Profile(e)) => assert_eq!(e.to_string(), why),
        Err(e) => panic!("{e}"),
        Ok(_) => panic!("a path past the bound restored"),
    }

    let dir = scratch_dir("deep");
    let [flat, probe, context] = nested_profiles(512);
    for (kind, bytes) in [("flat", flat), ("probe", probe), ("context", context)] {
        let path = write(&dir, &format!("ok.{kind}"), bytes);
        assert_eq!(
            run_bin(env!("CARGO_BIN_EXE_csspgo"), &["show", &path]).0,
            Some(0)
        );
    }
    let [flat, probe, context] = nested_profiles(513);
    let flat = write(&dir, "deep.flat", flat);
    let probe = write(&dir, "deep.probe", probe);
    let context = write(&dir, "deep.context", context);
    let out = dir.join("merged").to_str().unwrap().to_string();
    let source = input_path("serve.mini");
    let too_deep = "corrupt binprof payload: profile nested too deep";
    let csspgo = |file: &str| {
        (
            env!("CARGO_BIN_EXE_csspgo"),
            1,
            format!("csspgo: {file}: {too_deep}\n"),
        )
    };
    let lint = (
        env!("CARGO_BIN_EXE_csspgo_lint"),
        2,
        format!("csspgo_lint: profile: {too_deep}\n"),
    );
    for ((bin, code, want), args) in [
        (csspgo(&flat), vec!["show", &flat]),
        (csspgo(&probe), vec!["show", &probe]),
        (csspgo(&context), vec!["show", &context]),
        (csspgo(&flat), vec!["merge", &flat, &flat, "-o", &out]),
        (
            csspgo(&context),
            vec!["merge", &context, &context, "-o", &out],
        ),
        (lint.clone(), vec!["--profile", &probe, "--source", &source]),
        (
            lint.clone(),
            vec!["--profile", &context, "--source", &source],
        ),
    ] {
        assert_eq!(run_bin(bin, &args), (Some(code), want), "{args:?}");
    }
    assert!(!Path::new(&out).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ROADMAP 6(b), the JSON readers. Parent: 400 000 nested brackets aborted
/// `csspgo run` (as the binary) and `csspgo profgen --samples` (as the
/// samples) with a stack overflow. Now the vendored JSON parser refuses
/// nesting past `serde_json::MAX_NESTING` with its typed error. (No profile
/// is read as JSON any more.)
#[test]
fn json_nested_past_the_bounds_is_a_typed_error() {
    let too_deep = format!(
        "nested deeper than {} arrays and objects at line 1",
        serde_json::MAX_NESTING
    );
    let dir = scratch_dir("deep-json");
    let brackets = write(
        &dir,
        "brackets.json",
        format!("{}{}", "[".repeat(400_000), "]".repeat(400_000)),
    );
    let binary = write(
        &dir,
        "serve.bin",
        serde_json::to_string(&serve_binary()).unwrap(),
    );
    let out = dir.join("out.prof").to_str().unwrap().to_string();
    for (args, want) in [
        (
            vec!["run", &brackets, "--entry", "serve"],
            format!("csspgo: {brackets}: not a csspgo binary: {too_deep}\n"),
        ),
        (
            vec!["profgen", &binary, "--samples", &brackets, "-o", &out],
            format!("csspgo: {brackets}: {too_deep}\n"),
        ),
    ] {
        assert_eq!(
            run_bin(env!("CARGO_BIN_EXE_csspgo"), &args),
            (Some(1), want),
            "{args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- one count bound for every profile reader ---------------------------

/// Parent: `serve.binprof`'s profile as probe JSON, with probes 2 and 3 of
/// `serve` at 2⁶³, panicked a debug `csspgo_lint --profile … --source
/// serve.mini` with `attempt to add with overflow` in
/// `ProvenanceTotals::add` (`annotate.rs:105`), and with probe 2 alone with
/// `attempt to multiply with overflow` in `materially_adjusted`
/// (`annotate.rs:129`); a release build printed a row of wrapped sums. Now every profile reader refuses counts that sum
/// past 2⁴⁸: the binprof decoders behind `judge_file`, the text restore,
/// and `csspgo merge`, which refuses to write a result past the bound.
#[test]
fn counts_near_the_top_of_u64_are_a_typed_error() {
    let (serve, helper) = (function_guid("serve"), function_guid("helper"));
    let big = 1u64 << 63;
    let past = "corrupt binprof payload: profile counts sum past 2^48";
    for probes in [&[2, 3][..], &[2]] {
        let mut profile = probe_input("serve.binprof");
        let mut context = context_input("serve_n300_k1.context.binprof");
        for &p in probes {
            profile.funcs.get_mut(&serve).unwrap().probes.insert(p, big);
            context.roots.get_mut(&serve).unwrap().probes.insert(p, big);
        }
        for bytes in [
            binprof::encode_probe(&profile),
            binprof::encode_context(&context),
        ] {
            let err = Analyzer::new(Policy::default())
                .judge_file("big", &input("serve.mini"), &bytes)
                .unwrap_err();
            assert_eq!(err, format!("profile: {past}"), "probes {probes:?}");
        }
    }

    // The text restore: a snapshot of this build whose context counts 2⁶³.
    let binary = serve_binary();
    let config = StreamConfig::default();
    let agg =
        StreamAggregator::with_tail_graph(&binary, config.clone(), 1, TailCallGraph::default());
    let text = String::from_utf8(agg.snapshot_as(SnapshotFormat::Text)).unwrap();
    let (head, _) = text.split_once("!context\n").unwrap();
    let text = format!("{head}!context\n[serve]:0:0\n 1: 1\n 2: {big}\n");
    match StreamAggregator::restore_from(&binary, config, 1, text.as_bytes()) {
        Err(PipelineError::Profile(e)) => assert_eq!(
            e.to_string(),
            "profile line 3: counts sum past the bound of 2^48"
        ),
        Err(e) => panic!("{e}"),
        Ok(_) => panic!("counts past the bound restored"),
    }

    // `csspgo merge`: two inputs within the bound, merged past it.
    let dir = scratch_dir("big");
    let half = 1u64 << 47;
    let flat = |count| {
        let mut p = FlatProfile::default();
        let key = LocKey {
            line_offset: 1,
            discriminator: 0,
        };
        p.funcs.entry(serve).or_default().body.insert(key, count);
        binprof::encode_flat(&p)
    };
    let context = |count| {
        let mut p = ContextProfile::new();
        p.add_probe_hit(
            &[FrameKey {
                guid: serve,
                probe: 4,
            }],
            helper,
            1,
            count,
        );
        binprof::encode_context(&p)
    };
    let out = dir.join("merged").to_str().unwrap().to_string();
    for (kind, at, over) in [
        ("flat", flat(half), flat(half + 1)),
        ("context", context(half), context(half + 1)),
    ] {
        let at = write(&dir, &format!("at.{kind}"), at);
        let over = write(&dir, &format!("over.{kind}"), over);
        let csspgo = env!("CARGO_BIN_EXE_csspgo");
        assert_eq!(run_bin(csspgo, &["merge", &at, &at, "-o", &out]).0, Some(0));
        std::fs::remove_file(&out).unwrap();
        assert_eq!(
            run_bin(csspgo, &["merge", &at, &over, "-o", &out]),
            (
                Some(1),
                format!("csspgo: merge: the result would not load after {over}: {past}\n")
            ),
            "{kind}"
        );
        assert!(!Path::new(&out).exists(), "{kind}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- unloadable files are messages, not panics -----------------------

#[test]
fn unloadable_files_are_errors_naming_the_file() {
    let mut analyzer = Analyzer::new(Policy::default());
    let source = input("serve.mini");
    let serve = bytes("serve.binprof");
    let flat = bytes("serve_n300_k1.flat.binprof");
    for (src, prof, want) in [
        ("fn serve(", &serve[..], "source:"),
        (
            source.as_str(),
            &b"{\"funcs\": {}, \"names\": {}}"[..],
            "profile: not a binprof payload (bad magic)",
        ),
        (
            source.as_str(),
            &flat[..],
            "profile: binprof kind mismatch: found 3, expected 1",
        ),
        (
            source.as_str(),
            &serve[..serve.len() - 1],
            "profile: corrupt binprof payload: length prefix exceeds payload",
        ),
    ] {
        let err = analyzer.judge_file("bad", src, prof).unwrap_err();
        assert!(err.starts_with(want), "{err}");
    }
}
