//! The repository's structural guards, one `#[test]` each, named after the
//! guard: what a guard bans must not come back. A failure names the guard,
//! its invariant, its DESIGN.md section and every offending line.
//!
//! Two views of the source. [`grep`] reads every line of every file under a
//! path, comments and test code included, as `grep -rn` does. The reader of
//! `tests/common/source.rs`, shared with `tests/public_items.rs`, blanks
//! comments and literals and knows which lines are test code; the guards
//! about what code does (a function's body, a count of calls) use it.

#[path = "common/source.rs"]
mod source;

use source::{item_end, load, root, rust_files, Source};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// Fails unless `found` is empty, naming the guard, its invariant and its
/// DESIGN.md section, then every offending line.
fn holds(guard: &str, section: &str, invariant: &str, found: &[String]) {
    assert!(
        found.is_empty(),
        "guard \"{guard}\" (DESIGN.md {section}): {invariant}\n  {}",
        found.join("\n  ")
    );
}

/// `paths` relative to the repository root, `crates/*/src` expanded to every
/// crate's `src`.
fn expand(paths: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for p in paths {
        if *p == "crates/*/src" {
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
                .unwrap()
                .map(|e| e.unwrap().path().join("src"))
                .collect();
            dirs.sort();
            out.extend(dirs);
        } else {
            out.push(root().join(p));
        }
    }
    out
}

/// Every file at or under `path`, in path order.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for e in &entries {
            files(e, out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// Every line of every file under `paths` that `hit` accepts, as
/// `path:line: text`.
fn grep(paths: &[&str], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut all = Vec::new();
    for p in expand(paths) {
        files(&p, &mut all);
    }
    let mut out = Vec::new();
    for f in all {
        let text = String::from_utf8_lossy(&std::fs::read(&f).unwrap()).into_owned();
        let path = f.strip_prefix(root()).unwrap().display().to_string();
        for (l, line) in text.lines().enumerate() {
            if hit(line) {
                out.push(format!("{path}:{}: {}", l + 1, line.trim()));
            }
        }
    }
    out
}

/// Whether `line` contains one of `needles`.
fn any_of(line: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| line.contains(n))
}

/// Whether `line` holds `word` with no identifier character after it
/// (`grep`'s `word\b`).
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(i, _)| {
        !line[i + word.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

/// Whether `line` declares field `name`: `^\s*(pub )?name\s*:`.
fn declares_field(line: &str, name: &str) -> bool {
    let t = line.trim_start();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    t.strip_prefix(name)
        .is_some_and(|rest| rest.trim_start().starts_with(':'))
}

/// The file names in directory `dir`, sorted.
fn dir_names(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root().join(dir))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// One repository file, read by the shared reader.
fn file(path: &str) -> Source {
    load(&root().join(path), false)
}

/// Every `.rs` file under `paths`, read by the shared reader.
fn sources(paths: &[&str]) -> Vec<Source> {
    let mut rs = Vec::new();
    for p in expand(paths) {
        rust_files(&p, &mut rs);
    }
    rs.iter().map(|p| load(p, false)).collect()
}

/// The lines of the item whose header is the first code line of `src`
/// holding `header`, to the brace that closes it.
fn item(src: &Source, header: &str) -> RangeInclusive<usize> {
    let (start, col) = src
        .code()
        .find_map(|(l, text)| text.find(header).map(|c| (l, c)))
        .unwrap_or_else(|| panic!("{} has no `{header}`", src.path));
    start..=item_end(&src.lines, start, col)
}

/// The raw lines of `src` among `lines` that `hit` accepts, as
/// `path:line: text`.
fn lines_where(
    src: &Source,
    lines: impl Iterator<Item = usize>,
    hit: impl Fn(&str) -> bool,
) -> Vec<String> {
    lines
        .filter(|&l| hit(&src.raw[l]))
        .map(|l| format!("{}:{}: {}", src.path, l + 1, src.raw[l].trim()))
        .collect()
}

#[test]
fn resolve_once() {
    let mut found = grep(&["crates/sim/src"], |l| l.contains("VecDeque"));
    found.extend(grep(&["crates/codegen/src/binary.rs"], |l| {
        l.contains("partition_point")
    }));
    holds(
        "Resolve once",
        "§17",
        "one interpreter loop, without a VecDeque; one index_of_addr, without a binary search",
        &found,
    );
}

#[test]
fn one_clock() {
    const STREAM: &str = "crates/core/src/stream.rs";
    let mut found = grep(&["crates/*/src", "src", "examples"], |l| {
        l.contains("Instant::now")
    });
    found.retain(|hit| !hit.starts_with(&format!("{STREAM}:")));
    let stream = file(STREAM);
    let seal = item(&stream, "pub fn seal_epoch");
    let outside = (0..stream.raw.len()).filter(|l| !seal.contains(l));
    found.extend(lines_where(&stream, outside, |l| {
        l.contains("Instant::now")
    }));
    let inside = lines_where(&stream, seal, |l| l.contains("Instant::now"));
    if inside.len() != 2 {
        found.push(format!(
            "{STREAM}: {} wall-clock reads in seal_epoch, not 2",
            inside.len()
        ));
    }
    holds(
        "One clock",
        "§16",
        "the library reads the wall clock only twice, in StreamAggregator::seal_epoch",
        &found,
    );
}

#[test]
fn epochs_fold_in_place() {
    let stream = file("crates/core/src/stream.rs");
    let seal = item(&stream, "pub fn seal_epoch");
    let banned = [
        "probe_weights",
        "take_profile",
        "sharded_range_counts",
        "node_count",
        "shards == 1",
        "shards <= 1",
    ];
    let found = lines_where(&stream, seal, |l| any_of(l, &banned));
    holds(
        "Epochs fold in place",
        "§7.2",
        "StreamAggregator::seal_epoch materialises, merges and walks no profile, and has no shard-count fork",
        &found,
    );
}

#[test]
fn oracles_live_under_tests() {
    let found = grep(&["crates/*/src", "src", "examples"], |l| {
        any_of(l, &["merge_context", "evict_subtree"]) || has_word(l, "fn node_for_path")
    });
    holds(
        "Oracles live under tests/",
        "§21",
        "the reference trie's merge, eviction and lookup are not library items",
        &found,
    );
}

#[test]
fn one_wire_format() {
    let framing = [
        "put_uvarint",
        "Reader",
        "put_section",
        "read_sections",
        "check_header",
        "section::",
    ];
    let found = grep(&["crates/core/src/stream.rs"], |l| any_of(l, &framing));
    holds(
        "One wire format",
        "§10.3",
        "binprof alone knows the bytes; the stream hands it a snapshot value and names none of its framing",
        &found,
    );
}

#[test]
fn one_kernel() {
    let banned = [
        "trait Emit",
        "trait HitSink",
        "SinkEmit",
        "RecordingSink",
        "fn unwind_each",
        "fn unwind_into",
        "max_context_depth",
    ];
    let found = grep(&["crates/*/src", "src", "examples"], |l| any_of(l, &banned));
    holds(
        "One kernel",
        "§18",
        "no second unwind path, sink trait or public depth knob in the library",
        &found,
    );
}

#[test]
fn one_value_one_path() {
    let deleted = [
        "InferenceMode::Heuristic",
        "heuristic_counts",
        "StaleMatching::Report",
        "FleetConfigBuilder",
        "snapshot_format_from_env",
        "CSSPGO_SNAPSHOT_FORMAT",
        "CSSPGO_RESIDENT_CAP",
        "hot_callsite_count",
        "enable_tail_dup",
        "enable_licm",
        "enable_sink",
        "enable_inline",
        "enable_unroll",
        "enable_tail_merge",
        "enable_if_convert",
        "enable_layout",
        "enable_split",
        "fn with_config",
    ];
    // Removed config leaves, matched as words.
    let leaves = [
        "snapshot_check",
        "snapshot_format",
        "num_regs",
        "tail_call_elim",
        "growth_floor",
        "growth_factor",
        "hot_threshold",
        "size_limit",
    ];
    let found = grep(&["crates/*/src", "src", "examples"], |l| {
        any_of(l, &deleted) || leaves.iter().any(|w| has_word(l, w))
    });
    holds(
        "One value, one path",
        "§19",
        "no deleted option, builder, dead mode or heuristic inference comes back into the library",
        &found,
    );
}

#[test]
fn figures_are_values() {
    let second_path = [
        "FleetBenchRe",
        "write_fleet_bench",
        "BENCH_PROFILE_FLEET_OUT",
        "TrainBenchDoc",
        "TRAIN_SCHEMA",
        "BENCH_RELEASE_TRAIN_OUT",
        "min-retention",
        "sabotage_release",
    ];
    let mut found = grep(&["crates", "src"], |l| any_of(l, &second_path));
    let bins = dir_names("crates/bench/src/bin");
    if bins != ["figures.rs"] {
        found.push(format!(
            "crates/bench/src/bin holds {bins:?}, not figures.rs alone"
        ));
    }
    holds(
        "Figures are values",
        "§20",
        "one bin renders every figure, and no second report path comes back",
        &found,
    );
}

#[test]
fn one_judge() {
    let retired: Vec<String> = ["IV001", "PF006", "SM002", "SM003", "WP002"]
        .into_iter()
        .map(str::to_owned)
        .chain((1..=6).map(|i| format!("PI00{i}")))
        .chain((1..=4).map(|i| format!("PP00{i}")))
        .map(|id| format!("\"{id}\""))
        .collect();
    let knobs = [
        "analyze_provenance_with",
        "FlowTolerance",
        "ContextTolerance",
        "WpTolerance",
        "post-inference",
    ];
    let mut found = grep(&["crates/*/src", "src", "examples"], |l| {
        any_of(l, &knobs) || retired.iter().any(|id| l.contains(id.as_str()))
    });
    let bins = dir_names("src/bin");
    if bins != ["csspgo.rs", "csspgo_lint.rs"] {
        found.push(format!(
            "src/bin holds {bins:?}, not csspgo.rs and csspgo_lint.rs alone"
        ));
    }
    holds(
        "One judge",
        "§8.6",
        "one lint/diff bin, no tolerance knob, no lint id the census retired",
        &found,
    );
}

#[test]
fn one_refresh() {
    let build_stages = [
        "run_pgo_cycle_drifted",
        "run_preinliner",
        "to_inline_plan",
        "trim_cold",
        "optimized_build",
        "prepared_module",
        "binprof::",
    ];
    let mut found = grep(
        &[
            "crates/core/src/fleet.rs",
            "crates/core/src/release_train.rs",
        ],
        |l| any_of(l, &build_stages),
    );
    let mut calls = Vec::new();
    for s in sources(&["crates/*/src", "src"]) {
        if s.path == "crates/core/src/preinline.rs" {
            continue;
        }
        let lines: Vec<usize> = (s.code())
            .filter(|(_, t)| t.contains("run_preinliner("))
            .map(|(l, _)| l)
            .collect();
        calls.extend(lines_where(&s, lines.into_iter(), |_| true));
    }
    if calls.len() != 1 {
        found.push(format!(
            "{} non-test lines outside preinline.rs run the pre-inliner, not 1:",
            calls.len()
        ));
        found.extend(calls);
    }
    holds(
        "One refresh",
        "§15",
        "the serving tier builds only through FleetService::rebuild, and one line outside preinline.rs runs the pre-inliner",
        &found,
    );
}

#[test]
fn count_once() {
    let found = grep(&["crates/core/src/ranges.rs"], |l| l.contains("fn add_lbr"));
    holds(
        "Count once",
        "§6.4",
        "range counting resolves each distinct LBR triple once per batch; no per-entry path",
        &found,
    );
}

/// `(^[ \t]*|[(=,] *)FuncMatch \{`: a `FuncMatch` literal, not its type
/// or `impl` header.
fn builds_func_match(line: &str) -> bool {
    line.match_indices("FuncMatch {").any(|(i, _)| {
        let before = &line[..i];
        before.trim_start_matches([' ', '\t']).is_empty()
            || before.trim_end_matches(' ').ends_with(['(', '=', ','])
    })
}

/// `^ *pub [a-z_]+:`: a public field.
fn pub_field(line: &str) -> bool {
    line.trim_start_matches(' ')
        .strip_prefix("pub ")
        .is_some_and(|rest| {
            let n = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
                .unwrap_or(rest.len());
            n > 0 && rest[n..].starts_with(':')
        })
}

#[test]
fn one_stale_verdict() {
    let sm = file("crates/core/src/stalematch.rs");
    let mut found = Vec::new();
    for (what, hit) in [
        (
            "view a function (anchor_sequence)",
            &(|t: &str| t.contains("anchor_sequence(")) as &dyn Fn(&str) -> bool,
        ),
        ("build a FuncMatch", &builds_func_match),
    ] {
        let n = sm.code().filter(|(_, t)| hit(t)).count();
        if n != 1 {
            found.push(format!("{}: {n} non-test lines {what}, not 1", sm.path));
        }
    }
    found.extend(lines_where(
        &sm,
        item(&sm, "pub struct MatchConfig"),
        pub_field,
    ));
    let fallbacks = grep(&["crates/*/src"], |l| {
        l.contains("unwrap_or_else(|| cfg_checksum")
    });
    if fallbacks.len() > 1 {
        found.extend(fallbacks);
    }
    found.extend(grep(&["crates/analysis/src"], |l| l.contains("0.9")));
    holds(
        "One stale verdict",
        "§9.6",
        "the matcher views each function at most once, builds every record in one place and has no knob; one checksum fallback, one SM005 threshold",
        &found,
    );
}

#[test]
fn counts_not_sums() {
    // Spelled apart: this file is under `tests`, which the guard reads.
    let cached_sum = ["recompute", "_totals"].concat();
    let mut found = grep(&["crates", "src", "examples", "tests"], |l| {
        l.contains(&cached_sum)
    });
    found.extend(grep(&["crates/core/src/profile.rs"], |l| {
        declares_field(l, "total")
    }));
    let context = file("crates/core/src/context.rs");
    for node in ["struct ContextNode {", "struct ArenaNode {"] {
        found.extend(lines_where(&context, item(&context, node), |l| {
            declares_field(l, "guid")
        }));
    }
    holds(
        "Counts, not sums",
        "§10.5",
        "a profile stores counts: a total is summed on demand and a context node is named by its key",
        &found,
    );
}

#[test]
fn one_reader() {
    let textprof = file("crates/core/src/textprof.rs");
    let mut found = lines_where(&textprof, textprof.code().map(|(l, _)| l), |l| {
        l.contains("pub fn parse_")
    });
    for src in sources(&["crates/*/src", "src", "examples"]) {
        if src.path.ends_with("core/src/textprof.rs") || src.path.ends_with("core/src/stream.rs") {
            continue;
        }
        let named: Vec<usize> = (src.code())
            .filter(|(_, text)| text.contains("parse_context"))
            .map(|(l, _)| l)
            .collect();
        found.extend(lines_where(&src, named.into_iter(), |_| true));
    }
    found.extend(grep(
        &["crates/core/src/profile.rs", "crates/core/src/context.rs"],
        |l| l.contains("Deserialize"),
    ));
    holds(
        "One reader",
        "§10.3",
        "the tools read profiles as binprof; text is output, save the text snapshot's context reader, and no profile type deserialises",
        &found,
    );
}
