//! Source-drift mutators (paper §III.A).
//!
//! "A minor change in the source code such as adding or removing a program
//! comment, can cause location of subsequent code to shift ... we have
//! observed minor source drift causing 8% performance loss for a server
//! workload. This problem is mitigated with pseudo-instrumentation where a
//! checksum reflecting the shape of the IR control-flow graph is computed
//! and persisted in the profile."
//!
//! [`Mutator`] is the one way to apply a drift. Each application reads the
//! source once into a private view — its lines, and for every function
//! defined at column 0 the header line, the name and, when the header opens
//! a multi-line body, the parameters and the column-0 `}` that closes it —
//! and every mutator is an edit over that view. A function whose `fn` is
//! indented is invisible to every mutator, the rename included.

use csspgo_core::Workload;

/// A function definition: a line that starts with `fn ` at column 0.
struct Func<'a> {
    /// Index of the header line.
    line: usize,
    /// The header's text before its first `(`, trimmed.
    name: &'a str,
    /// Present when the header ends in `{`: the body is on the lines below.
    body: Option<Body<'a>>,
}

struct Body<'a> {
    /// The header's text between its first `(` and the next `)`, trimmed.
    params: &'a str,
    /// Index of the first column-0 `}` after the header (the line count if
    /// there is none).
    close: usize,
}

/// A source read once: its lines and the functions they define.
struct Source<'a> {
    text: &'a str,
    lines: Vec<&'a str>,
    funcs: Vec<Func<'a>>,
}

impl<'a> Source<'a> {
    fn new(text: &'a str) -> Self {
        let lines: Vec<&str> = text.lines().collect();
        let funcs = (lines.iter().enumerate())
            .filter_map(|(line, l)| {
                let rest = l.strip_prefix("fn ")?;
                let (name, after) = rest.split_once('(').unwrap_or((rest, ""));
                let body = l.trim_end().ends_with('{').then(|| Body {
                    params: after.split_once(')').map_or("", |(p, _)| p.trim()),
                    close: (line + 1..lines.len())
                        .find(|&j| lines[j] == "}")
                        .unwrap_or(lines.len()),
                });
                Some(Func {
                    line,
                    name: name.trim(),
                    body,
                })
            })
            .collect();
        Source { text, lines, funcs }
    }

    /// The functions with a multi-line body.
    fn bodies(&self) -> impl Iterator<Item = (&Func<'a>, &Body<'a>)> {
        (self.funcs.iter()).filter_map(|f| Some((f, f.body.as_ref()?)))
    }

    /// The function whose header is line `line`.
    fn func_at(&self, line: usize) -> Option<&Func<'a>> {
        let k = self.funcs.binary_search_by_key(&line, |f| f.line).ok()?;
        Some(&self.funcs[k])
    }

    /// Re-emits every line, each followed by `\n`, except that where
    /// `edit(i, line)` returns text, that text (its own `\n`s included;
    /// empty deletes the line) stands in for line `i`.
    fn rewrite(&self, edit: impl Fn(usize, &str) -> Option<String>) -> String {
        let mut out = String::with_capacity(self.text.len() + 512);
        for (i, &line) in self.lines.iter().enumerate() {
            match edit(i, line) {
                Some(text) => out.push_str(&text),
                None => {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Inserts `text` (whole lines) after the header of every multi-line
    /// function `at` accepts.
    fn insert_after_headers(&self, text: &str, at: impl Fn(&Func, &Body) -> bool) -> String {
        self.rewrite(|i, line| {
            let f = self.func_at(i)?;
            at(f, f.body.as_ref()?).then(|| format!("{line}\n{text}"))
        })
    }
}

/// The `nth` item (0-based, wrapping), or `None` if there are none.
fn wrapping_nth<T>(items: impl Iterator<Item = T>, nth: usize) -> Option<T> {
    let items: Vec<T> = items.collect();
    let len = items.len().max(1);
    items.into_iter().nth(nth % len)
}

/// Replaces every whole-word occurrence of `from` with `to`: an adjacent
/// alphanumeric or `_` suppresses the match. An empty `from` (a nameless
/// definition, `fn (x) {`) is no word.
fn replace_whole_word(text: &str, from: &str, to: &str) -> String {
    if from.is_empty() {
        return text.to_string();
    }
    let word = |i: usize| {
        text.as_bytes()
            .get(i)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
    };
    let mut out = String::with_capacity(text.len() + 64);
    let mut i = 0;
    while let Some(pos) = text[i..].find(from) {
        let start = i + pos;
        let end = start + from.len();
        if (start == 0 || !word(start - 1)) && !word(end) {
            out.push_str(&text[i..start]);
            out.push_str(to);
        } else {
            out.push_str(&text[i..end]);
        }
        i = end;
    }
    out.push_str(&text[i..]);
    out
}

/// The two comment lines [`Mutator::InsertComments`] puts before every
/// function definition.
const REVIEW_COMMENTS: &str =
    "// drift: reviewed in Q3, see T12345\n// drift: perf-sensitive, do not touch\n";

/// A drift that *changes the CFG*: a dead guard branch is added at the top of
/// every multi-line function body (a function written on one line gets
/// none). CSSPGO must detect this via checksum mismatch and reject the stale
/// profile rather than mis-apply it.
pub fn change_cfg(source: &str) -> String {
    Mutator::ChangeCfg.apply(source, &[])
}

/// Renames every function whose name is *not* in `keep` by appending
/// `_v2` — definition and all call sites, whole-word. Call sites inside
/// kept functions retarget too, so the rename is behaviour-preserving.
///
/// GUIDs are name hashes, so a renamed function vanishes from the profile's
/// GUID space entirely: the stale matcher's rename detection (anchor-set
/// similarity) is the only way its counts survive.
fn rename_functions(src: &Source, keep: &[&str]) -> String {
    let mut names: Vec<&str> = (src.funcs.iter())
        .map(|f| f.name)
        .filter(|n| !keep.contains(n))
        .collect();
    // Longest first so `helper_fast` is not clobbered by a `helper` pass.
    names.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    names.iter().fold(src.text.to_string(), |out, name| {
        replace_whole_word(&out, name, &format!("{name}_v2"))
    })
}

/// Splits the `nth` eligible function (0-based, wrapping) into a thin
/// forwarder plus a `<name>_impl` twin holding the original body — the
/// classic extract-function refactor. Behaviour-preserving: every call
/// site still calls `<name>`, which tail-calls the twin.
///
/// For the profile this is a *structural* release change: the original
/// GUID keeps only the forwarder's trivial CFG (checksum mismatch), while
/// all its historical weight belongs to a GUID that did not exist in the
/// previous release.
///
/// Eligible functions are multi-line, not already `_impl` twins, and have
/// no `<name>_impl` defined yet.
fn split_function(src: &Source, nth: usize) -> Option<String> {
    let has_twin =
        |f: &Func| (src.funcs.iter()).any(|g| g.name.strip_suffix("_impl") == Some(f.name));
    let eligible = src
        .bodies()
        .filter(|(f, _)| !f.name.ends_with("_impl") && !has_twin(f));
    let (f, b) = wrapping_nth(eligible, nth)?;
    let (name, params) = (f.name, b.params);
    Some(src.rewrite(|i, _| {
        (i == f.line).then(|| {
            format!(
                "fn {name}({params}) {{\n    return {name}_impl({params});\n}}\nfn {name}_impl({params}) {{\n"
            )
        })
    }))
}

/// Merges the `nth` forwarder function (0-based, wrapping) back into its
/// callee: the inverse refactor of [`split_function`]. A forwarder is a
/// three-line function whose whole body is `return callee(<params>);`
/// with the argument list textually equal to its own parameter list and
/// `callee` defined (multi-line) in the same source. The forwarder is
/// deleted and the callee takes over its name (whole-word rename of
/// definition and every call site), so behaviour is preserved.
///
/// Applied right after a [`split_function`] release it restores the
/// original source exactly — the round-trip the release-train harness
/// leans on for "refactor churn" steps.
fn merge_functions(src: &Source, nth: usize) -> Option<String> {
    let norm = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
    let forwarders = src.bodies().filter_map(|(f, b)| {
        if b.close != f.line + 2 {
            return None;
        }
        let line = src.lines[f.line + 1].trim();
        let call = line.strip_prefix("return ")?.strip_suffix(");")?;
        let (callee, args) = call.split_once('(')?;
        let callee = callee.trim();
        let defined = src.bodies().any(|(g, _)| g.name == callee);
        (callee != f.name && norm(args) == norm(b.params) && defined)
            .then_some((f.line, f.name, callee))
    });
    let (h, name, callee) = wrapping_nth(forwarders, nth)?;
    let out = src.rewrite(|i, _| (h..h + 3).contains(&i).then(String::new));
    Some(replace_whole_word(&out, callee, name))
}

/// Simulates a dependency bump: a new generation of `dep_shim_g<N>_*`
/// library functions is appended and every substantial function gains a
/// dead guard calling into the new shims — the whole-tree checksum churn
/// a header-only library upgrade causes when its inlined bodies change.
/// `seed` varies the shim constants so successive bumps differ.
///
/// Trivial (single-statement) bodies are left untouched — a forwarder
/// from [`split_function`] survives a bump intact, like real glue code
/// that never touches the dependency. Behaviour-preserving: the guards
/// are dead and the shims unreachable.
fn bump_dependency(src: &Source, seed: u64) -> String {
    let generation = 1 + src
        .bodies()
        .filter_map(|(f, _)| {
            let digits = f.name.strip_prefix("dep_shim_g")?;
            digits.split('_').next()?.parse::<u64>().ok()
        })
        .max()
        .unwrap_or(0);
    let k = seed.wrapping_mul(0x9E37_79B9).wrapping_add(17) % 997;
    let guard = format!("    if (0 > 1) {{ return dep_shim_g{generation}_1({k}); }}\n");
    // A body of more than one line between header and closing brace.
    let mut out = src.insert_after_headers(&guard, |f, b| b.close - f.line > 2);
    out.push_str(&format!(
        "fn dep_shim_g{generation}_0(x) {{\n    let acc = x + {k};\n    if (acc > 1000) {{\n        return acc % 977;\n    }}\n    return acc * 3 + 7;\n}}\n"
    ));
    out.push_str(&format!(
        "fn dep_shim_g{generation}_1(x) {{\n    let t = dep_shim_g{generation}_0(x + {});\n    return t + 1;\n}}\n",
        k % 31
    ));
    out
}

/// The guard a compiled-in-but-disabled feature flag leaves in a body.
const FEATURE_FLAG_GUARD: &str = "    if (0 > 0) { return 0 - 31337; }";

/// Flips a feature flag in the `nth` multi-line function (0-based,
/// wrapping): if the flag guard is already present right after the header
/// it is removed (flag compiled out), otherwise it is inserted (flag
/// compiled in, disabled). Either direction changes that function's CFG
/// checksum while preserving behaviour — the guard never fires.
fn flip_feature_flag(src: &Source, nth: usize) -> Option<String> {
    let h = wrapping_nth(src.bodies(), nth)?.0.line;
    Some(if src.lines.get(h + 1) == Some(&FEATURE_FLAG_GUARD) {
        src.rewrite(|i, _| (i == h + 1).then(String::new))
    } else {
        src.insert_after_headers(&format!("{FEATURE_FLAG_GUARD}\n"), |f, _| f.line == h)
    })
}

/// Deletes one single-line guard (`if (...) { ...; }`): among the
/// multi-line functions from whose header some guard follows, take the
/// `nth` (0-based, wrapping) and delete the first guard after its header,
/// in that function or a later one. See [`Mutator::DeleteStatement`].
fn delete_statement(src: &Source, nth: usize) -> Option<String> {
    let is_guard = |l: &str| l.trim_start().starts_with("if (") && l.trim_end().ends_with("; }");
    let last = src.lines.iter().rposition(|l| is_guard(l))?;
    let starts = src.bodies().map(|(f, _)| f.line).filter(|&h| h < last);
    let start = wrapping_nth(starts, nth)?;
    let guard = (start + 1..=last).find(|&i| is_guard(src.lines[i]))?;
    Some(src.rewrite(|i, _| (i == guard).then(String::new)))
}

/// One source mutation, parameterized — the unit a release train composes,
/// and the one way to apply a drift. Every variant except
/// [`DeleteStatement`](Mutator::DeleteStatement) is behaviour-preserving, so
/// a train of these is safe to canary against result hashes. A mutator
/// that picks the `nth` of some functions counts from 0 and wraps; with none
/// to pick it returns the source unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutator {
    /// Two comment lines before every function definition: every later
    /// line number shifts, the CFG does not. AutoFDO's line-offset
    /// correlation breaks; CSSPGO's checksums still match.
    InsertComments,
    /// A comment line after every multi-line function's header, so even
    /// line offsets within a body move. Still CFG-neutral.
    InsertBodyComments,
    /// [`change_cfg`]
    ChangeCfg,
    /// Every function not in the caller's keep set renamed with a `_v2`
    /// suffix, call sites included: its GUID leaves the profile's space.
    RenameFunctions,
    /// A dead, CFG-visible guard after the header of the nth multi-line
    /// function: a *partial* drift where only that checksum mismatches.
    InsertStatement(usize),
    /// One single-line guard deleted: the first after the header of the nth
    /// multi-line function from which some guard follows, so it may lie in
    /// a later function. CFG-changing in the *shrinking* direction — the
    /// probe space loses indices instead of gaining them. It may change
    /// behaviour, so no release train picks it; the matcher's soundness
    /// tests, which assert only structural invariants of the mapping, and
    /// the `delete_statement` scenario do.
    DeleteStatement(usize),
    /// The nth eligible function split into a forwarder and a `<name>_impl`
    /// twin holding its body (the extract-function refactor).
    SplitFunction(usize),
    /// The nth forwarder merged back into its callee, which takes over its
    /// name: the inverse of `SplitFunction`.
    MergeFunctions(usize),
    /// A dependency bump with the given seed: a new generation of shim
    /// functions, and a dead guard calling them in every substantial body.
    BumpDependency(u64),
    /// A disabled feature-flag guard inserted into, or removed from, the
    /// nth multi-line function.
    FlipFeatureFlag(usize),
}

impl Mutator {
    /// Stable name, used in release labels and bench records.
    fn name(&self) -> &'static str {
        match self {
            Mutator::InsertComments => "insert_comments",
            Mutator::InsertBodyComments => "insert_body_comments",
            Mutator::ChangeCfg => "change_cfg",
            Mutator::RenameFunctions => "rename_functions",
            Mutator::InsertStatement(_) => "insert_statement",
            Mutator::DeleteStatement(_) => "delete_statement",
            Mutator::SplitFunction(_) => "split_function",
            Mutator::MergeFunctions(_) => "merge_functions",
            Mutator::BumpDependency(_) => "bump_dependency",
            Mutator::FlipFeatureFlag(_) => "flip_feature_flag",
        }
    }

    /// Applies the mutation. `keep` is honoured by `RenameFunctions` (the
    /// entry point must keep its name) and ignored by the rest.
    pub fn apply(&self, source: &str, keep: &[&str]) -> String {
        self.edit(&Source::new(source), keep)
            .unwrap_or_else(|| source.to_string())
    }

    /// The mutated source, or `None` when there is nothing to act on.
    fn edit(&self, src: &Source, keep: &[&str]) -> Option<String> {
        match *self {
            Mutator::InsertComments => {
                Some(src.rewrite(|i, line| {
                    src.func_at(i).map(|_| format!("{REVIEW_COMMENTS}{line}\n"))
                }))
            }
            Mutator::InsertBodyComments => {
                Some(src.insert_after_headers("    // drift: refactor pending\n", |_, _| true))
            }
            Mutator::ChangeCfg => Some(
                src.insert_after_headers("    if (0 > 1) { return 0 - 987654321; }\n", |_, _| true),
            ),
            Mutator::RenameFunctions => Some(rename_functions(src, keep)),
            Mutator::InsertStatement(nth) => {
                let h = wrapping_nth(src.bodies(), nth)?.0.line;
                let guard = "    if (1 > 2) { return 0 - 424242; }\n";
                Some(src.insert_after_headers(guard, |f, _| f.line == h))
            }
            Mutator::DeleteStatement(nth) => delete_statement(src, nth),
            Mutator::SplitFunction(nth) => split_function(src, nth),
            Mutator::MergeFunctions(nth) => merge_functions(src, nth),
            Mutator::BumpDependency(seed) => Some(bump_dependency(src, seed)),
            Mutator::FlipFeatureFlag(nth) => flip_feature_flag(src, nth),
        }
    }
}

/// The canonical mutator for release `i` of a train: an 8-release cycle
/// of refactor churn (split, later merged back), a feature-flag flip, a
/// dependency bump, comment drift, a whole-tree rename, a local
/// statement edit, and a CFG-wide change. Parameters advance with the
/// cycle count so repeated cycles hit different functions. It never picks
/// `DeleteStatement`, the one edit that may change behaviour.
fn release_mutator(i: usize) -> Mutator {
    let cycle = i / 8;
    match i % 8 {
        0 => Mutator::SplitFunction(cycle + 1),
        1 => Mutator::FlipFeatureFlag(cycle + 3),
        2 => Mutator::BumpDependency(i as u64),
        3 => Mutator::MergeFunctions(cycle),
        4 => Mutator::InsertBodyComments,
        5 => Mutator::RenameFunctions,
        6 => Mutator::InsertStatement(cycle + 2),
        7 => Mutator::ChangeCfg,
        _ => unreachable!(),
    }
}

/// Builds an `n`-release source lineage from `source`: release `i` is the
/// cumulative result of applying the canonical mutators of releases `0..=i`
/// in order — an 8-release cycle of refactor churn (split, later merged
/// back), a feature-flag flip, a dependency bump, comment drift, a
/// whole-tree rename, a local statement edit and a CFG-wide change.
/// Returns `(mutator name, source)` per release. `keep` is the set of
/// function names the rename step must preserve — at minimum the
/// workload's entry point.
pub fn release_chain(source: &str, n: usize, keep: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(n);
    let mut src = source.to_string();
    for i in 0..n {
        let m = release_mutator(i);
        src = m.apply(&src, keep);
        out.push((m.name().to_string(), src.clone()));
    }
    out
}

/// A named rebuild of a workload's source.
type Scenario = (&'static str, fn(&Workload) -> String);

/// The named rebuilds of a workload's source that `csspgo_lint`'s scenario
/// mode judges the clean-build profile against, and the matcher oracle
/// pins.
pub const SCENARIOS: [Scenario; 7] = [
    ("fresh", |w| w.source.clone()),
    ("insert_comments", |w| {
        Mutator::InsertComments.apply(&w.source, &[])
    }),
    ("insert_body_comments", |w| {
        Mutator::InsertBodyComments.apply(&w.source, &[])
    }),
    ("change_cfg", |w| Mutator::ChangeCfg.apply(&w.source, &[])),
    ("rename", rename_one),
    ("insert_statement", |w| {
        Mutator::InsertStatement(1).apply(&w.source, &[])
    }),
    ("delete_statement", |w| {
        Mutator::DeleteStatement(1).apply(&w.source, &[])
    }),
];

/// Renames ONE non-entry function (the realistic refactor): its GUID
/// vanishes and must be rename-matched by anchor similarity, while its
/// callers keep their CFG shape but drift their call anchors (`SM004`).
/// The target is the function with the most calls to other defined
/// functions: rename matching needs call anchors as evidence, so renaming a
/// leaf would be undetectable by construction.
fn rename_one(w: &Workload) -> String {
    let src = Source::new(&w.source);
    let names: Vec<&str> = src.funcs.iter().map(|f| f.name).collect();
    // A function's calls: those on the lines after its header, up to the
    // next function's header.
    let calls = src.funcs.iter().enumerate().map(|(k, f)| {
        let end = src.funcs.get(k + 1).map_or(src.lines.len(), |g| g.line);
        let calls: usize = (src.lines[f.line + 1..end].iter())
            .map(|line| {
                (names.iter())
                    .filter(|n| **n != f.name)
                    .map(|n| line.matches(&format!("{n}(")).count())
                    .sum::<usize>()
            })
            .sum();
        (calls, f.name)
    });
    let target = calls
        .filter(|(_, n)| *n != w.entry)
        .max_by_key(|(c, _)| *c)
        .map(|(_, n)| n);
    let keep: Vec<&str> = names
        .iter()
        .filter(|n| Some(**n) != target)
        .copied()
        .collect();
    rename_functions(&src, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::probe::cfg_checksum;

    const SRC: &str = "fn f(a) {\n    if (a > 0) {\n        return 1;\n    }\n    return 2;\n}\n";

    fn checksums(src: &str) -> Vec<u64> {
        let m = csspgo_lang::compile(src, "t").unwrap();
        m.functions.iter().map(cfg_checksum).collect()
    }

    #[test]
    fn comment_drift_keeps_cfg_checksums() {
        assert_eq!(
            checksums(SRC),
            checksums(&Mutator::InsertComments.apply(SRC, &[]))
        );
        assert_eq!(
            checksums(SRC),
            checksums(&Mutator::InsertBodyComments.apply(SRC, &[]))
        );
    }

    #[test]
    fn comment_drift_shifts_lines() {
        let drifted = Mutator::InsertBodyComments.apply(SRC, &[]);
        let m0 = csspgo_lang::compile(SRC, "t").unwrap();
        let m1 = csspgo_lang::compile(&drifted, "t").unwrap();
        let first_line = |m: &csspgo_ir::Module| {
            m.functions[0]
                .iter_blocks()
                .flat_map(|(_, b)| &b.insts)
                .map(|i| i.loc.line)
                .find(|&l| l != 0)
                .unwrap()
        };
        assert_ne!(first_line(&m0), first_line(&m1));
    }

    #[test]
    fn cfg_drift_changes_checksums() {
        assert_ne!(checksums(SRC), checksums(&change_cfg(SRC)));
    }

    #[test]
    fn rename_rewrites_definition_and_call_sites() {
        let src = "fn helper(x) { return x; }\nfn main(n) { return helper(n); }\n";
        let renamed = Mutator::RenameFunctions.apply(src, &["main"]);
        assert!(renamed.contains("fn helper_v2(x)"), "{renamed}");
        assert!(renamed.contains("return helper_v2(n);"), "{renamed}");
        assert!(renamed.contains("fn main(n)"), "kept name must not change");
        // Behaviour-preserving: still compiles and the call resolves.
        csspgo_lang::compile(&renamed, "t").unwrap();
        // Whole-word only: `helper_fast` must not become `helper_v2_fast`.
        let tricky = "fn helper(x) { return x; }\nfn helper_fast(x) { return helper(x); }\n";
        let r = Mutator::RenameFunctions.apply(tricky, &["helper_fast"]);
        assert!(
            r.contains("fn helper_fast(x) { return helper_v2(x); }"),
            "{r}"
        );
    }

    #[test]
    fn only_column_zero_definitions_are_functions() {
        // An indented `fn` is not a definition to any mutator: the rename
        // leaves it and its call sites alone.
        let src = "  fn helper(x) { return x; }\nfn main(n) {\n    return helper(n);\n}\n";
        assert_eq!(Mutator::RenameFunctions.apply(src, &["main"]), src);
        let commented = Mutator::InsertComments.apply(src, &[]);
        assert!(commented.starts_with("  fn helper"), "{commented}");
    }

    #[test]
    fn a_nameless_definition_is_no_word_to_replace() {
        // `return (x);` reads as a forward to the nameless function below:
        // the merge deletes the forwarder and renames nothing.
        let src = "fn a(x) {\n    return (x);\n}\nfn (x) {\n    return 1;\n}\n";
        let merged = Mutator::MergeFunctions(0).apply(src, &[]);
        assert_eq!(merged, "fn (x) {\n    return 1;\n}\n");
        assert_eq!(Mutator::RenameFunctions.apply(src, &["a"]), src);
    }

    #[test]
    fn statement_mutators_change_one_functions_checksum() {
        let two = "fn a(x) {\n    if (x > 0) { return 1; }\n    return 2;\n}\nfn b(x) {\n    return x;\n}\n";
        let base = checksums(two);
        let ins = checksums(&Mutator::InsertStatement(1).apply(two, &[]));
        assert_eq!(base[0], ins[0], "untargeted function untouched");
        assert_ne!(base[1], ins[1], "targeted function must drift");
        let del = checksums(&Mutator::DeleteStatement(0).apply(two, &[]));
        assert_ne!(base[0], del[0], "guard removal must drift");
        assert_eq!(base[1], del[1]);
        // No-ops degrade gracefully.
        assert_eq!(
            Mutator::DeleteStatement(0).apply("fn c() { return 0; }\n", &[]),
            "fn c() { return 0; }\n"
        );
    }

    #[test]
    fn split_creates_forwarder_and_twin() {
        let two =
            "fn a(x, y) {\n    let t = x + y;\n    return t * 2;\n}\nfn b(x) {\n    return x;\n}\n";
        let split = Mutator::SplitFunction(0).apply(two, &[]);
        assert!(
            split.contains("fn a(x, y) {\n    return a_impl(x, y);\n}"),
            "{split}"
        );
        assert!(split.contains("fn a_impl(x, y) {"), "{split}");
        csspgo_lang::compile(&split, "t").unwrap();
        // The untouched function keeps its checksum; `a` becomes a trivial
        // forwarder (checksum drifts) and a new GUID appears.
        let base = checksums(two);
        let after = checksums(&split);
        assert_eq!(after.len(), base.len() + 1);
        assert!(after.contains(&base[1]), "b untouched");
        // Splitting again skips `a` (its twin exists) and picks `b`.
        let again = Mutator::SplitFunction(0).apply(&split, &[]);
        assert!(again.contains("fn b_impl(x)"), "{again}");
    }

    #[test]
    fn merge_inverts_split_exactly() {
        let two = "fn a(x, y) {\n    let t = x + y;\n    return t * 2;\n}\nfn b(x) {\n    return a(x, x);\n}\n";
        assert_eq!(
            Mutator::MergeFunctions(0).apply(&Mutator::SplitFunction(0).apply(two, &[]), &[]),
            two
        );
        // No forwarder → no-op.
        assert_eq!(Mutator::MergeFunctions(0).apply(two, &[]), two);
    }

    #[test]
    fn bump_dependency_adds_shims_and_drifts_big_bodies() {
        let two = "fn a(x) {\n    let t = x + 1;\n    return t * 2;\n}\nfn fwd(x) {\n    return a(x);\n}\n";
        let bumped = Mutator::BumpDependency(7).apply(two, &[]);
        assert!(bumped.contains("fn dep_shim_g1_0(x)"), "{bumped}");
        assert!(bumped.contains("fn dep_shim_g1_1(x)"), "{bumped}");
        csspgo_lang::compile(&bumped, "t").unwrap();
        let base = checksums(two);
        let after = checksums(&bumped);
        assert_ne!(base[0], after[0], "substantial body must drift");
        assert_eq!(base[1], after[1], "trivial forwarder untouched");
        // A second bump starts generation 2.
        assert!(Mutator::BumpDependency(8)
            .apply(&bumped, &[])
            .contains("fn dep_shim_g2_0(x)"));
    }

    #[test]
    fn flip_feature_flag_toggles_one_checksum() {
        let two = "fn a(x) {\n    return x;\n}\nfn b(x) {\n    return x + 1;\n}\n";
        let base = checksums(two);
        let on = Mutator::FlipFeatureFlag(1).apply(two, &[]);
        assert!(on.contains(FEATURE_FLAG_GUARD), "{on}");
        let flipped = checksums(&on);
        assert_eq!(base[0], flipped[0]);
        assert_ne!(base[1], flipped[1]);
        // Flipping the same function again removes the guard: involution.
        assert_eq!(Mutator::FlipFeatureFlag(1).apply(&on, &[]), two);
    }

    #[test]
    fn release_chain_is_cumulative_and_compiles() {
        let w = crate::ad_finder();
        let chain = release_chain(&w.source, 10, &[&w.entry]);
        assert_eq!(chain.len(), 10);
        assert_eq!(chain[0].0, "split_function");
        assert_eq!(chain[3].0, "merge_functions");
        let mut prev = w.source.clone();
        for (i, (name, src)) in chain.iter().enumerate() {
            csspgo_lang::compile(src, name).unwrap();
            let m = release_mutator(i);
            assert_eq!(m.name(), name);
            assert_eq!(&m.apply(&prev, &[&w.entry]), src, "cumulative at {name}");
            prev = src.clone();
        }
        // The entry function survives every release by name.
        assert!(chain
            .last()
            .unwrap()
            .1
            .contains(&format!("fn {}(", w.entry)));
    }

    #[test]
    fn release_chain_preserves_behaviour() {
        use csspgo_codegen::{lower_module, CodegenConfig};
        use csspgo_sim::{Machine, SimConfig};
        let w = crate::ad_finder();
        let run = |src: &str| {
            let m = csspgo_lang::compile(src, "t").unwrap();
            let b = lower_module(&m, &CodegenConfig::default());
            let mut machine = Machine::new(&b, SimConfig::default());
            for (name, vals) in &w.setup {
                machine.set_global(name, vals);
            }
            machine.call(&w.entry, &w.eval_calls[0]).unwrap()
        };
        let expect = run(&w.source);
        for (name, src) in release_chain(&w.source, 8, &[&w.entry]) {
            assert_eq!(expect, run(&src), "release {name} changed behaviour");
        }
    }

    #[test]
    fn drifted_sources_still_compile_for_all_workloads() {
        for w in crate::server_workloads() {
            csspgo_lang::compile(&Mutator::InsertComments.apply(&w.source, &[]), "d1").unwrap();
            csspgo_lang::compile(&Mutator::InsertBodyComments.apply(&w.source, &[]), "d2").unwrap();
            csspgo_lang::compile(&change_cfg(&w.source), "d3").unwrap();
        }
    }

    #[test]
    fn drift_preserves_behaviour_for_comment_mutations() {
        // Comment drift must not change program semantics.
        use csspgo_codegen::{lower_module, CodegenConfig};
        use csspgo_sim::{Machine, SimConfig};
        let w = crate::ad_finder();
        let run = |src: &str| {
            let m = csspgo_lang::compile(src, "t").unwrap();
            let b = lower_module(&m, &CodegenConfig::default());
            let mut machine = Machine::new(&b, SimConfig::default());
            for (name, vals) in &w.setup {
                machine.set_global(name, vals);
            }
            machine.call(&w.entry, &w.eval_calls[0]).unwrap()
        };
        assert_eq!(
            run(&w.source),
            run(&Mutator::InsertComments.apply(&w.source, &[]))
        );
        assert_eq!(run(&w.source), run(&change_cfg(&w.source)));
    }
}
