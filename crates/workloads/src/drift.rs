//! Source-drift mutators (paper §III.A).
//!
//! "A minor change in the source code such as adding or removing a program
//! comment, can cause location of subsequent code to shift ... we have
//! observed minor source drift causing 8% performance loss for a server
//! workload. This problem is mitigated with pseudo-instrumentation where a
//! checksum reflecting the shape of the IR control-flow graph is computed
//! and persisted in the profile."

use csspgo_core::Workload;

/// Inserts a comment line before every function definition, shifting every
/// subsequent line number while leaving the CFG untouched.
///
/// AutoFDO's line-offset correlation breaks (offsets within each function
/// stay intact only for the *first* function; all call-site lines shift);
/// CSSPGO's checksums still match, so the probe profile applies cleanly.
fn insert_comments(source: &str) -> String {
    let mut out = String::with_capacity(source.len() + 256);
    for line in source.lines() {
        if line.starts_with("fn ") {
            out.push_str("// drift: reviewed in Q3, see T12345\n");
            out.push_str("// drift: perf-sensitive, do not touch\n");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Inserts a line-shifting comment *inside* every function body (after the
/// header), so even intra-function line offsets move. Still CFG-neutral.
pub fn insert_body_comments(source: &str) -> String {
    let mut out = String::with_capacity(source.len() + 256);
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        if line.starts_with("fn ") && line.trim_end().ends_with('{') {
            out.push_str("    // drift: refactor pending\n");
        }
    }
    out
}

/// A drift that *changes the CFG* of every function: a dead guard branch is
/// added at the top of each body. CSSPGO must detect this via checksum
/// mismatch and reject the stale profile rather than mis-apply it.
pub fn change_cfg(source: &str) -> String {
    let mut out = String::with_capacity(source.len() + 512);
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        if line.starts_with("fn ") && line.trim_end().ends_with('{') {
            out.push_str("    if (0 > 1) { return 0 - 987654321; }\n");
        }
    }
    out
}

/// Renames every function whose name is *not* in `keep` by appending
/// `_v2` — definition and all call sites, whole-word. Call sites inside
/// kept functions retarget too, so the rename is behaviour-preserving.
///
/// GUIDs are name hashes, so a renamed function vanishes from the profile's
/// GUID space entirely: the stale matcher's rename detection (anchor-set
/// similarity) is the only way its counts survive.
fn rename_functions(source: &str, keep: &[&str]) -> String {
    let mut names: Vec<String> = Vec::new();
    for line in source.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("fn ") {
            if let Some(name) = rest.split('(').next() {
                let name = name.trim();
                if !name.is_empty() && !keep.contains(&name) {
                    names.push(name.to_string());
                }
            }
        }
    }
    // Longest first so `helper_fast` is not clobbered by a `helper` pass.
    names.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    let mut out = source.to_string();
    for name in &names {
        let mut rewritten = String::with_capacity(out.len() + 64);
        let bytes = out.as_bytes();
        let mut i = 0;
        while let Some(pos) = out[i..].find(name.as_str()) {
            let start = i + pos;
            let end = start + name.len();
            let before_ok = start == 0
                || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
            let after_ok =
                end == out.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
            rewritten.push_str(&out[i..end]);
            if before_ok && after_ok {
                rewritten.push_str("_v2");
            }
            i = end;
        }
        rewritten.push_str(&out[i..]);
        out = rewritten;
    }
    out
}

/// Parses a multi-line MiniLang function header (`fn name(params) {` at
/// column 0) into `(name, params)`. Single-line functions — header and
/// body on one line — are not headers in this sense and return `None`,
/// matching the convention of every other mutator in this module.
fn parse_header(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix("fn ")?;
    if !line.trim_end().ends_with('{') {
        return None;
    }
    let open = rest.find('(')?;
    let close = rest.find(')')?;
    if close < open {
        return None;
    }
    let name = rest[..open].trim();
    if name.is_empty() {
        return None;
    }
    Some((name, rest[open + 1..close].trim()))
}

/// Replaces every whole-word occurrence of `from` with `to` — the same
/// word-boundary rule `rename_functions` uses (an adjacent alphanumeric
/// or `_` suppresses the match).
fn replace_whole_word(text: &str, from: &str, to: &str) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(pos) = text[i..].find(from) {
        let start = i + pos;
        let end = start + from.len();
        let before_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok =
            end == text.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
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
/// no `<name>_impl` defined yet. No-op if nothing is eligible.
fn split_function(source: &str, nth: usize) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let headers: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| {
            let (name, _) = parse_header(l)?;
            let defines_twin = lines
                .iter()
                .any(|x| x.starts_with(&format!("fn {name}_impl(")));
            (!name.ends_with("_impl") && !defines_twin).then_some(i)
        })
        .collect();
    if headers.is_empty() {
        return source.to_string();
    }
    let h = headers[nth % headers.len()];
    let (name, params) = parse_header(lines[h]).expect("header re-parse");
    let mut out = String::with_capacity(source.len() + 96);
    for (i, l) in lines.iter().enumerate() {
        if i == h {
            out.push_str(&format!("fn {name}({params}) {{\n"));
            out.push_str(&format!("    return {name}_impl({params});\n"));
            out.push_str("}\n");
            out.push_str(&format!("fn {name}_impl({params}) {{\n"));
        } else {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

/// Merges the `nth` forwarder function (0-based, wrapping) back into its
/// callee: the inverse refactor of [`split_function`]. A forwarder is a
/// three-line function whose whole body is `return callee(<params>);`
/// with the argument list textually equal to its own parameter list and
/// `callee` defined in the same source. The forwarder is deleted and the
/// callee takes over its name (whole-word rename of definition and every
/// call site), so behaviour is preserved. No-op if no forwarder exists.
///
/// Applied right after a [`split_function`] release it restores the
/// original source exactly — the round-trip the release-train harness
/// leans on for "refactor churn" steps.
fn merge_functions(source: &str, nth: usize) -> String {
    let norm = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
    let lines: Vec<&str> = source.lines().collect();
    let mut forwarders: Vec<(usize, String, String)> = Vec::new();
    for i in 0..lines.len() {
        let Some((name, params)) = parse_header(lines[i]) else {
            continue;
        };
        if i + 2 >= lines.len() || lines[i + 2] != "}" {
            continue;
        }
        let body = lines[i + 1].trim();
        let Some(call) = body
            .strip_prefix("return ")
            .and_then(|r| r.strip_suffix(");"))
        else {
            continue;
        };
        let Some(open) = call.find('(') else {
            continue;
        };
        let callee = call[..open].trim();
        if callee == name || norm(&call[open + 1..]) != norm(params) {
            continue;
        }
        let callee_defined = lines
            .iter()
            .any(|l| parse_header(l).is_some_and(|(n, _)| n == callee));
        if callee_defined {
            forwarders.push((i, name.to_string(), callee.to_string()));
        }
    }
    if forwarders.is_empty() {
        return source.to_string();
    }
    let (h, name, callee) = forwarders[nth % forwarders.len()].clone();
    let mut out = String::with_capacity(source.len());
    for (i, l) in lines.iter().enumerate() {
        if (h..h + 3).contains(&i) {
            continue;
        }
        out.push_str(l);
        out.push('\n');
    }
    replace_whole_word(&out, &callee, &name)
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
fn bump_dependency(source: &str, seed: u64) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let generation = 1 + lines
        .iter()
        .filter_map(|l| {
            let (name, _) = parse_header(l)?;
            let digits = name.strip_prefix("dep_shim_g")?;
            digits.split('_').next()?.parse::<u64>().ok()
        })
        .max()
        .unwrap_or(0);
    let k = seed.wrapping_mul(0x9E37_79B9).wrapping_add(17) % 997;
    let guard = format!("    if (0 > 1) {{ return dep_shim_g{generation}_1({k}); }}\n");
    // Body length per multi-line function: lines between header and the
    // column-0 closing brace.
    let mut out = String::with_capacity(source.len() + 512);
    let mut i = 0;
    while i < lines.len() {
        out.push_str(lines[i]);
        out.push('\n');
        if parse_header(lines[i]).is_some() {
            let close = (i + 1..lines.len())
                .find(|&j| lines[j] == "}")
                .unwrap_or(lines.len());
            if close - i > 2 {
                out.push_str(&guard);
            }
        }
        i += 1;
    }
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

/// Flips a feature flag in the `nth` function (0-based, wrapping): if the
/// flag guard is already present right after the header it is removed
/// (flag compiled out), otherwise it is inserted (flag compiled in,
/// disabled). Either direction changes that function's CFG checksum while
/// preserving behaviour — the guard never fires.
fn flip_feature_flag(source: &str, nth: usize) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let headers: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| parse_header(l).map(|_| i))
        .collect();
    if headers.is_empty() {
        return source.to_string();
    }
    let h = headers[nth % headers.len()];
    let mut out = String::with_capacity(source.len() + 64);
    for (i, l) in lines.iter().enumerate() {
        if i == h + 1 && *l == FEATURE_FLAG_GUARD {
            continue; // flag compiled out
        }
        out.push_str(l);
        out.push('\n');
        if i == h && lines.get(h + 1).copied() != Some(FEATURE_FLAG_GUARD) {
            out.push_str(FEATURE_FLAG_GUARD);
            out.push('\n');
        }
    }
    out
}

/// One source mutation, parameterized — the unit a release train composes.
/// Every variant except the test-only [`delete_statement`] is
/// behaviour-preserving, so a train of these is safe to canary against
/// result hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutator {
    /// A comment line before every function definition: every later line
    /// number shifts, the CFG does not.
    InsertComments,
    /// [`insert_body_comments`]
    InsertBodyComments,
    /// [`change_cfg`]
    ChangeCfg,
    /// Every function not in the caller's keep set renamed with a `_v2`
    /// suffix, call sites included: its GUID leaves the profile's space.
    RenameFunctions,
    /// [`insert_statement`] into the nth function.
    InsertStatement(usize),
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
    /// nth function.
    FlipFeatureFlag(usize),
}

impl Mutator {
    /// Stable name, used in release labels and bench records.
    pub fn name(&self) -> &'static str {
        match self {
            Mutator::InsertComments => "insert_comments",
            Mutator::InsertBodyComments => "insert_body_comments",
            Mutator::ChangeCfg => "change_cfg",
            Mutator::RenameFunctions => "rename_functions",
            Mutator::InsertStatement(_) => "insert_statement",
            Mutator::SplitFunction(_) => "split_function",
            Mutator::MergeFunctions(_) => "merge_functions",
            Mutator::BumpDependency(_) => "bump_dependency",
            Mutator::FlipFeatureFlag(_) => "flip_feature_flag",
        }
    }

    /// Applies the mutation. `keep` is honoured by `RenameFunctions` (the
    /// entry point must keep its name) and ignored by the rest.
    pub fn apply(&self, source: &str, keep: &[&str]) -> String {
        match self {
            Mutator::InsertComments => insert_comments(source),
            Mutator::InsertBodyComments => insert_body_comments(source),
            Mutator::ChangeCfg => change_cfg(source),
            Mutator::RenameFunctions => rename_functions(source, keep),
            Mutator::InsertStatement(nth) => insert_statement(source, *nth),
            Mutator::SplitFunction(nth) => split_function(source, *nth),
            Mutator::MergeFunctions(nth) => merge_functions(source, *nth),
            Mutator::BumpDependency(seed) => bump_dependency(source, *seed),
            Mutator::FlipFeatureFlag(nth) => flip_feature_flag(source, *nth),
        }
    }
}

/// The canonical mutator for release `i` of a train: an 8-release cycle
/// of refactor churn (split, later merged back), a feature-flag flip, a
/// dependency bump, comment drift, a whole-tree rename, a local
/// statement edit, and a CFG-wide change. Parameters advance with the
/// cycle count so repeated cycles hit different functions.
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

/// Inserts a harmless-but-CFG-visible statement (`let`-free dead loop
/// guard) after the `nth` function header (0-based, wrapping), leaving the
/// other functions untouched — a *partial* drift where only some checksums
/// mismatch. Used by the matcher soundness property tests to generate
/// varied edits.
pub fn insert_statement(source: &str, nth: usize) -> String {
    let headers = source
        .lines()
        .filter(|l| l.starts_with("fn ") && l.trim_end().ends_with('{'))
        .count();
    if headers == 0 {
        return source.to_string();
    }
    let target = nth % headers;
    let mut seen = 0usize;
    let mut out = String::with_capacity(source.len() + 64);
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        if line.starts_with("fn ") && line.trim_end().ends_with('{') {
            if seen == target {
                out.push_str("    if (1 > 2) { return 0 - 424242; }\n");
            }
            seen += 1;
        }
    }
    out
}

/// Deletes the first single-line guard (`if (...) { ...; }`) from the
/// `nth` function that has one (0-based, wrapping). CFG-changing in the
/// *shrinking* direction — the probe space loses indices instead of
/// gaining them. Unlike the other mutators this may change behaviour;
/// it exists for matcher *soundness* property tests, which only assert
/// structural invariants of the mapping, not result equality.
pub fn delete_statement(source: &str, nth: usize) -> String {
    let is_guard = |l: &str| l.trim_start().starts_with("if (") && l.trim_end().ends_with("; }");
    let mut fn_starts: Vec<usize> = Vec::new();
    let lines: Vec<&str> = source.lines().collect();
    for (i, l) in lines.iter().enumerate() {
        if l.starts_with("fn ")
            && l.trim_end().ends_with('{')
            && lines[i..].iter().any(|x| is_guard(x))
        {
            fn_starts.push(i);
        }
    }
    if fn_starts.is_empty() {
        return source.to_string();
    }
    let start = fn_starts[nth % fn_starts.len()];
    let mut removed = false;
    let mut out = String::with_capacity(source.len());
    for (i, l) in lines.iter().enumerate() {
        if !removed && i > start && is_guard(l) {
            removed = true;
            continue;
        }
        out.push_str(l);
        out.push('\n');
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
    // Not behaviour-preserving, hence not a `Mutator`.
    ("delete_statement", |w| delete_statement(&w.source, 1)),
];

/// Renames ONE non-entry function (the realistic refactor): its GUID
/// vanishes and must be rename-matched by anchor similarity, while its
/// callers keep their CFG shape but drift their call anchors (`SM004`).
/// The target is the function with the most calls to other defined
/// functions: rename matching needs call anchors as evidence, so renaming a
/// leaf would be undetectable by construction.
fn rename_one(w: &Workload) -> String {
    let names: Vec<&str> = w
        .source
        .lines()
        .filter_map(|l| l.strip_prefix("fn "))
        .filter_map(|rest| rest.split('(').next())
        .map(str::trim)
        .collect();
    let mut calls: Vec<(usize, &str)> = Vec::new();
    let mut current: Option<&str> = None;
    for line in w.source.lines() {
        if let Some(rest) = line.strip_prefix("fn ") {
            current = rest.split('(').next().map(str::trim);
            calls.push((0, current.unwrap_or("")));
            continue;
        }
        if let (Some(cur), Some(slot)) = (current, calls.last_mut()) {
            slot.0 += names
                .iter()
                .filter(|n| **n != cur)
                .map(|n| line.matches(&format!("{n}(")).count())
                .sum::<usize>();
        }
    }
    let target = calls
        .iter()
        .filter(|(_, n)| *n != w.entry)
        .max_by_key(|(c, _)| *c)
        .map(|&(_, n)| n);
    let keep: Vec<&str> = names
        .iter()
        .filter(|n| Some(**n) != target)
        .copied()
        .collect();
    Mutator::RenameFunctions.apply(&w.source, &keep)
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
        assert_eq!(checksums(SRC), checksums(&insert_comments(SRC)));
        assert_eq!(checksums(SRC), checksums(&insert_body_comments(SRC)));
    }

    #[test]
    fn comment_drift_shifts_lines() {
        let drifted = insert_body_comments(SRC);
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
        let renamed = rename_functions(src, &["main"]);
        assert!(renamed.contains("fn helper_v2(x)"), "{renamed}");
        assert!(renamed.contains("return helper_v2(n);"), "{renamed}");
        assert!(renamed.contains("fn main(n)"), "kept name must not change");
        // Behaviour-preserving: still compiles and the call resolves.
        csspgo_lang::compile(&renamed, "t").unwrap();
        // Whole-word only: `helper_fast` must not become `helper_v2_fast`.
        let tricky = "fn helper(x) { return x; }\nfn helper_fast(x) { return helper(x); }\n";
        let r = rename_functions(tricky, &["helper_fast"]);
        assert!(
            r.contains("fn helper_fast(x) { return helper_v2(x); }"),
            "{r}"
        );
    }

    #[test]
    fn statement_mutators_change_one_functions_checksum() {
        let two = "fn a(x) {\n    if (x > 0) { return 1; }\n    return 2;\n}\nfn b(x) {\n    return x;\n}\n";
        let base = checksums(two);
        let ins = checksums(&insert_statement(two, 1));
        assert_eq!(base[0], ins[0], "untargeted function untouched");
        assert_ne!(base[1], ins[1], "targeted function must drift");
        let del = checksums(&delete_statement(two, 0));
        assert_ne!(base[0], del[0], "guard removal must drift");
        assert_eq!(base[1], del[1]);
        // No-ops degrade gracefully.
        assert_eq!(
            delete_statement("fn c() { return 0; }\n", 0),
            "fn c() { return 0; }\n"
        );
    }

    #[test]
    fn split_creates_forwarder_and_twin() {
        let two =
            "fn a(x, y) {\n    let t = x + y;\n    return t * 2;\n}\nfn b(x) {\n    return x;\n}\n";
        let split = split_function(two, 0);
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
        let again = split_function(&split, 0);
        assert!(again.contains("fn b_impl(x)"), "{again}");
    }

    #[test]
    fn merge_inverts_split_exactly() {
        let two = "fn a(x, y) {\n    let t = x + y;\n    return t * 2;\n}\nfn b(x) {\n    return a(x, x);\n}\n";
        assert_eq!(merge_functions(&split_function(two, 0), 0), two);
        // No forwarder → no-op.
        assert_eq!(merge_functions(two, 0), two);
    }

    #[test]
    fn bump_dependency_adds_shims_and_drifts_big_bodies() {
        let two = "fn a(x) {\n    let t = x + 1;\n    return t * 2;\n}\nfn fwd(x) {\n    return a(x);\n}\n";
        let bumped = bump_dependency(two, 7);
        assert!(bumped.contains("fn dep_shim_g1_0(x)"), "{bumped}");
        assert!(bumped.contains("fn dep_shim_g1_1(x)"), "{bumped}");
        csspgo_lang::compile(&bumped, "t").unwrap();
        let base = checksums(two);
        let after = checksums(&bumped);
        assert_ne!(base[0], after[0], "substantial body must drift");
        assert_eq!(base[1], after[1], "trivial forwarder untouched");
        // A second bump starts generation 2.
        assert!(bump_dependency(&bumped, 8).contains("fn dep_shim_g2_0(x)"));
    }

    #[test]
    fn flip_feature_flag_toggles_one_checksum() {
        let two = "fn a(x) {\n    return x;\n}\nfn b(x) {\n    return x + 1;\n}\n";
        let base = checksums(two);
        let on = flip_feature_flag(two, 1);
        assert!(on.contains(FEATURE_FLAG_GUARD), "{on}");
        let flipped = checksums(&on);
        assert_eq!(base[0], flipped[0]);
        assert_ne!(base[1], flipped[1]);
        // Flipping the same function again removes the guard: involution.
        assert_eq!(flip_feature_flag(&on, 1), two);
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
            csspgo_lang::compile(&insert_comments(&w.source), "d1").unwrap();
            csspgo_lang::compile(&insert_body_comments(&w.source), "d2").unwrap();
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
        assert_eq!(run(&w.source), run(&insert_comments(&w.source)));
        assert_eq!(run(&w.source), run(&change_cfg(&w.source)));
    }
}
