//! DESIGN.md describes the system that exists. Three checks keep it so:
//! it names every crate, every `pub mod` of every library crate, every
//! figure and every structural guard; every `DESIGN.md §x` citation in the
//! tree, and every `§x` of its own, names one of its numbered headings; and
//! every repository path it names in backticks exists. A module, figure or
//! guard added without a word in DESIGN.md, a section renumbered under a
//! citation, or a file renamed under the text fails tier-1.

#[path = "common/source.rs"]
mod source;

use csspgo_bench::figures::REGISTRY;
use source::{load, root, rust_files};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn read(path: &str) -> String {
    let p = root().join(path);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn design() -> String {
    read("DESIGN.md")
}

/// The numbers of DESIGN.md's numbered headings: `## 7. …` gives `7`,
/// `### 7.3 …` gives `7.3`.
fn headings(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|l| l.trim_start_matches('#'))
        .filter_map(|l| l.strip_prefix(' '))
        .filter_map(|l| l.split_whitespace().next())
        .map(|n| n.trim_end_matches('.'))
        .filter(|n| n.starts_with(|c: char| c.is_ascii_digit()))
        .map(str::to_owned)
        .collect()
}

/// The section number at the start of `s` (`7`, `7.3`), if it starts with
/// a digit.
fn section_number(s: &str) -> Option<String> {
    let mut n = String::new();
    for c in s.chars() {
        if c.is_ascii_digit() || (c == '.' && !n.is_empty() && !n.ends_with('.')) {
            n.push(c);
        } else {
            break;
        }
    }
    let n = n.trim_end_matches('.');
    (!n.is_empty()).then(|| n.to_owned())
}

/// Every section a `DESIGN.md §x` citation in `text` names: the `§` may
/// follow `DESIGN.md` (or `` `DESIGN.md` ``) across whitespace, a line break
/// and a comment marker, and may start a list (`§7.2, §18`, `§3 and §4`).
fn citations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let mut rest = text[at + "DESIGN.md".len()..].trim_start_matches('`');
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == '/' || c == '!');
        while let Some(after) = rest.strip_prefix('§') {
            let Some(n) = section_number(after) else {
                break;
            };
            rest = &after[n.len()..];
            out.push(n);
            let next = rest.trim_start_matches(|c: char| {
                c.is_whitespace() || matches!(c, ',' | '/' | '!' | '–')
            });
            let next = next.strip_prefix("and ").unwrap_or(next);
            if !next.starts_with('§') {
                break;
            }
            rest = next;
        }
    }
    out
}

/// `(guard, section)` of every `holds(…)` call in `tests/structure.rs`.
fn guards() -> Vec<(String, String)> {
    let text = read("tests/structure.rs");
    let mut out = Vec::new();
    for (at, _) in text.match_indices("holds(") {
        if text[..at].ends_with("fn ") {
            continue;
        }
        let args: Vec<&str> = text[at..].split('"').skip(1).step_by(2).take(2).collect();
        out.push((args[0].to_owned(), args[1].to_owned()));
    }
    assert!(out.len() >= 14, "found only {} guards", out.len());
    out
}

/// Whether `design` names module `name` of `parent` as `parent::name` or
/// inside a `parent::{…, name, …}` list.
fn names_module(design: &str, parent: &str, name: &str) -> bool {
    let prefix = format!("{parent}::");
    design.match_indices(&prefix).any(|(at, _)| {
        let before = design[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return false;
        }
        let rest = &design[at + prefix.len()..];
        if let Some(list) = rest.strip_prefix('{') {
            let list = &list[..list.find('}').unwrap_or(list.len())];
            list.split(',').any(|item| item.trim() == name)
        } else {
            let ident: String = rest
                .chars()
                .take_while(|&c| c.is_alphanumeric() || c == '_')
                .collect();
            ident == name
        }
    })
}

/// Every `pub mod` of every library crate, as `(parent, module)`: the
/// crate's directory name for a module declared in `lib.rs`, the declaring
/// file's stem otherwise.
fn public_modules() -> Vec<(String, String)> {
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    let mut out = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root()).unwrap();
        let parts: Vec<String> = rel
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect();
        if parts.get(2).map(String::as_str) != Some("src") {
            continue;
        }
        let src = load(&path, false);
        for (_, line) in src.code() {
            let Some(name) = line.trim().strip_prefix("pub mod ") else {
                continue;
            };
            let name = name.trim_end_matches(';').trim();
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            let parent = if stem == "lib" {
                parts[1].clone()
            } else {
                stem
            };
            out.push((parent, name.to_owned()));
        }
    }
    out
}

#[test]
fn design_names_every_crate_module_figure_and_guard() {
    let design = design();
    let mut missing = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    crates.sort();
    for dir in crates {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .map(|n| n.trim_end_matches('"'))
            .unwrap();
        if !design.contains(&format!("`{name}`")) {
            missing.push(format!("crate `{name}`"));
        }
    }
    if !design.contains("`csspgo` (root)") {
        missing.push("the root crate `csspgo`".into());
    }
    let modules = public_modules();
    assert!(modules.len() > 60, "found only {} modules", modules.len());
    for (parent, name) in modules {
        if !names_module(&design, &parent, &name) {
            missing.push(format!("module `{parent}::{name}`"));
        }
    }
    for (name, _) in REGISTRY {
        if !design.contains(&format!("`{name}`")) {
            missing.push(format!("figure `{name}`"));
        }
    }
    for (guard, section) in guards() {
        if !design.contains(&format!("{guard} ({section})")) {
            missing.push(format!(
                "guard \"{guard}\" in the guard table, at {section}"
            ));
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md does not name:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn every_design_citation_names_a_heading() {
    let design = design();
    let headings = headings(&design);
    assert!(
        headings.contains("1") && headings.len() > 30,
        "{headings:?}"
    );
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let docs = [
        "README.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        ".claude/skills/verify/SKILL.md",
    ];
    files.extend(docs.iter().map(|d| root().join(d)));
    let mut cited = 0;
    let mut dangling = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let rel = path.strip_prefix(root()).unwrap().display().to_string();
        for n in citations(&text) {
            cited += 1;
            if !headings.contains(&n) {
                dangling.push(format!("{rel}: DESIGN.md §{n}"));
            }
        }
    }
    // DESIGN.md's own cross-references (`§III.A` is the paper's).
    for (at, _) in design.match_indices('§') {
        if let Some(n) = section_number(&design[at + '§'.len_utf8()..]) {
            cited += 1;
            if !headings.contains(&n) {
                dangling.push(format!("DESIGN.md: §{n}"));
            }
        }
    }
    for (guard, section) in guards() {
        let n = section.strip_prefix('§').and_then(section_number);
        if !n.as_ref().is_some_and(|n| headings.contains(n)) {
            dangling.push(format!(
                "tests/structure.rs: guard \"{guard}\" cites {section}"
            ));
        }
    }
    assert!(cited > 40, "found only {cited} citations");
    assert!(
        dangling.is_empty(),
        "citations of sections DESIGN.md does not have:\n  {}",
        dangling.join("\n  ")
    );
}

/// `pattern` with each `{a,b}` group expanded.
fn expand_braces(pattern: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (pattern.find('{'), pattern.find('}')) else {
        return vec![pattern.to_owned()];
    };
    if close < open {
        return vec![pattern.to_owned()];
    }
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| {
            expand_braces(&format!(
                "{}{}{}",
                &pattern[..open],
                alt.trim(),
                &pattern[close + 1..]
            ))
        })
        .collect()
}

/// `token` with each `<placeholder>` (as in `results/<name>.txt`) turned
/// into the glob `*`.
fn placeholders_as_globs(token: &str) -> String {
    let mut out = String::new();
    let mut rest = token;
    while let Some(open) = rest.find('<') {
        let Some(close) = rest[open..].find('>') else {
            break;
        };
        out.push_str(&rest[..open]);
        out.push('*');
        rest = &rest[open + close + 1..];
    }
    out.push_str(rest);
    out
}

/// Whether `name` matches `pattern`, where `*` stands for any run of
/// characters.
fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && glob_match(tail, &name[i..]))
        }
    }
}

/// Whether some existing path under `dir` matches the `/`-separated
/// `components`.
fn exists(dir: &Path, components: &[&str]) -> bool {
    let Some((first, rest)) = components.split_first() else {
        return true;
    };
    if !first.contains('*') {
        let next = dir.join(first);
        return next.exists() && exists(&next, rest);
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries
        .map(|e| e.unwrap())
        .any(|e| glob_match(first, &e.file_name().to_string_lossy()) && exists(&e.path(), rest))
}

#[test]
fn every_path_design_names_exists() {
    let design = design();
    let top: BTreeSet<String> = std::fs::read_dir(root())
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "target" && n != ".git")
        .collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for span in design.split('`').skip(1).step_by(2) {
        let span = span.split("::").next().unwrap();
        for token in span.split_whitespace() {
            let token = placeholders_as_globs(token.trim_end_matches('/'));
            let token = token.as_str();
            let Some((first, _)) = token.split_once('/') else {
                continue;
            };
            if !top.contains(first) {
                continue;
            }
            for path in expand_braces(token) {
                checked += 1;
                let components: Vec<&str> = path.split('/').collect();
                if !exists(&root(), &components) {
                    missing.push(path);
                }
            }
        }
    }
    assert!(checked > 50, "checked only {checked} paths");
    assert!(
        missing.is_empty(),
        "DESIGN.md names paths that do not exist:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn the_readers_find_what_they_are_for() {
    assert_eq!(
        // Spelled apart, so the citation scan does not read these as cites.
        citations(concat!(
            "see DESIGN",
            ".md §7.2, §18 and §3.\n//! DESIGN",
            ".md\n//! §8 and `DESIGN",
            ".md` §1; §9 alone"
        )),
        ["7.2", "18", "3", "8", "1"]
    );
    assert_eq!(
        citations(concat!("DESIGN", ".md §III.A")),
        Vec::<String>::new()
    );
    assert!(names_module("`ir::{annot, flow}`", "ir", "flow"));
    assert!(names_module(
        "`core::stream::StreamAggregator`",
        "core",
        "stream"
    ));
    assert!(!names_module("`csspgo_core::streams`", "core", "stream"));
    assert_eq!(expand_braces("a/{b,c}.rs"), ["a/b.rs", "a/c.rs"]);
    assert!(glob_match("bad_*.bin", "bad_register.bin"));
    assert!(!glob_match("bad_*.bin", "serve.bin"));
}
