//! Public-item census: every `pub` item of the nine library crates must be
//! named by non-test code outside its own definition. Non-test code is
//! `crates/*/src`, `src/`, `examples/` and the frozen `benchmark/src`, minus
//! every `#[cfg(test)]` item; a `pub use` re-export names nothing. An item
//! nothing names is dead and goes; an item only tests name moves under
//! `tests/`. Tier-1 runs this, so the list cannot rot.
//!
//! The census works on names, not resolved paths: two items that share a
//! name (`new`, `len`) vouch for each other. It can therefore miss a dead
//! method, never flag a live one.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The item keywords counted, as in `pub (const |unsafe )?(fn|…) NAME`.
const KINDS: &[&str] = &["fn", "struct", "enum", "type", "const", "trait", "static"];

/// One source file with comments and string/char literals blanked out, so
/// every identifier left is code. Lines are kept, so line numbers hold.
struct Source {
    path: String,
    lines: Vec<String>,
    /// Per line: inside a test file or a `#[cfg(test)]` item.
    test: Vec<bool>,
    /// Per line: part of a `pub use` re-export.
    reexport: Vec<bool>,
    /// `impl` blocks: first line, last line, the type they implement for.
    impls: Vec<(usize, usize, String)>,
}

/// A counted public item and the lines its own definition spans.
struct Item {
    file: usize,
    line: usize,
    end: usize,
    kind: &'static str,
    name: String,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Blanks comments and string, byte-string, raw-string and char literals
/// with spaces, keeping newlines; lifetimes stay.
fn strip(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |ch: char| if ch == '\n' { '\n' } else { ' ' };
    let ident = |ch: char| ch.is_alphanumeric() || ch == '_';
    let mut i = 0;
    while i < c.len() {
        let prev_ident = i > 0 && ident(c[i - 1]);
        if c[i] == '/' && c.get(i + 1) == Some(&'/') {
            while i < c.len() && c[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c[i] == '/' && c.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(c[i]));
                    i += 1;
                }
            }
        } else if c[i] == 'r' && !prev_ident && matches!(c.get(i + 1), Some('"' | '#')) {
            let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
            if c.get(i + 1 + hashes) != Some(&'"') {
                out.push(c[i]);
                i += 1;
                continue;
            }
            i += 2 + hashes;
            out.push_str(&" ".repeat(2 + hashes));
            while i < c.len() {
                if c[i] == '"'
                    && c[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes
                {
                    out.push_str(&" ".repeat(1 + hashes));
                    i += 1 + hashes;
                    break;
                }
                out.push(blank(c[i]));
                i += 1;
            }
        } else if c[i] == '"' {
            out.push(' ');
            i += 1;
            while i < c.len() && c[i] != '"' {
                let n = if c[i] == '\\' { 2 } else { 1 };
                for k in 0..n {
                    if let Some(&ch) = c.get(i + k) {
                        out.push(blank(ch));
                    }
                }
                i += n;
            }
            out.push(' ');
            i += 1;
        } else if c[i] == '\'' && !prev_ident {
            // A char literal is 'x' or '\…'; anything else is a lifetime.
            let end = if c.get(i + 1) == Some(&'\\') {
                (i + 2..c.len()).find(|&k| c[k] == '\'')
            } else if c.get(i + 2) == Some(&'\'') {
                Some(i + 2)
            } else {
                None
            };
            match end {
                Some(end) => {
                    out.push_str(&" ".repeat(end + 1 - i));
                    i = end + 1;
                }
                None => {
                    out.push('\'');
                    i += 1;
                }
            }
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// The last line of the item that starts at `(line, col)`: where its first
/// top-level `{ … }` closes, or its first top-level `;`.
fn item_end(lines: &[String], line: usize, col: usize) -> usize {
    let mut depth = 0i32;
    for (l, text) in lines.iter().enumerate().skip(line) {
        let from = if l == line { col } else { 0 };
        for ch in text[from..].chars() {
            match ch {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => {
                    depth -= 1;
                    if depth == 0 && ch == '}' {
                        return l;
                    }
                }
                ';' if depth == 0 => return l,
                _ => {}
            }
        }
    }
    lines.len() - 1
}

fn load(path: &Path, test_file: bool) -> Source {
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<String> = strip(&text).lines().map(str::to_owned).collect();
    let mut test = vec![test_file; lines.len()];
    let mut reexport = vec![false; lines.len()];
    let mut impls = Vec::new();
    let mut l = 0;
    while l < lines.len() {
        let t = lines[l].trim_start();
        if let Some(ty) = impl_self_type(t) {
            impls.push((l, item_end(&lines, l, 0), ty.to_owned()));
        }
        if t.starts_with("#[cfg(test)]") {
            let col = lines[l].find(']').unwrap() + 1;
            let end = item_end(&lines, l, col);
            test[l..=end].iter_mut().for_each(|x| *x = true);
            l = end;
        } else if t.starts_with("pub use ") {
            let end = item_end(&lines, l, 0);
            reexport[l..=end].iter_mut().for_each(|x| *x = true);
            l = end;
        }
        l += 1;
    }
    let path = path.strip_prefix(root()).unwrap().display().to_string();
    Source {
        path,
        lines,
        test,
        reexport,
        impls,
    }
}

/// The type an `impl` header is for: `Foo` in `impl Foo`, `impl<T> Foo<T>`,
/// `impl fmt::Display for a::Foo`.
fn impl_self_type(line: &str) -> Option<&str> {
    let mut rest = line.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.find(|ch| {
            depth += match ch {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &rest[close + 1..];
    } else if !rest.starts_with(' ') {
        return None; // `implied`, …
    }
    let header = &rest[..rest.find('{').unwrap_or(rest.len())];
    let ty = header.split(" for ").last()?.trim_start();
    let path = &ty[..ty
        .find(|ch: char| !(ch.is_alphanumeric() || ch == '_' || ch == ':'))
        .unwrap_or(ty.len())];
    path.rsplit("::").next().filter(|name| !name.is_empty())
}

/// `pub (const |unsafe )?KIND NAME` at the start of a line → (kind, name,
/// column just past the name).
fn pub_item(line: &str) -> Option<(&'static str, String, usize)> {
    let t = line.trim_start();
    let mut rest = t.strip_prefix("pub ")?;
    for q in ["const ", "unsafe "] {
        if let Some(r) = rest.strip_prefix(q) {
            if KINDS.iter().any(|k| r.starts_with(&format!("{k} "))) {
                rest = r;
            }
        }
    }
    let kind = *KINDS.iter().find(|k| rest.starts_with(&format!("{k} ")))?;
    let after = &rest[kind.len() + 1..];
    let name: String = after
        .chars()
        .take_while(|&ch| ch.is_alphanumeric() || ch == '_')
        .collect();
    if name.is_empty() {
        return None; // a macro's `$name`
    }
    let col = line.len() - after.len() + name.len();
    Some((kind, name, col))
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
        .filter(|w| w.starts_with(|ch: char| ch.is_alphabetic() || ch == '_'))
}

/// Where an item's name occurs outside its own definition.
#[derive(Default)]
struct Uses {
    own_file: bool,
    other_code: bool,
    test: bool,
}

struct Census {
    sources: Vec<Source>,
    items: Vec<Item>,
}

impl Census {
    fn take() -> Census {
        let root = root();
        let mut sources = Vec::new();
        let crates = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        crate_dirs.sort();
        let mut code = Vec::new();
        let mut tests = Vec::new();
        for dir in &crate_dirs {
            rust_files(&dir.join("src"), &mut code);
            rust_files(&dir.join("tests"), &mut tests);
        }
        let library = code.len();
        for dir in ["src", "examples", "benchmark/src"] {
            rust_files(&root.join(dir), &mut code);
        }
        for dir in ["tests", "benchmark/tests"] {
            rust_files(&root.join(dir), &mut tests);
        }
        sources.extend(code.iter().map(|p| load(p, false)));
        sources.extend(tests.iter().map(|p| load(p, true)));

        let mut items = Vec::new();
        for (file, src) in sources.iter().enumerate().take(library) {
            for (line, text) in src.lines.iter().enumerate() {
                if src.test[line] {
                    continue;
                }
                if let Some((kind, name, col)) = pub_item(text) {
                    let end = item_end(&src.lines, line, col);
                    items.push(Item {
                        file,
                        line,
                        end,
                        kind,
                        name,
                    });
                }
            }
        }
        Census { sources, items }
    }

    fn uses(&self) -> Vec<Uses> {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, item) in self.items.iter().enumerate() {
            by_name.entry(&item.name).or_default().push(i);
        }
        let mut uses: Vec<Uses> = self.items.iter().map(|_| Uses::default()).collect();
        for (file, src) in self.sources.iter().enumerate() {
            for (line, text) in src.lines.iter().enumerate() {
                if src.reexport[line] {
                    continue;
                }
                for word in identifiers(text) {
                    for &i in by_name.get(word).into_iter().flatten() {
                        let item = &self.items[i];
                        let u = &mut uses[i];
                        if item.file == file && (item.line..=item.end).contains(&line) {
                            continue;
                        }
                        // A type's own `impl` blocks do not use it.
                        let own_impl = |&(a, b, ref ty): &(usize, usize, String)| {
                            ty == word && (a..=b).contains(&line)
                        };
                        if src.impls.iter().any(own_impl) {
                            continue;
                        }
                        if src.test[line] {
                            u.test = true;
                        } else if item.file == file {
                            u.own_file = true;
                        } else {
                            u.other_code = true;
                        }
                    }
                }
            }
        }
        uses
    }

    fn describe(&self, item: &Item) -> String {
        let src = &self.sources[item.file];
        format!(
            "{}:{}: pub {} {}",
            src.path,
            item.line + 1,
            item.kind,
            item.name
        )
    }
}

#[test]
fn every_public_item_has_a_non_test_caller() {
    let census = Census::take();
    assert!(
        census.items.len() > 400,
        "the census found only {} items",
        census.items.len()
    );
    let uses = census.uses();
    let mut dead = Vec::new();
    let mut test_only = Vec::new();
    for (item, u) in census.items.iter().zip(&uses) {
        if u.own_file || u.other_code {
            continue;
        }
        if u.test {
            test_only.push(census.describe(item));
        } else {
            dead.push(census.describe(item));
        }
    }
    assert!(
        dead.is_empty() && test_only.is_empty(),
        "public items with no non-test caller:\n  dead (delete them):\n    {}\n  \
         only tests name them (move them under tests/):\n    {}",
        dead.join("\n    "),
        test_only.join("\n    "),
    );
}

#[test]
fn the_scanner_sees_through_comments_literals_and_test_items() {
    let text = "pub fn a() { b(\"c // d\") } // e\n#[cfg(test)]\nmod tests {\n    fn f() { '{'; }\n}\npub use x::g;\n";
    let lines: Vec<String> = strip(text).lines().map(str::to_owned).collect();
    assert_eq!(
        identifiers(&lines[0]).collect::<Vec<_>>(),
        ["pub", "fn", "a", "b"]
    );
    assert_eq!(item_end(&lines, 0, 0), 0);
    assert_eq!(item_end(&lines, 1, "#[cfg(test)]".len()), 4);
    assert_eq!(
        pub_item(&lines[0]).map(|(k, n, _)| (k, n)),
        Some(("fn", "a".to_owned()))
    );
    assert_eq!(
        pub_item("pub const fn h()").map(|(k, n, _)| (k, n)),
        Some(("fn", "h".to_owned()))
    );
    assert_eq!(
        pub_item("pub const N: u32 = 1;").map(|(k, n, _)| (k, n)),
        Some(("const", "N".to_owned()))
    );
    assert_eq!(pub_item("pub(crate) fn i()"), None);
    assert_eq!(impl_self_type("impl Foo {"), Some("Foo"));
    assert_eq!(
        impl_self_type("impl<'a, T: X<u8>> Foo<'a, T> {"),
        Some("Foo")
    );
    assert_eq!(
        impl_self_type("impl fmt::Display for a::Foo {"),
        Some("Foo")
    );
    assert_eq!(impl_self_type("implied"), None);
    assert_eq!(pub_item("pub struct $name(pub u32);"), None);
}
