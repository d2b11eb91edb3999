//! The one reader of the repository's Rust sources that the structure tests
//! share (`tests/public_items.rs`, `tests/structure.rs`). A [`Source`] is a
//! file's raw lines, the same lines with comments and literals blanked, and
//! per line whether it is test code. "Outside test code" means what
//! [`Source::test`] says: not in a test file and not inside a `#[cfg(test)]`
//! item, wherever in the file that item sits.

#![allow(dead_code)] // each test that includes this uses a part of it

use std::path::{Path, PathBuf};

/// One source file, line by line.
pub struct Source {
    /// Path relative to the repository root.
    pub path: String,
    /// The lines as written.
    pub raw: Vec<String>,
    /// The same lines with comments and string/char literals blanked out, so
    /// every identifier left is code.
    pub lines: Vec<String>,
    /// Per line: inside a test file or a `#[cfg(test)]` item.
    pub test: Vec<bool>,
    /// Per line: part of a `pub use` re-export.
    pub reexport: Vec<bool>,
    /// `impl` blocks: first line, last line, the type they implement for.
    pub impls: Vec<(usize, usize, String)>,
}

impl Source {
    /// The blanked lines outside test code, with their 0-based numbers.
    pub fn code(&self) -> impl Iterator<Item = (usize, &str)> {
        (self.lines.iter().enumerate())
            .filter(|&(l, _)| !self.test[l])
            .map(|(l, text)| (l, text.as_str()))
    }
}

pub fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, in path order.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
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
pub fn strip(text: &str) -> String {
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
pub fn item_end(lines: &[String], line: usize, col: usize) -> usize {
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

/// Reads `path`; every line of a `test_file` is test code.
pub fn load(path: &Path, test_file: bool) -> Source {
    let text = std::fs::read_to_string(path).unwrap();
    let raw: Vec<String> = text.lines().map(str::to_owned).collect();
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
        raw,
        lines,
        test,
        reexport,
        impls,
    }
}

/// The type an `impl` header is for: `Foo` in `impl Foo`, `impl<T> Foo<T>`,
/// `impl fmt::Display for a::Foo`.
pub fn impl_self_type(line: &str) -> Option<&str> {
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

/// Every Rust source the census reads, loaded: the nine library crates'
/// `src` first, then the other non-test code (`src/`, `examples/`, the
/// frozen `benchmark/src`), then the test files. Returns the sources and how
/// many of them are library files.
pub fn workspace() -> (Vec<Source>, usize) {
    let root = root();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
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
    let mut sources: Vec<Source> = code.iter().map(|p| load(p, false)).collect();
    sources.extend(tests.iter().map(|p| load(p, true)));
    (sources, library)
}
