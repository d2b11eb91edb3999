//! The golden harness. Every bit-identity oracle blesses, compares and
//! reports its golden file through [`check`] and hashes through [`Fnv`];
//! `BLESS` is read here and nowhere else among the tests. Test packages
//! include this file through `#[path]`, so `env!` names the including
//! package and test, and it uses std alone.

#![allow(dead_code)] // each test that includes this uses a part of it

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds in the eight little-endian bytes of `w`.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }
}

/// `rows` as a golden file holds them: a JSON array, a row per line (or
/// per [`object`]).
pub fn array(rows: &[String]) -> String {
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// One multi-line golden row: an object of `fields`, a field per line.
pub fn object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = (fields.iter())
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    format!("  {{\n{}\n  }}", fields.join(",\n"))
}

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The command that blesses the including test's goldens.
const BLESS: &str = concat!(
    "`BLESS=1 cargo test -p ",
    env!("CARGO_PKG_NAME"),
    " --test ",
    env!("CARGO_CRATE_NAME"),
    "`"
);

/// Golden `file` (relative to the package root) as committed, or `None`
/// under `BLESS`, when there is nothing to hold a rendering to.
pub fn pinned(file: &str) -> Option<Vec<u8>> {
    if std::env::var_os("BLESS").is_some() {
        return None;
    }
    let read = std::fs::read(format!("{ROOT}/{file}"));
    Some(read.unwrap_or_else(|e| panic!("{file}: {e}; {BLESS} writes it")))
}

/// Holds golden `file` to `rendered`. Under `BLESS` it writes `rendered`
/// there. Otherwise a mismatch fails with [`diff`]'s report, then `why`
/// (what a move means, when a re-bless is right).
pub fn check(file: &str, rendered: impl AsRef<[u8]>, why: &str) {
    let rendered = rendered.as_ref();
    match pinned(file) {
        None => std::fs::write(format!("{ROOT}/{file}"), rendered).expect("bless"),
        Some(pinned) if pinned != rendered => {
            let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
            let report = diff(&text(&pinned), &text(rendered));
            panic!("{file} moved (old → new):\n{report}\n{why}; {BLESS} re-blesses");
        }
        Some(_) => {}
    }
}

type Row<'a> = (String, Vec<&'a str>);

/// The value of `line`'s `"case"`, if it names one.
fn case(line: &str) -> Option<&str> {
    Some(line.split_once("\"case\": \"")?.1.split_once('"')?.0)
}

/// `text`'s lines grouped into rows, each starting at a line that names a
/// `"case"`; a text that names none has a row per line, named by its
/// number. Bracket lines and trailing commas are left out: where a row
/// sits is not what it holds.
fn rows(text: &str) -> Vec<Row<'_>> {
    let cased = text.lines().any(|l| case(l).is_some());
    let mut rows: Vec<Row> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let held = line.trim().trim_end_matches(',');
        match (case(line), rows.last_mut()) {
            _ if held.chars().all(|c| "[]{}".contains(c)) => {}
            (Some(case), _) => rows.push((case.to_string(), vec![held])),
            (None, Some(row)) if cased => row.1.push(held),
            (None, _) => rows.push((format!("line {}", n + 1), vec![held])),
        }
    }
    rows
}

/// The cases of `a` that `b` lacks.
fn lacking<'a>(a: &'a [Row], b: &'a [Row]) -> impl Iterator<Item = &'a String> {
    (a.iter().map(|r| &r.0)).filter(|c| !b.iter().any(|r| &r.0 == *c))
}

/// What moved from `old` to `new`: every moved line, named by its row's
/// case (old → new), then the rows added and removed.
pub fn diff(old: &str, new: &str) -> String {
    let (old, new) = (rows(old), rows(new));
    let mut out = Vec::new();
    for (case, now) in &new {
        let Some((_, was)) = old.iter().find(|r| &r.0 == case) else {
            continue;
        };
        for i in 0..now.len().max(was.len()) {
            if was.get(i) != now.get(i) {
                let [a, b] = [was.get(i), now.get(i)].map(|s| s.map_or("(none)", |s| *s));
                out.push(format!("  {case}: {a} → {b}"));
            }
        }
    }
    out.extend(lacking(&new, &old).map(|c| format!("  added: {c}")));
    out.extend(lacking(&old, &new).map(|c| format!("  removed: {c}")));
    if out.is_empty() {
        out.push("  no row moved: brackets, commas, blanks or bytes that are not text did".into());
    }
    out.join("\n")
}
