//! Public-item census: every `pub` item of the library crates must be
//! named by non-test code outside its own definition. Non-test code is
//! `crates/*/src`, `src/`, `examples/` and the frozen `benchmark/src`, minus
//! every `#[cfg(test)]` item; a `pub use` re-export names nothing. An item
//! nothing names is dead and goes; an item only tests name moves under
//! `tests/`. The count per crate is the one DESIGN.md §17.1 states. Tier-1
//! runs this, so neither the list nor the numbers can rot.
//!
//! The census works on names, not resolved paths: two items that share a
//! name (`new`, `len`) vouch for each other. It can therefore miss a dead
//! method, never flag a live one.

#[path = "common/source.rs"]
mod source;

use source::{impl_self_type, item_end, root, strip, workspace, Source};
use std::collections::{BTreeMap, HashMap};

/// The item keywords counted, as in `pub (const |unsafe )?(fn|…) NAME`.
const KINDS: &[&str] = &["fn", "struct", "enum", "type", "const", "trait", "static"];

/// A counted public item and the lines its own definition spans.
struct Item {
    file: usize,
    line: usize,
    end: usize,
    kind: &'static str,
    name: String,
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
        let (sources, library) = workspace();
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

    /// Items per library crate, by directory name (`core`, `serve`, …).
    fn per_crate(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for item in &self.items {
            let path = &self.sources[item.file].path;
            let name = path.split('/').nth(1).expect("crates/<name>/src/…");
            *counts.entry(name.to_owned()).or_default() += 1;
        }
        counts
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

/// The census DESIGN.md §17.1 states: `**total** — crate n, crate n, …`.
fn stated_census() -> (usize, BTreeMap<String, usize>) {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split("\n### ")
        .find(|s| s.starts_with("17.1 "))
        .expect("DESIGN.md §17.1");
    let text = section.split_whitespace().collect::<Vec<_>>().join(" ");
    let (_, stated) = text
        .split_once("outside test code): **")
        .expect("the census");
    let (total, rest) = stated.split_once("** — ").expect("`**total** — `");
    let list = &rest[..rest.find('.').expect("a closing period")];
    let per_crate = (list.split(", "))
        .map(|entry| {
            let (name, n) = entry.split_once(' ').expect("`crate n`");
            (name.to_owned(), n.parse().expect("a count"))
        })
        .collect();
    (total.parse().expect("a total"), per_crate)
}

#[test]
fn design_states_the_census_per_crate() {
    let (total, stated) = stated_census();
    let counted = Census::take().per_crate();
    assert_eq!(
        stated.values().sum::<usize>(),
        total,
        "DESIGN.md §17.1: the crates do not add up to the total"
    );
    assert_eq!(
        stated, counted,
        "DESIGN.md §17.1 states the census on the left; the code has the right"
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
