//! Registry ↔ docs sync: every lint in `diag::LINTS` must be documented in
//! DESIGN.md, and every family in `diag::LINT_FAMILIES` must appear in the
//! README's family table. Tier-1 runs this, so a lint added without docs
//! fails locally and in CI alike.

use csspgo::analysis::{LINTS, LINT_FAMILIES};
use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_lint_id_and_name_is_documented_in_design() {
    let design = repo_file("DESIGN.md");
    for l in LINTS {
        assert!(
            design.contains(l.id),
            "lint {} missing from DESIGN.md (document it in the family's registry table)",
            l.id
        );
        assert!(
            design.contains(l.name),
            "lint {}'s name `{}` missing from DESIGN.md",
            l.id,
            l.name
        );
    }
}

#[test]
fn every_lint_family_is_in_the_readme_table() {
    let readme = repo_file("README.md");
    for (prefix, _) in LINT_FAMILIES {
        assert!(
            readme.contains(&format!("`{prefix}`")),
            "lint family {prefix} missing from the README family table"
        );
    }
}

#[test]
fn every_lint_has_a_long_form_explanation() {
    for l in LINTS {
        let text = csspgo::analysis::explain(l.id)
            .unwrap_or_else(|| panic!("{} has no --explain text", l.id));
        assert!(
            text.contains(l.name),
            "{}'s explanation must name the lint",
            l.id
        );
    }
}
