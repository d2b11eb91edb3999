//! The diagnostics engine: lint registry, severities, reports.
//!
//! Modeled on clippy/rustc lints: every check is a registered [`Lint`] with a
//! stable id (`PF004`), a kebab-case name (`profile-checksum-stale`) and a
//! default [`Severity`]. A [`Policy`] escalates (`--deny`) or silences
//! (`--allow`) lints by id, name or `all`. Checks append [`Diagnostic`]s to a
//! [`Report`], which renders for humans or serializes to JSON.

use serde::Serialize;
use std::fmt;

/// How severe a diagnostic is. `Deny` diagnostics fail the build
/// (`csspgo_lint` exits nonzero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize)]
pub enum Severity {
    /// Silenced: the diagnostic is not recorded.
    Allow,
    /// Recorded and reported, does not fail the build.
    Warn,
    /// Recorded and fails the build.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Allow => f.write_str("allow"),
            Severity::Warn => f.write_str("warning"),
            Severity::Deny => f.write_str("error"),
        }
    }
}

/// A registered check with a stable identity.
#[derive(Clone, Copy, Debug)]
pub struct Lint {
    /// Stable id, never reused: `PF…` profile flow/integrity, `SM…` stale
    /// matching, `WP…` weight provenance. (`IV`, `PI`, `PP` and the ids
    /// missing from the sequences were retired by the census of DESIGN.md
    /// §8: they checked internal producers and are assertions there now.)
    pub id: &'static str,
    /// Kebab-case name, usable interchangeably with the id on the CLI.
    pub name: &'static str,
    /// Severity when no policy overrides it.
    pub default_severity: Severity,
    /// One-line description (shown in `csspgo_lint --list`).
    pub description: &'static str,
    /// One-paragraph doc (shown by `csspgo_lint --explain <ID>`): what the
    /// check proves, when it fires, and what to do about it.
    pub explanation: &'static str,
}

/// Lint families in presentation order, with one-line descriptions (the
/// README table and `--list` grouping follow this order).
pub const LINT_FAMILIES: &[(&str, &str)] = &[
    (
        "PF",
        "profile flow & integrity: a profile against the module it feeds",
    ),
    ("SM", "stale-profile matching confidence"),
    ("WP", "annotated-weight provenance quality"),
];

/// The position of a lint id's family in [`LINT_FAMILIES`] (unknown
/// prefixes sort last).
fn family_rank(id: &str) -> usize {
    LINT_FAMILIES
        .iter()
        .position(|(prefix, _)| id.starts_with(prefix))
        .unwrap_or(LINT_FAMILIES.len())
}

/// Every lint the analyzer can emit: each fires on input from outside the
/// process or on a real source drift (DESIGN.md §8 has the census). Grouped
/// by family; ids are append-only and never reused. None denies by default
/// — a "must never happen" check is an assertion at its producer, not a
/// lint.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "PF001",
        name: "flow-conservation",
        default_severity: Severity::Warn,
        description: "annotated block counts violate Kirchhoff inflow/outflow bounds",
        explanation: "An annotated block's count is outside the bounds implied by its \
            neighbors: it executes more often than everything that can branch into it \
            combined, or less often than a successor that only it feeds. Sampling noise \
            causes small violations (the tolerance absorbs those); large ones mean the \
            profile was corrupted, stale-matched badly, or inference was skipped.",
    },
    Lint {
        id: "PF002",
        name: "flow-dominance",
        default_severity: Severity::Warn,
        description: "acyclic block hotter than its immediate dominator",
        explanation: "Outside any loop, a block cannot execute more often than its \
            immediate dominator — every path to it passes through the dominator. A \
            violation beyond the noise tolerance points at misattributed samples or a \
            bad stale-profile transfer.",
    },
    Lint {
        id: "PF003",
        name: "context-parent-bound",
        default_severity: Severity::Warn,
        description: "child-context entry count exceeds the parent call-site probe count",
        explanation: "In the context trie, a child context claims more entries than its \
            parent's call-site probe observed calls. The context tree is hierarchical by \
            construction, so a child exceeding its parent (beyond tolerance) means \
            samples were attributed to the wrong context or the trie was merged \
            incorrectly.",
    },
    Lint {
        id: "PF004",
        name: "profile-checksum-stale",
        default_severity: Severity::Warn,
        description: "profile checksum does not match the module's CFG checksum",
        explanation: "A function's profile carries the CFG checksum of the build it was \
            collected on, and it differs from the current module's — the source drifted \
            since collection. Counts for that function are untrustworthy as-is; either \
            recollect, or run the stale matcher (stale_matching: recover) to salvage \
            what still aligns.",
    },
    Lint {
        id: "PF005",
        name: "profile-probe-range",
        default_severity: Severity::Warn,
        description: "profile references probe indices the function never allocated",
        explanation: "The profile contains counts for probe indices beyond what the \
            function ever allocated. Those entries cannot be applied and usually \
            indicate the profile belongs to a different (newer) build of the function \
            than the checksum suggests, or the profile file was corrupted.",
    },
    Lint {
        id: "SM001",
        name: "match-ambiguous-anchor",
        default_severity: Severity::Warn,
        description: "repeated call-anchor label: stale matching is positional there",
        explanation: "The stale matcher aligns old and new probes on call anchors \
            (callee names); a function contains the same callee name several times, so \
            alignment between repeats falls back to position and may transfer weight to \
            the wrong copy when code between them changed. Confidence in salvaged counts \
            for this function is reduced.",
    },
    Lint {
        id: "SM004",
        name: "match-anchor-drift",
        default_severity: Severity::Warn,
        description: "checksum matches but call-anchor targets changed (silent retarget)",
        explanation: "A function's CFG checksum still matches the profile, but the \
            callee names at its call anchors changed — e.g. a call was redirected to a \
            different function without altering control flow. The profile applies \
            cleanly yet its call-context assumptions are stale; inlining decisions \
            derived from it may chase the old callee.",
    },
    Lint {
        id: "SM005",
        name: "match-rename-low-confidence",
        default_severity: Severity::Warn,
        description: "function rename adopted below the high-confidence similarity threshold",
        explanation: "Rename detection adopted a stale function's profile for a \
            new/renamed function on anchor-set similarity below the high-confidence \
            threshold. The transfer may still be right, but it rests on circumstantial \
            evidence; verify the rename is real before trusting hot-path decisions in \
            that function.",
    },
    Lint {
        id: "WP001",
        name: "provenance-hot-inferred",
        default_severity: Severity::Warn,
        description: "hot function whose weight is majority solver-inferred",
        explanation: "A function carrying a significant share of the module's total \
            weight got most of that weight from flow inference rather than from raw \
            samples, stale matching, or counter reconstruction — the solver invented or \
            materially adjusted the majority of its counts. Inference smooths \
            inconsistencies well, but a hot function dominated by invented weight means \
            the optimizer is trusting the solver, not measurements; prefer recollecting \
            a profile for it.",
    },
    Lint {
        id: "WP003",
        name: "provenance-salvage-share",
        default_severity: Severity::Warn,
        description: "stale-matched weight exceeds half of the module's weight",
        explanation: "More than half of the module's \
            annotated weight was transferred by the stale-profile matcher instead of \
            being measured on the current build. Salvage is designed to bridge a \
            release or two; when it carries most of the profile, drift compounds \
            silently and profile quality decays — schedule a fresh collection rather \
            than salvaging again.",
    },
];

/// Looks a lint up by stable id (`PF004`) or name (`profile-checksum-stale`).
fn find_lint(key: &str) -> Option<&'static Lint> {
    LINTS
        .iter()
        .find(|l| l.id.eq_ignore_ascii_case(key) || l.name == key)
}

/// The registered lint an emitter in this crate reports under.
pub(crate) fn lint(id: &str) -> &'static Lint {
    find_lint(id).expect("registry covers every emitted lint")
}

/// The full lint registry rendered as an aligned table (ids, names,
/// default severities, one-line docs) — `csspgo_lint --list`. Output is
/// stable: sorted by family ([`LINT_FAMILIES`] order) then id, regardless
/// of registration order.
pub fn render_lint_list() -> String {
    let name_w = LINTS.iter().map(|l| l.name.len()).max().unwrap_or(0);
    let mut sorted: Vec<&Lint> = LINTS.iter().collect();
    sorted.sort_by_key(|l| (family_rank(l.id), l.id));
    let mut out = String::new();
    for l in sorted {
        out.push_str(&format!(
            "{}  {:name_w$}  {:7}  {}\n",
            l.id,
            l.name,
            l.default_severity.to_string(),
            l.description
        ));
    }
    out
}

/// Renders the one-paragraph documentation for a lint id or name —
/// `csspgo_lint --explain <ID>`. `None` when the key names no lint.
pub fn explain(key: &str) -> Option<String> {
    let l = find_lint(key)?;
    let mut out = format!(
        "{} ({})\ndefault severity: {}\n\n{}\n\n",
        l.id, l.name, l.default_severity, l.description
    );
    // Re-wrap the explanation to readable lines.
    let mut col = 0usize;
    for word in l.explanation.split_whitespace() {
        if col > 0 && col + 1 + word.len() > 78 {
            out.push('\n');
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out.push('\n');
    Some(out)
}

/// Severity overrides, applied at diagnostic-emission time.
///
/// Precedence (highest first): `allow` > `deny` > the lint's default. The
/// special key `all` matches every lint.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Lints escalated to [`Severity::Deny`] (ids, names, or `all`).
    pub deny: Vec<String>,
    /// Lints silenced to [`Severity::Allow`] (ids, names, or `all`).
    pub allow: Vec<String>,
}

impl Policy {
    fn matches(list: &[String], lint: &Lint) -> bool {
        list.iter().any(|k| {
            k.eq_ignore_ascii_case("all") || k.eq_ignore_ascii_case(lint.id) || k == lint.name
        })
    }

    /// The effective severity of `lint` under this policy.
    fn severity_for(&self, lint: &Lint) -> Severity {
        if Self::matches(&self.allow, lint) {
            Severity::Allow
        } else if Self::matches(&self.deny, lint) {
            Severity::Deny
        } else {
            lint.default_severity
        }
    }

    /// Validates that every key names a known lint (or `all`).
    pub fn validate(&self) -> Result<(), String> {
        for key in self.deny.iter().chain(self.allow.iter()) {
            if !key.eq_ignore_ascii_case("all") && find_lint(key).is_none() {
                return Err(format!("unknown lint `{key}`"));
            }
        }
        Ok(())
    }
}

/// One finding.
#[derive(Clone, Debug, Serialize)]
pub struct Diagnostic {
    /// Stable lint id (`PF004`).
    pub lint: String,
    /// Lint name (`profile-checksum-stale`).
    pub name: String,
    /// Effective severity after policy application.
    pub severity: Severity,
    /// Analysis unit (workload or module name).
    pub unit: String,
    /// Function the finding is in, when applicable.
    pub func: Option<String>,
    /// Finer location (block, probe, context path), when applicable.
    pub location: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}/{}] {}",
            self.severity, self.lint, self.name, self.unit
        )?;
        if let Some(func) = &self.func {
            write!(f, " fn {func}")?;
        }
        if let Some(loc) = &self.location {
            write!(f, " at {loc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// An accumulating set of diagnostics across analysis units.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All recorded diagnostics, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finding for `lint` under `policy`. Findings with an
    /// effective severity of `Allow` are dropped.
    pub fn emit(
        &mut self,
        policy: &Policy,
        lint: &'static Lint,
        unit: &str,
        func: Option<String>,
        location: Option<String>,
        message: String,
    ) {
        let severity = policy.severity_for(lint);
        if severity == Severity::Allow {
            return;
        }
        self.diagnostics.push(Diagnostic {
            lint: lint.id.to_string(),
            name: lint.name.to_string(),
            severity,
            unit: unit.to_string(),
            func,
            location,
            message,
        });
    }

    /// Number of `Deny` diagnostics (nonzero fails the build).
    fn denied(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of `Warn` diagnostics.
    fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Whether any diagnostic fails the build.
    pub fn has_denied(&self) -> bool {
        self.denied() > 0
    }

    /// Human-readable rendering, one line per diagnostic plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.denied(),
            self.warnings()
        ));
        out
    }
}

#[cfg(test)]
impl Policy {
    /// A policy denying every lint (`--deny all`).
    pub(crate) fn deny_all() -> Self {
        Policy {
            deny: vec!["all".into()],
            allow: Vec::new(),
        }
    }
}

#[cfg(test)]
impl Report {
    /// Diagnostics for one lint id.
    pub(crate) fn by_lint<'a>(&'a self, id: &str) -> Vec<&'a Diagnostic> {
        self.diagnostics.iter().filter(|d| d.lint == id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_ids_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for l in LINTS {
            assert!(seen.insert(l.id), "duplicate lint id {}", l.id);
            assert!(seen.insert(l.name), "name colliding with an id: {}", l.name);
            assert_eq!(find_lint(l.id).unwrap().id, l.id);
            assert_eq!(find_lint(l.name).unwrap().id, l.id);
        }
        assert!(find_lint("no-such-lint").is_none());
    }

    #[test]
    fn lint_list_renders_every_lint() {
        let list = render_lint_list();
        for l in LINTS {
            let line = list
                .lines()
                .find(|line| line.starts_with(l.id))
                .unwrap_or_else(|| panic!("{} missing from --list output", l.id));
            assert!(line.contains(l.name), "{line}");
            assert!(line.contains(l.description), "{line}");
            assert!(
                line.contains(&l.default_severity.to_string()),
                "{line} lacks severity"
            );
        }
        assert_eq!(list.lines().count(), LINTS.len());
    }

    #[test]
    fn lint_list_is_family_sorted() {
        let list = render_lint_list();
        let ranks: Vec<(usize, String)> = list
            .lines()
            .map(|line| {
                let id = line.split_whitespace().next().unwrap().to_string();
                (family_rank(&id), id)
            })
            .collect();
        let mut sorted = ranks.clone();
        sorted.sort();
        assert_eq!(ranks, sorted, "--list output not family-sorted");
        // Every family in LINT_FAMILIES has at least one lint.
        for (prefix, _) in LINT_FAMILIES {
            assert!(
                LINTS.iter().any(|l| l.id.starts_with(prefix)),
                "family {prefix} has no lints"
            );
        }
    }

    #[test]
    fn explain_renders_every_lint() {
        for l in LINTS {
            let text = explain(l.id).unwrap_or_else(|| panic!("{} has no explanation", l.id));
            assert!(text.contains(l.id) && text.contains(l.name), "{text}");
            assert!(
                !l.explanation.is_empty() && text.len() > 100,
                "{} explanation too thin",
                l.id
            );
            assert_eq!(explain(l.name).as_deref(), Some(text.as_str()));
        }
        assert!(explain("no-such-lint").is_none());
    }

    #[test]
    fn policy_precedence_allow_over_deny_over_default() {
        let lint = find_lint("PF001").unwrap(); // default Warn
        assert_eq!(Policy::default().severity_for(lint), Severity::Warn);
        assert_eq!(Policy::deny_all().severity_for(lint), Severity::Deny);
        let p = Policy {
            deny: vec!["all".into()],
            allow: vec!["flow-conservation".into()],
        };
        assert_eq!(p.severity_for(lint), Severity::Allow);
    }

    #[test]
    fn allowed_diagnostics_are_dropped() {
        let mut r = Report::new();
        let p = Policy {
            deny: Vec::new(),
            allow: vec!["all".into()],
        };
        r.emit(&p, find_lint("PF004").unwrap(), "u", None, None, "x".into());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn report_counts_by_severity_and_lint() {
        let mut r = Report::new();
        // No lint denies by default: escalation is the caller's choice.
        let p = Policy {
            deny: vec!["PF004".into()],
            allow: Vec::new(),
        };
        r.emit(
            &p,
            find_lint("PF004").unwrap(),
            "u",
            Some("f".into()),
            Some("f@4:g".into()),
            "stale".into(),
        );
        r.emit(
            &p,
            find_lint("PF001").unwrap(),
            "u",
            None,
            None,
            "leaky".into(),
        );
        assert_eq!(r.denied(), 1);
        assert_eq!(r.warnings(), 1);
        assert!(r.has_denied());
        assert_eq!(r.by_lint("PF004").len(), 1);
        assert!(r.render_human().contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn unknown_policy_keys_rejected() {
        let p = Policy {
            deny: vec!["PF999".into()],
            allow: Vec::new(),
        };
        assert!(p.validate().is_err());
        assert!(Policy::deny_all().validate().is_ok());
    }
}
