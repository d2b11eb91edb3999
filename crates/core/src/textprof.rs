//! Text profile formats, modelled on the LLVM sample-profile text format
//! that AutoFDO and CSSPGO persist between the profiling and build steps.
//!
//! Two formats:
//!
//! * **flat** (AutoFDO-style) — per function, body counts keyed by
//!   `offset[.discriminator]`, with indentation-nested inlined call-site
//!   sub-profiles:
//!
//!   ```text
//!   main:1384:25
//!    1: 500
//!    2.1: 480
//!    3@helper:880:25
//!     0: 440
//!   ```
//!
//! * **context** (CSSPGO-style) — one section per calling context, a
//!   bracketed frame list as in `llvm-profgen` output, with the CFG
//!   checksum that drives staleness detection:
//!
//!   ```text
//!   [main:3 @ helper]:880:25
//!    checksum: 0x1f2e3d4c
//!    1: 440
//!   ```
//!
//! Function identity round-trips through names: GUIDs are name hashes
//! ([`csspgo_ir::probe::function_guid`]), so the parser recovers them
//! without a symbol table.

use crate::binprof::MAX_DEPTH;
use crate::context::{ContextNode, ContextProfile, FrameKey};
use crate::profile::{FlatFuncProfile, FlatProfile, LocKey, ProbeFuncProfile, ProbeProfile};
use csspgo_ir::probe::function_guid;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A text-profile parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// A profile nested `depth` call sites deep, past the bound every profile
/// reader shares ([`MAX_DEPTH`]).
fn too_deep(line: usize, depth: usize) -> ParseError {
    err(
        line,
        format!("nested {depth} call sites deep, past the bound of {MAX_DEPTH}"),
    )
}

// ---------------------------------------------------------------------
// Flat (AutoFDO-style)
// ---------------------------------------------------------------------

/// Serializes a flat profile to text.
pub fn write_flat(profile: &FlatProfile) -> String {
    let mut out = String::new();
    for (guid, fp) in &profile.funcs {
        let name = profile
            .names
            .get(guid)
            .cloned()
            .unwrap_or_else(|| format!("guid.{guid:x}"));
        write_flat_func(&mut out, "", &name, fp, 0, &profile.names);
    }
    out
}

fn write_flat_func(
    out: &mut String,
    header_prefix: &str,
    name: &str,
    fp: &FlatFuncProfile,
    depth: usize,
    names: &BTreeMap<u64, String>,
) {
    let pad = " ".repeat(depth);
    out.push_str(&format!(
        "{header_prefix}{name}:{}:{}\n",
        fp.total(),
        fp.entry
    ));
    for (key, count) in &fp.body {
        if key.discriminator == 0 {
            out.push_str(&format!("{pad} {}: {count}\n", key.line_offset));
        } else {
            out.push_str(&format!(
                "{pad} {}.{}: {count}\n",
                key.line_offset, key.discriminator
            ));
        }
    }
    for ((key, callee), sub) in &fp.callsites {
        let callee_name = names
            .get(callee)
            .cloned()
            .unwrap_or_else(|| format!("guid.{callee:x}"));
        let k = if key.discriminator == 0 {
            format!("{}", key.line_offset)
        } else {
            format!("{}.{}", key.line_offset, key.discriminator)
        };
        let prefix = format!("{pad} {k}@");
        write_flat_func(out, &prefix, &callee_name, sub, depth + 1, names);
    }
}

/// A function header, `name:total:entry`: the name and the entry count.
/// The stated total must be a number and is otherwise ignored: a profile's
/// total is the sum of its counts, so a file cannot claim another.
fn parse_header(text: &str, lineno: usize) -> Result<(&str, u64), ParseError> {
    let mut parts = text.split(':');
    let name = parts.next().unwrap_or_default();
    let mut number = |what: &str| {
        parts
            .next()
            .and_then(|p| p.trim().parse::<u64>().ok())
            .ok_or_else(|| err(lineno, what))
    };
    number("bad total")?;
    Ok((name, number("bad entry count")?))
}

/// Parses the flat text format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line, also for a call
/// site nested deeper than any profile reader accepts.
pub fn parse_flat(text: &str) -> Result<FlatProfile, ParseError> {
    let mut profile = FlatProfile::default();
    // The open function profiles, outermost first, each with its indent and
    // the call-site key it hangs off in its parent; a frame is attached to
    // its parent (or the profile) when it closes.
    struct Frame {
        indent: usize,
        name: String,
        fp: FlatFuncProfile,
        site: Option<LocKey>,
    }
    let mut stack: Vec<Frame> = Vec::new();

    fn pop_into(profile: &mut FlatProfile, stack: &mut Vec<Frame>) -> Result<(), ParseError> {
        let Some(frame) = stack.pop() else {
            return Ok(());
        };
        let guid = function_guid(&frame.name);
        profile.names.insert(guid, frame.name.clone());
        if let Some(parent) = stack.last_mut() {
            // A frame nested under another function must have come from a
            // `site@callee` line; an indented plain header has no call site
            // to hang off — malformed input, not an invariant violation.
            let site = frame.site.ok_or_else(|| {
                err(
                    0,
                    format!("nested function `{}` has no call site", frame.name),
                )
            })?;
            parent.fp.callsites.insert((site, guid), frame.fp);
        } else {
            profile.funcs.insert(guid, frame.fp);
        }
        Ok(())
    }

    /// Closes every open frame at `indent` or deeper, but never the last
    /// `keep`: a plain header closes them all, a call-site header or a body
    /// line stays inside the outermost function.
    fn close(
        profile: &mut FlatProfile,
        stack: &mut Vec<Frame>,
        indent: usize,
        keep: usize,
    ) -> Result<(), ParseError> {
        while stack.len() > keep && stack.last().is_some_and(|f| f.indent >= indent) {
            pop_into(profile, stack)?;
        }
        Ok(())
    }

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if raw.trim().is_empty() || raw.trim_start().starts_with('#') {
            continue;
        }
        let indent = raw.len() - raw.trim_start().len();
        let line = raw.trim_start();

        if let Some((key_part, header)) = line.split_once('@') {
            // `off[.disc]@name:total:entry` — a nested inlined profile.
            close(&mut profile, &mut stack, indent, 1)?;
            let site = parse_lockey(key_part.trim(), lineno)?;
            let (name, entry) = parse_header(header, lineno)?;
            if stack.is_empty() {
                return Err(err(lineno, "call-site profile without a function"));
            }
            if stack.len() > MAX_DEPTH {
                return Err(too_deep(lineno, stack.len()));
            }
            stack.push(Frame {
                indent,
                name: name.to_string(),
                fp: FlatFuncProfile {
                    entry,
                    ..FlatFuncProfile::default()
                },
                site: Some(site),
            });
            continue;
        }

        // A plain header `name:total:entry` opens a top-level function.
        let header_like = line.split(':').count() == 3
            && line
                .split(':')
                .skip(1)
                .all(|p| p.trim().parse::<u64>().is_ok());
        if header_like {
            close(&mut profile, &mut stack, indent, 0)?;
            let (name, entry) = parse_header(line, lineno)?;
            stack.push(Frame {
                indent,
                name: name.to_string(),
                fp: FlatFuncProfile {
                    entry,
                    ..FlatFuncProfile::default()
                },
                site: None,
            });
            continue;
        }

        // Body line: `off[.disc]: count`, attached to the innermost frame
        // whose indent is shallower than ours.
        let (key_part, count_part) = line
            .split_once(':')
            .ok_or_else(|| err(lineno, "expected `off: count`"))?;
        let key = parse_lockey(key_part.trim(), lineno)?;
        let count: u64 = count_part
            .trim()
            .parse()
            .map_err(|_| err(lineno, "bad count"))?;
        close(&mut profile, &mut stack, indent, 1)?;
        let frame = stack
            .last_mut()
            .ok_or_else(|| err(lineno, "body count without a function"))?;
        frame.fp.body.insert(key, count);
    }
    close(&mut profile, &mut stack, 0, 0)?;
    Ok(profile)
}

fn parse_lockey(text: &str, lineno: usize) -> Result<LocKey, ParseError> {
    let (off, disc) = match text.split_once('.') {
        Some((o, d)) => (
            o.parse().map_err(|_| err(lineno, "bad offset"))?,
            d.parse().map_err(|_| err(lineno, "bad discriminator"))?,
        ),
        None => (text.parse().map_err(|_| err(lineno, "bad offset"))?, 0),
    };
    Ok(LocKey {
        line_offset: off,
        discriminator: disc,
    })
}

// ---------------------------------------------------------------------
// Context (CSSPGO-style)
// ---------------------------------------------------------------------

/// Serializes a context profile to text, one section per trie node with a
/// bracketed context line (as `llvm-profgen` prints CS profiles).
pub fn write_context(profile: &ContextProfile) -> String {
    let mut out = String::new();
    let name = |g: u64| {
        profile
            .names
            .get(&g)
            .cloned()
            .unwrap_or_else(|| format!("guid.{g:x}"))
    };
    fn walk(
        out: &mut String,
        guid: u64,
        node: &ContextNode,
        path: &mut Vec<FrameKey>,
        name: &dyn Fn(u64) -> String,
    ) {
        let mut ctx: Vec<String> = path
            .iter()
            .map(|f| format!("{}:{}", name(f.guid), f.probe))
            .collect();
        ctx.push(name(guid));
        out.push_str(&format!(
            "[{}]:{}:{}\n",
            ctx.join(" @ "),
            node.total(),
            node.entry
        ));
        if node.checksum != 0 {
            out.push_str(&format!(" checksum: {:#x}\n", node.checksum));
        }
        if node.inlined {
            out.push_str(" inlined: true\n");
        }
        for (probe, count) in &node.probes {
            out.push_str(&format!(" {probe}: {count}\n"));
        }
        for (&(probe, callee), child) in &node.children {
            path.push(FrameKey { guid, probe });
            walk(out, callee, child, path, name);
            path.pop();
        }
    }
    for (&guid, node) in &profile.roots {
        walk(&mut out, guid, node, &mut Vec::new(), &name);
    }
    out
}

/// Parses the context text format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line, also for a context
/// path deeper than any profile reader accepts.
pub fn parse_context(text: &str) -> Result<ContextProfile, ParseError> {
    let mut profile = ContextProfile::new();
    let mut current: Option<(Vec<FrameKey>, u64)> = None; // (path, leaf guid)

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            let close = line
                .find(']')
                .ok_or_else(|| err(lineno, "unterminated context"))?;
            let ctx = &line[1..close];
            let rest = &line[close + 1..];
            let mut parts = rest.trim_start_matches(':').split(':');
            let _total: u64 = parts
                .next()
                .and_then(|p| p.trim().parse().ok())
                .ok_or_else(|| err(lineno, "bad total"))?;
            let entry: u64 = parts
                .next()
                .and_then(|p| p.trim().parse().ok())
                .ok_or_else(|| err(lineno, "bad entry"))?;

            let frames: Vec<&str> = ctx.split('@').map(str::trim).collect();
            if frames.len() > MAX_DEPTH + 1 {
                return Err(too_deep(lineno, frames.len() - 1));
            }
            let mut path = Vec::with_capacity(frames.len().saturating_sub(1));
            for f in &frames[..frames.len() - 1] {
                let (fname, probe) = f
                    .rsplit_once(':')
                    .ok_or_else(|| err(lineno, "frame needs `name:probe`"))?;
                path.push(FrameKey {
                    guid: function_guid(fname),
                    probe: probe.parse().map_err(|_| err(lineno, "bad probe index"))?,
                });
            }
            let leaf = frames.last().ok_or_else(|| err(lineno, "empty context"))?;
            let leaf_guid = function_guid(leaf);
            profile.names.insert(leaf_guid, leaf.to_string());
            for (f, key) in frames[..frames.len() - 1].iter().zip(&path) {
                let fname = f.rsplit_once(':').expect("validated above").0;
                profile.names.insert(key.guid, fname.to_string());
            }
            if entry > 0 {
                profile.add_entry(&path, leaf_guid, entry);
            } else {
                // Materialize the node even with no entries.
                profile.node_for_path_mut(&path, leaf_guid);
            }
            current = Some((path, leaf_guid));
            continue;
        }
        let (path, leaf) = current
            .as_ref()
            .ok_or_else(|| err(lineno, "counts before any context header"))?;
        if let Some(rest) = line.strip_prefix("checksum:") {
            let v = rest.trim().trim_start_matches("0x");
            let checksum = u64::from_str_radix(v, 16).map_err(|_| err(lineno, "bad checksum"))?;
            profile.node_for_path_mut(path, *leaf).checksum = checksum;
            continue;
        }
        if line.starts_with("inlined:") {
            profile.node_for_path_mut(path, *leaf).inlined = line.ends_with("true");
            continue;
        }
        let (probe, count) = line
            .split_once(':')
            .ok_or_else(|| err(lineno, "expected `probe: count`"))?;
        let probe: u32 = probe.trim().parse().map_err(|_| err(lineno, "bad probe"))?;
        let count: u64 = count.trim().parse().map_err(|_| err(lineno, "bad count"))?;
        profile.add_probe_hit(path, *leaf, probe, count);
    }
    Ok(profile)
}

// ---------------------------------------------------------------------
// Probe profile (flat CSSPGO) — reuses the context writer through a
// conversion, plus direct JSON for lossless round-trips.
// ---------------------------------------------------------------------

/// Serializes a probe profile as JSON (lossless).
pub fn write_probe_json(profile: &ProbeProfile) -> String {
    serde_json::to_string_pretty(profile).expect("probe profiles are serializable")
}

/// Splits a stream-snapshot text (see
/// [`crate::stream::StreamAggregator::snapshot_as`]) at its `!context`
/// marker: the header/section lines before the marker, and the context
/// section body after it. Returns `None` when the marker is missing.
///
/// Shared by snapshot restore and by offline consumers (`csspgo_lint`'s
/// file mode) that only need the embedded context profile. Offsets are each
/// line's own byte length, line ending included, so a CRLF snapshot splits
/// where its LF original does, and a snapshot that ends at the marker has an
/// empty context section.
pub fn split_snapshot_context(text: &str) -> Option<(&str, &str)> {
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        if line.trim() == "!context" {
            return Some((&text[..offset], &text[offset + line.len()..]));
        }
        offset += line.len();
    }
    None
}

/// Parses a probe profile from JSON. A `total` a file states is ignored:
/// it is the sum of the counts.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the JSON failure, also for a call
/// site nested deeper than any profile reader accepts (at line 0: the
/// parsed value keeps no positions).
pub fn parse_probe_json(text: &str) -> Result<ProbeProfile, ParseError> {
    let profile: ProbeProfile =
        serde_json::from_str(text).map_err(|e| err(e.line(), e.to_string()))?;
    fn depth(p: &ProbeFuncProfile) -> usize {
        p.callsites
            .values()
            .map(|c| 1 + depth(c))
            .max()
            .unwrap_or(0)
    }
    match profile.funcs.values().map(depth).max() {
        Some(d) if d > MAX_DEPTH => Err(too_deep(0, d)),
        _ => Ok(profile),
    }
}

/// Total nested profile nodes (a size metric for reports).
pub fn probe_profile_nodes(profile: &ProbeProfile) -> usize {
    fn nodes(p: &ProbeFuncProfile) -> usize {
        1 + p.callsites.values().map(nodes).sum::<usize>()
    }
    profile.funcs.values().map(nodes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_context_splits_at_marker() {
        let text = "# header\n!ranges\n1 2 3\n!context\n[main]:10:1\n 1: 10\n";
        let (head, ctx) = split_snapshot_context(text).unwrap();
        assert!(head.contains("!ranges"));
        assert!(!head.contains("!context"));
        assert!(ctx.starts_with("[main]"));
        // Marker with nothing after it: empty context, not a panic.
        let (_, ctx) = split_snapshot_context("# h\n!context").unwrap();
        assert_eq!(ctx, "");
        assert!(split_snapshot_context("# no marker\n").is_none());
    }

    fn sample_flat() -> FlatProfile {
        let mut p = FlatProfile::default();
        let main_guid = function_guid("main");
        let helper_guid = function_guid("helper");
        p.names.insert(main_guid, "main".into());
        p.names.insert(helper_guid, "helper".into());
        let fp = p.funcs.entry(main_guid).or_default();
        fp.entry = 25;
        fp.record_max(
            LocKey {
                line_offset: 1,
                discriminator: 0,
            },
            500,
        );
        fp.record_max(
            LocKey {
                line_offset: 2,
                discriminator: 1,
            },
            480,
        );
        let nested = fp.callsite_mut(
            LocKey {
                line_offset: 3,
                discriminator: 0,
            },
            helper_guid,
        );
        nested.entry = 25;
        nested.record_max(
            LocKey {
                line_offset: 0,
                discriminator: 0,
            },
            440,
        );
        p
    }

    #[test]
    fn flat_roundtrip() {
        let p = sample_flat();
        let text = write_flat(&p);
        let back = parse_flat(&text).unwrap();
        assert_eq!(p.funcs, back.funcs, "text:\n{text}");
        assert_eq!(p.names, back.names);
    }

    #[test]
    fn flat_text_is_human_readable() {
        let text = write_flat(&sample_flat());
        assert!(text.contains("main:"), "{text}");
        assert!(text.contains(" 2.1: 480"), "{text}");
        assert!(text.contains("@helper:"), "{text}");
    }

    #[test]
    fn flat_parse_reports_line_numbers() {
        let e = parse_flat("main:10:5\n bogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn flat_parse_rejects_nested_header_without_call_site() {
        // An indented plain header has no `site@` to hang off its parent —
        // must surface as a ParseError, not a panic.
        let e = parse_flat("a:1:1\n  b:2:2\n").unwrap_err();
        assert!(e.message.contains("call site"), "{e}");
    }

    fn sample_context() -> ContextProfile {
        let mut p = ContextProfile::new();
        let main = function_guid("main");
        let helper = function_guid("helper");
        p.names.insert(main, "main".into());
        p.names.insert(helper, "helper".into());
        p.add_probe_hit(&[], main, 1, 100);
        p.add_entry(&[], main, 10);
        let f = FrameKey {
            guid: main,
            probe: 3,
        };
        p.add_probe_hit(&[f], helper, 1, 440);
        p.add_probe_hit(&[f], helper, 2, 60);
        p.add_entry(&[f], helper, 25);
        p.node_for_path_mut(&[f], helper).checksum = 0x1f2e;
        p.node_for_path_mut(&[f], helper).inlined = true;
        p
    }

    #[test]
    fn context_roundtrip() {
        let p = sample_context();
        let text = write_context(&p);
        let back = parse_context(&text).unwrap();
        assert_eq!(p.total(), back.total(), "text:\n{text}");
        assert_eq!(p.node_count(), back.node_count());
        let main = function_guid("main");
        let helper = function_guid("helper");
        let node = &back.roots[&main].children[&(3, helper)];
        assert_eq!(node.probes[&1], 440);
        assert_eq!(node.entry, 25);
        assert_eq!(node.checksum, 0x1f2e);
        assert!(node.inlined);
    }

    #[test]
    fn context_text_matches_llvm_profgen_shape() {
        let text = write_context(&sample_context());
        assert!(text.contains("[main]:"), "{text}");
        assert!(text.contains("[main:3 @ helper]:"), "{text}");
        assert!(text.contains(" checksum: 0x1f2e"), "{text}");
    }

    #[test]
    fn probe_json_roundtrip() {
        let mut p = ProbeProfile::default();
        let g = function_guid("f");
        p.names.insert(g, "f".into());
        let fp = p.funcs.entry(g).or_default();
        fp.checksum = 77;
        fp.record_sum(1, 10);
        let back = parse_probe_json(&write_probe_json(&p)).unwrap();
        assert_eq!(back.funcs[&g].probes[&1], 10);
        assert_eq!(probe_profile_nodes(&back), 1);
    }

    #[test]
    fn real_pipeline_profiles_roundtrip() {
        // Generate a real profile and round-trip it through text.
        use crate::correlate::dwarf_profile;
        use crate::ranges::RangeCounts;
        use csspgo_codegen::{lower_module, CodegenConfig};
        use csspgo_sim::{Machine, SimConfig};
        let src = r#"
fn h(x) { if (x % 3 == 0) { return x + 1; } return x; }
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = s + h(i); i = i + 1; }
    return s;
}
"#;
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::run_pipeline(&mut m, &csspgo_opt::OptConfig::default());
        let b = lower_module(&m, &CodegenConfig::default());
        let mut machine = Machine::new(
            &b,
            SimConfig {
                sample_period: 37,
                ..SimConfig::default()
            },
        );
        machine.call("main", &[3000]).unwrap();
        let samples = machine.take_samples();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        let profile = dwarf_profile(&b, &rc);
        let back = parse_flat(&write_flat(&profile)).unwrap();
        assert_eq!(profile.funcs, back.funcs);
    }

    #[test]
    fn nesting_past_the_shared_bound_is_refused_by_both_text_readers() {
        let context = |depth: usize| format!("[{}leaf]:1:1\n 1: 1\n", "main:3 @ ".repeat(depth));
        assert!(parse_context(&context(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_context(&context(MAX_DEPTH + 1)),
            Err(too_deep(1, MAX_DEPTH + 1))
        );

        let flat = |depth: usize| {
            let mut text = String::from("main:1:1\n");
            for d in 1..=depth {
                text.push_str(&format!("{}3@leaf:1:1\n", " ".repeat(d)));
            }
            text
        };
        let mut sub = &parse_flat(&flat(MAX_DEPTH)).unwrap().funcs[&function_guid("main")];
        for _ in 0..MAX_DEPTH {
            sub = sub.callsites.values().next().unwrap();
        }
        assert!(sub.callsites.is_empty());
        assert_eq!(
            parse_flat(&flat(MAX_DEPTH + 1)),
            Err(too_deep(MAX_DEPTH + 2, MAX_DEPTH + 1))
        );
    }
}
