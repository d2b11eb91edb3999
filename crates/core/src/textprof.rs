//! Text profile formats, modelled on the LLVM sample-profile text format
//! that AutoFDO and CSSPGO persist between the profiling and build steps.
//! The tools read profiles as [`crate::binprof`] documents only: text is
//! what `csspgo show` prints, and its one reader, the context format's, is
//! crate-private for the text stream snapshot
//! ([`crate::stream::SnapshotFormat::Text`]).
//!
//! Two formats:
//!
//! * **flat** (AutoFDO-style and probe profiles) — per function, body
//!   counts keyed by anchor — `offset[.discriminator]` for AutoFDO, the
//!   probe index for a probe profile — with indentation-nested inlined
//!   call-site sub-profiles and, in a probe profile, the CFG checksum:
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
//! ([`csspgo_ir::probe::function_guid`]), so the context reader recovers
//! them without a symbol table.

use crate::binprof::{MAX_COUNT_SUM, MAX_DEPTH};
use crate::context::{ContextProfile, FrameKey};
use crate::profile::{FuncProfile, Profile};
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

/// `guid`'s name, or `guid.<hex>` when the profile names none.
fn name_of(names: &BTreeMap<u64, String>, guid: u64) -> String {
    names
        .get(&guid)
        .cloned()
        .unwrap_or_else(|| format!("guid.{guid:x}"))
}

// ---------------------------------------------------------------------
// Flat (AutoFDO-style and probe)
// ---------------------------------------------------------------------

/// Serializes a flat or probe profile to text, as LLVM prints a line- or
/// probe-based sample profile: a `name:total:entry` header per function, a
/// `!CFGChecksum:` line when it has a checksum, an `anchor: count` line per
/// body count, and each call site's profile one space deeper under an
/// `anchor@callee` header.
pub fn write_profile<K: Ord + Default + fmt::Display>(profile: &Profile<K>) -> String {
    let mut out = String::new();
    for (&guid, fp) in &profile.funcs {
        let name = name_of(&profile.names, guid);
        write_func(&mut out, "", &name, fp, 0, &profile.names);
    }
    out
}

fn write_func<K: Ord + Default + fmt::Display>(
    out: &mut String,
    header_prefix: &str,
    name: &str,
    fp: &FuncProfile<K>,
    depth: usize,
    names: &BTreeMap<u64, String>,
) {
    let pad = " ".repeat(depth);
    out.push_str(&format!(
        "{header_prefix}{name}:{}:{}\n",
        fp.total(),
        fp.entry
    ));
    if fp.checksum != 0 {
        out.push_str(&format!("{pad} !CFGChecksum: {}\n", fp.checksum));
    }
    for (key, count) in &fp.body {
        out.push_str(&format!("{pad} {key}: {count}\n"));
    }
    for ((key, callee), sub) in &fp.callsites {
        let prefix = format!("{pad} {key}@");
        write_func(
            out,
            &prefix,
            &name_of(names, *callee),
            sub,
            depth + 1,
            names,
        );
    }
}

// ---------------------------------------------------------------------
// Context (CSSPGO-style)
// ---------------------------------------------------------------------

/// Serializes a context profile to text, one section per trie node with a
/// bracketed context line (as `llvm-profgen` prints CS profiles).
pub fn write_context(profile: &ContextProfile) -> String {
    let mut out = String::new();
    let name = |g: u64| name_of(&profile.names, g);
    fn walk(
        out: &mut String,
        guid: u64,
        node: &FuncProfile<u32>,
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
        for (probe, count) in &node.body {
            out.push_str(&format!(" {probe}: {count}\n"));
        }
        for (&(probe, callee), child) in &node.callsites {
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

/// Parses the context text format: the context section of a text stream
/// snapshot.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line, also for a context
/// path deeper, or counts summing higher, than the binary decoders accept
/// ([`MAX_DEPTH`], [`MAX_COUNT_SUM`]).
pub(crate) fn parse_context(text: &str) -> Result<ContextProfile, ParseError> {
    let mut profile = ContextProfile::new();
    let mut current: Option<(Vec<FrameKey>, u64)> = None; // (path, leaf guid)
    let mut counted = 0u64;
    let mut tally = |lineno: usize, count: u64| {
        counted = counted.saturating_add(count);
        if counted > MAX_COUNT_SUM {
            return Err(err(lineno, "counts sum past the bound of 2^48"));
        }
        Ok(count)
    };

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
            let entry = tally(lineno, entry)?;

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
        profile.add_probe_hit(path, *leaf, probe, tally(lineno, count)?);
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binprof;
    use crate::profile::{FlatProfile, LocKey, ProbeProfile};

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
    fn flat_text_is_human_readable() {
        let text = write_profile(&sample_flat());
        assert_eq!(
            text,
            "main:1420:25\n 1: 500\n 2.1: 480\n 3@helper:440:25\n  0: 440\n"
        );
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
        let node = &back.roots[&main].callsites[&(3, helper)];
        assert_eq!(node.body[&1], 440);
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
    fn probe_text_is_the_flat_format_with_a_checksum() {
        let mut p = ProbeProfile::default();
        let (f, g) = (function_guid("f"), function_guid("g"));
        p.names.insert(f, "f".into());
        let fp = p.funcs.entry(f).or_default();
        fp.checksum = 77;
        fp.entry = 3;
        fp.record_sum(1, 10);
        let nested = fp.callsite_mut(2, g);
        nested.checksum = 5;
        nested.record_sum(1, 4);
        assert_eq!(
            write_profile(&p),
            format!(
                "f:14:3\n !CFGChecksum: 77\n 1: 10\n 2@guid.{g:x}:4:0\n  !CFGChecksum: 5\n  1: 4\n"
            )
        );
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn real_pipeline_profiles_roundtrip() {
        // Generate a real profile, round-trip it through binprof and
        // print both.
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
        let back = binprof::decode_flat(&binprof::encode_flat(&profile)).unwrap();
        assert_eq!(write_profile(&back), write_profile(&profile));
        assert_eq!(back, profile);
    }

    #[test]
    fn context_nesting_and_counts_past_the_decoders_bounds_are_refused() {
        let context = |depth: usize| format!("[{}leaf]:1:1\n 1: 1\n", "main:3 @ ".repeat(depth));
        assert!(parse_context(&context(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_context(&context(MAX_DEPTH + 1)),
            Err(too_deep(1, MAX_DEPTH + 1))
        );

        let counts =
            |probes: [u64; 2]| format!("[main]:0:1\n 1: {}\n 2: {}\n", probes[0], probes[1]);
        let ok = parse_context(&counts([MAX_COUNT_SUM - 2, 1])).unwrap();
        assert_eq!(
            ok.total() + ok.roots[&function_guid("main")].entry,
            MAX_COUNT_SUM
        );
        let past = "counts sum past the bound of 2^48";
        assert_eq!(
            parse_context(&counts([MAX_COUNT_SUM - 1, 1])),
            Err(err(3, past))
        );
        assert_eq!(
            parse_context(&counts([1 << 63, 1 << 63])),
            Err(err(2, past))
        );
    }
}
