//! `binprof` — the compact binary profile serialization (DESIGN.md §10.3),
//! and the only module that knows its bytes.
//!
//! It is the one profile format the tools read; [`crate::textprof`] is the
//! human-readable view they print. The wire format is shaped after LLVM's
//! ExtBinary sample-profile container: a fixed header (magic + version +
//! payload kind), then a sequence of independently-skippable sections, each
//! framed as `tag byte + varint byte length + payload`. All integers are
//! LEB128 varints; sorted key sequences (probe indices, GUID tables,
//! location keys) are delta-encoded so hot functions with dense probe maps
//! cost ~1 byte per entry; function names are deduplicated through a string
//! table and referenced by index.
//!
//! Four documents share the framing: the three profiles (context, probe,
//! flat), each one envelope — string table, names, one GUID-keyed body —
//! and a stream snapshot (`stream::Snapshot`). The framing itself is private:
//! callers see values and [`DecodeError`]s, never sections.
//!
//! Encoding is **canonical**: every map in the profile data model is a
//! `BTreeMap`, so iteration order — and therefore the byte stream — is a
//! pure function of the profile value. Equal profiles encode to equal
//! bytes, which the snapshot tests rely on.

use crate::context::{ContextNode, ContextProfile};
use crate::profile::{FlatFuncProfile, FlatProfile, LocKey, ProbeFuncProfile, ProbeProfile};
use crate::stream::Snapshot;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// File magic: first 8 bytes of every binprof payload.
pub const MAGIC: [u8; 8] = *b"CSPGOBIN";
/// Current format version. Decoders reject anything else. Version 2 left
/// out what version 1 stored twice: a context node's GUID (its key names
/// it) and a sub-profile's total (the sum of its counts).
const VERSION: u16 = 2;
/// Deepest nesting of call-site sub-profiles these decoders and the text
/// snapshot's context reader accept, so that no input they read builds a
/// tree the recursive walks over it cannot descend.
pub(crate) const MAX_DEPTH: usize = 512;
/// Largest sum of all counts (entries, probe and body counts) in one
/// document these decoders and the text snapshot's context reader accept,
/// 2⁴⁸. Every weight derived from a profile is a sum of some of its counts:
/// annotation's block weights and `ProvenanceTotals`, and the `d * 4` of
/// its inference-adjustment test, stay at least 2¹⁴ below `u64::MAX`, with
/// room left for what inference adds to a block. The shipped workloads'
/// profiles sum to about a million.
pub(crate) const MAX_COUNT_SUM: u64 = 1 << 48;

/// Payload kind, byte 10 of the header.
#[derive(Clone, Copy)]
#[repr(u8)]
enum Kind {
    Context = 1,
    Probe = 2,
    Flat = 3,
    StreamSnapshot = 4,
}

/// Section tags. Unknown tags are skipped by length, so future versions can
/// append sections without breaking old readers of the same version line.
mod section {
    /// Deduplicated string table.
    pub(super) const STRINGS: u8 = 1;
    /// GUID → string-table-index name map.
    pub(super) const NAMES: u8 = 2;
    /// Context-trie roots.
    pub(super) const CONTEXT_ROOTS: u8 = 3;
    /// Probe-profile function bodies.
    pub(super) const PROBE_FUNCS: u8 = 4;
    /// Flat-profile function bodies.
    pub(super) const FLAT_FUNCS: u8 = 5;
    /// Stream-snapshot scalar metadata (fingerprint, epochs, samples).
    pub(super) const STREAM_META: u8 = 6;
    /// Stream-snapshot tail-call graph edges.
    pub(super) const STREAM_TAILGRAPH: u8 = 7;
    /// Stream-snapshot LBR range counts.
    pub(super) const STREAM_RANGES: u8 = 8;
    /// Stream-snapshot branch counts.
    pub(super) const STREAM_BRANCHES: u8 = 9;
    /// Stream-snapshot previous-epoch probe weights.
    pub(super) const STREAM_WEIGHTS: u8 = 10;
    /// Stream-snapshot embedded context profile (a nested binprof payload).
    pub(super) const STREAM_CONTEXT: u8 = 11;
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload does not start with [`MAGIC`].
    BadMagic,
    /// The version field is not the one version this decoder reads
    /// (`supported`).
    Version { found: u16, supported: u16 },
    /// The kind byte does not match what the caller asked to decode.
    Kind { found: u8, expected: u8 },
    /// The payload ended mid-field.
    Truncated,
    /// A structural invariant failed (bad section framing, overlong varint,
    /// invalid UTF-8, dangling string index, …).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a binprof payload (bad magic)"),
            DecodeError::Version { found, supported } => {
                write!(
                    f,
                    "unsupported binprof version {found} (supported: {supported})"
                )
            }
            DecodeError::Kind { found, expected } => {
                write!(
                    f,
                    "binprof kind mismatch: found {found}, expected {expected}"
                )
            }
            DecodeError::Truncated => write!(f, "binprof payload truncated"),
            DecodeError::Corrupt(what) => write!(f, "corrupt binprof payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

/// Appends `v` as a LEB128 unsigned varint.
fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// A cursor over a byte slice with varint/typed readers.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The sum of the counts read by [`Reader::count`] so far.
    counted: u64,
}

impl<'a> Reader<'a> {
    /// Wraps `bytes` starting at offset 0.
    fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            counted: 0,
        }
    }

    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Refuses bytes left over once a section's content has been read.
    fn finish(&self, what: &'static str) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::Corrupt(what))
        }
    }

    /// Reads one byte.
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a LEB128 unsigned varint.
    fn uvarint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::Corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::Corrupt("varint too long"));
            }
        }
    }

    /// Reads a count, refused once the counts read so far sum past
    /// [`MAX_COUNT_SUM`].
    fn count(&mut self) -> Result<u64, DecodeError> {
        let count = self.uvarint()?;
        self.counted = self.counted.saturating_add(count);
        if self.counted > MAX_COUNT_SUM {
            return Err(DecodeError::Corrupt("profile counts sum past 2^48"));
        }
        Ok(count)
    }

    /// Reads a varint key delta off `prev` that must fit a `u32`.
    fn u32_delta(&mut self, prev: u32, what: &'static str) -> Result<u32, DecodeError> {
        let delta = u32::try_from(self.uvarint()?).map_err(|_| DecodeError::Corrupt(what))?;
        Ok(prev.wrapping_add(delta))
    }

    /// Reads a varint and narrows it to usize, guarding against payloads
    /// that claim more elements than bytes remain (allocation bombs).
    fn len_prefixed(&mut self) -> Result<usize, DecodeError> {
        let n = self.uvarint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n as usize)
    }
}

// ---------------------------------------------------------------------------
// Header + section framing
// ---------------------------------------------------------------------------

/// Writes the fixed header for `kind` into a fresh buffer.
fn header(kind: Kind) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(kind as u8);
    buf
}

/// Validates the header of `bytes` and returns a reader positioned at the
/// first section.
fn check_header(bytes: &[u8], kind: Kind) -> Result<Reader<'_>, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let ver = u16::from_le_bytes(r.take(2)?.try_into().expect("two bytes"));
    if ver != VERSION {
        return Err(DecodeError::Version {
            found: ver,
            supported: VERSION,
        });
    }
    let k = r.byte()?;
    if k != kind as u8 {
        return Err(DecodeError::Kind {
            found: k,
            expected: kind as u8,
        });
    }
    Ok(r)
}

/// Appends one section: `tag`, varint payload length, payload bytes. The
/// explicit length is what lets decoders skip sections they don't need
/// without parsing them.
fn put_section(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    buf.push(tag);
    put_uvarint(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
}

/// Splits the remainder of `r` into `(tag, payload)` sections.
fn read_sections<'a>(r: &mut Reader<'a>) -> Result<Vec<(u8, &'a [u8])>, DecodeError> {
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let tag = r.byte()?;
        let len = r.len_prefixed()?;
        out.push((tag, r.take(len)?));
    }
    Ok(out)
}

/// Finds a section by tag.
fn find<'a>(sections: &[(u8, &'a [u8])], tag: u8) -> Option<&'a [u8]> {
    sections.iter().find(|(t, _)| *t == tag).map(|(_, p)| *p)
}

/// Finds a required section by tag.
fn require<'a>(sections: &[(u8, &'a [u8])], tag: u8) -> Result<&'a [u8], DecodeError> {
    find(sections, tag).ok_or(DecodeError::Corrupt("missing required section"))
}

// ---------------------------------------------------------------------------
// String table + name maps
// ---------------------------------------------------------------------------

/// Deduplicating string table builder. Interning the same string twice
/// returns the same index; the encoded table lists each string once.
#[derive(Default)]
struct StringTable {
    strings: Vec<String>,
    index: std::collections::HashMap<String, u32>,
}

impl StringTable {
    /// Interns `s`, returning its table index.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        i
    }

    /// Encodes the table: varint count, then per string varint length +
    /// UTF-8 bytes.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, self.strings.len() as u64);
        for s in &self.strings {
            put_uvarint(&mut buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        buf
    }

    /// Decodes a table encoded by [`StringTable::encode`].
    fn decode(payload: &[u8]) -> Result<Vec<String>, DecodeError> {
        let mut r = Reader::new(payload);
        let n = r.len_prefixed()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.len_prefixed()?;
            let s = std::str::from_utf8(r.take(len)?)
                .map_err(|_| DecodeError::Corrupt("string table entry is not UTF-8"))?;
            out.push(s.to_string());
        }
        r.finish("trailing bytes in string table")?;
        Ok(out)
    }
}

/// A profile's GUID → function-name map.
type Names = BTreeMap<u64, String>;

/// Encodes a GUID → name map against `table`: varint count, then per entry
/// a delta-encoded GUID (ascending `BTreeMap` order) + string index.
fn encode_names(names: &Names, table: &mut StringTable) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, names.len() as u64);
    let mut prev = 0u64;
    for (&guid, name) in names {
        put_uvarint(&mut buf, guid.wrapping_sub(prev));
        put_uvarint(&mut buf, u64::from(table.intern(name)));
        prev = guid;
    }
    buf
}

fn decode_names(payload: &[u8], strings: &[String]) -> Result<Names, DecodeError> {
    let mut r = Reader::new(payload);
    let n = r.len_prefixed()?;
    let mut out = BTreeMap::new();
    let mut prev = 0u64;
    for _ in 0..n {
        let guid = prev.wrapping_add(r.uvarint()?);
        let idx = r.uvarint()? as usize;
        let name = strings
            .get(idx)
            .ok_or(DecodeError::Corrupt("name references missing string"))?;
        out.insert(guid, name.clone());
        prev = guid;
    }
    r.finish("trailing bytes in name map")?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// The profile envelope: header, string table, names, one GUID-keyed body
// ---------------------------------------------------------------------------

/// A function-body codec: writes one `T`.
type Put<T> = fn(&mut Vec<u8>, &T);
/// A function-body codec: reads one `T` at a nesting depth.
type Get<T> = fn(&mut Reader<'_>, usize) -> Result<T, DecodeError>;

/// Writes one profile document: the header for `kind`, the string table,
/// the GUID → name map, and section `tag` holding `funcs` — a count, then per
/// function its GUID delta and its body by `put`.
fn encode_doc<T>(
    kind: Kind,
    tag: u8,
    names: &Names,
    funcs: &BTreeMap<u64, T>,
    put: Put<T>,
) -> Vec<u8> {
    let mut table = StringTable::default();
    let names = encode_names(names, &mut table);
    let mut body = Vec::new();
    put_uvarint(&mut body, funcs.len() as u64);
    let mut prev = 0u64;
    for (&guid, f) in funcs {
        put_uvarint(&mut body, guid.wrapping_sub(prev));
        put(&mut body, f);
        prev = guid;
    }
    let mut buf = header(kind);
    put_section(&mut buf, section::STRINGS, &table.encode());
    put_section(&mut buf, section::NAMES, &names);
    put_section(&mut buf, tag, &body);
    buf
}

/// Reads a document written by [`encode_doc`]: its functions and names.
fn decode_doc<T>(
    bytes: &[u8],
    kind: Kind,
    tag: u8,
    get: Get<T>,
) -> Result<(BTreeMap<u64, T>, Names), DecodeError> {
    let mut r = check_header(bytes, kind)?;
    let sections = read_sections(&mut r)?;
    let strings = StringTable::decode(require(&sections, section::STRINGS)?)?;
    let names = decode_names(require(&sections, section::NAMES)?, &strings)?;
    let mut r = Reader::new(require(&sections, tag)?);
    let n = r.len_prefixed()?;
    let mut funcs = BTreeMap::new();
    let mut prev = 0u64;
    for _ in 0..n {
        let guid = prev.wrapping_add(r.uvarint()?);
        funcs.insert(guid, get(&mut r, 0)?);
        prev = guid;
    }
    r.finish("trailing bytes in profile body")?;
    Ok((funcs, names))
}

// ---------------------------------------------------------------------------
// Shared body pieces: probe counts, `(probe, callee)` children
// ---------------------------------------------------------------------------

fn encode_u32_counts(buf: &mut Vec<u8>, counts: &BTreeMap<u32, u64>) {
    put_uvarint(buf, counts.len() as u64);
    let mut prev = 0u32;
    for (&k, &v) in counts {
        put_uvarint(buf, u64::from(k.wrapping_sub(prev)));
        put_uvarint(buf, v);
        prev = k;
    }
}

fn decode_u32_counts(r: &mut Reader<'_>) -> Result<BTreeMap<u32, u64>, DecodeError> {
    let n = r.len_prefixed()?;
    let mut out = BTreeMap::new();
    let mut prev = 0u32;
    for _ in 0..n {
        let k = r.u32_delta(prev, "probe index overflow")?;
        out.insert(k, r.count()?);
        prev = k;
    }
    Ok(out)
}

/// Writes call-site children keyed `(call probe, callee GUID)`: a count,
/// then per child its probe delta, its callee and its body by `put`.
fn encode_children<T>(buf: &mut Vec<u8>, children: &BTreeMap<(u32, u64), T>, put: Put<T>) {
    put_uvarint(buf, children.len() as u64);
    let mut prev = 0u32;
    for (&(probe, callee), child) in children {
        put_uvarint(buf, u64::from(probe.wrapping_sub(prev)));
        put_uvarint(buf, callee);
        put(buf, child);
        prev = probe;
    }
}

/// Reads children written by [`encode_children`], one level below `depth`.
fn decode_children<T>(
    r: &mut Reader<'_>,
    depth: usize,
    get: Get<T>,
) -> Result<BTreeMap<(u32, u64), T>, DecodeError> {
    let n = r.len_prefixed()?;
    let mut out = BTreeMap::new();
    let mut prev = 0u32;
    for _ in 0..n {
        let probe = r.u32_delta(prev, "callsite probe overflow")?;
        let callee = r.uvarint()?;
        out.insert((probe, callee), get(r, nested(depth)?)?);
        prev = probe;
    }
    Ok(out)
}

/// The depth of a sub-profile one level below `depth`, refused past
/// [`MAX_DEPTH`].
fn nested(depth: usize) -> Result<usize, DecodeError> {
    if depth >= MAX_DEPTH {
        return Err(DecodeError::Corrupt("profile nested too deep"));
    }
    Ok(depth + 1)
}

// ---------------------------------------------------------------------------
// Context profile
// ---------------------------------------------------------------------------

fn encode_context_node(buf: &mut Vec<u8>, node: &ContextNode) {
    buf.push(u8::from(node.inlined));
    put_uvarint(buf, node.checksum);
    put_uvarint(buf, node.entry);
    encode_u32_counts(buf, &node.probes);
    encode_children(buf, &node.children, encode_context_node);
}

fn decode_context_node(r: &mut Reader<'_>, depth: usize) -> Result<ContextNode, DecodeError> {
    let flags = r.byte()?;
    if flags > 1 {
        return Err(DecodeError::Corrupt("unknown context-node flags"));
    }
    Ok(ContextNode {
        inlined: flags == 1,
        checksum: r.uvarint()?,
        entry: r.count()?,
        probes: decode_u32_counts(r)?,
        children: decode_children(r, depth, decode_context_node)?,
    })
}

/// Serializes a [`ContextProfile`] to the binprof wire format.
pub fn encode_context(profile: &ContextProfile) -> Vec<u8> {
    encode_doc(
        Kind::Context,
        section::CONTEXT_ROOTS,
        &profile.names,
        &profile.roots,
        encode_context_node,
    )
}

/// Deserializes a [`ContextProfile`] from the binprof wire format.
pub fn decode_context(bytes: &[u8]) -> Result<ContextProfile, DecodeError> {
    let (roots, names) = decode_doc(
        bytes,
        Kind::Context,
        section::CONTEXT_ROOTS,
        decode_context_node,
    )?;
    Ok(ContextProfile { roots, names })
}

// ---------------------------------------------------------------------------
// Probe profile
// ---------------------------------------------------------------------------

fn encode_probe_func(buf: &mut Vec<u8>, f: &ProbeFuncProfile) {
    put_uvarint(buf, f.entry);
    put_uvarint(buf, f.checksum);
    encode_u32_counts(buf, &f.probes);
    encode_children(buf, &f.callsites, encode_probe_func);
}

fn decode_probe_func(r: &mut Reader<'_>, depth: usize) -> Result<ProbeFuncProfile, DecodeError> {
    Ok(ProbeFuncProfile {
        entry: r.count()?,
        checksum: r.uvarint()?,
        probes: decode_u32_counts(r)?,
        callsites: decode_children(r, depth, decode_probe_func)?,
    })
}

/// Serializes a [`ProbeProfile`] to the binprof wire format.
pub fn encode_probe(profile: &ProbeProfile) -> Vec<u8> {
    encode_doc(
        Kind::Probe,
        section::PROBE_FUNCS,
        &profile.names,
        &profile.funcs,
        encode_probe_func,
    )
}

/// Deserializes a [`ProbeProfile`] from the binprof wire format.
pub fn decode_probe(bytes: &[u8]) -> Result<ProbeProfile, DecodeError> {
    let (funcs, names) = decode_doc(bytes, Kind::Probe, section::PROBE_FUNCS, decode_probe_func)?;
    Ok(ProbeProfile { funcs, names })
}

// ---------------------------------------------------------------------------
// Flat (AutoFDO-style) profile
// ---------------------------------------------------------------------------

fn put_lockey(buf: &mut Vec<u8>, prev: &mut u32, key: LocKey) {
    put_uvarint(buf, u64::from(key.line_offset.wrapping_sub(*prev)));
    put_uvarint(buf, u64::from(key.discriminator));
    *prev = key.line_offset;
}

fn get_lockey(r: &mut Reader<'_>, prev: &mut u32) -> Result<LocKey, DecodeError> {
    let line_offset = r.u32_delta(*prev, "line offset overflow")?;
    let discriminator =
        u32::try_from(r.uvarint()?).map_err(|_| DecodeError::Corrupt("discriminator overflow"))?;
    *prev = line_offset;
    Ok(LocKey {
        line_offset,
        discriminator,
    })
}

fn encode_flat_func(buf: &mut Vec<u8>, f: &FlatFuncProfile) {
    put_uvarint(buf, f.entry);
    put_uvarint(buf, f.body.len() as u64);
    let mut prev = 0u32;
    for (&key, &count) in &f.body {
        put_lockey(buf, &mut prev, key);
        put_uvarint(buf, count);
    }
    put_uvarint(buf, f.callsites.len() as u64);
    let mut prev = 0u32;
    for (&(key, callee), child) in &f.callsites {
        put_lockey(buf, &mut prev, key);
        put_uvarint(buf, callee);
        encode_flat_func(buf, child);
    }
}

fn decode_flat_func(r: &mut Reader<'_>, depth: usize) -> Result<FlatFuncProfile, DecodeError> {
    let mut f = FlatFuncProfile {
        entry: r.count()?,
        ..FlatFuncProfile::default()
    };
    let n_body = r.len_prefixed()?;
    let mut prev = 0u32;
    for _ in 0..n_body {
        let key = get_lockey(r, &mut prev)?;
        f.body.insert(key, r.count()?);
    }
    let n_sites = r.len_prefixed()?;
    let mut prev = 0u32;
    for _ in 0..n_sites {
        let key = get_lockey(r, &mut prev)?;
        let callee = r.uvarint()?;
        f.callsites
            .insert((key, callee), decode_flat_func(r, nested(depth)?)?);
    }
    Ok(f)
}

/// Serializes a [`FlatProfile`] to the binprof wire format.
pub fn encode_flat(profile: &FlatProfile) -> Vec<u8> {
    encode_doc(
        Kind::Flat,
        section::FLAT_FUNCS,
        &profile.names,
        &profile.funcs,
        encode_flat_func,
    )
}

/// Deserializes a [`FlatProfile`] from the binprof wire format.
pub fn decode_flat(bytes: &[u8]) -> Result<FlatProfile, DecodeError> {
    let (funcs, names) = decode_doc(bytes, Kind::Flat, section::FLAT_FUNCS, decode_flat_func)?;
    Ok(FlatProfile { funcs, names })
}

// ---------------------------------------------------------------------------
// Stream snapshot
// ---------------------------------------------------------------------------

/// Writes sorted `(a, b, c)` rows: a count, then per row `a` (as a delta
/// off the previous row's when `delta`), `b` and `c`.
fn encode_rows(rows: &[(u64, u64, u64)], delta: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, rows.len() as u64);
    let mut prev = 0u64;
    for &(a, b, c) in rows {
        put_uvarint(&mut buf, if delta { a.wrapping_sub(prev) } else { a });
        put_uvarint(&mut buf, b);
        put_uvarint(&mut buf, c);
        prev = a;
    }
    buf
}

/// Reads rows written by [`encode_rows`]; an absent section is no rows.
fn decode_rows(payload: Option<&[u8]>, delta: bool) -> Result<Vec<(u64, u64, u64)>, DecodeError> {
    let Some(payload) = payload else {
        return Ok(Vec::new());
    };
    let mut r = Reader::new(payload);
    let n = r.len_prefixed()?;
    let mut rows = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        let a = r.uvarint()?;
        let a = if delta { prev.wrapping_add(a) } else { a };
        rows.push((a, r.uvarint()?, r.uvarint()?));
        prev = a;
    }
    r.finish("trailing bytes in snapshot rows")?;
    Ok(rows)
}

/// Serializes a stream snapshot: the meta section (fingerprint, epochs,
/// samples), the four row sections, and the context profile as a nested
/// payload. Ranges and branches are written even when empty; no tail-graph
/// edges and no weights write no section.
pub(crate) fn encode_snapshot(snap: &Snapshot<'_>) -> Vec<u8> {
    let mut buf = header(Kind::StreamSnapshot);
    let mut meta = Vec::new();
    for v in [snap.fingerprint, snap.epochs, snap.samples] {
        put_uvarint(&mut meta, v);
    }
    put_section(&mut buf, section::STREAM_META, &meta);
    for (tag, rows, delta, always) in [
        (section::STREAM_TAILGRAPH, &snap.tail_edges, false, false),
        (section::STREAM_RANGES, &snap.ranges, true, true),
        (section::STREAM_BRANCHES, &snap.branches, true, true),
        (section::STREAM_WEIGHTS, &snap.weights, true, false),
    ] {
        if always || !rows.is_empty() {
            put_section(&mut buf, tag, &encode_rows(rows, delta));
        }
    }
    let context = encode_context(&snap.context);
    put_section(&mut buf, section::STREAM_CONTEXT, &context);
    buf
}

/// Deserializes a stream snapshot written by [`encode_snapshot`]. Checks
/// the bytes only: what the values mean for a binary is
/// `StreamAggregator`'s one restore check.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot<'static>, DecodeError> {
    let mut r = check_header(bytes, Kind::StreamSnapshot)?;
    let sections = read_sections(&mut r)?;
    let rows = |tag, delta| decode_rows(find(&sections, tag), delta);
    let mut meta = Reader::new(require(&sections, section::STREAM_META)?);
    Ok(Snapshot {
        fingerprint: meta.uvarint()?,
        epochs: meta.uvarint()?,
        samples: meta.uvarint()?,
        tail_edges: rows(section::STREAM_TAILGRAPH, false)?,
        ranges: rows(section::STREAM_RANGES, true)?,
        branches: rows(section::STREAM_BRANCHES, true)?,
        weights: rows(section::STREAM_WEIGHTS, true)?,
        context: Cow::Owned(decode_context(require(
            &sections,
            section::STREAM_CONTEXT,
        )?)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FrameKey;

    fn sample_context() -> ContextProfile {
        let mut cp = ContextProfile::new();
        let fk = |guid, probe| FrameKey { guid, probe };
        cp.add_probe_hit(&[], 1, 1, 5);
        cp.add_probe_hit(&[fk(1, 3)], 9, 1, 100);
        cp.add_probe_hit(&[fk(1, 3), fk(9, 2)], 7, 4, 12);
        cp.add_entry(&[fk(1, 3)], 9, 17);
        cp.names.insert(1, "main".into());
        cp.names.insert(9, "helper".into());
        cp.names.insert(7, "leaf".into());
        cp.roots.get_mut(&1).unwrap().checksum = 0xdead_beef;
        cp.roots
            .get_mut(&1)
            .unwrap()
            .children
            .get_mut(&(3, 9))
            .unwrap()
            .inlined = true;
        cp
    }

    #[test]
    fn uvarint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.uvarint().unwrap(), v);
        }
        assert_eq!(r.finish("trailing"), Ok(()));
    }

    #[test]
    fn context_roundtrip_is_lossless() {
        let cp = sample_context();
        let bytes = encode_context(&cp);
        let back = decode_context(&bytes).unwrap();
        assert_eq!(back, cp);
        // Canonical: equal values → equal bytes.
        assert_eq!(encode_context(&back), bytes);
    }

    #[test]
    fn probe_roundtrip_is_lossless() {
        let pp = sample_context().to_probe_profile();
        let bytes = encode_probe(&pp);
        let back = decode_probe(&bytes).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&pp).unwrap()
        );
        assert_eq!(encode_probe(&back), bytes);
    }

    #[test]
    fn flat_roundtrip_is_lossless() {
        let mut fp = FlatProfile::default();
        let f = fp.funcs.entry(42).or_default();
        f.record_max(
            LocKey {
                line_offset: 2,
                discriminator: 0,
            },
            9,
        );
        f.record_max(
            LocKey {
                line_offset: 2,
                discriminator: 3,
            },
            4,
        );
        let child = f.callsite_mut(
            LocKey {
                line_offset: 5,
                discriminator: 0,
            },
            77,
        );
        child.record_max(
            LocKey {
                line_offset: 0,
                discriminator: 0,
            },
            3,
        );
        f.entry = 2;
        fp.names.insert(42, "f".into());
        fp.names.insert(77, "g".into());
        let bytes = encode_flat(&fp);
        let back = decode_flat(&bytes).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&fp).unwrap()
        );
    }

    #[test]
    fn rejects_bad_magic_version_and_kind() {
        let cp = sample_context();
        let bytes = encode_context(&cp);

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_context(&bad), Err(DecodeError::BadMagic));

        let mut bad = bytes.clone();
        bad[8] = 0xff; // version low byte
        assert!(matches!(
            decode_context(&bad),
            Err(DecodeError::Version { .. })
        ));

        assert!(matches!(
            decode_probe(&bytes),
            Err(DecodeError::Kind { .. })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode_context(&sample_context());
        for cut in [0, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_context(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// One nesting bound for the three profile decoders: a sub-profile
    /// [`MAX_DEPTH`] call sites deep decodes, one level deeper is refused.
    #[test]
    fn each_profile_decoder_accepts_max_depth_and_refuses_one_more() {
        let deep = DecodeError::Corrupt("profile nested too deep");
        let key = LocKey {
            line_offset: 3,
            discriminator: 0,
        };
        for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
            let mut flat = FlatFuncProfile::default();
            let mut probe = ProbeFuncProfile::default();
            for _ in 0..depth {
                let mut parent = FlatFuncProfile::default();
                parent.callsites.insert((key, 7), flat);
                flat = parent;
                let mut parent = ProbeFuncProfile::default();
                parent.callsites.insert((4, 7), probe);
                probe = parent;
            }
            let flat = FlatProfile {
                funcs: [(1, flat)].into(),
                ..FlatProfile::default()
            };
            let probe = ProbeProfile {
                funcs: [(1, probe)].into(),
                ..ProbeProfile::default()
            };
            let path = vec![crate::context::FrameKey { guid: 1, probe: 4 }; depth];
            let mut context = ContextProfile::new();
            context.add_probe_hit(&path, 7, 1, 1);

            let (flat_back, probe_back, context_back) = (
                decode_flat(&encode_flat(&flat)),
                decode_probe(&encode_probe(&probe)),
                decode_context(&encode_context(&context)),
            );
            if depth == MAX_DEPTH {
                assert_eq!(flat_back, Ok(flat));
                assert_eq!(probe_back, Ok(probe));
                assert_eq!(context_back, Ok(context));
            } else {
                assert_eq!(flat_back.unwrap_err(), deep);
                assert_eq!(probe_back.unwrap_err(), deep);
                assert_eq!(context_back.unwrap_err(), deep);
            }
        }
    }

    /// One count bound for the three profile decoders: counts summing to
    /// [`MAX_COUNT_SUM`] decode, one more is refused, and so are two counts
    /// whose sum wraps a `u64`. Entries count, and so do nested call sites.
    #[test]
    fn each_profile_decoder_accepts_the_count_bound_and_refuses_one_more() {
        let past = DecodeError::Corrupt("profile counts sum past 2^48");
        let key = |line_offset| LocKey {
            line_offset,
            discriminator: 0,
        };
        for (entry, nested, ok) in [
            (1, MAX_COUNT_SUM - 3, true),
            (2, MAX_COUNT_SUM - 3, false),
            (1, 1 << 63, false),
        ] {
            let mut flat = FlatProfile::default();
            let f = flat.funcs.entry(1).or_default();
            f.entry = entry;
            f.body.insert(key(1), 1);
            f.callsite_mut(key(2), 7).body.insert(key(0), nested);
            f.body.insert(key(3), 1);

            let mut probe = ProbeProfile::default();
            let p = probe.funcs.entry(1).or_default();
            p.entry = entry;
            p.record_sum(1, 1);
            p.callsite_mut(2, 7).record_sum(1, nested);
            p.record_sum(3, 1);

            let mut context = ContextProfile::new();
            let site = crate::context::FrameKey { guid: 1, probe: 2 };
            context.add_entry(&[], 1, entry);
            context.add_probe_hit(&[], 1, 1, 1);
            context.add_probe_hit(&[site], 7, 1, nested);
            context.add_probe_hit(&[], 1, 3, 1);

            let (flat_back, probe_back, context_back) = (
                decode_flat(&encode_flat(&flat)),
                decode_probe(&encode_probe(&probe)),
                decode_context(&encode_context(&context)),
            );
            if ok {
                assert_eq!(flat_back, Ok(flat));
                assert_eq!(probe_back, Ok(probe));
                assert_eq!(context_back, Ok(context));
            } else {
                assert_eq!(flat_back.unwrap_err(), past);
                assert_eq!(probe_back.unwrap_err(), past);
                assert_eq!(context_back.unwrap_err(), past);
            }
        }
    }

    #[test]
    fn string_table_deduplicates() {
        let mut t = StringTable::default();
        let a = t.intern("same");
        let b = t.intern("same");
        let c = t.intern("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            StringTable::decode(&t.encode()).unwrap(),
            vec!["same", "other"]
        );
    }

    /// A snapshot with every section present, rows delta-encoded or not.
    fn sample_snapshot() -> Snapshot<'static> {
        Snapshot {
            fingerprint: 0xfeed_f00d,
            epochs: 3,
            samples: 1234,
            tail_edges: vec![(0, 2, 17), (1, 0, 5)],
            ranges: vec![(4, 9, 100), (4, 12, 3), (30, 31, 8)],
            branches: vec![(9, 4, 100), (31, 30, 8)],
            weights: vec![(7, 1, 50), (7, 4, 2), (9, 0, 11)],
            context: Cow::Owned(sample_context()),
        }
    }

    /// `snapshot` re-framed with section `tag` replaced by `payload` (`None`:
    /// dropped).
    fn with_section(snapshot: &[u8], tag: u8, payload: Option<&[u8]>) -> Vec<u8> {
        let mut r = check_header(snapshot, Kind::StreamSnapshot).unwrap();
        let mut out = header(Kind::StreamSnapshot);
        for (t, p) in read_sections(&mut r).unwrap() {
            if t != tag {
                put_section(&mut out, t, p);
            }
        }
        if let Some(p) = payload {
            put_section(&mut out, tag, p);
        }
        out
    }

    #[test]
    fn snapshot_roundtrip_is_lossless_and_canonical() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(encode_snapshot(&back), bytes);

        // No edges and no weights: both sections are left out, and read
        // back as no rows.
        let bare = Snapshot {
            tail_edges: Vec::new(),
            weights: Vec::new(),
            ..sample_snapshot()
        };
        let bytes = encode_snapshot(&bare);
        assert_eq!(
            with_section(&bytes, section::STREAM_TAILGRAPH, None),
            bytes,
            "no tail-graph section"
        );
        assert_eq!(decode_snapshot(&bytes).unwrap(), bare);
    }

    /// Binary-only hostile snapshots: a missing required section, truncation
    /// anywhere, a row count past the payload, trailing bytes. Each is a
    /// typed error, never a panic or an allocation of the claimed size.
    #[test]
    fn snapshot_framing_faults_are_typed_errors() {
        let bytes = encode_snapshot(&sample_snapshot());
        for tag in [section::STREAM_META, section::STREAM_CONTEXT] {
            assert_eq!(
                decode_snapshot(&with_section(&bytes, tag, None)),
                Err(DecodeError::Corrupt("missing required section")),
                "section {tag}"
            );
        }
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bomb = Vec::new();
        put_uvarint(&mut bomb, u64::MAX);
        let mut trailing = encode_rows(&[(1, 2, 3)], true);
        trailing.push(0);
        for (tag, payload, err) in [
            (
                section::STREAM_RANGES,
                &bomb,
                "length prefix exceeds payload",
            ),
            (
                section::STREAM_WEIGHTS,
                &bomb,
                "length prefix exceeds payload",
            ),
            (
                section::STREAM_BRANCHES,
                &trailing,
                "trailing bytes in snapshot rows",
            ),
        ] {
            assert_eq!(
                decode_snapshot(&with_section(&bytes, tag, Some(payload))),
                Err(DecodeError::Corrupt(err)),
                "section {tag}"
            );
        }
        assert!(matches!(
            decode_snapshot(&encode_context(&sample_context())),
            Err(DecodeError::Kind { .. })
        ));
    }
}
