//! `binprof` — the compact binary profile serialization (DESIGN.md §10).
//!
//! Textprof ([`crate::textprof`]) remains the human-readable debug format;
//! this module is the *production* wire format, shaped after LLVM's
//! ExtBinary sample-profile container: a fixed header (magic + version +
//! payload kind), then a sequence of independently-skippable sections, each
//! framed as `tag byte + varint byte length + payload`. All integers are
//! LEB128 varints; sorted key sequences (probe indices, GUID tables,
//! location keys) are delta-encoded so hot functions with dense probe maps
//! cost ~1 byte per entry; function names are deduplicated through a string
//! table and referenced by index.
//!
//! Encoding is **canonical**: every map in the profile data model is a
//! `BTreeMap`, so iteration order — and therefore the byte stream — is a
//! pure function of the profile value. Equal profiles encode to equal
//! bytes, which the snapshot tests rely on.

use crate::context::{ContextNode, ContextProfile};
use crate::profile::{FlatFuncProfile, FlatProfile, LocKey, ProbeFuncProfile, ProbeProfile};
use std::collections::BTreeMap;
use std::fmt;

/// File magic: first 8 bytes of every binprof payload.
pub const MAGIC: [u8; 8] = *b"CSPGOBIN";
/// Current format version. Decoders reject anything else.
const VERSION: u16 = 1;

/// Payload kind, byte 10 of the header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// A [`ContextProfile`] (the context trie).
    Context = 1,
    /// A [`ProbeProfile`].
    Probe = 2,
    /// A [`FlatProfile`] (AutoFDO-style).
    Flat = 3,
    /// A [`crate::stream::StreamAggregator`] snapshot.
    StreamSnapshot = 4,
}

/// Section tags. Unknown tags are skipped by length, so future versions can
/// append sections without breaking old readers of the same version line.
pub mod section {
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
    pub const STREAM_META: u8 = 6;
    /// Stream-snapshot tail-call graph edges.
    pub const STREAM_TAILGRAPH: u8 = 7;
    /// Stream-snapshot LBR range counts.
    pub const STREAM_RANGES: u8 = 8;
    /// Stream-snapshot branch counts.
    pub const STREAM_BRANCHES: u8 = 9;
    /// Stream-snapshot previous-epoch probe weights.
    pub const STREAM_WEIGHTS: u8 = 10;
    /// Stream-snapshot embedded context profile (a nested binprof payload).
    pub const STREAM_CONTEXT: u8 = 11;
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
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
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
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `bytes` starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True once every byte has been consumed.
    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Reads one byte.
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a LEB128 unsigned varint.
    pub fn uvarint(&mut self) -> Result<u64, DecodeError> {
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
pub fn header(kind: Kind) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(kind as u8);
    buf
}

/// Validates the header of `bytes` and returns a reader positioned at the
/// first section.
pub fn check_header(bytes: &[u8], kind: Kind) -> Result<Reader<'_>, DecodeError> {
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
pub fn put_section(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    buf.push(tag);
    put_uvarint(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
}

/// Splits the remainder of `r` into `(tag, payload)` sections.
pub fn read_sections<'a>(r: &mut Reader<'a>) -> Result<Vec<(u8, &'a [u8])>, DecodeError> {
    let mut out = Vec::new();
    while !r.at_end() {
        let tag = r.byte()?;
        let len = r.len_prefixed()?;
        out.push((tag, r.take(len)?));
    }
    Ok(out)
}

/// Finds a required section by tag.
fn require<'a>(sections: &[(u8, &'a [u8])], tag: u8) -> Result<&'a [u8], DecodeError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
        .ok_or(DecodeError::Corrupt("missing required section"))
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
        if !r.at_end() {
            return Err(DecodeError::Corrupt("trailing bytes in string table"));
        }
        Ok(out)
    }
}

/// Encodes a GUID → name map against `table`: varint count, then per entry
/// a delta-encoded GUID (ascending `BTreeMap` order) + string index.
fn encode_names(names: &BTreeMap<u64, String>, table: &mut StringTable) -> Vec<u8> {
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

fn decode_names(payload: &[u8], strings: &[String]) -> Result<BTreeMap<u64, String>, DecodeError> {
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
    if !r.at_end() {
        return Err(DecodeError::Corrupt("trailing bytes in name map"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Count maps (sorted u32 → u64, delta-encoded keys)
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
        let delta = r.uvarint()?;
        let k = prev.wrapping_add(
            u32::try_from(delta).map_err(|_| DecodeError::Corrupt("probe index overflow"))?,
        );
        out.insert(k, r.uvarint()?);
        prev = k;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Context profile
// ---------------------------------------------------------------------------

fn encode_context_node(buf: &mut Vec<u8>, node: &ContextNode) {
    buf.push(u8::from(node.inlined));
    put_uvarint(buf, node.guid);
    put_uvarint(buf, node.checksum);
    put_uvarint(buf, node.entry);
    encode_u32_counts(buf, &node.probes);
    put_uvarint(buf, node.children.len() as u64);
    let mut prev_probe = 0u32;
    for (&(probe, callee), child) in &node.children {
        put_uvarint(buf, u64::from(probe.wrapping_sub(prev_probe)));
        put_uvarint(buf, callee);
        encode_context_node(buf, child);
        prev_probe = probe;
    }
}

fn decode_context_node(r: &mut Reader<'_>, depth: usize) -> Result<ContextNode, DecodeError> {
    if depth > 512 {
        return Err(DecodeError::Corrupt("context trie too deep"));
    }
    let flags = r.byte()?;
    if flags > 1 {
        return Err(DecodeError::Corrupt("unknown context-node flags"));
    }
    let mut node = ContextNode {
        inlined: flags == 1,
        guid: r.uvarint()?,
        checksum: r.uvarint()?,
        entry: r.uvarint()?,
        ..ContextNode::default()
    };
    node.probes = decode_u32_counts(r)?;
    let n_children = r.len_prefixed()?;
    let mut prev_probe = 0u32;
    for _ in 0..n_children {
        let delta = r.uvarint()?;
        let probe = prev_probe.wrapping_add(
            u32::try_from(delta).map_err(|_| DecodeError::Corrupt("callsite probe overflow"))?,
        );
        let callee = r.uvarint()?;
        let child = decode_context_node(r, depth + 1)?;
        node.children.insert((probe, callee), child);
        prev_probe = probe;
    }
    Ok(node)
}

/// Serializes a [`ContextProfile`] to the binprof wire format.
pub fn encode_context(profile: &ContextProfile) -> Vec<u8> {
    let mut table = StringTable::default();
    let names = encode_names(&profile.names, &mut table);

    let mut roots = Vec::new();
    put_uvarint(&mut roots, profile.roots.len() as u64);
    let mut prev = 0u64;
    for (&guid, node) in &profile.roots {
        put_uvarint(&mut roots, guid.wrapping_sub(prev));
        encode_context_node(&mut roots, node);
        prev = guid;
    }

    let mut buf = header(Kind::Context);
    put_section(&mut buf, section::STRINGS, &table.encode());
    put_section(&mut buf, section::NAMES, &names);
    put_section(&mut buf, section::CONTEXT_ROOTS, &roots);
    buf
}

/// Deserializes a [`ContextProfile`] from the binprof wire format.
pub fn decode_context(bytes: &[u8]) -> Result<ContextProfile, DecodeError> {
    let mut r = check_header(bytes, Kind::Context)?;
    let sections = read_sections(&mut r)?;
    let strings = StringTable::decode(require(&sections, section::STRINGS)?)?;
    let names = decode_names(require(&sections, section::NAMES)?, &strings)?;

    let mut rr = Reader::new(require(&sections, section::CONTEXT_ROOTS)?);
    let n = rr.len_prefixed()?;
    let mut roots = BTreeMap::new();
    let mut prev = 0u64;
    for _ in 0..n {
        let guid = prev.wrapping_add(rr.uvarint()?);
        roots.insert(guid, decode_context_node(&mut rr, 0)?);
        prev = guid;
    }
    if !rr.at_end() {
        return Err(DecodeError::Corrupt("trailing bytes in context roots"));
    }
    Ok(ContextProfile { roots, names })
}

// ---------------------------------------------------------------------------
// Probe profile
// ---------------------------------------------------------------------------

fn encode_probe_func(buf: &mut Vec<u8>, f: &ProbeFuncProfile) {
    put_uvarint(buf, f.total);
    put_uvarint(buf, f.entry);
    put_uvarint(buf, f.checksum);
    encode_u32_counts(buf, &f.probes);
    put_uvarint(buf, f.callsites.len() as u64);
    let mut prev_probe = 0u32;
    for (&(probe, callee), child) in &f.callsites {
        put_uvarint(buf, u64::from(probe.wrapping_sub(prev_probe)));
        put_uvarint(buf, callee);
        encode_probe_func(buf, child);
        prev_probe = probe;
    }
}

fn decode_probe_func(r: &mut Reader<'_>, depth: usize) -> Result<ProbeFuncProfile, DecodeError> {
    if depth > 512 {
        return Err(DecodeError::Corrupt("probe profile too deep"));
    }
    let mut f = ProbeFuncProfile {
        total: r.uvarint()?,
        entry: r.uvarint()?,
        checksum: r.uvarint()?,
        ..ProbeFuncProfile::default()
    };
    f.probes = decode_u32_counts(r)?;
    let n = r.len_prefixed()?;
    let mut prev_probe = 0u32;
    for _ in 0..n {
        let delta = r.uvarint()?;
        let probe = prev_probe.wrapping_add(
            u32::try_from(delta).map_err(|_| DecodeError::Corrupt("callsite probe overflow"))?,
        );
        let callee = r.uvarint()?;
        f.callsites
            .insert((probe, callee), decode_probe_func(r, depth + 1)?);
        prev_probe = probe;
    }
    Ok(f)
}

/// Serializes a [`ProbeProfile`] to the binprof wire format.
pub fn encode_probe(profile: &ProbeProfile) -> Vec<u8> {
    let mut table = StringTable::default();
    let names = encode_names(&profile.names, &mut table);

    let mut funcs = Vec::new();
    put_uvarint(&mut funcs, profile.funcs.len() as u64);
    let mut prev = 0u64;
    for (&guid, f) in &profile.funcs {
        put_uvarint(&mut funcs, guid.wrapping_sub(prev));
        encode_probe_func(&mut funcs, f);
        prev = guid;
    }

    let mut buf = header(Kind::Probe);
    put_section(&mut buf, section::STRINGS, &table.encode());
    put_section(&mut buf, section::NAMES, &names);
    put_section(&mut buf, section::PROBE_FUNCS, &funcs);
    buf
}

/// Deserializes a [`ProbeProfile`] from the binprof wire format.
pub fn decode_probe(bytes: &[u8]) -> Result<ProbeProfile, DecodeError> {
    let mut r = check_header(bytes, Kind::Probe)?;
    let sections = read_sections(&mut r)?;
    let strings = StringTable::decode(require(&sections, section::STRINGS)?)?;
    let names = decode_names(require(&sections, section::NAMES)?, &strings)?;

    let mut rr = Reader::new(require(&sections, section::PROBE_FUNCS)?);
    let n = rr.len_prefixed()?;
    let mut funcs = BTreeMap::new();
    let mut prev = 0u64;
    for _ in 0..n {
        let guid = prev.wrapping_add(rr.uvarint()?);
        funcs.insert(guid, decode_probe_func(&mut rr, 0)?);
        prev = guid;
    }
    if !rr.at_end() {
        return Err(DecodeError::Corrupt("trailing bytes in probe funcs"));
    }
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
    let delta = r.uvarint()?;
    let line_offset = prev.wrapping_add(
        u32::try_from(delta).map_err(|_| DecodeError::Corrupt("line offset overflow"))?,
    );
    let discriminator =
        u32::try_from(r.uvarint()?).map_err(|_| DecodeError::Corrupt("discriminator overflow"))?;
    *prev = line_offset;
    Ok(LocKey {
        line_offset,
        discriminator,
    })
}

fn encode_flat_func(buf: &mut Vec<u8>, f: &FlatFuncProfile) {
    put_uvarint(buf, f.total);
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
    if depth > 512 {
        return Err(DecodeError::Corrupt("flat profile too deep"));
    }
    let mut f = FlatFuncProfile {
        total: r.uvarint()?,
        entry: r.uvarint()?,
        ..FlatFuncProfile::default()
    };
    let n_body = r.len_prefixed()?;
    let mut prev = 0u32;
    for _ in 0..n_body {
        let key = get_lockey(r, &mut prev)?;
        f.body.insert(key, r.uvarint()?);
    }
    let n_sites = r.len_prefixed()?;
    let mut prev = 0u32;
    for _ in 0..n_sites {
        let key = get_lockey(r, &mut prev)?;
        let callee = r.uvarint()?;
        f.callsites
            .insert((key, callee), decode_flat_func(r, depth + 1)?);
    }
    Ok(f)
}

/// Serializes a [`FlatProfile`] to the binprof wire format.
pub fn encode_flat(profile: &FlatProfile) -> Vec<u8> {
    let mut table = StringTable::default();
    let names = encode_names(&profile.names, &mut table);

    let mut funcs = Vec::new();
    put_uvarint(&mut funcs, profile.funcs.len() as u64);
    let mut prev = 0u64;
    for (&guid, f) in &profile.funcs {
        put_uvarint(&mut funcs, guid.wrapping_sub(prev));
        encode_flat_func(&mut funcs, f);
        prev = guid;
    }

    let mut buf = header(Kind::Flat);
    put_section(&mut buf, section::STRINGS, &table.encode());
    put_section(&mut buf, section::NAMES, &names);
    put_section(&mut buf, section::FLAT_FUNCS, &funcs);
    buf
}

/// Deserializes a [`FlatProfile`] from the binprof wire format.
pub fn decode_flat(bytes: &[u8]) -> Result<FlatProfile, DecodeError> {
    let mut r = check_header(bytes, Kind::Flat)?;
    let sections = read_sections(&mut r)?;
    let strings = StringTable::decode(require(&sections, section::STRINGS)?)?;
    let names = decode_names(require(&sections, section::NAMES)?, &strings)?;

    let mut rr = Reader::new(require(&sections, section::FLAT_FUNCS)?);
    let n = rr.len_prefixed()?;
    let mut funcs = BTreeMap::new();
    let mut prev = 0u64;
    for _ in 0..n {
        let guid = prev.wrapping_add(rr.uvarint()?);
        funcs.insert(guid, decode_flat_func(&mut rr, 0)?);
        prev = guid;
    }
    if !rr.at_end() {
        return Err(DecodeError::Corrupt("trailing bytes in flat funcs"));
    }
    Ok(FlatProfile { funcs, names })
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
        assert!(r.at_end());
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
        f.recompute_totals();
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
}
