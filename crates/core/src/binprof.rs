//! `binprof` — the compact binary profile serialization (DESIGN.md §9.1),
//! and the only module that knows its bytes.
//!
//! It is the one profile format the tools read; [`crate::textprof`] is the
//! human-readable view they print. The wire format is shaped after LLVM's
//! ExtBinary sample-profile container: a fixed header (magic + version +
//! payload kind), then a sequence of independently-skippable sections, each
//! framed as `tag byte + varint byte length + payload`. All integers are
//! LEB128 varints; sorted key sequences (probe indices, location keys) are
//! delta-encoded so hot functions with dense probe maps cost ~1 byte per
//! entry. As ExtBinary writes each function name once, in its name table,
//! and refers to it by index, binprof writes each function name once in a
//! string table and each function GUID once in a GUID table, beside that
//! function's default checksum: everything else names a function by table
//! index, and a node stores a checksum only where it differs from the
//! default.
//!
//! Every document is one envelope — header, string table, GUID table,
//! names, one body — and every node of every body is written by one node
//! codec. The three profiles (context, probe, flat) are that envelope; a
//! stream snapshot (`stream::Snapshot`) is its context profile's envelope
//! plus a meta section and four row sections. The framing itself is
//! private: callers see values and [`DecodeError`]s, never sections.
//!
//! Encoding is **canonical**: every map in the profile data model is a
//! `BTreeMap`, so iteration order — and therefore the byte stream — is a
//! pure function of the profile value. Equal profiles encode to equal
//! bytes, which the snapshot tests rely on. Decoding refuses a key that is
//! not strictly greater than the one before it, so no payload the encoder
//! could not have written decodes.

use crate::context::ContextProfile;
use crate::profile::{FlatProfile, FuncProfile, LocKey, ProbeProfile, Profile};
use crate::stream::Snapshot;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::iter;

/// File magic: first 8 bytes of every binprof payload.
pub const MAGIC: [u8; 8] = *b"CSPGOBIN";
/// Current format version. Decoders reject anything else. Version 2 left
/// out what version 1 stored twice: a context node's GUID (its key names
/// it) and a sub-profile's total (the sum of its counts). Version 3 writes
/// each GUID and each function's checksum once per document, in its GUID
/// table, where version 2 wrote a GUID at every key and a checksum at every
/// node. Version 4 writes every node with one codec and every document,
/// the stream snapshot included, as one envelope.
const VERSION: u16 = 4;
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
    /// GUID-table-index → string-table-index name map.
    pub(super) const NAMES: u8 = 2;
    /// The body: every function's node, in every document kind (the kind
    /// byte says which document it is).
    pub(super) const BODY: u8 = 3;
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
    /// GUID table: every GUID a document names, with its default checksum.
    pub(super) const GUIDS: u8 = 12;
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
                let name = |k: u8| match k {
                    1 => Cow::from("a context profile"),
                    2 => "a probe profile".into(),
                    3 => "a flat profile".into(),
                    4 => "a stream snapshot".into(),
                    k => format!("unknown kind {k}").into(),
                };
                write!(
                    f,
                    "binprof kind mismatch: found {}, expected {}",
                    name(*found),
                    name(*expected)
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
        self.tally(count)
    }

    /// Adds a count read some other way to the sum [`Reader::count`] holds
    /// to [`MAX_COUNT_SUM`].
    fn tally(&mut self, count: u64) -> Result<u64, DecodeError> {
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
// String table
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

// ---------------------------------------------------------------------------
// GUID table + name maps
// ---------------------------------------------------------------------------

/// A document's GUID table: every GUID it names — root keys, callee keys,
/// names keys and a snapshot's weight GUIDs — once, ascending, each beside
/// its function's default checksum. Everything else names a function by its
/// index here.
struct GuidTable {
    /// `(GUID, default checksum)` pairs, strictly ascending by GUID.
    entries: Vec<(u64, u64)>,
}

impl GuidTable {
    /// The table of a document with bodies `funcs` that also names the
    /// GUIDs in `named`. A function's default checksum is that of its first
    /// node in canonical (`BTreeMap`) pre-order, 0 for a function only
    /// `named` names.
    fn of<K>(funcs: &BTreeMap<u64, FuncProfile<K>>, named: impl Iterator<Item = u64>) -> Self {
        fn walk<K>(guid: u64, node: &FuncProfile<K>, table: &mut BTreeMap<u64, u64>) {
            table.entry(guid).or_insert(node.checksum);
            for (&(_, callee), child) in &node.callsites {
                walk(callee, child, table);
            }
        }
        let mut table = BTreeMap::new();
        for (&guid, f) in funcs {
            walk(guid, f, &mut table);
        }
        for guid in named {
            table.entry(guid).or_insert(0);
        }
        GuidTable {
            entries: table.into_iter().collect(),
        }
    }

    /// The index of `guid`, which the document names, and its function's
    /// default checksum.
    fn find(&self, guid: u64) -> (u64, u64) {
        let i = (self.entries)
            .binary_search_by_key(&guid, |&(g, _)| g)
            .expect("the GUID table lists every GUID its document names");
        (i as u64, self.entries[i].1)
    }

    /// The GUID at index `i` and its function's default checksum.
    fn get(&self, i: u64) -> Result<(u64, u64), DecodeError> {
        (usize::try_from(i).ok())
            .and_then(|i| self.entries.get(i).copied())
            .ok_or(DecodeError::Corrupt("GUID index past the table"))
    }

    /// Reads a GUID index and resolves it through [`GuidTable::get`].
    fn read(&self, r: &mut Reader<'_>) -> Result<(u64, u64), DecodeError> {
        self.get(r.uvarint()?)
    }

    /// Encodes the table: varint count, then per entry its Δ GUID and, when
    /// the document stores checksums, its default checksum. The one place a
    /// GUID is written.
    fn encode(&self, checksums: bool) -> Vec<u8> {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, self.entries.len() as u64);
        let mut prev = 0u64;
        for &(guid, checksum) in &self.entries {
            put_uvarint(&mut buf, guid.wrapping_sub(prev));
            if checksums {
                put_uvarint(&mut buf, checksum);
            }
            prev = guid;
        }
        buf
    }

    /// Decodes a table encoded by [`GuidTable::encode`], refusing one that
    /// is not strictly ascending.
    fn decode(payload: &[u8], checksums: bool) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let n = r.len_prefixed()?;
        let mut entries: Vec<(u64, u64)> = Vec::with_capacity(n);
        for _ in 0..n {
            let delta = r.uvarint()?;
            let guid = match entries.last() {
                None => Some(delta),
                Some(&(prev, _)) => prev.checked_add(delta).filter(|_| delta > 0),
            }
            .ok_or(DecodeError::Corrupt("GUID table not strictly ascending"))?;
            let checksum = if checksums { r.uvarint()? } else { 0 };
            entries.push((guid, checksum));
        }
        r.finish("trailing bytes in GUID table")?;
        Ok(GuidTable { entries })
    }
}

/// Inserts a decoded `key` into `map`, refusing one not strictly greater
/// than every key before it as `what`: each map is written in ascending
/// order, so a repeated key would silently replace the entry before it.
fn insert_ascending<K: Ord, V>(
    map: &mut BTreeMap<K, V>,
    key: K,
    value: V,
    what: &'static str,
) -> Result<(), DecodeError> {
    if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
        return Err(DecodeError::Corrupt(what));
    }
    map.insert(key, value);
    Ok(())
}

/// A profile's GUID → function-name map.
type Names = BTreeMap<u64, String>;

/// Encodes a GUID → name map: varint count, then per entry a GUID-table
/// index + string index.
fn encode_names(names: &Names, guids: &GuidTable, strings: &mut StringTable) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, names.len() as u64);
    for (&guid, name) in names {
        put_uvarint(&mut buf, guids.find(guid).0);
        put_uvarint(&mut buf, u64::from(strings.intern(name)));
    }
    buf
}

fn decode_names(
    payload: &[u8],
    guids: &GuidTable,
    strings: &[String],
) -> Result<Names, DecodeError> {
    let mut r = Reader::new(payload);
    let n = r.len_prefixed()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let (guid, _) = guids.read(&mut r)?;
        let idx = r.uvarint()? as usize;
        let name = strings
            .get(idx)
            .ok_or(DecodeError::Corrupt("name references missing string"))?;
        insert_ascending(&mut out, guid, name.clone(), "names not strictly ascending")?;
    }
    r.finish("trailing bytes in name map")?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// The envelope: header, string table, GUID table, names, one body
// ---------------------------------------------------------------------------

/// Writes the envelope every document is: the header for `kind`, the
/// string table, the GUID table of `funcs`, `names` and the GUIDs in
/// `named`, the names, and the body holding `funcs` — a count, then per
/// function its Δ GUID-table index and its node. Returns the table too, for
/// a snapshot to name its weights' GUIDs by index in the sections it
/// appends.
fn encode_doc<K: Anchor>(
    kind: Kind,
    names: &Names,
    funcs: &BTreeMap<u64, FuncProfile<K>>,
    named: impl Iterator<Item = u64>,
) -> (Vec<u8>, GuidTable) {
    let guids = GuidTable::of(funcs, names.keys().copied().chain(named));
    let mut strings = StringTable::default();
    let names = encode_names(names, &guids, &mut strings);
    let mut body = Vec::new();
    put_uvarint(&mut body, funcs.len() as u64);
    let mut prev = 0u64;
    for (&guid, f) in funcs {
        let (i, checksum) = guids.find(guid);
        put_uvarint(&mut body, i - prev);
        encode_func(&mut body, &guids, checksum, f);
        prev = i;
    }
    let mut buf = header(kind);
    put_section(&mut buf, section::STRINGS, &strings.encode());
    put_section(&mut buf, section::GUIDS, &guids.encode(K::PROBED));
    put_section(&mut buf, section::NAMES, &names);
    put_section(&mut buf, section::BODY, &body);
    (buf, guids)
}

/// A document read by [`decode_doc`]: its functions and names, and the GUID
/// table and sections a snapshot reads the rest through.
struct Doc<'a, K> {
    funcs: BTreeMap<u64, FuncProfile<K>>,
    names: Names,
    guids: GuidTable,
    sections: Vec<(u8, &'a [u8])>,
}

/// Reads the envelope written by [`encode_doc`].
fn decode_doc<K: Anchor>(bytes: &[u8], kind: Kind) -> Result<Doc<'_, K>, DecodeError> {
    let mut r = check_header(bytes, kind)?;
    let sections = read_sections(&mut r)?;
    let strings = StringTable::decode(require(&sections, section::STRINGS)?)?;
    let guids = GuidTable::decode(require(&sections, section::GUIDS)?, K::PROBED)?;
    let names = decode_names(require(&sections, section::NAMES)?, &guids, &strings)?;
    let mut r = Reader::new(require(&sections, section::BODY)?);
    let n = r.len_prefixed()?;
    let mut funcs = BTreeMap::new();
    let mut prev = 0u64;
    for _ in 0..n {
        let i = prev
            .checked_add(r.uvarint()?)
            .ok_or(DecodeError::Corrupt("GUID index past the table"))?;
        let (guid, checksum) = guids.get(i)?;
        let f = decode_func(&mut r, &guids, checksum, 0)?;
        insert_ascending(&mut funcs, guid, f, "functions not strictly ascending")?;
        prev = i;
    }
    r.finish("trailing bytes in profile body")?;
    Ok(Doc {
        funcs,
        names,
        guids,
        sections,
    })
}

// ---------------------------------------------------------------------------
// One node codec: counts per anchor, `(anchor, callee)` children
// ---------------------------------------------------------------------------

/// A profile anchor's wire codec. Keys are written in ascending order, each
/// one's leading `u32` as a delta off the previous key's.
trait Anchor: Copy + Ord {
    /// Whether a node of this anchor is probe-anchored, and so stores its
    /// CFG checksum and the pre-inliner's mark: a context or probe node
    /// does, a flat one does neither (debug info has no checksum).
    const PROBED: bool;
    /// The part of the key the next key is a delta off.
    fn lead(self) -> u32;
    /// Writes the key after one whose lead was `prev`.
    fn put(self, buf: &mut Vec<u8>, prev: u32);
    /// Reads a key written after one whose lead was `prev`.
    fn get(r: &mut Reader<'_>, prev: u32) -> Result<Self, DecodeError>;
}

/// A probe index.
impl Anchor for u32 {
    const PROBED: bool = true;
    fn lead(self) -> u32 {
        self
    }
    fn put(self, buf: &mut Vec<u8>, prev: u32) {
        put_uvarint(buf, u64::from(self.wrapping_sub(prev)));
    }
    fn get(r: &mut Reader<'_>, prev: u32) -> Result<u32, DecodeError> {
        r.u32_delta(prev, "probe index overflow")
    }
}

/// A line offset (the delta) and its discriminator.
impl Anchor for LocKey {
    const PROBED: bool = false;
    fn lead(self) -> u32 {
        self.line_offset
    }
    fn put(self, buf: &mut Vec<u8>, prev: u32) {
        put_uvarint(buf, u64::from(self.line_offset.wrapping_sub(prev)));
        put_uvarint(buf, u64::from(self.discriminator));
    }
    fn get(r: &mut Reader<'_>, prev: u32) -> Result<LocKey, DecodeError> {
        Ok(LocKey {
            line_offset: r.u32_delta(prev, "line offset overflow")?,
            discriminator: u32::try_from(r.uvarint()?)
                .map_err(|_| DecodeError::Corrupt("discriminator overflow"))?,
        })
    }
}

/// Writes one node of a function whose default checksum is `checksum`. A
/// probe-anchored node's head is `entry × 4 + own checksum × 2 + mark`,
/// then its own checksum if it differs from the default; a flat node's is
/// its entry. Then its counts and its children.
fn encode_func<K: Anchor>(buf: &mut Vec<u8>, guids: &GuidTable, checksum: u64, f: &FuncProfile<K>) {
    if K::PROBED {
        // An entry past 2⁶² is clamped: the reader refuses it as past
        // `MAX_COUNT_SUM` either way.
        let own = f.checksum != checksum;
        let head = (f.entry.min(u64::MAX >> 2) << 2) | (u64::from(own) << 1) | u64::from(f.inlined);
        put_uvarint(buf, head);
        if own {
            put_uvarint(buf, f.checksum);
        }
    } else {
        put_uvarint(buf, f.entry);
    }
    encode_counts(buf, &f.body);
    encode_children(buf, guids, &f.callsites);
}

/// Reads a node written by [`encode_func`], at nesting depth `depth`.
fn decode_func<K: Anchor>(
    r: &mut Reader<'_>,
    guids: &GuidTable,
    checksum: u64,
    depth: usize,
) -> Result<FuncProfile<K>, DecodeError> {
    let (entry, checksum, inlined) = if K::PROBED {
        let head = r.uvarint()?;
        let entry = r.tally(head >> 2)?;
        let checksum = if head & 2 != 0 {
            r.uvarint()?
        } else {
            checksum
        };
        (entry, checksum, head & 1 != 0)
    } else {
        (r.count()?, checksum, false)
    };
    Ok(FuncProfile {
        entry,
        checksum,
        body: decode_counts(r)?,
        callsites: decode_children(r, guids, depth)?,
        inlined,
    })
}

/// Writes counts per anchor: a count, then per entry its key and count.
fn encode_counts<K: Anchor>(buf: &mut Vec<u8>, counts: &BTreeMap<K, u64>) {
    put_uvarint(buf, counts.len() as u64);
    let mut prev = 0u32;
    for (&k, &v) in counts {
        k.put(buf, prev);
        put_uvarint(buf, v);
        prev = k.lead();
    }
}

/// Reads counts written by [`encode_counts`].
fn decode_counts<K: Anchor>(r: &mut Reader<'_>) -> Result<BTreeMap<K, u64>, DecodeError> {
    let n = r.len_prefixed()?;
    let mut out = BTreeMap::new();
    let mut prev = 0u32;
    for _ in 0..n {
        let k = K::get(r, prev)?;
        insert_ascending(&mut out, k, r.count()?, "counts not strictly ascending")?;
        prev = k.lead();
    }
    Ok(out)
}

/// Writes call-site children keyed `(anchor, callee GUID)`: a count, then
/// per child its key, its callee's GUID-table index and its node.
fn encode_children<K: Anchor>(
    buf: &mut Vec<u8>,
    guids: &GuidTable,
    children: &BTreeMap<(K, u64), FuncProfile<K>>,
) {
    put_uvarint(buf, children.len() as u64);
    let mut prev = 0u32;
    for (&(k, callee), child) in children {
        let (i, checksum) = guids.find(callee);
        k.put(buf, prev);
        put_uvarint(buf, i);
        encode_func(buf, guids, checksum, child);
        prev = k.lead();
    }
}

/// Reads children written by [`encode_children`], one level below `depth`.
fn decode_children<K: Anchor>(
    r: &mut Reader<'_>,
    guids: &GuidTable,
    depth: usize,
) -> Result<BTreeMap<(K, u64), FuncProfile<K>>, DecodeError> {
    let n = r.len_prefixed()?;
    let mut out = BTreeMap::new();
    let mut prev = 0u32;
    for _ in 0..n {
        let k = K::get(r, prev)?;
        let (callee, checksum) = guids.read(r)?;
        let child = decode_func(r, guids, checksum, nested(depth)?)?;
        insert_ascending(
            &mut out,
            (k, callee),
            child,
            "call sites not strictly ascending",
        )?;
        prev = k.lead();
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
// The three profile documents
// ---------------------------------------------------------------------------

/// Serializes a [`ContextProfile`] to the binprof wire format.
pub fn encode_context(profile: &ContextProfile) -> Vec<u8> {
    encode_doc(Kind::Context, &profile.names, &profile.roots, iter::empty()).0
}

/// Deserializes a [`ContextProfile`] from the binprof wire format.
pub fn decode_context(bytes: &[u8]) -> Result<ContextProfile, DecodeError> {
    let doc = decode_doc(bytes, Kind::Context)?;
    Ok(ContextProfile {
        roots: doc.funcs,
        names: doc.names,
    })
}

/// Serializes a [`ProbeProfile`] to the binprof wire format.
pub fn encode_probe(profile: &ProbeProfile) -> Vec<u8> {
    encode_doc(Kind::Probe, &profile.names, &profile.funcs, iter::empty()).0
}

/// Deserializes a [`ProbeProfile`] from the binprof wire format.
pub fn decode_probe(bytes: &[u8]) -> Result<ProbeProfile, DecodeError> {
    let doc = decode_doc(bytes, Kind::Probe)?;
    Ok(Profile {
        funcs: doc.funcs,
        names: doc.names,
    })
}

/// Serializes a [`FlatProfile`] to the binprof wire format. Flat nodes
/// store no checksum.
pub fn encode_flat(profile: &FlatProfile) -> Vec<u8> {
    encode_doc(Kind::Flat, &profile.names, &profile.funcs, iter::empty()).0
}

/// Deserializes a [`FlatProfile`] from the binprof wire format.
pub fn decode_flat(bytes: &[u8]) -> Result<FlatProfile, DecodeError> {
    let doc = decode_doc(bytes, Kind::Flat)?;
    Ok(Profile {
        funcs: doc.funcs,
        names: doc.names,
    })
}

// ---------------------------------------------------------------------------
// Stream snapshot
// ---------------------------------------------------------------------------

/// How a snapshot row section writes its sorted `(a, b, c)` rows.
#[derive(Clone, Copy)]
enum Rows {
    /// `a`, `b`, `c` as they are: tail-call edges.
    Plain,
    /// `a` as a delta off the previous row's, then `b`, `c`: weights, whose
    /// `a` is a GUID-table index.
    Delta,
    /// `a` as a delta off the previous row's, `b` as a zigzag delta off `a`,
    /// then `c`: ranges `(begin, end)` and branches `(from, to)`, whose two
    /// ends lie close together in either order.
    Span,
}

/// `d` read as a two's-complement `i64`, zigzag-mapped so small magnitudes
/// of either sign are small varints.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Writes sorted `(a, b, c)` rows laid out as `layout` says, after their
/// count.
fn encode_rows(rows: &[(u64, u64, u64)], layout: Rows) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, rows.len() as u64);
    let mut prev = 0u64;
    for &(a, b, c) in rows {
        let (a_out, b_out) = match layout {
            Rows::Plain => (a, b),
            Rows::Delta => (a.wrapping_sub(prev), b),
            Rows::Span => (a.wrapping_sub(prev), zigzag(b.wrapping_sub(a))),
        };
        put_uvarint(&mut buf, a_out);
        put_uvarint(&mut buf, b_out);
        put_uvarint(&mut buf, c);
        prev = a;
    }
    buf
}

/// Reads rows written by [`encode_rows`]; an absent section is no rows.
fn decode_rows(payload: Option<&[u8]>, layout: Rows) -> Result<Vec<(u64, u64, u64)>, DecodeError> {
    let Some(payload) = payload else {
        return Ok(Vec::new());
    };
    let mut r = Reader::new(payload);
    let n = r.len_prefixed()?;
    let mut rows = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        let (a, b) = (r.uvarint()?, r.uvarint()?);
        let row = match layout {
            Rows::Plain => (a, b),
            Rows::Delta => (prev.wrapping_add(a), b),
            Rows::Span => {
                let a = prev.wrapping_add(a);
                (a, a.wrapping_add(unzigzag(b)))
            }
        };
        rows.push((row.0, row.1, r.uvarint()?));
        prev = row.0;
    }
    r.finish("trailing bytes in snapshot rows")?;
    Ok(rows)
}

/// Serializes a stream snapshot: its context profile's envelope, whose GUID
/// table also lists every GUID a weight names, then the four row sections,
/// a weight's GUID written as its table index, then the meta section
/// (fingerprint, epochs, samples). Ranges and branches are written even
/// when empty; no tail-graph edges and no weights write no section.
pub(crate) fn encode_snapshot(snap: &Snapshot<'_>) -> Vec<u8> {
    let context = &snap.context;
    let weight_guids = snap.weights.iter().map(|&(guid, _, _)| guid);
    let (mut buf, guids) = encode_doc(
        Kind::StreamSnapshot,
        &context.names,
        &context.roots,
        weight_guids,
    );
    let weights: Vec<(u64, u64, u64)> = (snap.weights.iter())
        .map(|&(guid, probe, count)| (guids.find(guid).0, probe, count))
        .collect();
    for (tag, rows, layout, always) in [
        (
            section::STREAM_TAILGRAPH,
            &snap.tail_edges,
            Rows::Plain,
            false,
        ),
        (section::STREAM_RANGES, &snap.ranges, Rows::Span, true),
        (section::STREAM_BRANCHES, &snap.branches, Rows::Span, true),
        (section::STREAM_WEIGHTS, &weights, Rows::Delta, false),
    ] {
        if always || !rows.is_empty() {
            put_section(&mut buf, tag, &encode_rows(rows, layout));
        }
    }
    // The one required section after the envelope comes last, so a snapshot
    // cut short anywhere is refused, not read without its last rows.
    let mut meta = Vec::new();
    for v in [snap.fingerprint, snap.epochs, snap.samples] {
        put_uvarint(&mut meta, v);
    }
    put_section(&mut buf, section::STREAM_META, &meta);
    buf
}

/// Deserializes a stream snapshot written by [`encode_snapshot`]. Checks
/// the bytes only: what the values mean for a binary is
/// `StreamAggregator`'s one restore check.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot<'static>, DecodeError> {
    let doc = decode_doc(bytes, Kind::StreamSnapshot)?;
    let rows = |tag, layout| decode_rows(find(&doc.sections, tag), layout);
    let mut r = Reader::new(require(&doc.sections, section::STREAM_META)?);
    let meta = [r.uvarint()?, r.uvarint()?, r.uvarint()?];
    r.finish("trailing bytes in snapshot meta")?;
    let weights = (rows(section::STREAM_WEIGHTS, Rows::Delta)?.into_iter())
        .map(|(i, probe, count)| Ok((doc.guids.get(i)?.0, probe, count)))
        .collect::<Result<_, DecodeError>>()?;
    let [fingerprint, epochs, samples] = meta;
    Ok(Snapshot {
        fingerprint,
        epochs,
        samples,
        tail_edges: rows(section::STREAM_TAILGRAPH, Rows::Plain)?,
        ranges: rows(section::STREAM_RANGES, Rows::Span)?,
        branches: rows(section::STREAM_BRANCHES, Rows::Span)?,
        weights,
        context: Cow::Owned(ContextProfile {
            roots: doc.funcs,
            names: doc.names,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FrameKey;
    use proptest::prelude::*;

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
            .callsites
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
        assert_eq!(back, pp);
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
        assert_eq!(back, fp);
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

    /// A document of `kind` framed by hand from `sections`.
    fn doc(kind: Kind, sections: &[(u8, &[u8])]) -> Vec<u8> {
        let mut out = header(kind);
        for &(tag, payload) in sections {
            put_section(&mut out, tag, payload);
        }
        out
    }

    /// `values` as consecutive uvarints.
    fn varints(values: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        for &v in values {
            put_uvarint(&mut buf, v);
        }
        buf
    }

    /// The three profile documents, each with whether its nodes are
    /// probe-anchored (its GUID table carries checksums, its anchors are one
    /// varint).
    const KINDS: [(Kind, bool); 3] = [
        (Kind::Context, true),
        (Kind::Probe, true),
        (Kind::Flat, false),
    ];

    /// A GUID table of `kind` framed by hand: the GUID deltas `deltas`, each
    /// with default checksum 0 where the kind stores one.
    fn table(probed: bool, deltas: &[u64]) -> Vec<u8> {
        let mut values = vec![deltas.len() as u64];
        for &d in deltas {
            values.push(d);
            values.extend(probed.then_some(0));
        }
        varints(&values)
    }

    /// Decodes a profile document of `kind` framed by hand from one string
    /// (`f`), `guids`, `names` and `body`, as its function count.
    fn decode_kind(
        kind: Kind,
        guids: &[u8],
        names: &[u8],
        body: &[u8],
    ) -> Result<usize, DecodeError> {
        let strings = varints(&[1, 1, u64::from(b'f')]);
        let bytes = doc(
            kind,
            &[
                (section::STRINGS, &strings),
                (section::GUIDS, guids),
                (section::NAMES, names),
                (section::BODY, body),
            ],
        );
        match kind {
            Kind::Context => decode_context(&bytes).map(|p| p.roots.len()),
            Kind::Probe => decode_probe(&bytes).map(|p| p.funcs.len()),
            Kind::Flat | Kind::StreamSnapshot => decode_flat(&bytes).map(|p| p.funcs.len()),
        }
    }

    /// A call-site anchor after none: probe 3, or line offset 3 with
    /// discriminator 0.
    fn site(probed: bool) -> &'static [u64] {
        if probed {
            &[3]
        } else {
            &[3, 0]
        }
    }

    /// Hostile GUID tables and the indices into them: an index past the
    /// table (as a root or body key, a callee and a names key), a table
    /// unsorted or duplicated, a table count past the payload, a truncated
    /// or missing table. Each is a typed error, never a panic, in every
    /// document kind.
    #[test]
    fn guid_table_faults_are_typed_errors() {
        let past = DecodeError::Corrupt("GUID index past the table");
        let unsorted = DecodeError::Corrupt("GUID table not strictly ascending");
        let no_names = varints(&[0]);
        // One function at index 0: entry 0, no counts, no children.
        let root = varints(&[1, 0, 0, 0, 0]);
        for (kind, probed) in KINDS {
            let one = table(probed, &[5]);
            assert_eq!(decode_kind(kind, &one, &no_names, &root), Ok(1));
            let child_of_index_1 =
                varints(&[&[1, 0, 0, 0, 1], site(probed), &[1, 0, 0, 0]].concat());
            for (names, body) in [
                (&no_names, &varints(&[1, 1, 0, 0, 0])),
                (&no_names, &varints(&[2, 0, 0, 0, 0, u64::MAX, 0, 0, 0])),
                (&no_names, &child_of_index_1),
                (&varints(&[1, 1, 0]), &root),
            ] {
                assert_eq!(decode_kind(kind, &one, names, body), Err(past.clone()));
            }
            for deltas in [[5, 0], [5, u64::MAX - 1]] {
                let guids = table(probed, &deltas);
                assert_eq!(
                    decode_kind(kind, &guids, &no_names, &root),
                    Err(unsorted.clone())
                );
            }
            assert_eq!(
                decode_kind(kind, &varints(&[u64::MAX]), &no_names, &root),
                Err(DecodeError::Corrupt("length prefix exceeds payload"))
            );
            if probed {
                assert_eq!(
                    decode_kind(kind, &varints(&[2, 5, 0, 1]), &no_names, &root),
                    Err(DecodeError::Truncated)
                );
            }
        }
        let strings = varints(&[0]);
        let untabled = doc(
            Kind::Context,
            &[
                (section::STRINGS, &strings),
                (section::NAMES, &no_names),
                (section::BODY, &root),
            ],
        );
        assert_eq!(
            decode_context(&untabled),
            Err(DecodeError::Corrupt("missing required section"))
        );
    }

    /// `decode_doc`: a function listed twice (Δ index 0 after the first) is
    /// refused in every document kind; the encoder writes each once.
    #[test]
    fn a_repeated_function_is_a_typed_error() {
        let no_names = varints(&[0]);
        for (kind, probed) in KINDS {
            let guids = table(probed, &[5, 1]);
            let body = |second: u64| varints(&[2, 0, 0, 0, 0, second, 0, 0, 0]);
            assert_eq!(decode_kind(kind, &guids, &no_names, &body(1)), Ok(2));
            assert_eq!(
                decode_kind(kind, &guids, &no_names, &body(0)),
                Err(DecodeError::Corrupt("functions not strictly ascending"))
            );
        }
    }

    /// `decode_names`: a names key repeated or below the one before it is
    /// refused in every document kind.
    #[test]
    fn a_repeated_name_is_a_typed_error() {
        let no_funcs = varints(&[0]);
        for (kind, probed) in KINDS {
            let guids = table(probed, &[5, 1]);
            let names = |first: u64, second: u64| varints(&[2, first, 0, second, 0]);
            assert_eq!(decode_kind(kind, &guids, &names(0, 1), &no_funcs), Ok(0));
            for (first, second) in [(0, 0), (1, 0)] {
                assert_eq!(
                    decode_kind(kind, &guids, &names(first, second), &no_funcs),
                    Err(DecodeError::Corrupt("names not strictly ascending"))
                );
            }
        }
    }

    /// `decode_counts`: an anchor repeated or below the one before it is
    /// refused, comparing the whole key — a flat anchor's line offset and
    /// discriminator — and a probe delta that wraps past `u32::MAX` too.
    #[test]
    fn a_repeated_count_is_a_typed_error() {
        let no_names = varints(&[0]);
        let repeated = DecodeError::Corrupt("counts not strictly ascending");
        // One function at index 0, entry 0, with the counts `counts`.
        let body = |counts: &[u64]| varints(&[&[1, 0, 0], counts, &[0]].concat());
        let wrap = u64::from(u32::MAX);
        let probe_counts = [
            (&[2, 4, 1, 1, 1][..], true),
            (&[2, 4, 1, 0, 1], false),
            (&[2, 4, 1, wrap, 1], false),
        ];
        let flat_counts = [
            (&[2, 4, 2, 1, 0, 3, 1][..], true),
            (&[2, 4, 2, 1, 1, 0, 1], true),
            (&[2, 4, 2, 1, 0, 2, 1], false),
            (&[2, 4, 2, 1, 0, 1, 1], false),
        ];
        for (kind, probed) in KINDS {
            let cases = if probed {
                &probe_counts[..]
            } else {
                &flat_counts
            };
            for &(counts, ok) in cases {
                let got = decode_kind(kind, &table(probed, &[5]), &no_names, &body(counts));
                assert_eq!(got, if ok { Ok(1) } else { Err(repeated.clone()) });
            }
        }
    }

    /// `decode_children`: a call site repeated or below the one before it
    /// is refused, comparing the whole key — anchor and callee — in every
    /// document kind.
    #[test]
    fn a_repeated_call_site_is_a_typed_error() {
        let no_names = varints(&[0]);
        for (kind, probed) in KINDS {
            let guids = table(probed, &[5, 1]);
            // The same anchor again: Δ 0 (and discriminator 0).
            let again: &[u64] = if probed { &[0] } else { &[0, 0] };
            // One function at index 0 whose two children sit at `site`
            // then `again`, calling `first` then `second`.
            let body = |first: u64, second: u64| {
                let leaf = [0, 0, 0];
                let head = [1, 0, 0, 0, 2];
                let parts: [&[u64]; 7] = [
                    &head,
                    site(probed),
                    &[first],
                    &leaf,
                    again,
                    &[second],
                    &leaf,
                ];
                varints(&parts.concat())
            };
            assert_eq!(decode_kind(kind, &guids, &no_names, &body(0, 1)), Ok(1));
            for (first, second) in [(0, 0), (1, 0)] {
                assert_eq!(
                    decode_kind(kind, &guids, &no_names, &body(first, second)),
                    Err(DecodeError::Corrupt("call sites not strictly ascending"))
                );
            }
        }
    }

    /// One node codec, at the steps of its head varint: a probe-anchored
    /// node with or without the mark and its own checksum round-trips in a
    /// context and a probe document at entries either side of 32 and 4 096,
    /// where its head `entry × 4 + own × 2 + mark` grows a byte.
    #[test]
    fn probe_anchored_nodes_round_trip_at_every_head_step() {
        let mut sizes = BTreeMap::new();
        for entry in [0, 31, 32, 4095, 4096] {
            for (inlined, own) in [(false, false), (true, false), (false, true), (true, true)] {
                // Root 1's child sets function 7's default checksum; root 7
                // is the node under test.
                let mut roots = BTreeMap::new();
                let mut root = FuncProfile::<u32>::default();
                root.callsite_mut(2, 7).checksum = 0xaa;
                roots.insert(1, root);
                let node = roots.entry(7).or_default();
                node.entry = entry;
                node.inlined = inlined;
                node.checksum = if own { 0xbb } else { 0xaa };
                node.record_sum(1, 5);
                let context = ContextProfile {
                    roots: roots.clone(),
                    names: BTreeMap::new(),
                };
                let probe = ProbeProfile {
                    funcs: roots,
                    names: BTreeMap::new(),
                };
                let bytes = encode_context(&context);
                assert_eq!(decode_context(&bytes), Ok(context));
                let probe_bytes = encode_probe(&probe);
                assert_eq!(decode_probe(&probe_bytes), Ok(probe));
                // One envelope: only the kind byte tells the two apart.
                assert_eq!(probe_bytes[11..], bytes[11..]);
                sizes.insert((entry, inlined, own), bytes.len());
            }
        }
        for (inlined, own) in [(false, false), (true, true)] {
            let size = |entry| sizes[&(entry, inlined, own)];
            assert_eq!(size(0), size(31));
            assert_eq!(size(32), size(31) + 1);
            assert_eq!(size(4095), size(32));
            assert_eq!(size(4096), size(4095) + 1);
        }
    }

    /// A probe-anchored entry past 2⁶², which the head leaves no room for,
    /// is written clamped and refused as past [`MAX_COUNT_SUM`] by the probe
    /// and context decoders alike.
    #[test]
    fn an_entry_past_2_62_is_clamped_and_refused() {
        for entry in [1 << 62, u64::MAX] {
            let mut probe = ProbeProfile::default();
            probe.funcs.entry(1).or_default().entry = entry;
            let context = ContextProfile {
                roots: probe.funcs.clone(),
                names: BTreeMap::new(),
            };
            let past = DecodeError::Corrupt("profile counts sum past 2^48");
            assert_eq!(decode_probe(&encode_probe(&probe)), Err(past.clone()));
            assert_eq!(decode_context(&encode_context(&context)), Err(past));
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
            let mut flat = FuncProfile::<LocKey>::default();
            let mut probe = FuncProfile::<u32>::default();
            for _ in 0..depth {
                let mut parent = FuncProfile::<LocKey>::default();
                parent.callsites.insert((key, 7), flat);
                flat = parent;
                let mut parent = FuncProfile::<u32>::default();
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

    /// A GUID only [`sample_snapshot`]'s weights name.
    const WEIGHT_ONLY: u64 = 1 << 40;

    /// A snapshot with every section present, rows delta-encoded or not, and
    /// a weight naming a function the context does not.
    fn sample_snapshot() -> Snapshot<'static> {
        Snapshot {
            fingerprint: 0xfeed_f00d,
            epochs: 3,
            samples: 1234,
            tail_edges: vec![(0, 2, 17), (1, 0, 5)],
            ranges: vec![(4, 9, 100), (4, 12, 3), (30, 2, 1), (30, 31, 8)],
            branches: vec![(9, 4, 100), (31, 30, 8)],
            weights: vec![(7, 1, 50), (7, 4, 2), (9, 0, 11), (WEIGHT_ONLY, 2, 3)],
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
        // The weight-only GUID sits in the one GUID table, default
        // checksum 0.
        let doc = decode_doc::<u32>(&bytes, Kind::StreamSnapshot).unwrap();
        assert_eq!(
            doc.guids.get(doc.guids.find(WEIGHT_ONLY).0),
            Ok((WEIGHT_ONLY, 0))
        );
        assert!(!snap.context.names.contains_key(&WEIGHT_ONLY));

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
        // Without weights a snapshot is its context document's envelope,
        // under its own kind byte, followed by its rows.
        let context = encode_context(&bare.context);
        assert!(bytes[11..].starts_with(&context[11..]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Snapshot rows round-trip whatever their values: ends before their
        /// begins, far from them, at either end of `u64`.
        #[test]
        fn snapshot_rows_roundtrip_in_any_order(
            wide in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..12),
            near in proptest::collection::vec((0u64..64, 0u64..64, 0u64..1000), 0..12),
        ) {
            let sorted = |mut rows: Vec<(u64, u64, u64)>| {
                rows.sort_unstable();
                rows
            };
            let snap = Snapshot {
                tail_edges: sorted(wide.clone()),
                ranges: sorted(near.clone()),
                branches: sorted(wide),
                weights: sorted(near),
                ..sample_snapshot()
            };
            let bytes = encode_snapshot(&snap);
            let back = decode_snapshot(&bytes).unwrap();
            prop_assert_eq!(&back, &snap);
            prop_assert_eq!(encode_snapshot(&back), bytes);
        }
    }

    /// Binary-only hostile snapshots: a missing required section (meta, GUID
    /// table, body), truncation anywhere, a row count past the payload,
    /// trailing bytes after rows or meta, a weight index past the GUID table. Each is a typed
    /// error, never a panic or an allocation of the claimed size.
    #[test]
    fn snapshot_framing_faults_are_typed_errors() {
        let bytes = encode_snapshot(&sample_snapshot());
        for tag in [section::STREAM_META, section::GUIDS, section::BODY] {
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
        let mut trailing = encode_rows(&[(1, 2, 3)], Rows::Span);
        trailing.push(0);
        let guids = decode_doc::<u32>(&bytes, Kind::StreamSnapshot)
            .unwrap()
            .guids;
        let past = encode_rows(
            &[(0, 1, 1), (guids.entries.len() as u64, 0, 1)],
            Rows::Delta,
        );
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
            (section::STREAM_WEIGHTS, &past, "GUID index past the table"),
            (
                section::STREAM_META,
                &varints(&[1, 2, 3, 0]),
                "trailing bytes in snapshot meta",
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
