//! The binary image: flat machine code with addresses, symbols, debug-line
//! metadata and the pseudo-probe metadata section.

use crate::minst::MInst;
use csspgo_ir::{FuncId, Global};
use serde::{Deserialize, Serialize};

/// Encoded sizes of the binary's sections, in bytes (Fig. 9's metric).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct SectionSizes {
    /// Machine code.
    pub text: u64,
    /// DWARF-style line table + inline descriptors.
    pub debug_line: u64,
    /// Pseudo-probe metadata (self-contained, never loaded at run time).
    pub pseudo_probe: u64,
}

impl SectionSizes {
    /// Total binary size (text + debug info; the probe section is
    /// included since Fig. 9 reports it as a percentage of this total).
    pub fn total(&self) -> u64 {
        self.text + self.debug_line + self.pseudo_probe
    }
}

/// Per-function symbol information.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BinFunc {
    /// The function's id in the module this binary was built from.
    pub id: FuncId,
    /// Stable GUID (name hash).
    pub guid: u64,
    /// Source name.
    pub name: String,
    /// Source line of the function header.
    pub start_line: u32,
    /// Number of virtual registers the function uses (frame size).
    pub num_vregs: usize,
    /// CFG checksum recorded at probe insertion, if the build had probes.
    pub probe_checksum: Option<u64>,
    /// Flat index of the entry instruction.
    pub entry: usize,
    /// `[start, end)` flat indices of the hot part.
    pub hot_range: (usize, usize),
    /// `[start, end)` flat indices of the cold part (empty if not split).
    pub cold_range: (usize, usize),
}

impl BinFunc {
    /// Whether flat index `idx` belongs to this function.
    pub fn contains(&self, idx: usize) -> bool {
        (idx >= self.hot_range.0 && idx < self.hot_range.1)
            || (idx >= self.cold_range.0 && idx < self.cold_range.1)
    }
}

/// One debug frame: `(scope function, line, discriminator)`.
pub type DebugFrame = (FuncId, u32, u32);

/// A fully laid-out program.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Binary {
    /// All instructions, hot parts first (in module function order), then
    /// every function's cold part.
    pub insts: Vec<MInst>,
    /// Start byte address of each instruction.
    pub addrs: Vec<u64>,
    /// Function index (into [`Binary::funcs`]) per instruction.
    pub func_of: Vec<u32>,
    /// Function symbols, indexed in module order (so `FuncId` indexes this
    /// table directly).
    pub funcs: Vec<BinFunc>,
    /// Encoded section sizes.
    pub sections: SectionSizes,
    /// Number of instrumentation counters referenced by the code.
    pub num_counters: u32,
    /// Data memory image (copied from the module's globals).
    pub globals: Vec<Global>,
    /// Flat frame arena: every instruction's debug-frame chain
    /// (outermost call site first, leaf last), concatenated. Built once at
    /// construction so [`Binary::debug_frames`] is an allocation-free slice
    /// borrow; correlation queries it per nonzero-count instruction.
    pub frame_table: Vec<DebugFrame>,
    /// Per-instruction `(start, len)` span into [`Binary::frame_table`].
    pub frame_spans: Vec<(u32, u32)>,
    /// Byte→instruction map over [`Binary::addrs`], built once at
    /// construction like the frame arena; [`Binary::index_of_addr`] reads it.
    pub addr_index: AddrIndex,
}

/// Dense byte→instruction map behind [`Binary::index_of_addr`]: every LBR
/// entry and stack frame of every sample costs an address lookup, so one
/// `u32` slot per code byte buys a plain array load in place of a branchy
/// binary search. Text is laid out as a few contiguous stretches (the hot
/// section, then the cold section a megabyte away), and the map holds one
/// table per stretch so the gap between them costs nothing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AddrIndex {
    /// Stretches of text in ascending address order.
    segments: Vec<AddrSegment>,
}

/// One contiguous stretch of text.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct AddrSegment {
    /// Address of the stretch's first byte.
    base: u64,
    /// Instruction index per byte offset from `base`; `u32::MAX` = padding.
    map: Vec<u32>,
}

/// Padding of at least this many bytes starts a new [`AddrSegment`].
const SEGMENT_GAP: u64 = 4096;

impl AddrIndex {
    /// Builds the map for a laid-out instruction stream (`addrs` ascending,
    /// one start address per instruction).
    pub fn build(insts: &[MInst], addrs: &[u64]) -> Self {
        let mut segments: Vec<AddrSegment> = Vec::new();
        let mut end = 0u64;
        for (i, (inst, &addr)) in insts.iter().zip(addrs).enumerate() {
            if segments.is_empty() || addr - end >= SEGMENT_GAP {
                segments.push(AddrSegment {
                    base: addr,
                    map: Vec::new(),
                });
            }
            let seg = segments.last_mut().expect("segment pushed above");
            seg.map.resize((addr - seg.base) as usize, u32::MAX);
            end = addr + inst.size as u64;
            seg.map.resize((end - seg.base) as usize, i as u32);
        }
        AddrIndex { segments }
    }

    /// The flat index of the instruction whose byte range contains `addr`.
    #[inline]
    pub fn index_of_addr(&self, addr: u64) -> Option<usize> {
        for seg in self.segments.iter().rev() {
            if let Some(off) = addr.checked_sub(seg.base) {
                return match seg.map.get(usize::try_from(off).ok()?) {
                    Some(&v) if v != u32::MAX => Some(v as usize),
                    _ => None,
                };
            }
        }
        None
    }
}

impl Binary {
    /// The flat index of the instruction whose byte range contains `addr`.
    #[inline]
    pub fn index_of_addr(&self, addr: u64) -> Option<usize> {
        self.addr_index.index_of_addr(addr)
    }

    /// Checks every index from one table of the binary into another that
    /// its consumers — the simulator's decoder and profile generation —
    /// then take on trust: one address, owner and frame span per
    /// instruction; instruction owners, function entries, probe owners,
    /// probe inline stacks and debug frames that name real functions and
    /// instructions; frame spans inside the frame arena; an address map
    /// that maps to real instructions only. A binary [`crate::lower_module`]
    /// built always passes; one read from a file need not.
    ///
    /// # Errors
    ///
    /// Says what is wrong: the text of the simulator's `MalformedBinary`.
    pub fn check_tables(&self) -> Result<(), String> {
        let n = self.insts.len();
        if self.addrs.len() != n || self.func_of.len() != n || self.frame_spans.len() != n {
            return Err(format!(
                "{n} instructions but {} addresses, {} owners and {} frame spans",
                self.addrs.len(),
                self.func_of.len(),
                self.frame_spans.len()
            ));
        }
        let funcs = self.funcs.len();
        let function = |what: String, f: usize| {
            if f < funcs {
                Ok(())
            } else {
                Err(format!("{what} names function {f} of {funcs}"))
            }
        };
        if let Some(f) = self.funcs.iter().find(|f| f.entry >= n) {
            return Err(format!(
                "function `{}` enters at {}, past the {n}-instruction text",
                f.name, f.entry
            ));
        }
        for (pc, inst) in self.insts.iter().enumerate() {
            if self.func_of[pc] as usize >= funcs {
                return Err(format!("instruction {pc} belongs to no function"));
            }
            for note in &inst.probes {
                let what = || format!("probe {} at instruction {pc}", note.index);
                function(what(), note.owner.index())?;
                for site in &note.inline_stack {
                    function(format!("{}'s inline stack", what()), site.func.index())?;
                }
            }
            let (start, len) = self.frame_spans[pc];
            if start as usize + len as usize > self.frame_table.len() {
                return Err(format!(
                    "instruction {pc}'s debug frames run past the frame table"
                ));
            }
        }
        for &(f, _, _) in &self.frame_table {
            function("a debug frame".into(), f.index())?;
        }
        let mut mapped = self.addr_index.segments.iter().flat_map(|s| &s.map);
        if mapped.any(|&i| i != u32::MAX && i as usize >= n) {
            return Err(format!(
                "the address map points past the {n}-instruction text"
            ));
        }
        Ok(())
    }

    /// Looks a function up by GUID.
    pub fn func_by_guid(&self, guid: u64) -> Option<&BinFunc> {
        self.funcs.iter().find(|f| f.guid == guid)
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<&BinFunc> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Builds the flat frame arena for a laid-out instruction stream: the
    /// per-instruction debug-frame chains of [`Binary::debug_frames`],
    /// concatenated, plus the `(start, len)` span of each instruction.
    pub fn compute_frame_table(
        insts: &[MInst],
        func_of: &[u32],
        funcs: &[BinFunc],
    ) -> (Vec<DebugFrame>, Vec<(u32, u32)>) {
        let mut table = Vec::new();
        let mut spans = Vec::with_capacity(insts.len());
        for (idx, inst) in insts.iter().enumerate() {
            let loc = &inst.loc;
            let start = table.len() as u32;
            if loc.is_none() {
                spans.push((start, 0));
                continue;
            }
            table.extend(
                loc.inline_stack
                    .iter()
                    .map(|s| (s.func, s.line, s.discriminator)),
            );
            let leaf_scope = if loc.scope == FuncId::INVALID {
                funcs[func_of[idx] as usize].id
            } else {
                loc.scope
            };
            table.push((leaf_scope, loc.line, loc.discriminator));
            spans.push((start, table.len() as u32 - start));
        }
        (table, spans)
    }

    /// DWARF-style symbolization of instruction `idx`: the chain of
    /// `(function, line, discriminator)` frames, outermost call site first,
    /// the instruction's own (leaf) frame last. Empty when the instruction
    /// has no line info. Borrows from the precomputed frame arena — no
    /// allocation per query.
    pub fn debug_frames(&self, idx: usize) -> &[DebugFrame] {
        let (start, len) = self.frame_spans[idx];
        &self.frame_table[start as usize..(start + len) as usize]
    }

    /// The *function identity* inline stack at `idx`: outermost function
    /// first, leaf (innermost inlined) function last. This is the
    /// `GetInlinedFrames` of the paper's Algorithms 1 and 3.
    pub fn inlined_funcs(&self, idx: usize) -> impl Iterator<Item = FuncId> + '_ {
        self.debug_frames(idx).iter().map(|&(f, _, _)| f)
    }

    /// Total number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the binary is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}
