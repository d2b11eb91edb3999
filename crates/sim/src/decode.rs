//! Pre-decoding: everything about a [`Binary`] that is fixed per binary is
//! resolved once per [`Machine`](crate::Machine), so the instruction loop
//! pays per *event* only for what the event decides.
//!
//! A [`Program`] is a dense array of `Copy` [`Op`]s, one per machine
//! instruction, plus three side pools:
//!
//! * **operands** become [`Src`] slots of one register stack: a register is
//!   frame-relative, an immediate is a slot of the *constant area* at the
//!   bottom of the stack, and [`Src::slot`] turns either into an index
//!   without a branch — the loop never asks what kind an operand is;
//! * **branch targets and callees** are flat instruction indices (a callee
//!   is its entry index plus the size of the register window to open);
//! * the **static cost** of an instruction — [`BASE`] plus whichever of
//!   [`MEM_OP`], [`SELECT`], [`COUNTER`], [`CALL`] + nargs, [`RET`] or the
//!   jump-table load applies — is one field, next to the instruction's
//!   **address**;
//! * call arguments live in [`Program::args`], jump-table entries in
//!   [`Program::cases`], immediates in [`Program::consts`].
//!
//! DESIGN.md §6.2 argues why each of these reads back exactly what the
//! per-step decoder computed.

use csspgo_codegen::minst::MInstKind;
use csspgo_codegen::Binary;
use csspgo_ir::inst::{BinOp, CmpPred, Operand};
use csspgo_ir::module::MAX_GLOBAL_CELLS;
use csspgo_ir::VReg;
use std::collections::HashMap;

// Static prices in cycles, a plausible abstraction of a Skylake-class core
// (only their relative magnitudes matter). The machine loop charges the
// event-dependent ones.

/// Base cost of every instruction.
const BASE: u64 = 1;
/// Extra cost of a data-memory access (load, store, spill).
const MEM_OP: u64 = 2;
/// Extra cost of an instrumentation counter increment (load, add, store).
const COUNTER: u64 = 4;
/// Call overhead (frame setup), plus one cycle per argument.
const CALL: u64 = 3;
/// Return overhead.
const RET: u64 = 2;
/// Extra cost of a select (cmov dependency).
const SELECT: u64 = 1;

/// A frame-relative register index.
pub(crate) type Reg = u32;

/// "No destination register" (a call whose result is dropped).
pub(crate) const NO_REG: Reg = u32::MAX;

/// Marks a [`Src`] as a constant-area slot.
const CONST_BIT: u32 = 1 << 31;

/// The most instrumentation counters a binary may declare (8 MiB of them;
/// the per-block placement of a shipped workload needs at most 149).
const MAX_COUNTERS: u32 = 1 << 20;

/// The largest register window a function may open (512 KiB per frame; a
/// shipped workload's optimised functions use at most 93).
const MAX_FRAME_REGISTERS: usize = 1 << 16;

/// A source operand: a register of the current frame, or a slot of the
/// constant area at the bottom of the register stack.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Src(u32);

impl Src {
    /// The operand's index into the register stack for a frame at `base`.
    #[inline(always)]
    pub(crate) fn slot(self, base: usize) -> usize {
        // All ones for a register, zero for a constant: constants sit at
        // absolute slots and ignore the frame base.
        let frame_relative = ((!self.0 as i32) >> 31) as usize;
        (self.0 & !CONST_BIT) as usize + (base & frame_relative)
    }
}

/// What an instruction does, with every per-binary fact resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    Copy {
        dst: Reg,
        src: Src,
    },
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Src,
        rhs: Src,
    },
    Cmp {
        pred: CmpPred,
        dst: Reg,
        lhs: Src,
        rhs: Src,
    },
    Select {
        dst: Reg,
        cond: Src,
        on_true: Src,
        on_false: Src,
    },
    /// `dst = memory[start + index]` when `index < len`, else 0.
    Load {
        dst: Reg,
        start: u32,
        len: u32,
        index: Src,
    },
    /// `memory[start + index] = value` when `index < len`.
    Store {
        start: u32,
        len: u32,
        index: Src,
        value: Src,
    },
    CounterIncr {
        counter: u32,
    },
    /// Spill reload/store: cost only.
    Nop,
    /// Opens a `window`-register frame above the caller's, copies
    /// `args[args..args + nargs]` into its first registers and jumps to
    /// `entry`.
    Call {
        dst: Reg,
        entry: u32,
        window: u32,
        args: u32,
        nargs: u32,
    },
    /// As [`Kind::Call`], but the new window replaces the caller's.
    TailCall {
        entry: u32,
        window: u32,
        args: u32,
        nargs: u32,
    },
    Ret {
        value: Src,
    },
    Jmp {
        target: u32,
    },
    /// Taken when `(cond != 0) != negate`.
    JmpIf {
        cond: Src,
        negate: bool,
        target: u32,
    },
    /// Jumps to the first of `cases[cases..cases + ncases]` whose key
    /// equals `value`, else to `default`.
    JmpTable {
        value: Src,
        cases: u32,
        ncases: u32,
        default: u32,
    },
}

/// One pre-decoded instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    pub(crate) kind: Kind,
    /// Cycles the instruction costs whatever happens: [`BASE`] plus its
    /// kind's fixed extra.
    pub(crate) cost: u64,
    /// Start byte address ([`Binary::addrs`]).
    pub(crate) addr: u64,
}

/// A [`Binary`] decoded for one [`Machine`](crate::Machine).
pub(crate) struct Program {
    pub(crate) ops: Vec<Op>,
    /// Call-argument pool.
    pub(crate) args: Vec<Src>,
    /// Jump-table pool: `(key, target)`.
    pub(crate) cases: Vec<(i64, u32)>,
    /// The constant area: distinct immediates, in first-use order. A
    /// machine copies it to the bottom of its register stack.
    pub(crate) consts: Vec<i64>,
    /// `(start, len)` of each global in the flat data memory.
    pub(crate) globals: Vec<(u32, u32)>,
}

/// Why a [`Binary`] cannot be decoded (the text of
/// [`SimError::MalformedBinary`](crate::SimError::MalformedBinary)).
type Malformed = String;

fn narrow(n: usize, what: &str) -> Result<u32, Malformed> {
    u32::try_from(n)
        .ok()
        .filter(|&n| n < CONST_BIT)
        .ok_or_else(|| format!("{what} {n} out of range"))
}

/// Operand resolution for the instructions of one function.
struct Operands<'p> {
    consts: &'p mut Vec<i64>,
    const_slots: &'p mut HashMap<i64, u32>,
    /// Registers of the function being decoded.
    num_vregs: usize,
}

impl Operands<'_> {
    fn reg(&self, r: VReg) -> Result<Reg, Malformed> {
        if r.index() >= self.num_vregs {
            return Err(format!(
                "register {r:?} outside a {}-register frame",
                self.num_vregs
            ));
        }
        narrow(r.index(), "register")
    }

    fn constant(&mut self, v: i64) -> Result<Src, Malformed> {
        let slot = match self.const_slots.get(&v) {
            Some(&slot) => slot,
            None => {
                let slot = narrow(self.consts.len(), "constant slot")?;
                self.consts.push(v);
                self.const_slots.insert(v, slot);
                slot
            }
        };
        Ok(Src(slot | CONST_BIT))
    }

    fn src(&mut self, o: Operand) -> Result<Src, Malformed> {
        match o {
            Operand::Reg(r) => self.reg(r).map(Src),
            Operand::Imm(v) => self.constant(v),
        }
    }
}

impl Program {
    /// Decodes `binary`, checking once everything the
    /// instruction loop then takes on trust.
    ///
    /// # Errors
    ///
    /// Says what is wrong with a binary no code generator emits: what
    /// [`Binary::check_tables`] finds, a register outside its function's
    /// frame, a branch target, callee, global or counter that does not
    /// exist, text that can run off its own end, data, counters or a
    /// register window past their bounds, or a table too large for a 31-bit
    /// index.
    pub(crate) fn decode(binary: &Binary) -> Result<Program, Malformed> {
        binary.check_tables()?;
        let text_len = binary.insts.len();
        // Every way out of the last instruction must be a branch: the loop
        // fetches `pc + 1` after anything that falls through or returns to.
        if let Some(last) = binary.insts.last() {
            if !matches!(
                last.kind,
                MInstKind::Ret { .. }
                    | MInstKind::Jmp { .. }
                    | MInstKind::TailCall { .. }
                    | MInstKind::JmpTable { .. }
            ) {
                return Err("the last instruction can fall off the end of the text".into());
            }
        }

        let mut globals = Vec::with_capacity(binary.globals.len());
        let mut memory_len = 0usize;
        for g in &binary.globals {
            globals.push((
                narrow(memory_len, "data address")?,
                narrow(g.size, "global size")?,
            ));
            memory_len = memory_len.saturating_add(g.size);
        }
        if memory_len > MAX_GLOBAL_CELLS {
            return Err(format!(
                "{memory_len} data cells past the bound of {MAX_GLOBAL_CELLS}"
            ));
        }
        if binary.num_counters > MAX_COUNTERS {
            return Err(format!(
                "{} counters past the bound of {MAX_COUNTERS}",
                binary.num_counters
            ));
        }
        if let Some(f) = (binary.funcs.iter()).find(|f| f.num_vregs > MAX_FRAME_REGISTERS) {
            return Err(format!(
                "function `{}` opens {} registers, past the bound of {MAX_FRAME_REGISTERS}",
                f.name, f.num_vregs
            ));
        }

        let mut program = Program {
            ops: Vec::with_capacity(text_len),
            args: Vec::new(),
            cases: Vec::new(),
            consts: Vec::new(),
            globals,
        };
        let mut const_slots = HashMap::new();

        for (pc, inst) in binary.insts.iter().enumerate() {
            let owner = &binary.funcs[binary.func_of[pc] as usize];
            let mut operands = Operands {
                consts: &mut program.consts,
                const_slots: &mut const_slots,
                num_vregs: owner.num_vregs,
            };
            let target = |t: usize| {
                if t >= text_len {
                    return Err(format!(
                        "branch target {t} past the {text_len}-instruction text"
                    ));
                }
                narrow(t, "branch target")
            };
            let global = |g: usize| {
                program
                    .globals
                    .get(g)
                    .copied()
                    .ok_or_else(|| format!("global {g} does not exist"))
            };
            // A call site: the callee's entry, the window it opens (the
            // callee's registers, or the arguments if there are more of
            // them), and the arguments in the pool.
            let mut call = |callee: u32, call_args: &[Operand], operands: &mut Operands<'_>| {
                let callee = binary
                    .funcs
                    .get(callee as usize)
                    .ok_or_else(|| format!("callee {callee} does not exist"))?;
                let start = narrow(program.args.len(), "argument pool")?;
                for &a in call_args {
                    program.args.push(operands.src(a)?);
                }
                Ok::<_, Malformed>((
                    target(callee.entry)?,
                    narrow(callee.num_vregs.max(call_args.len()), "frame size")?,
                    start,
                    narrow(call_args.len(), "argument count")?,
                ))
            };
            let (kind, extra) = match &inst.kind {
                MInstKind::Copy { dst, src } => (
                    Kind::Copy {
                        dst: operands.reg(*dst)?,
                        src: operands.src(*src)?,
                    },
                    0,
                ),
                MInstKind::Bin { op, dst, lhs, rhs } => (
                    Kind::Bin {
                        op: *op,
                        dst: operands.reg(*dst)?,
                        lhs: operands.src(*lhs)?,
                        rhs: operands.src(*rhs)?,
                    },
                    0,
                ),
                MInstKind::Cmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => (
                    Kind::Cmp {
                        pred: *pred,
                        dst: operands.reg(*dst)?,
                        lhs: operands.src(*lhs)?,
                        rhs: operands.src(*rhs)?,
                    },
                    0,
                ),
                MInstKind::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => (
                    Kind::Select {
                        dst: operands.reg(*dst)?,
                        cond: operands.src(*cond)?,
                        on_true: operands.src(*on_true)?,
                        on_false: operands.src(*on_false)?,
                    },
                    SELECT,
                ),
                MInstKind::Load {
                    dst,
                    global: g,
                    index,
                } => {
                    let (start, len) = global(g.index())?;
                    (
                        Kind::Load {
                            dst: operands.reg(*dst)?,
                            start,
                            len,
                            index: operands.src(*index)?,
                        },
                        MEM_OP,
                    )
                }
                MInstKind::Store {
                    global: g,
                    index,
                    value,
                } => {
                    let (start, len) = global(g.index())?;
                    (
                        Kind::Store {
                            start,
                            len,
                            index: operands.src(*index)?,
                            value: operands.src(*value)?,
                        },
                        MEM_OP,
                    )
                }
                MInstKind::CounterIncr { counter } => {
                    if *counter >= binary.num_counters {
                        return Err(format!(
                            "counter {counter} outside the {} the binary declares",
                            binary.num_counters
                        ));
                    }
                    (Kind::CounterIncr { counter: *counter }, COUNTER)
                }
                MInstKind::SpillLoad { .. } | MInstKind::SpillStore { .. } => (Kind::Nop, MEM_OP),
                MInstKind::Call { dst, callee, args } => {
                    let (entry, window, start, nargs) = call(*callee, args, &mut operands)?;
                    (
                        Kind::Call {
                            dst: match dst {
                                Some(d) => operands.reg(*d)?,
                                None => NO_REG,
                            },
                            entry,
                            window,
                            args: start,
                            nargs,
                        },
                        CALL + args.len() as u64,
                    )
                }
                MInstKind::TailCall { callee, args } => {
                    let (entry, window, start, nargs) = call(*callee, args, &mut operands)?;
                    (
                        Kind::TailCall {
                            entry,
                            window,
                            args: start,
                            nargs,
                        },
                        CALL,
                    )
                }
                MInstKind::Ret { value } => (
                    Kind::Ret {
                        value: operands.src(value.unwrap_or(Operand::Imm(0)))?,
                    },
                    RET,
                ),
                MInstKind::Jmp { target: t } => (
                    Kind::Jmp {
                        target: target(*t)?,
                    },
                    0,
                ),
                MInstKind::JmpIf {
                    cond,
                    negate,
                    target: t,
                } => (
                    Kind::JmpIf {
                        cond: operands.src(*cond)?,
                        negate: *negate,
                        target: target(*t)?,
                    },
                    0,
                ),
                MInstKind::JmpTable {
                    value,
                    targets,
                    default,
                } => {
                    let start = narrow(program.cases.len(), "jump-table pool")?;
                    for &(k, t) in targets {
                        program.cases.push((k, target(t)?));
                    }
                    (
                        Kind::JmpTable {
                            value: operands.src(*value)?,
                            cases: start,
                            ncases: narrow(targets.len(), "jump-table size")?,
                            default: target(*default)?,
                        },
                        1, // the table load
                    )
                }
            };
            program.ops.push(Op {
                kind,
                cost: BASE + extra,
                addr: binary.addrs[pc],
            });
        }
        Ok(program)
    }

    /// Cells of the flat data memory.
    pub(crate) fn memory_len(&self) -> usize {
        self.globals
            .last()
            .map_or(0, |&(start, len)| (start + len) as usize)
    }
}
