//! Instructions.
//!
//! The IR is a three-address register machine. Each [`Inst`] pairs an
//! [`InstKind`] with a [`DebugLoc`]. Blocks end in exactly one terminator
//! (`Br`, `CondBr`, `Switch` or `Ret`).

use crate::debuginfo::DebugLoc;
use crate::ids::{BlockId, FuncId, GlobalId, VReg};
use crate::probe::{ProbeKind, ProbeSite};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An instruction operand: a virtual register or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(VReg),
    /// A 64-bit immediate.
    Imm(i64),
}

impl Operand {
    /// The immediate, if this operand is one.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(v) => Some(v),
        }
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Integer binary operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Division; division by zero yields 0 (the simulator is total).
    Div,
    /// Remainder; remainder by zero yields 0.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BinOp {
    /// Evaluates the operation on concrete values (wrapping semantics).
    #[inline]
    pub fn eval(self, lhs: i64, rhs: i64) -> i64 {
        match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::Mul => lhs.wrapping_mul(rhs),
            BinOp::Div => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_div(rhs)
                }
            }
            BinOp::Rem => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_rem(rhs)
                }
            }
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Shl => lhs.wrapping_shl((rhs & 63) as u32),
            BinOp::Shr => lhs.wrapping_shr((rhs & 63) as u32),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CmpPred {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpPred {
    /// Evaluates the predicate; true is 1, false is 0.
    #[inline]
    pub fn eval(self, lhs: i64, rhs: i64) -> i64 {
        let b = match self {
            CmpPred::Eq => lhs == rhs,
            CmpPred::Ne => lhs != rhs,
            CmpPred::Lt => lhs < rhs,
            CmpPred::Le => lhs <= rhs,
            CmpPred::Gt => lhs > rhs,
            CmpPred::Ge => lhs >= rhs,
        };
        i64::from(b)
    }
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// The operation an instruction performs.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum InstKind {
    /// `dst = src`.
    Copy { dst: VReg, src: Operand },
    /// `dst = lhs <op> rhs`.
    Bin {
        op: BinOp,
        dst: VReg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = lhs <pred> rhs` (0 or 1).
    Cmp {
        pred: CmpPred,
        dst: VReg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cond != 0 ? on_true : on_false` — produced by if-conversion.
    Select {
        dst: VReg,
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
    },
    /// `dst = global[index]`. Out-of-bounds reads yield 0.
    Load {
        dst: VReg,
        global: GlobalId,
        index: Operand,
    },
    /// `global[index] = value`. Out-of-bounds writes are dropped.
    Store {
        global: GlobalId,
        index: Operand,
        value: Operand,
    },
    /// Direct call. `dst` receives the return value if present.
    Call {
        dst: Option<VReg>,
        callee: FuncId,
        args: Vec<Operand>,
    },
    /// Return from the current function.
    Ret { value: Option<Operand> },
    /// Unconditional branch.
    Br { target: BlockId },
    /// Two-way conditional branch (`cond != 0` takes `then_bb`).
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Multi-way dispatch on an integer value.
    Switch {
        value: Operand,
        cases: Vec<(i64, BlockId)>,
        default: BlockId,
    },
    /// Pseudo-instrumentation anchor (the paper's §III.A).
    ///
    /// Executes as a no-op and lowers to *metadata only*. `owner` is the
    /// function the probe was originally inserted into, `index` its dense
    /// probe number within that function, and `inline_stack` the chain of
    /// *call-site probes* through which it was inlined (outermost first) —
    /// the probe-based analogue of [`DebugLoc::inline_stack`].
    ///
    /// `factor` is the probe's **duplication factor**: this copy represents
    /// `1/factor` of the probe's weight, so across all co-existing copies of
    /// one probe id (same `owner`, `index` and `inline_stack`) the weights
    /// sum to at most 1. Probes start at 1; `unroll` and `tail_dup` multiply
    /// the factor of every copy they create, and later merges/DCE may drop
    /// copies (the sum only shrinks). Mirrors the paper's probe
    /// duplication-factor metadata (§III.A); `probe_verify` enforces the
    /// invariant between passes.
    PseudoProbe {
        owner: FuncId,
        index: u32,
        kind: ProbeKind,
        inline_stack: Vec<ProbeSite>,
        factor: u32,
    },
    /// Traditional instrumentation: increment profile counter `counter`.
    ///
    /// Lowers to a real load/add/store sequence and acts as a code-merge
    /// barrier, reproducing instrumentation-based PGO's run-time overhead.
    CounterIncr { counter: u32 },
}

impl InstKind {
    /// Whether this kind terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Ret { .. }
                | InstKind::Br { .. }
                | InstKind::CondBr { .. }
                | InstKind::Switch { .. }
        )
    }

    /// Successor blocks of a terminator (empty for non-terminators and `Ret`).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            InstKind::Br { target } => vec![*target],
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            InstKind::Switch { cases, default, .. } => {
                let mut out: Vec<BlockId> = cases.iter().map(|&(_, b)| b).collect();
                out.push(*default);
                out
            }
            _ => Vec::new(),
        }
    }

    /// Rewrites every successor edge through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            InstKind::Br { target } => *target = f(*target),
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            InstKind::Switch { cases, default, .. } => {
                for (_, b) in cases.iter_mut() {
                    *b = f(*b);
                }
                *default = f(*default);
            }
            _ => {}
        }
    }

    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            InstKind::Copy { dst, .. }
            | InstKind::Bin { dst, .. }
            | InstKind::Cmp { dst, .. }
            | InstKind::Select { dst, .. }
            | InstKind::Load { dst, .. } => Some(*dst),
            InstKind::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Collects the operands this instruction reads.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            InstKind::Copy { src, .. } => vec![*src],
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            InstKind::Select {
                cond,
                on_true,
                on_false,
                ..
            } => vec![*cond, *on_true, *on_false],
            InstKind::Load { index, .. } => vec![*index],
            InstKind::Store { index, value, .. } => vec![*index, *value],
            InstKind::Call { args, .. } => args.clone(),
            InstKind::Ret { value } => value.iter().copied().collect(),
            InstKind::CondBr { cond, .. } => vec![*cond],
            InstKind::Switch { value, .. } => vec![*value],
            InstKind::Br { .. } | InstKind::PseudoProbe { .. } | InstKind::CounterIncr { .. } => {
                Vec::new()
            }
        }
    }

    /// Rewrites every register *use* through `f` (defs are untouched).
    pub fn map_uses(&mut self, mut f: impl FnMut(VReg) -> Operand) {
        let map = |op: &mut Operand, f: &mut dyn FnMut(VReg) -> Operand| {
            if let Operand::Reg(r) = *op {
                *op = f(r);
            }
        };
        match self {
            InstKind::Copy { src, .. } => map(src, &mut f),
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                map(lhs, &mut f);
                map(rhs, &mut f);
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                map(cond, &mut f);
                map(on_true, &mut f);
                map(on_false, &mut f);
            }
            InstKind::Load { index, .. } => map(index, &mut f),
            InstKind::Store { index, value, .. } => {
                map(index, &mut f);
                map(value, &mut f);
            }
            InstKind::Call { args, .. } => {
                for a in args.iter_mut() {
                    map(a, &mut f);
                }
            }
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    map(v, &mut f);
                }
            }
            InstKind::CondBr { cond, .. } => map(cond, &mut f),
            InstKind::Switch { value, .. } => map(value, &mut f),
            InstKind::Br { .. } | InstKind::PseudoProbe { .. } | InstKind::CounterIncr { .. } => {}
        }
    }

    /// Whether the instruction has an observable effect beyond its `def`
    /// (memory writes, calls, control flow, instrumentation).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            InstKind::Store { .. }
                | InstKind::Call { .. }
                | InstKind::CounterIncr { .. }
                | InstKind::PseudoProbe { .. }
        ) || self.is_terminator()
    }
}

/// An instruction: an operation plus its source location.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Inst {
    pub kind: InstKind,
    pub loc: DebugLoc,
}

impl Inst {
    /// Builds an instruction with the given location.
    pub fn new(kind: InstKind, loc: DebugLoc) -> Self {
        Inst { kind, loc }
    }

    /// Builds an instruction with no location.
    pub fn synthetic(kind: InstKind) -> Self {
        Inst {
            kind,
            loc: DebugLoc::none(),
        }
    }

    /// Whether this instruction terminates a block.
    pub fn is_terminator(&self) -> bool {
        self.kind.is_terminator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_total() {
        assert_eq!(BinOp::Div.eval(10, 0), 0);
        assert_eq!(BinOp::Rem.eval(10, 0), 0);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Shl.eval(1, 64), 1); // shift amount masked
    }

    #[test]
    fn successors_of_terminators() {
        let br = InstKind::Br { target: BlockId(1) };
        assert_eq!(br.successors(), vec![BlockId(1)]);
        let cb = InstKind::CondBr {
            cond: Operand::Imm(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(cb.successors(), vec![BlockId(1), BlockId(2)]);
        let sw = InstKind::Switch {
            value: Operand::Imm(0),
            cases: vec![(0, BlockId(3)), (1, BlockId(4))],
            default: BlockId(5),
        };
        assert_eq!(sw.successors(), vec![BlockId(3), BlockId(4), BlockId(5)]);
        assert!(InstKind::Ret { value: None }.successors().is_empty());
    }

    #[test]
    fn map_successors_rewrites_all_edges() {
        let mut sw = InstKind::Switch {
            value: Operand::Imm(0),
            cases: vec![(0, BlockId(3))],
            default: BlockId(5),
        };
        sw.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(sw.successors(), vec![BlockId(13), BlockId(15)]);
    }

    #[test]
    fn defs_and_uses() {
        let call = InstKind::Call {
            dst: Some(VReg(3)),
            callee: FuncId(0),
            args: vec![Operand::Reg(VReg(1)), Operand::Imm(2)],
        };
        assert_eq!(call.def(), Some(VReg(3)));
        assert_eq!(call.uses().len(), 2);
        assert!(call.has_side_effects());

        let probe = InstKind::PseudoProbe {
            owner: FuncId(0),
            index: 1,
            kind: ProbeKind::Block,
            inline_stack: Vec::new(),
            factor: 1,
        };
        assert_eq!(probe.def(), None);
        assert!(probe.uses().is_empty());
        // Probes may not be deleted as dead code: modelled as a side effect.
        assert!(probe.has_side_effects());
    }

    #[test]
    fn map_uses_substitutes_registers() {
        let mut add = InstKind::Bin {
            op: BinOp::Add,
            dst: VReg(2),
            lhs: Operand::Reg(VReg(0)),
            rhs: Operand::Reg(VReg(1)),
        };
        add.map_uses(|r| {
            if r == VReg(0) {
                Operand::Imm(7)
            } else {
                Operand::Reg(r)
            }
        });
        assert_eq!(add.uses(), vec![Operand::Imm(7), Operand::Reg(VReg(1))]);
        // def untouched
        assert_eq!(add.def(), Some(VReg(2)));
    }
}
