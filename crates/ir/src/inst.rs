//! Instructions.
//!
//! The IR is a three-address register machine. Each [`Inst`] pairs an
//! [`InstKind`] with a [`DebugLoc`]. Blocks end in exactly one terminator
//! (`Br`, `CondBr`, `Switch` or `Ret`).

use crate::debuginfo::DebugLoc;
use crate::ids::{BlockId, FuncId, GlobalId, VReg};
use crate::probe::{ProbeKind, ProbeSite};
use serde::{Deserialize, Serialize};

/// An instruction operand: a virtual register or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
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

/// Integer binary operations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
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

/// Integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
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

/// The operation an instruction performs. Ordered variant by variant and
/// field by field, so equal kinds sort together.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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

    /// Successor blocks of a terminator, in edge order and with repeats
    /// (empty for non-terminators and `Ret`). Allocates nothing.
    pub fn targets(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (cases, fixed): (&[(i64, BlockId)], [Option<BlockId>; 2]) = match self {
            InstKind::Br { target } => (&[], [Some(*target), None]),
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => (&[], [Some(*then_bb), Some(*else_bb)]),
            InstKind::Switch { cases, default, .. } => (cases, [Some(*default), None]),
            _ => (&[], [None, None]),
        };
        cases
            .iter()
            .map(|&(_, b)| b)
            .chain(fixed.into_iter().flatten())
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

    /// Calls `f` on every register this instruction reads, in operand order
    /// (a register read twice is passed twice). Allocates nothing.
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        let mut reg = |op: &Operand| {
            if let Operand::Reg(r) = *op {
                f(r);
            }
        };
        match self {
            InstKind::Copy { src, .. } => reg(src),
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                reg(lhs);
                reg(rhs);
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                reg(cond);
                reg(on_true);
                reg(on_false);
            }
            InstKind::Load { index, .. } => reg(index),
            InstKind::Store { index, value, .. } => {
                reg(index);
                reg(value);
            }
            InstKind::Call { args, .. } => args.iter().for_each(reg),
            InstKind::Ret { value } => value.iter().for_each(reg),
            InstKind::CondBr { cond, .. } => reg(cond),
            InstKind::Switch { value, .. } => reg(value),
            InstKind::Br { .. } | InstKind::PseudoProbe { .. } | InstKind::CounterIncr { .. } => {}
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
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
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
        assert_eq!(br.targets().collect::<Vec<_>>(), vec![BlockId(1)]);
        let cb = InstKind::CondBr {
            cond: Operand::Imm(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(
            cb.targets().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
        let sw = InstKind::Switch {
            value: Operand::Imm(0),
            cases: vec![(0, BlockId(3)), (1, BlockId(4))],
            default: BlockId(5),
        };
        assert_eq!(
            sw.targets().collect::<Vec<_>>(),
            vec![BlockId(3), BlockId(4), BlockId(5)]
        );
        assert_eq!(InstKind::Ret { value: None }.targets().count(), 0);
    }

    #[test]
    fn map_successors_rewrites_all_edges() {
        let mut sw = InstKind::Switch {
            value: Operand::Imm(0),
            cases: vec![(0, BlockId(3))],
            default: BlockId(5),
        };
        sw.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(
            sw.targets().collect::<Vec<_>>(),
            vec![BlockId(13), BlockId(15)]
        );
    }

    #[test]
    fn defs_and_uses() {
        let call = InstKind::Call {
            dst: Some(VReg(3)),
            callee: FuncId(0),
            args: vec![Operand::Reg(VReg(1)), Operand::Imm(2)],
        };
        assert_eq!(call.def(), Some(VReg(3)));
        let mut read = Vec::new();
        call.for_each_use(|r| read.push(r));
        assert_eq!(read, vec![VReg(1)]);
        assert!(call.has_side_effects());

        let probe = InstKind::PseudoProbe {
            owner: FuncId(0),
            index: 1,
            kind: ProbeKind::Block,
            inline_stack: Vec::new(),
            factor: 1,
        };
        assert_eq!(probe.def(), None);
        probe.for_each_use(|r| panic!("a probe reads {r}"));
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
        assert_eq!(
            add,
            InstKind::Bin {
                op: BinOp::Add,
                dst: VReg(2),
                lhs: Operand::Imm(7),
                rhs: Operand::Reg(VReg(1)),
            }
        );
    }
}
