//! Machine instructions.
//!
//! The machine keeps virtual-register operational semantics (spills are
//! cost-only pseudo-instructions; see DESIGN.md §5) but is otherwise a real
//! linear machine program: byte-sized instructions, flat branch targets,
//! fall-through execution, call/return/tail-call control transfer.

use csspgo_ir::debuginfo::DebugLoc;
use csspgo_ir::inst::{BinOp, CmpPred, Operand};
use csspgo_ir::probe::{ProbeKind, ProbeSite};
use csspgo_ir::{FuncId, GlobalId, VReg};
use serde::{Deserialize, Serialize};

/// A flat-index branch target (index into [`crate::Binary::insts`]).
pub type Target = usize;

/// Machine operation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MInstKind {
    /// `dst = src`.
    Copy { dst: VReg, src: Operand },
    /// `dst = lhs <op> rhs`.
    Bin {
        op: BinOp,
        dst: VReg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = lhs <pred> rhs`.
    Cmp {
        pred: CmpPred,
        dst: VReg,
        lhs: Operand,
        rhs: Operand,
    },
    /// Conditional move.
    Select {
        dst: VReg,
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
    },
    /// `dst = global[index]` (a data-memory access).
    Load {
        dst: VReg,
        global: GlobalId,
        index: Operand,
    },
    /// `global[index] = value` (a data-memory access).
    Store {
        global: GlobalId,
        index: Operand,
        value: Operand,
    },
    /// Instrumentation counter increment: a real load+add+store.
    CounterIncr { counter: u32 },
    /// Direct call (pushes a frame).
    Call {
        dst: Option<VReg>,
        callee: u32,
        args: Vec<Operand>,
    },
    /// Tail call (replaces the current frame; the caller vanishes from the
    /// frame-pointer chain).
    TailCall { callee: u32, args: Vec<Operand> },
    /// Return.
    Ret { value: Option<Operand> },
    /// Unconditional jump.
    Jmp { target: Target },
    /// Conditional jump: taken when `cond != 0` (xor `negate`).
    JmpIf {
        cond: Operand,
        negate: bool,
        target: Target,
    },
    /// Jump table (lowered `switch`).
    JmpTable {
        value: Operand,
        targets: Vec<(i64, Target)>,
        default: Target,
    },
    /// Cost-only reload of a spilled register (no operational effect).
    SpillLoad { slot: u32 },
    /// Cost-only store of a spilled register (no operational effect).
    SpillStore { slot: u32 },
}

impl MInstKind {
    /// Encoded size in bytes (a plausible x86-64-flavoured model; absolute
    /// values only matter relatively, for layout distances and Fig. 9).
    pub fn size(&self) -> u32 {
        match self {
            MInstKind::Copy { .. } => 3,
            MInstKind::Bin { .. } => 4,
            MInstKind::Cmp { .. } => 4,
            MInstKind::Select { .. } => 6,
            MInstKind::Load { .. } | MInstKind::Store { .. } => 5,
            MInstKind::CounterIncr { .. } => 12,
            MInstKind::Call { .. } => 5,
            MInstKind::TailCall { .. } => 5,
            MInstKind::Ret { .. } => 1,
            MInstKind::Jmp { .. } => 5,
            MInstKind::JmpIf { .. } => 6,
            MInstKind::JmpTable { targets, .. } => 8 + 4 * targets.len() as u32,
            MInstKind::SpillLoad { .. } | MInstKind::SpillStore { .. } => 4,
        }
    }
}

/// A pseudo-probe note attached to a machine instruction: the probe
/// "materialized as metadata against the location of the physical
/// instruction next to it" (paper §III.A).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeNote {
    /// Function that originally owned the probe.
    pub owner: FuncId,
    /// GUID of that function (stable across builds).
    pub owner_guid: u64,
    /// Probe index within the owner.
    pub index: u32,
    /// Block or call-site probe.
    pub kind: ProbeKind,
    /// Chain of call-site probes this probe was inlined through.
    pub inline_stack: Vec<ProbeSite>,
}

/// One machine instruction with its metadata.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MInst {
    pub kind: MInstKind,
    /// Encoded size in bytes.
    pub size: u32,
    /// Debug-line metadata (the AutoFDO anchor).
    pub loc: DebugLoc,
    /// Pseudo-probe notes anchored at this instruction.
    pub probes: Vec<ProbeNote>,
}

impl MInst {
    /// Wraps a kind with its natural size and the given location.
    pub fn new(kind: MInstKind, loc: DebugLoc) -> Self {
        let size = kind.size();
        MInst {
            kind,
            size,
            loc,
            probes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_positive_and_table_grows() {
        assert!(MInstKind::Ret { value: None }.size() >= 1);
        let small = MInstKind::JmpTable {
            value: Operand::Imm(0),
            targets: vec![(0, 0)],
            default: 0,
        };
        let big = MInstKind::JmpTable {
            value: Operand::Imm(0),
            targets: vec![(0, 0); 10],
            default: 0,
        };
        assert!(big.size() > small.size());
    }

    #[test]
    fn counter_incr_is_expensive() {
        // The instrumented build's overhead comes from here.
        assert!(
            MInstKind::CounterIncr { counter: 0 }.size()
                > MInstKind::Copy {
                    dst: VReg(0),
                    src: Operand::Imm(0)
                }
                .size()
        );
    }
}
