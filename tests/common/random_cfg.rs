//! The random CFG the property tests share. Test packages include this
//! file through `#[path]`, so it names crates as `csspgo_ir`.

#![allow(dead_code)] // each test that includes this uses a part of it

use csspgo_ir::builder::ModuleBuilder;
use csspgo_ir::inst::{CmpPred, Operand};
use csspgo_ir::{Module, VReg};
use proptest::prelude::*;

/// [`build_cfg`]'s arguments for 2 to 11 blocks.
pub fn cfg_strategy() -> impl Strategy<Value = (usize, Vec<(u8, u8, u8)>)> {
    (2usize..12).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), n..=n),
        )
    })
}

/// [`build_cfg`]'s arguments for 2 to 9 blocks, and a raw count per block.
pub fn counted_cfg_strategy() -> impl Strategy<Value = (usize, Vec<(u8, u8, u8)>, Vec<u16>)> {
    (2usize..10).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), n..=n),
            prop::collection::vec(any::<u16>(), n..=n),
        )
    })
}

/// One function of `n` blocks, any shape (cycles, unreachable blocks,
/// several or no exits): block i ends, by `edges[i] = (kind, a, b)`, in a
/// return, a jump to block `a`, or a branch to `a` or `b` (mod `n`).
pub fn build_cfg(n: usize, edges: &[(u8, u8, u8)]) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let f = mb.declare_function("f", 1);
    {
        let mut fb = mb.function_builder(f);
        let entry = fb.entry_block();
        let mut blocks = vec![entry];
        for _ in 1..n {
            blocks.push(fb.add_block());
        }
        for (i, &(kind, a, b)) in edges.iter().enumerate().take(n) {
            fb.switch_to(blocks[i]);
            let t1 = blocks[a as usize % n];
            let t2 = blocks[b as usize % n];
            match kind % 3 {
                0 => fb.ret(Some(Operand::Reg(VReg(0)))),
                1 => fb.br(t1),
                _ => {
                    let c = fb.cmp(CmpPred::Gt, Operand::Reg(VReg(0)), Operand::Imm(i as i64));
                    fb.cond_br(Operand::Reg(c), t1, t2);
                }
            }
        }
    }
    mb.finish()
}
