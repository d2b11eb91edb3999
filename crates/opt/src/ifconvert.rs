//! If-conversion: turns tiny diamonds into branch-free `select`s.
//!
//! Pattern:
//!
//! ```text
//!   P: ... condbr c, T, E        P: ... r = select c, sT, sE; br J
//!   T: r = sT; br J        =>    (T, E dead)
//!   E: r = sE; br J
//! ```
//!
//! With profile, *biased* branches are left alone (a predictable branch
//! beats a select); balanced branches convert. This is one of the paper's
//! tuned interactions with pseudo-probes: below [`ProbeBarrier::IfConvert`]
//! (the production tuning is [`ProbeBarrier::None`]) the arm probes are
//! hoisted into `P`, trading a small frequency distortion for zero run-time
//! cost; at it or above, probed diamonds are skipped entirely.

use crate::{single_predecessors, OptConfig};
use csspgo_ir::inst::{Inst, InstKind, Operand};
use csspgo_ir::probe::ProbeBarrier;
use csspgo_ir::{cfg, BlockId, Function, Module, VReg};

/// Runs if-conversion on every function.
pub fn run(module: &mut Module, config: &OptConfig) {
    let mut only_pred = Vec::new();
    for func in &mut module.functions {
        convert_function(func, config, &mut only_pred);
    }
}

/// A decomposed convertible arm: leading probes + single copy + branch.
struct Arm {
    /// How many probes lead the arm.
    probes: usize,
    dst: VReg,
    src: Operand,
    join: BlockId,
}

fn decompose_arm(func: &Function, bb: BlockId) -> Option<Arm> {
    let insts = &func.block(bb).insts;
    let split = insts
        .iter()
        .position(|i| !matches!(i.kind, InstKind::PseudoProbe { .. }))
        .unwrap_or(insts.len());
    match &insts[split..] {
        [copy, br] => match (&copy.kind, &br.kind) {
            (InstKind::Copy { dst, src }, InstKind::Br { target }) => Some(Arm {
                probes: split,
                dst: *dst,
                src: *src,
                join: *target,
            }),
            _ => None,
        },
        _ => None,
    }
}

/// Converts eligible diamonds of `func` with `only_pred` as the
/// single-predecessor table; returns the number of conversions.
fn convert_function(func: &mut Function, config: &OptConfig, only_pred: &mut Vec<u32>) -> usize {
    let mut converted = 0;
    loop {
        single_predecessors(func, only_pred);
        let mut found: Option<(BlockId, BlockId, BlockId)> = None;
        for (p, block) in func.iter_blocks() {
            let Some(InstKind::CondBr {
                then_bb, else_bb, ..
            }) = block.terminator().map(|t| &t.kind)
            else {
                continue;
            };
            let (then_bb, else_bb) = (*then_bb, *else_bb);
            if then_bb == else_bb || then_bb == p || else_bb == p {
                continue;
            }
            let p32 = p.index() as u32;
            if only_pred[then_bb.index()] != p32 || only_pred[else_bb.index()] != p32 {
                continue;
            }
            let (Some(t_arm), Some(e_arm)) =
                (decompose_arm(func, then_bb), decompose_arm(func, else_bb))
            else {
                continue;
            };
            if t_arm.dst != e_arm.dst || t_arm.join != e_arm.join || t_arm.join == p {
                continue;
            }
            // Sources must not be the destination itself (select reads both).
            if t_arm.src == Operand::Reg(t_arm.dst) || e_arm.src == Operand::Reg(e_arm.dst) {
                continue;
            }
            if config.probe >= ProbeBarrier::IfConvert && (t_arm.probes > 0 || e_arm.probes > 0) {
                continue;
            }
            // Profile heuristic: leave strongly biased branches alone — a
            // well-predicted branch (~bias/14 cycles) beats a select
            // (1-2 cycles) only past roughly 16:1.
            if let (Some(tc), Some(ec)) = (func.block(then_bb).count, func.block(else_bb).count) {
                let (hi, lo) = (tc.max(ec), tc.min(ec));
                if hi > 0 && (lo == 0 || hi / lo.max(1) >= 16) {
                    continue;
                }
            }
            found = Some((p, then_bb, else_bb));
            break;
        }
        let Some((p, t, e)) = found else { break };

        let t_arm = decompose_arm(func, t).expect("checked above");
        let e_arm = decompose_arm(func, e).expect("checked above");
        let join = t_arm.join;
        // The arms die here: their probes move out of them, not by copy.
        let mut t_insts = std::mem::take(&mut func.block_mut(t).insts);
        let mut e_insts = std::mem::take(&mut func.block_mut(e).insts);
        let pb = func.block_mut(p);
        let condbr = pb.insts.pop().expect("condbr");
        let InstKind::CondBr { cond, .. } = condbr.kind else {
            unreachable!()
        };
        let term_loc = condbr.loc;
        // Hoist arm probes (frequency distortion accepted — paper's tuning).
        pb.insts.extend(t_insts.drain(..t_arm.probes));
        pb.insts.extend(e_insts.drain(..e_arm.probes));
        pb.insts.push(Inst::new(
            InstKind::Select {
                dst: t_arm.dst,
                cond,
                on_true: t_arm.src,
                on_false: e_arm.src,
            },
            term_loc.clone(),
        ));
        pb.insts
            .push(Inst::new(InstKind::Br { target: join }, term_loc));
        cfg::remove_unreachable(func);
        converted += 1;
    }
    converted
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::verify::verify_module;

    /// Converts eligible diamonds; returns the number of conversions.
    fn run_function(func: &mut Function, config: &OptConfig) -> usize {
        convert_function(func, config, &mut Vec::new())
    }

    const SRC: &str = r#"
fn f(a) {
    let r = 0;
    if (a > 0) {
        r = 1;
    } else {
        r = 2;
    }
    return r;
}
"#;

    fn count_selects(f: &Function) -> usize {
        f.iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::Select { .. }))
            .count()
    }

    #[test]
    fn converts_balanced_diamond() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let n = run_function(&mut m.functions[0], &OptConfig::default());
        assert_eq!(n, 1);
        assert_eq!(count_selects(&m.functions[0]), 1);
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn biased_branch_kept_with_profile() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        // entry, then, else, join: bias then:else = 99:1.
        for bid in &ids {
            f.block_mut(*bid).count = Some(100);
        }
        f.block_mut(ids[1]).count = Some(99);
        f.block_mut(ids[2]).count = Some(1);
        let n = run_function(f, &OptConfig::default());
        assert_eq!(n, 0, "biased branch must be kept");
    }

    #[test]
    fn balanced_branch_converted_with_profile() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        let f = &mut m.functions[0];
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        for bid in &ids {
            f.block_mut(*bid).count = Some(100);
        }
        f.block_mut(ids[1]).count = Some(55);
        f.block_mut(ids[2]).count = Some(45);
        assert_eq!(run_function(f, &OptConfig::default()), 1);
    }

    #[test]
    fn probes_hoisted_in_low_overhead_mode() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        let probes_before: usize = m.functions[0]
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::PseudoProbe { .. }))
            .count();
        let n = run_function(&mut m.functions[0], &OptConfig::default());
        assert_eq!(n, 1, "low-overhead tuning must not block if-convert");
        let probes_after: usize = m.functions[0]
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::PseudoProbe { .. }))
            .count();
        assert_eq!(
            probes_before, probes_after,
            "arm probes hoisted, not dropped"
        );
    }

    #[test]
    fn probes_block_in_high_accuracy_mode() {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        crate::probes::run(&mut m);
        let config = OptConfig {
            probe: ProbeBarrier::IfConvert,
            ..OptConfig::default()
        };
        let n = run_function(&mut m.functions[0], &config);
        assert_eq!(n, 0);
    }
}
