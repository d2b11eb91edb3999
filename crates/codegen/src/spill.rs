//! The profile-sensitive spill model.
//!
//! When a function's register pressure exceeds the physical register count,
//! some values must live in memory. A real allocator places spill code where
//! it *believes* execution is cold; our model does the same: spill
//! candidates are ordered by **believed cost** (the sum of annotated counts
//! of the blocks that use or define the register), cheapest-believed first.
//!
//! The spilled registers then pay a reload before each using instruction and
//! a store after each def — so when the profile is wrong about which blocks
//! are hot, spill traffic lands on the real hot path. This reproduces the
//! paper's post-inline profile-quality effect on register allocation
//! ("potentially causing sub-optimal spill placement", §III.B).

use crate::liveness::{contains, insert, members, Liveness};
use csspgo_ir::{BlockId, Function, VReg};

/// Which registers spill, and their assigned spill slots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SpillPlan {
    /// Per register, its slot number, or [`NO_SLOT`].
    slots: Vec<u32>,
}

/// The slot of a register that stays in a register.
const NO_SLOT: u32 = u32::MAX;

impl SpillPlan {
    /// The slot `r` spills to, if it spills.
    pub(crate) fn slot(&self, r: VReg) -> Option<u32> {
        self.slots.get(r.index()).copied().filter(|&s| s != NO_SLOT)
    }
}

/// Physical registers before spilling kicks in.
const REGISTERS: usize = 12;

/// The buffers of [`plan_spills`], handed from one function to the next.
#[derive(Default)]
pub(crate) struct SpillScratch {
    lv: Liveness,
    live_ids: Vec<BlockId>,
    spilled: Vec<u64>,
    live: Vec<u64>,
    pressure: Vec<usize>,
}

/// Decides which registers spill for `func` under `REGISTERS` physical
/// registers, using annotated block counts as the (possibly wrong) belief.
pub(crate) fn plan_spills(func: &Function, scratch: &mut SpillScratch) -> SpillPlan {
    let SpillScratch {
        lv,
        live_ids,
        spilled,
        live,
        pressure,
    } = scratch;
    lv.recompute(func);
    let lv = &*lv;
    let words = lv.words();
    let regs = func.num_vregs();

    live_ids.clear();
    live_ids.extend(func.iter_blocks().map(|(b, _)| b));
    spilled.clear();
    spilled.resize(words, 0);
    live.clear();
    live.resize(words, 0);
    pressure.clear();
    pressure.extend(
        live_ids
            .iter()
            .map(|&b| point_pressure(func, lv, b, spilled, live)),
    );
    if pressure.iter().all(|&p| p <= REGISTERS) {
        return SpillPlan::default();
    }

    // Believed cost of spilling each register: total believed count of
    // blocks that use or define it (each use pays a reload). `mentions`
    // holds, per block, the registers it touches or keeps live out — the
    // registers whose spilling changes its pressure.
    let mut believed_cost = vec![0u64; regs];
    let mut last_block = vec![u32::MAX; regs];
    let mut mentions = vec![0u64; func.blocks.len() * words];
    for (bid, block) in func.iter_blocks() {
        let w = block.count.unwrap_or(1); // no profile: uniform belief
        let mentioned = &mut mentions[bid.index() * words..(bid.index() + 1) * words];
        mentioned.copy_from_slice(lv.live_out(bid));
        for inst in &block.insts {
            let mut touch = |r: VReg| {
                if last_block[r.index()] != bid.0 {
                    last_block[r.index()] = bid.0;
                    believed_cost[r.index()] += w;
                    insert(mentioned, r);
                }
            };
            inst.kind.for_each_use(&mut touch);
            if let Some(d) = inst.kind.def() {
                touch(d);
            }
        }
    }

    let mut plan = SpillPlan {
        slots: vec![NO_SLOT; regs],
    };
    let mut next_slot = 0u32;
    loop {
        // Find the most pressured block (the last of equals).
        let worst = live_ids
            .iter()
            .zip(pressure.iter())
            .max_by_key(|&(_, &p)| p);
        let Some((&worst_bid, &worst_pressure)) = worst else {
            break;
        };
        if worst_pressure <= REGISTERS {
            break;
        }
        // Spill candidates: values live *through* the block (block-local
        // temps cannot usefully spill). Believed-cheapest first, with a
        // deterministic tiebreak on the register number.
        let (live_in, live_out) = (lv.live_in(worst_bid), lv.live_out(worst_bid));
        let through = live_in.iter().zip(live_out).map(|(i, o)| i | o);
        let candidates: Vec<u64> = through.zip(spilled.iter()).map(|(t, s)| t & !s).collect();
        let victim = members(&candidates).min_by_key(|r| (believed_cost[r.index()], r.0));
        let Some(victim) = victim else { break };
        plan.slots[victim.index()] = next_slot;
        next_slot += 1;
        insert(spilled, victim);
        for (i, &b) in live_ids.iter().enumerate() {
            if contains(
                &mentions[b.index() * words..(b.index() + 1) * words],
                victim,
            ) {
                pressure[i] = point_pressure(func, lv, b, spilled, live);
            }
        }
    }
    plan
}

/// Point-precise pressure of block `b`: walk its instructions backward from
/// live-out, tracking the unspilled live set in `live`; the pressure is its
/// maximum over all program points. (Counting every def in a block as
/// simultaneously live would overestimate wildly for large post-inline
/// blocks and punish inlining with phantom spills.)
fn point_pressure(
    func: &Function,
    lv: &Liveness,
    b: BlockId,
    spilled: &[u64],
    live: &mut [u64],
) -> usize {
    let mut count = 0usize;
    for ((l, o), s) in live.iter_mut().zip(lv.live_out(b)).zip(spilled) {
        *l = o & !s;
        count += l.count_ones() as usize;
    }
    let mut maxp = count;
    for inst in func.block(b).insts.iter().rev() {
        if let Some(d) = inst.kind.def() {
            if !contains(spilled, d) {
                let was_live = contains(live, d);
                maxp = maxp.max(count + usize::from(!was_live));
                if was_live {
                    live[d.index() / 64] &= !(1 << (d.index() % 64));
                    count -= 1;
                }
            }
        }
        inst.kind.for_each_use(|r| {
            if !contains(spilled, r) && !contains(live, r) {
                insert(live, r);
                count += 1;
            }
        });
        maxp = maxp.max(count);
    }
    maxp
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_ir::inst::InstKind;
    use std::collections::HashSet;

    /// A function with many simultaneously-live values.
    fn pressured(k: usize) -> csspgo_ir::Module {
        // let v0..v{k-1} each computed from the param, all summed at the end
        // via a call boundary... a long expression keeps them alive.
        let decls: String = (0..k)
            .map(|i| format!("    let v{i} = a + {i};\n"))
            .collect();
        let sum = (0..k)
            .map(|i| format!("v{i}"))
            .collect::<Vec<_>>()
            .join(" + ");
        // A branch in the middle keeps the values live across blocks.
        let src =
            format!("fn f(a) {{\n{decls}    if (a > 0) {{ a = a + 1; }}\n    return {sum};\n}}");
        csspgo_lang::compile(&src, "t").unwrap()
    }

    /// The spilled registers in slot order.
    fn victims(plan: &SpillPlan) -> Vec<VReg> {
        let mut by_slot: Vec<(u32, VReg)> = (0..plan.slots.len())
            .map(VReg::from_index)
            .filter_map(|r| plan.slot(r).map(|s| (s, r)))
            .collect();
        by_slot.sort();
        by_slot.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn no_spills_under_low_pressure() {
        let m = pressured(4);
        let plan = plan_spills(&m.functions[0], &mut SpillScratch::default());
        assert!(victims(&plan).is_empty(), "{plan:?}");
    }

    #[test]
    fn spills_appear_beyond_register_count() {
        let m = pressured(20);
        let plan = plan_spills(&m.functions[0], &mut SpillScratch::default());
        assert!(!victims(&plan).is_empty());
        // After spilling, point-precise pressure must be within budget in
        // every block (restated over plain sets).
        let f = &m.functions[0];
        let lv = Liveness::compute(f);
        let spilled = |r: VReg| plan.slot(r).is_some();
        for (bid, block) in f.iter_blocks() {
            let mut live: HashSet<VReg> =
                members(lv.live_out(bid)).filter(|&r| !spilled(r)).collect();
            let mut maxp = live.len();
            for inst in block.insts.iter().rev() {
                if let Some(d) = inst.kind.def() {
                    if !spilled(d) {
                        maxp = maxp.max(live.len() + usize::from(!live.contains(&d)));
                        live.remove(&d);
                    }
                }
                inst.kind.for_each_use(|r| {
                    if !spilled(r) {
                        live.insert(r);
                    }
                });
                maxp = maxp.max(live.len());
            }
            assert!(maxp <= REGISTERS, "block {bid} still over budget: {maxp}");
        }
    }

    /// `h` values summed after an `if`, `c` values used only inside its
    /// `then` arm; all defined in the entry, so all live through it.
    fn hot_and_cold(h: usize, c: usize) -> csspgo_ir::Module {
        let hot: String = (0..h)
            .map(|i| format!("    let h{i} = a + {i};\n"))
            .collect();
        let cold: String = (0..c)
            .map(|i| format!("    let c{i} = a * {};\n", i + 2))
            .collect();
        let cold_sum = (0..c)
            .map(|i| format!("c{i}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let hot_sum = (0..h)
            .map(|i| format!("h{i}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let src = format!(
            "fn f(a) {{\n{hot}{cold}    if (a > 0) {{ a = {cold_sum}; }}\n    return a + {hot_sum};\n}}"
        );
        csspgo_lang::compile(&src, "t").unwrap()
    }

    /// The `then` arm of the entry's branch.
    fn then_arm(f: &Function) -> BlockId {
        match f.block(f.entry).terminator().map(|t| &t.kind) {
            Some(InstKind::CondBr { then_bb, .. }) => *then_bb,
            other => panic!("entry does not branch: {other:?}"),
        }
    }

    /// Registers that only `arm` reads.
    fn read_only_in(f: &Function, arm: BlockId) -> HashSet<VReg> {
        let reads = |b: &csspgo_ir::BasicBlock| -> HashSet<VReg> {
            let mut read = HashSet::new();
            for i in &b.insts {
                i.kind.for_each_use(|r| {
                    read.insert(r);
                });
            }
            read
        };
        let elsewhere: HashSet<VReg> = f
            .iter_blocks()
            .filter(|&(b, _)| b != arm)
            .flat_map(|(_, b)| reads(b))
            .collect();
        reads(f.block(arm))
            .into_iter()
            .filter(|r| {
                !elsewhere.contains(r)
                    && f.block(f.entry)
                        .insts
                        .iter()
                        .any(|i| i.kind.def() == Some(*r))
            })
            .collect()
    }

    #[test]
    fn believed_cold_registers_spill_first() {
        let mut m = hot_and_cold(10, 8);
        let f = &mut m.functions[0];
        let arm = then_arm(f);
        let cold = read_only_in(f, arm);
        assert_eq!(cold.len(), 8, "the eight c values: {cold:?}");
        let ids: Vec<BlockId> = f.iter_blocks().map(|(b, _)| b).collect();
        for &bid in &ids {
            f.block_mut(bid).count = Some(if bid == arm { 1 } else { 1000 });
        }
        let plan = plan_spills(f, &mut SpillScratch::default());
        let order = victims(&plan);
        assert!(order.len() >= cold.len(), "{order:?}");
        let first: HashSet<VReg> = order[..cold.len()].iter().copied().collect();
        assert_eq!(
            first, cold,
            "believed-cold registers spill first: {order:?}"
        );
        // Lowest register first among equally cold ones.
        let mut sorted = order[..cold.len()].to_vec();
        sorted.sort();
        assert_eq!(sorted, order[..cold.len()]);

        // Believe the arm hot and everything else cold: the c values are
        // now the dearest, so the first victim is another register.
        for &bid in &ids {
            f.block_mut(bid).count = Some(if bid == arm { 1000 } else { 1 });
        }
        let flipped = victims(&plan_spills(f, &mut SpillScratch::default()));
        assert!(!cold.contains(&flipped[0]), "{flipped:?}");

        let p1 = plan_spills(f, &mut SpillScratch::default());
        let p2 = plan_spills(f, &mut SpillScratch::default());
        assert_eq!(p1, p2, "spill choice must be deterministic");
    }
}
