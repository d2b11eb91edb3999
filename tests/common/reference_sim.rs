//! The reference interpreter: the simulator's instruction loop as it stood
//! before the pre-decoded core (ISSUE 15), moved here verbatim so the
//! differential tests can hold the production [`csspgo::sim::Machine`] to
//! it bit for bit. It re-decodes `&binary.insts[pc]` every step, keeps a
//! `Vec<i64>` register file per frame, a `VecDeque` LBR and an i-cache
//! whose geometry is data — slow, and obviously right. Only the name of the
//! machine type differs from the deleted code; [`Lbr`] and [`ICache`] are the
//! deleted `pmu` types.

use csspgo::codegen::minst::MInstKind;
use csspgo::codegen::Binary;
use csspgo::ir::inst::Operand;
use csspgo::ir::VReg;
use csspgo::sim::pmu::{Predictor, Sample, SampleTimer};
use csspgo::sim::rng::XorShift64;
use csspgo::sim::{RunStats, SimConfig, SimError};
use std::collections::VecDeque;

/// Last Branch Record ring buffer.
#[derive(Clone, Debug)]
pub struct Lbr {
    ring: VecDeque<(u64, u64)>,
    capacity: usize,
}

impl Lbr {
    /// Creates an LBR with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Lbr {
            ring: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records a taken branch.
    pub fn record(&mut self, from: u64, to: u64) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((from, to));
    }

    /// Snapshot, oldest first.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.ring.iter().copied().collect()
    }
}

/// A direct-mapped instruction cache (line-granular).
#[derive(Clone, Debug)]
pub struct ICache {
    tags: Vec<u64>,
    line_bytes: u64,
    lines: usize,
}

impl ICache {
    /// 16 KiB, 64-byte lines, direct-mapped.
    pub fn new() -> Self {
        ICache {
            tags: vec![u64::MAX; 256],
            line_bytes: 64,
            lines: 256,
        }
    }

    /// Fetches the line containing `addr`; returns whether it missed.
    pub fn fetch(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let idx = (line as usize) % self.lines;
        let miss = self.tags[idx] != line;
        self.tags[idx] = line;
        miss
    }
}

struct Frame {
    func: u32,
    regs: Vec<i64>,
    /// Flat index to resume at in the caller (usize::MAX for the root).
    ret_pc: usize,
    /// Caller register receiving the return value.
    ret_dst: Option<VReg>,
}

/// An executing machine. Globals persist across [`ReferenceMachine::call`]s, so a
/// workload can stage data and issue many requests against one image.
pub struct ReferenceMachine<'b> {
    binary: &'b Binary,
    config: SimConfig,
    globals: Vec<Vec<i64>>,
    counters: Vec<u64>,
    stats: RunStats,
    samples: Vec<Sample>,
    lbr: Lbr,
    predictor: Predictor,
    icache: ICache,
    timer: SampleTimer,
    skid_rng: XorShift64,
}

impl<'b> ReferenceMachine<'b> {
    /// Creates a machine over `binary`.
    pub fn new(binary: &'b Binary, config: SimConfig) -> Self {
        let globals = binary
            .globals
            .iter()
            .map(|g| {
                let mut v = g.init.clone();
                v.resize(g.size, 0);
                v
            })
            .collect();
        ReferenceMachine {
            binary,
            globals,
            counters: vec![0; binary.num_counters as usize],
            stats: RunStats::default(),
            samples: Vec::new(),
            lbr: Lbr::new(config.lbr_size),
            predictor: Predictor::new(),
            icache: ICache::new(),
            timer: SampleTimer::new(config.sample_period, config.seed),
            skid_rng: XorShift64::new(config.seed ^ 0xabcd_ef01),
            config,
        }
    }

    /// Overwrites a global array's contents (workload staging).
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist.
    pub fn set_global(&mut self, name: &str, values: &[i64]) {
        let idx = self
            .binary
            .globals
            .iter()
            .position(|g| g.name == name)
            .unwrap_or_else(|| panic!("no global named `{name}`"));
        let g = &mut self.globals[idx];
        for (i, v) in values.iter().enumerate().take(g.len()) {
            g[i] = *v;
        }
    }

    /// Reads a global array.
    pub fn global(&self, name: &str) -> Option<&[i64]> {
        let idx = self.binary.globals.iter().position(|g| g.name == name)?;
        Some(&self.globals[idx])
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Instrumentation counter values.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Takes the collected PMU samples.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }

    /// Samples collected but not yet taken.
    pub fn pending_samples(&self) -> usize {
        self.samples.len()
    }

    /// Drains up to `max` of the oldest pending samples, leaving the rest
    /// for a later batch. Draining in batches concatenates to exactly the
    /// stream [`ReferenceMachine::take_samples`] would have returned in one shot —
    /// the hook streaming ingestion (`csspgo-core`'s `stream` module) uses
    /// to feed an aggregator while the workload keeps running.
    pub fn take_sample_batch(&mut self, max: usize) -> Vec<Sample> {
        let n = max.min(self.samples.len());
        let rest = self.samples.split_off(n);
        std::mem::replace(&mut self.samples, rest)
    }

    /// Calls `name(args)` and runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchFunction`] for an unknown entry, or
    /// [`SimError::StepLimit`] if execution exceeds the configured limit.
    pub fn call(&mut self, name: &str, args: &[i64]) -> Result<i64, SimError> {
        let func = self
            .binary
            .func_by_name(name)
            .ok_or_else(|| SimError::NoSuchFunction(name.to_string()))?;
        let mut regs = vec![0i64; func.num_vregs.max(args.len())];
        regs[..args.len()].copy_from_slice(args);
        let mut frames = vec![Frame {
            func: self.binary.func_of[func.entry],
            regs,
            ret_pc: usize::MAX,
            ret_dst: None,
        }];
        let mut pc = func.entry;
        let cost = self.config.cost;
        let mut steps_left = self
            .config
            .max_steps
            .saturating_sub(self.stats.instructions);

        macro_rules! frame {
            () => {
                frames.last_mut().expect("non-empty frame stack")
            };
        }

        loop {
            if steps_left == 0 {
                return Err(SimError::StepLimit(self.config.max_steps));
            }
            steps_left -= 1;

            let inst = &self.binary.insts[pc];
            let addr = self.binary.addrs[pc];
            self.stats.instructions += 1;
            let mut cycles = cost.base;

            // Instruction fetch.
            if self.icache.fetch(addr) {
                cycles += cost.icache_miss;
                self.stats.icache_misses += 1;
            }

            let regs = &mut frame!().regs;
            let val = |o: Operand, regs: &Vec<i64>| -> i64 {
                match o {
                    Operand::Reg(r) => regs[r.index()],
                    Operand::Imm(v) => v,
                }
            };

            let mut next_pc = pc + 1;
            let mut branch_to: Option<(usize, bool)> = None; // (target, record_in_lbr)

            match &inst.kind {
                MInstKind::Copy { dst, src } => {
                    regs[dst.index()] = val(*src, regs);
                }
                MInstKind::Bin { op, dst, lhs, rhs } => {
                    regs[dst.index()] = op.eval(val(*lhs, regs), val(*rhs, regs));
                }
                MInstKind::Cmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    regs[dst.index()] = pred.eval(val(*lhs, regs), val(*rhs, regs));
                }
                MInstKind::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    regs[dst.index()] = if val(*cond, regs) != 0 {
                        val(*on_true, regs)
                    } else {
                        val(*on_false, regs)
                    };
                    cycles += cost.select;
                }
                MInstKind::Load { dst, global, index } => {
                    let i = val(*index, regs);
                    let g = &self.globals[global.index()];
                    regs[dst.index()] = if i >= 0 && (i as usize) < g.len() {
                        g[i as usize]
                    } else {
                        0
                    };
                    cycles += cost.mem_op;
                }
                MInstKind::Store {
                    global,
                    index,
                    value,
                } => {
                    let i = val(*index, regs);
                    let v = val(*value, regs);
                    let g = &mut self.globals[global.index()];
                    if i >= 0 && (i as usize) < g.len() {
                        g[i as usize] = v;
                    }
                    cycles += cost.mem_op;
                }
                MInstKind::CounterIncr { counter } => {
                    self.counters[*counter as usize] += 1;
                    cycles += cost.counter;
                }
                MInstKind::SpillLoad { .. } | MInstKind::SpillStore { .. } => {
                    cycles += cost.mem_op;
                }
                MInstKind::Call { dst, callee, args } => {
                    let target = &self.binary.funcs[*callee as usize];
                    let mut new_regs = vec![0i64; target.num_vregs.max(args.len())];
                    for (i, a) in args.iter().enumerate() {
                        new_regs[i] = val(*a, regs);
                    }
                    cycles += cost.call + args.len() as u64;
                    self.stats.calls += 1;
                    frames.push(Frame {
                        func: *callee,
                        regs: new_regs,
                        ret_pc: pc + 1,
                        ret_dst: *dst,
                    });
                    branch_to = Some((target.entry, true));
                }
                MInstKind::TailCall { callee, args } => {
                    let target = &self.binary.funcs[*callee as usize];
                    let mut new_regs = vec![0i64; target.num_vregs.max(args.len())];
                    for (i, a) in args.iter().enumerate() {
                        new_regs[i] = val(*a, regs);
                    }
                    cycles += cost.call;
                    self.stats.calls += 1;
                    // The frame is *replaced*: the caller disappears from
                    // the frame-pointer chain (TCE, paper §III.B).
                    let f = frame!();
                    f.func = *callee;
                    f.regs = new_regs;
                    branch_to = Some((target.entry, true));
                }
                MInstKind::Ret { value } => {
                    let v = value.map(|o| val(o, regs)).unwrap_or(0);
                    cycles += cost.ret;
                    let finished = frames.pop().expect("ret with a frame");
                    if frames.is_empty() {
                        self.stats.cycles += cycles;
                        return Ok(v);
                    }
                    if let Some(d) = finished.ret_dst {
                        frame!().regs[d.index()] = v;
                    }
                    branch_to = Some((finished.ret_pc, true));
                }
                MInstKind::Jmp { target } => {
                    branch_to = Some((*target, true));
                }
                MInstKind::JmpIf {
                    cond,
                    negate,
                    target,
                } => {
                    let taken = (val(*cond, regs) != 0) ^ negate;
                    if self.predictor.conditional(addr, taken) {
                        cycles += cost.mispredict;
                        self.stats.mispredicts += 1;
                    }
                    if taken {
                        branch_to = Some((*target, true));
                    }
                }
                MInstKind::JmpTable {
                    value,
                    targets,
                    default,
                } => {
                    let v = val(*value, regs);
                    let t = targets
                        .iter()
                        .find(|&&(k, _)| k == v)
                        .map(|&(_, t)| t)
                        .unwrap_or(*default);
                    let target_addr = self.binary.addrs[t];
                    if self.predictor.indirect(addr, target_addr) {
                        cycles += cost.mispredict;
                        self.stats.mispredicts += 1;
                    }
                    cycles += 1; // table load
                    branch_to = Some((t, true));
                }
            }

            if let Some((t, record)) = branch_to {
                next_pc = t;
                if record {
                    let from = addr;
                    let to = self.binary.addrs[t];
                    self.lbr.record(from, to);
                    self.stats.taken_branches += 1;
                    cycles += cost.taken_branch;
                }
            }

            self.stats.cycles += cycles;

            // PMU sampling: synchronized LBR + stack snapshot.
            if self.stats.cycles >= self.timer.next_at() {
                self.timer.fire(self.stats.cycles);
                self.stats.samples += 1;
                let sample_pc = self.binary.addrs[next_pc.min(self.binary.len() - 1)];
                let mut stack: Vec<u64> = Vec::with_capacity(frames.len());
                stack.push(sample_pc);
                for f in frames.iter().rev() {
                    if f.ret_pc != usize::MAX {
                        stack.push(self.binary.addrs[f.ret_pc]);
                    }
                }
                // Sampling skid: without PEBS the stack can lag the LBR by
                // one frame (paper §III.B, "Synchronizing LBR and stack
                // sample").
                if !self.config.pebs && stack.len() > 1 && self.skid_rng.chance(1, 3) {
                    stack.remove(0);
                }
                self.samples.push(Sample {
                    cycle: self.stats.cycles,
                    pc: sample_pc,
                    lbr: self.lbr.snapshot(),
                    stack,
                });
            }

            pc = next_pc;
        }
    }
}
