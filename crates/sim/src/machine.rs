//! The machine: runs a pre-decoded [`Binary`] with the cost model and PMU.

use crate::decode::{Kind, Op, Program, Reg, NO_REG};
use crate::pmu::{ICache, Lbr, Predictor, Sample, SampleTimer};
use crate::rng::XorShift64;
use crate::SimConfig;
use csspgo_codegen::Binary;
use std::error::Error;
use std::fmt;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The configured step limit was exceeded.
    StepLimit(u64),
    /// The named entry function does not exist.
    NoSuchFunction(String),
    /// The binary is not one a code generator emits; says what is wrong.
    MalformedBinary(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StepLimit(n) => write!(f, "step limit of {n} instructions exceeded"),
            SimError::NoSuchFunction(name) => write!(f, "no function named `{name}`"),
            SimError::MalformedBinary(why) => write!(f, "malformed binary: {why}"),
        }
    }
}

impl Error for SimError {}

/// Aggregate run statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// Calls executed (including tail calls).
    pub calls: u64,
    /// PMU samples taken.
    pub samples: u64,
}

/// A suspended caller: where its register window sits and where it resumes.
#[derive(Clone, Copy)]
struct Frame {
    /// First slot of the caller's window in the register stack.
    base: usize,
    /// One past the caller's window.
    top: usize,
    /// Flat index to resume at.
    ret_pc: u32,
    /// Caller register receiving the return value.
    ret_dst: Reg,
}

/// An executing machine. Globals persist across [`Machine::call`]s, so a
/// workload can stage data and issue many requests against one image.
pub struct Machine<'b> {
    binary: &'b Binary,
    config: SimConfig,
    program: Program,
    /// Data memory: every global, back to back.
    memory: Vec<i64>,
    counters: Vec<u64>,
    stats: RunStats,
    samples: Vec<Sample>,
    /// The register stack: the program's constant area, then one window per
    /// live frame. Kept between calls so a request allocates nothing.
    regs: Vec<i64>,
    /// Suspended callers of the running frame, outermost first.
    frames: Vec<Frame>,
    lbr: Lbr,
    predictor: Predictor,
    icache: ICache,
    timer: SampleTimer,
    skid_rng: XorShift64,
}

impl<'b> Machine<'b> {
    /// Creates a machine over a `binary` this process built.
    ///
    /// # Panics
    ///
    /// Panics where [`Machine::try_new`] returns an error.
    pub fn new(binary: &'b Binary, config: SimConfig) -> Self {
        Self::try_new(binary, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a machine over a `binary` that came from outside the process
    /// (a file), checking once everything the instruction loop then takes
    /// on trust.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedBinary`] for a binary no code generator
    /// emits: a register outside its function's frame, a branch target,
    /// callee, global or counter that does not exist, text that can run off
    /// its own end.
    pub fn try_new(binary: &'b Binary, config: SimConfig) -> Result<Self, SimError> {
        let program = Program::decode(binary, &config.cost).map_err(SimError::MalformedBinary)?;
        let mut memory = vec![0; program.memory_len()];
        for (g, &(start, len)) in binary.globals.iter().zip(&program.globals) {
            let n = g.init.len().min(len as usize);
            memory[start as usize..][..n].copy_from_slice(&g.init[..n]);
        }
        Ok(Machine {
            binary,
            memory,
            counters: vec![0; binary.num_counters as usize],
            stats: RunStats::default(),
            samples: Vec::new(),
            regs: program.consts.clone(),
            frames: Vec::new(),
            program,
            lbr: Lbr::new(config.lbr_size),
            predictor: Predictor::new(),
            icache: ICache::new(),
            timer: SampleTimer::new(config.sample_period, config.seed),
            skid_rng: XorShift64::new(config.seed ^ 0xabcd_ef01),
            config,
        })
    }

    /// The cells of the global called `name`.
    fn global_span(&self, name: &str) -> Option<std::ops::Range<usize>> {
        let idx = self.binary.globals.iter().position(|g| g.name == name)?;
        let (start, len) = self.program.globals[idx];
        Some(start as usize..(start + len) as usize)
    }

    /// Overwrites a global array's contents (workload staging).
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist.
    pub fn set_global(&mut self, name: &str, values: &[i64]) {
        let span = self
            .global_span(name)
            .unwrap_or_else(|| panic!("no global named `{name}`"));
        for (cell, v) in self.memory[span].iter_mut().zip(values) {
            *cell = *v;
        }
    }

    /// Reads a global array.
    pub fn global(&self, name: &str) -> Option<&[i64]> {
        Some(&self.memory[self.global_span(name)?])
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
    /// stream [`Machine::take_samples`] would have returned in one shot —
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
        let Machine {
            config,
            program,
            memory,
            counters,
            stats,
            samples,
            regs,
            frames,
            lbr,
            predictor,
            icache,
            timer,
            skid_rng,
            ..
        } = self;
        let Program {
            ops,
            args: arg_pool,
            cases,
            consts,
            ..
        } = &*program;
        let cost = config.cost;
        let max_steps = config.max_steps;

        // The root frame's window opens right above the constant area.
        frames.clear();
        let mut base = consts.len();
        let mut top = base + func.num_vregs.max(args.len());
        if regs.len() < top {
            regs.resize(top, 0);
        }
        regs[base..base + args.len()].copy_from_slice(args);
        regs[base + args.len()..top].fill(0);

        // The statistics live in locals while the loop runs and are written
        // back on every way out of it.
        let RunStats {
            mut cycles,
            mut instructions,
            mut taken_branches,
            mut mispredicts,
            mut icache_misses,
            mut calls,
            samples: mut samples_taken,
        } = *stats;
        let mut next_sample_at = timer.next_at();
        let mut pc = func.entry;

        let result = loop {
            if instructions >= max_steps {
                break Err(SimError::StepLimit(max_steps));
            }
            instructions += 1;

            let Op {
                kind,
                cost: fixed,
                addr,
            } = ops[pc];
            cycles += fixed;

            // Instruction fetch.
            if icache.fetch(addr) {
                cycles += cost.icache_miss;
                icache_misses += 1;
            }

            let mut next_pc = pc + 1;
            // A taken branch to `$target`: recorded in the LBR, and a
            // front-end bubble.
            macro_rules! branch_to {
                ($target:expr) => {{
                    next_pc = $target as usize;
                    lbr.record(addr, ops[next_pc].addr);
                    taken_branches += 1;
                    cycles += cost.taken_branch;
                }};
            }

            match kind {
                Kind::Copy { dst, src } => {
                    regs[base + dst as usize] = regs[src.slot(base)];
                }
                Kind::Bin { op, dst, lhs, rhs } => {
                    regs[base + dst as usize] = op.eval(regs[lhs.slot(base)], regs[rhs.slot(base)]);
                }
                Kind::Cmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    regs[base + dst as usize] =
                        pred.eval(regs[lhs.slot(base)], regs[rhs.slot(base)]);
                }
                Kind::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    let chosen = if regs[cond.slot(base)] != 0 {
                        on_true
                    } else {
                        on_false
                    };
                    regs[base + dst as usize] = regs[chosen.slot(base)];
                }
                Kind::Load {
                    dst,
                    start,
                    len,
                    index,
                } => {
                    // A negative index reads as a huge unsigned one.
                    let i = regs[index.slot(base)] as u64;
                    regs[base + dst as usize] = if i < u64::from(len) {
                        memory[start as usize + i as usize]
                    } else {
                        0
                    };
                }
                Kind::Store {
                    start,
                    len,
                    index,
                    value,
                } => {
                    let i = regs[index.slot(base)] as u64;
                    if i < u64::from(len) {
                        memory[start as usize + i as usize] = regs[value.slot(base)];
                    }
                }
                Kind::CounterIncr { counter } => {
                    counters[counter as usize] += 1;
                }
                Kind::Nop => {}
                Kind::Call {
                    dst,
                    entry,
                    window,
                    args,
                    nargs,
                } => {
                    let (args, nargs) = (args as usize, nargs as usize);
                    let callee_base = top;
                    let callee_top = callee_base + window as usize;
                    if regs.len() < callee_top {
                        regs.resize(callee_top, 0);
                    }
                    for (i, a) in arg_pool[args..args + nargs].iter().enumerate() {
                        regs[callee_base + i] = regs[a.slot(base)];
                    }
                    regs[callee_base + nargs..callee_top].fill(0);
                    frames.push(Frame {
                        base,
                        top,
                        ret_pc: pc as u32 + 1,
                        ret_dst: dst,
                    });
                    (base, top) = (callee_base, callee_top);
                    calls += 1;
                    branch_to!(entry);
                }
                Kind::TailCall {
                    entry,
                    window,
                    args,
                    nargs,
                } => {
                    // The frame is *replaced*: the caller disappears from
                    // the frame-pointer chain (TCE, paper §III.B). Its
                    // registers feed the arguments, so those are staged
                    // above the old window before the new one overwrites it.
                    let (args, nargs) = (args as usize, nargs as usize);
                    let callee_top = base + window as usize;
                    let need = callee_top.max(top + nargs);
                    if regs.len() < need {
                        regs.resize(need, 0);
                    }
                    for (i, a) in arg_pool[args..args + nargs].iter().enumerate() {
                        regs[top + i] = regs[a.slot(base)];
                    }
                    regs.copy_within(top..top + nargs, base);
                    regs[base + nargs..callee_top].fill(0);
                    top = callee_top;
                    calls += 1;
                    branch_to!(entry);
                }
                Kind::Ret { value } => {
                    let v = regs[value.slot(base)];
                    // Returning from the root frame ends the request: no
                    // branch is recorded and no sample taken.
                    let Some(caller) = frames.pop() else {
                        break Ok(v);
                    };
                    (base, top) = (caller.base, caller.top);
                    if caller.ret_dst != NO_REG {
                        regs[base + caller.ret_dst as usize] = v;
                    }
                    branch_to!(caller.ret_pc);
                }
                Kind::Jmp { target } => branch_to!(target),
                Kind::JmpIf {
                    cond,
                    negate,
                    target,
                } => {
                    let taken = (regs[cond.slot(base)] != 0) ^ negate;
                    if predictor.conditional(addr, taken) {
                        cycles += cost.mispredict;
                        mispredicts += 1;
                    }
                    if taken {
                        branch_to!(target);
                    }
                }
                Kind::JmpTable {
                    value,
                    cases: first,
                    ncases,
                    default,
                } => {
                    let v = regs[value.slot(base)];
                    let target = cases[first as usize..(first + ncases) as usize]
                        .iter()
                        .find(|&&(k, _)| k == v)
                        .map_or(default, |&(_, t)| t);
                    if predictor.indirect(addr, ops[target as usize].addr) {
                        cycles += cost.mispredict;
                        mispredicts += 1;
                    }
                    branch_to!(target);
                }
            }

            // PMU sampling: synchronized LBR + stack snapshot.
            if cycles >= next_sample_at {
                timer.fire(cycles);
                next_sample_at = timer.next_at();
                samples_taken += 1;
                let skid = (!config.pebs).then_some(&mut *skid_rng);
                samples.push(take_sample(ops, frames, lbr, skid, cycles, next_pc));
            }

            pc = next_pc;
        };

        *stats = RunStats {
            cycles,
            instructions,
            taken_branches,
            mispredicts,
            icache_misses,
            calls,
            samples: samples_taken,
        };
        result
    }
}

/// One PMU sample at `cycle`, with `next_pc` about to execute: the LBR and
/// the frame-pointer chain read at the same instant.
#[cold]
fn take_sample(
    ops: &[Op],
    frames: &[Frame],
    lbr: &Lbr,
    skid: Option<&mut XorShift64>,
    cycle: u64,
    next_pc: usize,
) -> Sample {
    let pc = ops[next_pc.min(ops.len() - 1)].addr;
    let mut stack: Vec<u64> = Vec::with_capacity(frames.len() + 1);
    stack.push(pc);
    stack.extend(frames.iter().rev().map(|f| ops[f.ret_pc as usize].addr));
    // Sampling skid: without PEBS the stack can lag the LBR by one frame
    // (paper §III.B, "Synchronizing LBR and stack sample").
    if let Some(rng) = skid {
        if stack.len() > 1 && rng.chance(1, 3) {
            stack.remove(0);
        }
    }
    Sample {
        cycle,
        pc,
        lbr: lbr.snapshot(),
        stack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_codegen::minst::MInstKind;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_opt::OptConfig;

    fn build(src: &str, optimize: bool) -> Binary {
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        if optimize {
            csspgo_opt::run_pipeline(&mut m, &OptConfig::default());
        }
        lower_module(&m, &CodegenConfig::default())
    }

    const FIB: &str = r#"
fn fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
"#;

    #[test]
    fn computes_fibonacci() {
        let b = build(FIB, false);
        let mut m = Machine::new(&b, SimConfig::default());
        assert_eq!(m.call("fib", &[10]).unwrap(), 55);
    }

    #[test]
    fn optimized_code_is_equivalent_and_faster() {
        let src = r#"
fn helper(x) { return x * 2 + 1; }
fn work(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i);
        i = i + 1;
    }
    return s;
}
"#;
        let plain = build(src, false);
        let opt = build(src, true);
        let mut mp = Machine::new(&plain, SimConfig::default());
        let mut mo = Machine::new(&opt, SimConfig::default());
        let rp = mp.call("work", &[500]).unwrap();
        let ro = mo.call("work", &[500]).unwrap();
        assert_eq!(rp, ro);
        assert!(
            mo.stats().cycles < mp.stats().cycles,
            "optimized {} vs plain {}",
            mo.stats().cycles,
            mp.stats().cycles
        );
    }

    #[test]
    fn globals_persist_across_calls() {
        let src = r#"
global acc[1];
fn bump(x) { acc[0] = acc[0] + x; return acc[0]; }
"#;
        let b = build(src, false);
        let mut m = Machine::new(&b, SimConfig::default());
        assert_eq!(m.call("bump", &[5]).unwrap(), 5);
        assert_eq!(m.call("bump", &[7]).unwrap(), 12);
        m.set_global("acc", &[100]);
        assert_eq!(m.call("bump", &[1]).unwrap(), 101);
    }

    #[test]
    fn determinism() {
        let b = build(FIB, false);
        let mut m1 = Machine::new(
            &b,
            SimConfig {
                sample_period: 97,
                ..SimConfig::default()
            },
        );
        let mut m2 = Machine::new(
            &b,
            SimConfig {
                sample_period: 97,
                ..SimConfig::default()
            },
        );
        m1.call("fib", &[15]).unwrap();
        m2.call("fib", &[15]).unwrap();
        assert_eq!(m1.stats(), m2.stats());
        assert_eq!(m1.take_samples().len(), m2.take_samples().len());
    }

    #[test]
    fn batched_sample_draining_concatenates_to_one_shot() {
        let cfg = SimConfig {
            sample_period: 37,
            ..SimConfig::default()
        };
        let b = build(FIB, false);
        let mut one_shot = Machine::new(&b, cfg.clone());
        one_shot.call("fib", &[18]).unwrap();
        let reference = one_shot.take_samples();
        assert!(reference.len() > 8, "need several samples");

        let mut batched = Machine::new(&b, cfg);
        batched.call("fib", &[18]).unwrap();
        assert_eq!(batched.pending_samples(), reference.len());
        let mut drained = Vec::new();
        while batched.pending_samples() > 0 {
            let batch = batched.take_sample_batch(3);
            assert!(!batch.is_empty() && batch.len() <= 3);
            drained.extend(batch);
        }
        assert_eq!(drained, reference);
        assert!(batched.take_sample_batch(3).is_empty());
    }

    #[test]
    fn lbr_records_taken_branches_with_calls_and_returns() {
        let b = build(FIB, false);
        let cfg = SimConfig {
            sample_period: 50,
            ..SimConfig::default()
        };
        let mut m = Machine::new(&b, cfg);
        m.call("fib", &[12]).unwrap();
        let samples = m.take_samples();
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(s.lbr.len() <= 16);
            // Every LBR source must decode to a branch instruction.
            for &(from, _) in &s.lbr {
                let idx = b.index_of_addr(from).expect("LBR source resolves");
                let kind = &b.insts[idx].kind;
                let branch = matches!(
                    kind,
                    MInstKind::Call { .. }
                        | MInstKind::TailCall { .. }
                        | MInstKind::Ret { .. }
                        | MInstKind::Jmp { .. }
                        | MInstKind::JmpIf { .. }
                        | MInstKind::JmpTable { .. }
                );
                assert!(branch, "{kind:?}");
            }
        }
    }

    #[test]
    fn stack_samples_walk_frames() {
        let src = r#"
fn leaf(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = s + i; i = i + 1; }
    return s;
}
fn mid(n) { let x = leaf(n); return x; }
fn top(n) { let x = mid(n); return x; }
"#;
        let b = build(src, false);
        let cfg = SimConfig {
            sample_period: 23,
            ..SimConfig::default()
        };
        let mut m = Machine::new(&b, cfg);
        m.call("top", &[3000]).unwrap();
        let samples = m.take_samples();
        assert!(!samples.is_empty());
        // Most samples land in leaf's loop: stack should be 3 deep
        // (leaf pc, ret->mid, ret->top).
        let deep = samples.iter().filter(|s| s.stack.len() == 3).count();
        assert!(
            deep * 2 > samples.len(),
            "expected mostly 3-deep stacks, got {deep}/{}",
            samples.len()
        );
    }

    #[test]
    fn tail_calls_lose_frames() {
        let src = r#"
fn leaf(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = s + i; i = i + 1; }
    return s;
}
fn mid(n) { return leaf(n); }
fn top(n) { let r = mid(n); return r; }
"#;
        let b = build(src, false);
        // mid's call is a tail call: its frame vanishes.
        let cfg = SimConfig {
            sample_period: 23,
            ..SimConfig::default()
        };
        let mut m = Machine::new(&b, cfg);
        m.call("top", &[3000]).unwrap();
        let samples = m.take_samples();
        let deep = samples.iter().filter(|s| s.stack.len() >= 3).count();
        assert_eq!(
            deep, 0,
            "mid must be missing from all stacks (tail-call elimination)"
        );
    }

    #[test]
    fn skid_shortens_some_stacks_without_pebs() {
        let src = r#"
fn leaf(n) { let i = 0; while (i < n) { i = i + 1; } return i; }
fn top(n) { let x = leaf(n); return x; }
"#;
        let b = build(src, false);
        let precise = SimConfig {
            sample_period: 23,
            pebs: true,
            ..SimConfig::default()
        };
        let skiddy = SimConfig {
            sample_period: 23,
            pebs: false,
            ..SimConfig::default()
        };
        let mut mp = Machine::new(&b, precise);
        mp.call("top", &[5000]).unwrap();
        let p_short = mp
            .take_samples()
            .iter()
            .filter(|s| s.stack.len() < 2)
            .count();
        let mut ms = Machine::new(&b, skiddy);
        ms.call("top", &[5000]).unwrap();
        let s_samples = ms.take_samples();
        let s_short = s_samples.iter().filter(|s| s.stack.len() < 2).count();
        assert!(s_short > p_short, "skid must truncate some stacks");
    }

    #[test]
    fn counters_give_exact_counts() {
        let src = r#"
fn f(n) {
    let i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
"#;
        let mut module = csspgo_lang::compile(src, "t").unwrap();
        let map = csspgo_opt::instrument::run(&mut module);
        let b = lower_module(&module, &CodegenConfig::default());
        let mut m = Machine::new(&b, SimConfig::default());
        m.call("f", &[77]).unwrap();
        // The loop-body block must have executed exactly 77 times.
        let max = m.counters().iter().max().copied().unwrap();
        assert_eq!(max, 77 + 1, "header executes n+1 times");
        assert_eq!(map.len(), m.counters().len());
    }

    #[test]
    fn step_limit_reported() {
        let src = "fn f() { while (1) { } return 0; }";
        let b = build(src, false);
        let cfg = SimConfig {
            max_steps: 10_000,
            ..SimConfig::default()
        };
        let mut m = Machine::new(&b, cfg);
        assert!(matches!(m.call("f", &[]), Err(SimError::StepLimit(_))));
    }

    #[test]
    fn malformed_binaries_are_typed_errors_not_panics() {
        use csspgo_ir::inst::Operand;
        use csspgo_ir::VReg;

        let src = "global acc[4];
fn g(x) { acc[0] = x; return acc[0]; }
fn f(x) { if (x > 0) { return g(x); } return 0; }";
        let mut instrumented = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::instrument::run(&mut instrumented);
        let good = lower_module(&instrumented, &CodegenConfig::default());
        assert!(Machine::try_new(&good, SimConfig::default()).is_ok());

        // The first instruction of `good` matching `pick`, rewritten.
        let with = |pick: fn(&mut MInstKind) -> bool| {
            let mut b = good.clone();
            assert!(
                b.insts.iter_mut().any(|i| pick(&mut i.kind)),
                "fixture lacks the instruction this case corrupts"
            );
            b
        };
        let cases: Vec<(&str, Binary)> = vec![
            (
                "register",
                with(|k| match k {
                    MInstKind::Ret { value } => {
                        *value = Some(Operand::Reg(VReg(200)));
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "branch target",
                with(|k| match k {
                    MInstKind::JmpIf { target, .. } | MInstKind::Jmp { target } => {
                        *target = 9999;
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "callee",
                with(|k| match k {
                    MInstKind::Call { callee, .. } | MInstKind::TailCall { callee, .. } => {
                        *callee = 77;
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "global",
                with(|k| match k {
                    MInstKind::Store { global, .. } => {
                        *global = csspgo_ir::GlobalId(9);
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "counter",
                with(|k| match k {
                    MInstKind::CounterIncr { counter } => {
                        *counter = 1 << 20;
                        true
                    }
                    _ => false,
                }),
            ),
            ("enters at", {
                let mut b = good.clone();
                b.funcs[0].entry = 9999;
                b
            }),
            ("belongs to no function", {
                let mut b = good.clone();
                b.func_of[0] = 77;
                b
            }),
            ("addresses", {
                let mut b = good.clone();
                b.addrs.pop();
                b
            }),
            ("fall off the end", {
                let mut b = good.clone();
                b.insts.last_mut().unwrap().kind = MInstKind::SpillLoad { slot: 0 };
                b
            }),
        ];
        for (what, bad) in cases {
            match Machine::try_new(&bad, SimConfig::default()) {
                Err(SimError::MalformedBinary(why)) => {
                    assert!(why.contains(what), "{what}: {why}")
                }
                Err(e) => panic!("{what}: wrong error {e}"),
                Ok(_) => panic!("{what}: accepted"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "malformed binary: register VReg(200) outside a")]
    fn new_panics_where_try_new_errs() {
        let mut b = build(FIB, false);
        for i in &mut b.insts {
            if let csspgo_codegen::minst::MInstKind::Ret { value } = &mut i.kind {
                *value = Some(csspgo_ir::inst::Operand::Reg(csspgo_ir::VReg(200)));
            }
        }
        Machine::new(&b, SimConfig::default());
    }

    #[test]
    fn unknown_function_reported() {
        let b = build(FIB, false);
        let mut m = Machine::new(&b, SimConfig::default());
        assert!(matches!(
            m.call("nope", &[]),
            Err(SimError::NoSuchFunction(_))
        ));
    }
}
