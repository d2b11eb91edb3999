//! The reference unwinder: Algorithm 1 (paper §III.B) one sample at a time,
//! written against public items only — [`Binary`]'s tables,
//! [`TailCallGraph::unique_path`], [`compress_cycles`] and the `BTreeMap`
//! trie's [`ContextProfile::add_probe_hit`] / [`ContextProfile::add_entry`].
//! It shares no code with `csspgo_core::unwind`'s kernel on purpose: no
//! sample dedup, no `(stack, pc)` memo, no context interner, no range memo,
//! no hash-consed trie, no precomputed call-site frame table, and its own
//! address lookup. Slow, and obviously right; the differential tests
//! (`tests/unwind_differential.rs`, `crates/core/tests/{proptest_kernel,
//! proptest_shard,stream_epochs}.rs`) hold the production kernel to it bit
//! for bit, diagnostic counters included.
//!
//! Both test packages include this file through `#[path]`, so it names its
//! dependencies by crate (`csspgo_core`, not `csspgo::core`).

use csspgo_codegen::minst::MInstKind;
use csspgo_codegen::Binary;
use csspgo_core::context::{ContextProfile, FrameKey};
use csspgo_core::tailcall::{InferStats, TailCallGraph};
use csspgo_core::unwind::compress_cycles;
use csspgo_ir::probe::ProbeKind;
use csspgo_sim::Sample;

/// Contexts deeper than this keep their innermost frames only.
const MAX_DEPTH: usize = 8;

/// What the reference computes for a sample stream.
#[derive(Debug, Default, PartialEq)]
pub struct Reference {
    pub profile: ContextProfile,
    pub infer_stats: InferStats,
    pub broken_stacks: u64,
}

/// The instruction whose bytes contain `addr`, by binary search over the
/// start addresses.
fn inst_at(binary: &Binary, addr: u64) -> Option<usize> {
    let i = binary
        .addrs
        .partition_point(|&a| a <= addr)
        .checked_sub(1)?;
    (addr < binary.addrs[i] + u64::from(binary.insts[i].size)).then_some(i)
}

/// The context frames a call-site instruction stands for: the inline chain
/// of its (last) call probe, then the probe itself. `None` without a call
/// probe.
fn frames_of(binary: &Binary, inst: usize) -> Option<Vec<FrameKey>> {
    let note = binary.insts[inst]
        .probes
        .iter()
        .rfind(|n| n.kind == ProbeKind::Call)?;
    let mut frames: Vec<FrameKey> = note
        .inline_stack
        .iter()
        .map(|site| FrameKey {
            guid: binary.funcs[site.func.index()].guid,
            probe: site.probe_index,
        })
        .collect();
    frames.push(FrameKey {
        guid: note.owner_guid,
        probe: note.index,
    });
    Some(frames)
}

/// The static callee of a direct call at `inst`.
fn callee_of(binary: &Binary, inst: usize) -> Option<u32> {
    match binary.insts[inst].kind {
        MInstKind::Call { callee, .. } => Some(callee),
        _ => None,
    }
}

/// Compressed, depth-capped copy of a context path.
fn trie_path(mut path: Vec<FrameKey>) -> Vec<FrameKey> {
    compress_cycles(&mut path);
    let excess = path.len().saturating_sub(MAX_DEPTH);
    path.split_off(excess)
}

impl Reference {
    /// Bridges the frames tail calls elided between `callee` (where the
    /// call site statically goes) and `running` (where execution is): the
    /// tail-call instructions whose frames are missing — none when the two
    /// agree — or `None` when the gap cannot be bridged, counting either
    /// outcome.
    fn bridge(
        &mut self,
        graph: Option<&TailCallGraph>,
        callee: u32,
        running: u32,
    ) -> Option<Vec<usize>> {
        if callee == running {
            return Some(Vec::new());
        }
        let tail_calls = graph.and_then(|g| g.unique_path(callee, running));
        match &tail_calls {
            Some(path) => self.infer_stats.recovered += path.len() as u64,
            None => self.infer_stats.failed += 1,
        }
        tail_calls
    }

    /// The context the sampled stack stands for, outermost frame first;
    /// `None` when the sample cannot be interpreted.
    fn stack_context(
        &mut self,
        binary: &Binary,
        graph: Option<&TailCallGraph>,
        sample: &Sample,
    ) -> Option<Vec<FrameKey>> {
        // `stack[0]` is the leaf; the rest are return addresses, inner to
        // outer. Each must sit right after a direct call.
        let mut call_sites = Vec::new();
        for &ret in sample.stack.iter().skip(1).rev() {
            let call = inst_at(binary, ret)?.checked_sub(1)?;
            if callee_of(binary, call).is_none() {
                self.broken_stacks += 1;
                return None;
            }
            call_sites.push(call);
        }
        let leaf = inst_at(binary, sample.pc)?;

        let mut ctx = Vec::new();
        for (k, &call) in call_sites.iter().enumerate() {
            let running = match call_sites.get(k + 1) {
                Some(&inner) => binary.func_of[inner],
                None => binary.func_of[leaf],
            };
            ctx.extend(frames_of(binary, call)?);
            let callee = callee_of(binary, call).expect("checked above");
            match self.bridge(graph, callee, running) {
                Some(missing) => {
                    for tail_call in missing {
                        ctx.extend(frames_of(binary, tail_call)?);
                    }
                }
                // Only the frames from here inward can be trusted.
                None => ctx.clear(),
            }
        }
        Some(ctx)
    }

    fn unwind(&mut self, binary: &Binary, graph: Option<&TailCallGraph>, sample: &Sample) {
        let Some(mut ctx) = self.stack_context(binary, graph, sample) else {
            return;
        };
        let branches: Vec<(usize, usize)> = sample
            .lbr
            .iter()
            .filter_map(|&(from, to)| Some((inst_at(binary, from)?, inst_at(binary, to)?)))
            .collect();

        // Newest branch first: `[to, end]` ran after it, under `ctx`.
        let mut end = inst_at(binary, sample.pc).expect("stack_context resolved it");
        for &(from, to) in branches.iter().rev() {
            if to <= end && binary.func_of[to] == binary.func_of[end] {
                for inst in &binary.insts[to..=end] {
                    for note in &inst.probes {
                        let mut path = ctx.clone();
                        path.extend(note.inline_stack.iter().map(|site| FrameKey {
                            guid: binary.funcs[site.func.index()].guid,
                            probe: site.probe_index,
                        }));
                        self.profile.add_probe_hit(
                            &trie_path(path),
                            note.owner_guid,
                            note.index,
                            1,
                        );
                    }
                }
            }
            match binary.insts[from].kind {
                MInstKind::Call { .. } | MInstKind::TailCall { .. } => {
                    let target = &binary.funcs[binary.func_of[to] as usize];
                    if target.entry == to {
                        self.profile
                            .add_entry(&trie_path(ctx.clone()), target.guid, 1);
                    }
                    // Before the call, execution was in the caller: the
                    // frames this call site stands for come off.
                    match frames_of(binary, from) {
                        Some(frames) => ctx.truncate(ctx.len().saturating_sub(frames.len())),
                        None => ctx.clear(),
                    }
                }
                MInstKind::Ret { .. } => {
                    // Before the return, execution was inside the function
                    // the call site before the return target had entered.
                    let call = to
                        .checked_sub(1)
                        .and_then(|c| Some((c, callee_of(binary, c)?)));
                    match call {
                        Some((call, callee)) => {
                            match frames_of(binary, call) {
                                Some(frames) => ctx.extend(frames),
                                None => ctx.clear(),
                            }
                            match self.bridge(graph, callee, binary.func_of[from]) {
                                Some(missing) => {
                                    for tail_call in missing {
                                        match frames_of(binary, tail_call) {
                                            Some(frames) => ctx.extend(frames),
                                            None => {
                                                ctx.clear();
                                                break;
                                            }
                                        }
                                    }
                                }
                                None => ctx.clear(),
                            }
                        }
                        None => ctx.clear(),
                    }
                }
                _ => {}
            }
            end = from;
        }
    }
}

/// Unwinds `samples` one by one, each with weight one.
pub fn reference_unwind(
    binary: &Binary,
    graph: Option<&TailCallGraph>,
    samples: &[Sample],
) -> Reference {
    let mut out = Reference::default();
    for sample in samples {
        out.unwind(binary, graph, sample);
    }
    out
}
