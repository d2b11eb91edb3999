//! Sharded sample ingestion: the profile-generation analogue of
//! distributed profiling hosts, run across local threads.
//!
//! The sample stream of a profiling run is split into contiguous chunks;
//! each shard builds a partial [`RangeCounts`] / context profile
//! independently, and partials are combined count-additively — range counts
//! by [`RangeCounts::merge`], context profiles by absorbing them into the
//! first shard's arena, the same fold [`crate::merge::merge_tries`] does for
//! `csspgo merge`. Because every per-sample contribution is an
//! order-independent `+=` into keyed maps — and what an [`Unwinder`] counts
//! for a chunk depends on nothing it saw before — the merged result is
//! **identical** for any shard count (proven by tests here and property
//! tests in `tests/`).

use crate::context::ContextProfile;
use crate::ranges::RangeCounts;
use crate::tailcall::{InferStats, TailCallGraph};
use crate::unwind::Unwinder;
use csspgo_codegen::Binary;
use csspgo_sim::Sample;
use rayon::prelude::*;

/// Fewest samples an *auto* shard is given. A shard costs a thread
/// spawn/join (the vendored rayon has no pool) and, for a throw-away
/// unwinder, an O(instructions) set-up: measured on two cores, two shards
/// run a 256-sample batch at 0.54× the speed of one, a 1 024-sample batch at
/// 0.86× and a 2 048-sample batch at 1.14× (DESIGN.md §18.6).
const MIN_AUTO_SHARD_SAMPLES: usize = 1024;

/// Resolves a shard-count request. `0` means auto: one shard per available
/// thread (`RAYON_NUM_THREADS` honored), but never one of fewer than
/// 1 024 samples — an epoch-sized batch stays on the calling thread. An
/// explicit request is honored exactly, up to one sample per shard.
pub fn resolve_shards(requested: usize, n_samples: usize) -> usize {
    let shards = if requested == 0 {
        rayon::current_num_threads().min(n_samples / MIN_AUTO_SHARD_SAMPLES)
    } else {
        requested
    };
    shards.clamp(1, n_samples.max(1))
}

/// Splits `samples` into at most `shards` contiguous chunks.
fn chunked(samples: &[Sample], shards: usize) -> Vec<&[Sample]> {
    if samples.is_empty() {
        return Vec::new();
    }
    let size = samples.len().div_ceil(shards);
    samples.chunks(size).collect()
}

/// Folds `partials` into the first of them: one shard merges nothing.
fn merge_all<T: Default>(partials: Vec<T>, merge: impl Fn(&mut T, &T)) -> T {
    let mut partials = partials.into_iter();
    let mut merged = partials.next().unwrap_or_default();
    for p in partials {
        merge(&mut merged, &p);
    }
    merged
}

/// Builds [`RangeCounts`] from `samples`, `shards`-way parallel
/// (`0` = auto). Identical to a sequential
/// [`RangeCounts::add_samples`] over the full stream.
pub fn sharded_range_counts(binary: &Binary, samples: &[Sample], shards: usize) -> RangeCounts {
    let partials: Vec<RangeCounts> = chunked(samples, resolve_shards(shards, samples.len()))
        .into_par_iter()
        .map(|chunk| {
            let mut rc = RangeCounts::default();
            rc.add_samples(binary, chunk);
            rc
        })
        .collect();
    merge_all(partials, RangeCounts::merge)
}

/// Context-profile construction result, including the unwinder's
/// diagnostic counters (summed across shards).
pub struct UnwindOutput {
    pub profile: ContextProfile,
    pub infer_stats: InferStats,
    pub broken_stacks: u64,
}

/// Counts `samples` into the first unwinder's arena: chunk 0 through the
/// first unwinder directly, chunk *k* through unwinder *k* — all in
/// parallel — with every other chunk's profile absorbed into the first
/// arena after. This is the one way samples reach the kernel: a batch
/// brings throw-away unwinders and drains the first arena
/// ([`sharded_context_profile`]), a stream its long-lived ones and keeps it
/// ([`crate::stream::StreamAggregator::seal_epoch`]). Either way the first
/// arena's touch list is what the call reached, across all shards. Returns
/// how many unwinders got a chunk (fewer than given when the samples do not
/// fill them all).
pub(crate) fn fold_sharded(unwinders: &mut [Unwinder<'_>], samples: &[Sample]) -> usize {
    let chunks = chunked(samples, unwinders.len());
    let ran = chunks.len();
    let work: Vec<(usize, (&mut Unwinder<'_>, &[Sample]))> =
        unwinders.iter_mut().zip(chunks).enumerate().collect();
    let partials: Vec<Option<ContextProfile>> = work
        .into_par_iter()
        .map(|(k, (uw, chunk))| match k {
            0 => {
                uw.fold(chunk);
                None
            }
            _ => Some(uw.unwind_batched(chunk)),
        })
        .collect();
    if let Some(first) = unwinders.first_mut() {
        for partial in partials.iter().flatten() {
            first.arena_mut().absorb(partial);
        }
    }
    ran
}

/// The diagnostic counters of `unwinders`, summed.
pub(crate) fn diagnostics(unwinders: &[Unwinder<'_>]) -> (InferStats, u64) {
    let mut stats = InferStats::default();
    let mut broken_stacks = 0;
    for uw in unwinders {
        stats.recovered += uw.infer_stats.recovered;
        stats.failed += uw.infer_stats.failed;
        broken_stacks += uw.broken_stacks;
    }
    (stats, broken_stacks)
}

/// Unwinds `samples` into a [`ContextProfile`], `shards`-way parallel
/// (`0` = auto), each shard through an [`Unwinder`] of its own that lives
/// for this call. The unwinder processes each sample independently and
/// absorbing is count-additive, so the trie is the same for every shard
/// count.
pub fn sharded_context_profile(
    binary: &Binary,
    tail_graph: Option<&TailCallGraph>,
    samples: &[Sample],
    shards: usize,
) -> UnwindOutput {
    let mut unwinders: Vec<Unwinder<'_>> = (0..resolve_shards(shards, samples.len()))
        .map(|_| Unwinder::new(binary, tail_graph.cloned()))
        .collect();
    fold_sharded(&mut unwinders, samples);
    let profile = unwinders[0].arena_mut().take_profile();
    let (infer_stats, broken_stacks) = diagnostics(&unwinders);
    UnwindOutput {
        profile,
        infer_stats,
        broken_stacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_codegen::{lower_module, CodegenConfig};
    use csspgo_sim::{Machine, SimConfig};

    const SRC: &str = r#"
fn helper(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + helper(i);
        i = i + 1;
    }
    return s;
}
"#;

    fn profiled() -> (Binary, Vec<Sample>) {
        let mut m = csspgo_lang::compile(SRC, "t").unwrap();
        csspgo_opt::discriminators::run(&mut m);
        csspgo_opt::probes::run(&mut m);
        let b = lower_module(&m, &CodegenConfig::default());
        let mut machine = Machine::new(
            &b,
            SimConfig {
                sample_period: 23,
                ..SimConfig::default()
            },
        );
        machine.call("main", &[6000]).unwrap();
        let samples = machine.take_samples();
        assert!(samples.len() > 50, "need a meaningful stream to shard");
        (b, samples)
    }

    #[test]
    fn sharded_range_counts_equal_sequential_for_any_shard_count() {
        let (b, samples) = profiled();
        let mut seq = RangeCounts::default();
        seq.add_samples(&b, &samples);
        for shards in [1, 2, 3, 7, 16, samples.len()] {
            let par = sharded_range_counts(&b, &samples, shards);
            assert_eq!(par, seq, "{shards} shards diverged");
        }
    }

    /// Production at one shard count against production at another; the
    /// per-sample reference is held to both in `tests/unwind_differential.rs`
    /// and `crates/core/tests/proptest_kernel.rs`.
    #[test]
    fn sharded_context_profile_is_the_same_for_any_shard_count() {
        let (b, samples) = profiled();
        let mut rc = RangeCounts::default();
        rc.add_samples(&b, &samples);
        let graph = TailCallGraph::build(&b, &rc);

        let one = sharded_context_profile(&b, Some(&graph), &samples, 1);
        assert!(one.profile.total() > 0);
        for shards in [2, 5, 13, samples.len()] {
            let out = sharded_context_profile(&b, Some(&graph), &samples, shards);
            assert_eq!(out.profile, one.profile, "{shards} shards diverged");
            assert_eq!(out.infer_stats, one.infer_stats);
            assert_eq!(out.broken_stacks, one.broken_stacks);
        }
    }

    #[test]
    fn auto_sharding_keeps_small_batches_on_one_thread() {
        assert_eq!(resolve_shards(0, 256), 1);
        assert_eq!(resolve_shards(0, 0), 1);
        assert_eq!(resolve_shards(0, 1 << 20), rayon::current_num_threads());
        // An explicit request is honored exactly, up to one sample a shard.
        assert_eq!(resolve_shards(7, 100), 7);
        assert_eq!(resolve_shards(7, 3), 3);
    }

    #[test]
    fn empty_stream_is_fine() {
        let (b, _) = profiled();
        let rc = sharded_range_counts(&b, &[], 0);
        assert!(rc.ranges.is_empty() && rc.branches.is_empty());
        let out = sharded_context_profile(&b, None, &[], 4);
        assert_eq!(out.profile.total(), 0);
    }
}
