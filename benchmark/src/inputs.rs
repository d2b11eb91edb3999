//! Everything a workload is fed: programs, seeded request streams, built
//! binaries and recorded PMU sample sets. All of it is made in set-up,
//! outside the timed rounds; the program under test only ever sees the
//! generated `Vec<Vec<i64>>`.

use crate::trace::Tracer;
use csspgo_codegen::{lower_module, Binary};
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::workload::Workload;
use csspgo_sim::{Machine, RunStats, Sample, SimConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How much of a kernel runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The workload proper: every program, traffic drawn from `--seed`.
    Full,
    /// The reference lap: one program, its published traffic untouched, so
    /// every exact figure of the lap is a constant of the commit.
    Lap,
}

/// The program the reference lap runs: tail-call chains, a shared helper
/// with caller-dependent bias, mid-sized — it reaches every layer,
/// including the missing-frame inferrer.
const LAP_PROGRAM: &str = "ad_retriever";

/// The five server programs (`Full`) or the lap program (`Lap`).
pub fn server_programs(scale: Scale) -> Vec<Workload> {
    let all = csspgo_workloads::server_workloads();
    match scale {
        Scale::Full => all,
        Scale::Lap => all.into_iter().filter(|w| w.name == LAP_PROGRAM).collect(),
    }
}

/// The server programs plus the client program.
pub fn all_programs(scale: Scale) -> Vec<Workload> {
    let mut v = server_programs(scale);
    if scale == Scale::Full {
        v.push(csspgo_workloads::client_compiler());
    }
    v
}

/// The pipeline configuration every kernel shares: pipeline defaults,
/// single shard (no rayon fan-out), PMU jitter seeded from `seed`.
pub fn pipeline_config(seed: u64, scale: Scale) -> PipelineConfig {
    let defaults = PipelineConfig::default();
    let pmu_seed = match scale {
        Scale::Full => defaults.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        Scale::Lap => defaults.seed,
    };
    PipelineConfig::builder()
        .ingest_shards(1)
        .seed(pmu_seed)
        .build()
        .expect("defaults with one shard are valid")
}

/// A request-stream generator for one program and one purpose.
pub fn rng_for(seed: u64, program: &str, purpose: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in program.bytes().chain([0]).chain(purpose.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// `n` requests drawn with replacement from `published`.
pub fn resample(published: &[Vec<i64>], n: usize, rng: &mut StdRng) -> Vec<Vec<i64>> {
    (0..n)
        .map(|_| published[rng.random_range(0..published.len())].clone())
        .collect()
}

/// `published` in a seeded order: the same multiset on every seed, so
/// totals measured over it stay comparable across seeds.
pub fn shuffled(published: &[Vec<i64>], rng: &mut StdRng) -> Vec<Vec<i64>> {
    let mut v = published.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// How a source is built into a binary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Build {
    /// No optimisation at all: the reference the optimised builds are
    /// checked against.
    O0,
    /// The `-O2` release build (stripped to what the entry reaches).
    O2,
    /// The probe-carrying profiling build.
    Probes,
}

/// Compiles `w.source` the way the pipeline does for `build`.
pub fn build_binary(w: &Workload, build: Build, cfg: &PipelineConfig) -> Result<Binary, String> {
    let mut module = csspgo_lang::compile(&w.source, &w.name).map_err(|e| e.to_string())?;
    if build != Build::O0 {
        csspgo_opt::discriminators::run(&mut module);
        if build == Build::Probes {
            csspgo_opt::probes::run(&mut module);
        }
        csspgo_opt::run_pipeline(&mut module, &cfg.opt);
        if build == Build::O2 {
            if let Some(root) = module.find_function(&w.entry) {
                csspgo_opt::strip::run(&mut module, &[root]);
            }
        }
    }
    Ok(lower_module(&module, &cfg.codegen))
}

/// The simulator configuration the pipeline uses, PMU on or off.
pub fn sim_config(cfg: &PipelineConfig, pmu: bool) -> SimConfig {
    SimConfig {
        lbr_size: cfg.lbr_size,
        pebs: cfg.pebs,
        sample_period: if pmu { cfg.sample_period } else { 0 },
        seed: cfg.seed,
        max_steps: cfg.max_steps,
        ..SimConfig::default()
    }
}

/// A fresh machine over `binary` with the workload's globals staged.
pub fn staged_machine<'b>(binary: &'b Binary, w: &Workload, sim: SimConfig) -> Machine<'b> {
    let mut m = Machine::new(binary, sim);
    for (name, values) in &w.setup {
        m.set_global(name, values);
    }
    m
}

/// FNV-1a step, the hash every digest in the harness is folded with.
pub fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Start value for [`mix`].
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every field of `s` into `h`.
pub fn mix_stats(h: &mut u64, s: &RunStats) {
    for v in [
        s.cycles,
        s.instructions,
        s.taken_branches,
        s.mispredicts,
        s.icache_misses,
        s.calls,
        s.samples,
    ] {
        mix(h, v);
    }
}

/// A digest of a sample set cheap enough to take inside a timed round:
/// the fire cycle, PC, both lengths and the newest LBR / outermost stack
/// entry of every sample.
pub fn mix_samples(h: &mut u64, samples: &[Sample]) {
    for s in samples {
        mix(h, s.cycle);
        mix(h, s.pc);
        mix(h, s.lbr.len() as u64);
        mix(h, s.stack.len() as u64);
        if let Some(&(from, to)) = s.lbr.last() {
            mix(h, from);
            mix(h, to);
        }
        if let Some(&ra) = s.stack.last() {
            mix(h, ra);
        }
    }
}

/// Requests per timed segment of a simulator run.
pub const SEGMENT_REQUESTS: usize = 16;

/// Runs `requests` on a fresh PMU-on machine over `binary` and returns the
/// complete sample stream. Marks a segment on `t` every
/// [`SEGMENT_REQUESTS`] requests.
pub fn record_samples(
    binary: &Binary,
    w: &Workload,
    requests: &[Vec<i64>],
    cfg: &PipelineConfig,
    t: &mut Tracer,
) -> Result<Vec<Sample>, String> {
    let mut m = staged_machine(binary, w, sim_config(cfg, true));
    for chunk in requests.chunks(SEGMENT_REQUESTS) {
        for args in chunk {
            m.call(&w.entry, args).map_err(|e| e.to_string())?;
        }
        t.segment();
    }
    Ok(m.take_samples())
}

/// How many draws from `published` make about `target` of whatever
/// `per_call` measures (instructions, samples) when all of `published` is
/// run once and yields `total`.
pub fn draws_for(target: u64, total: u64, published: usize) -> usize {
    let per_call = (total as f64 / published.max(1) as f64).max(1.0);
    ((target as f64 / per_call).ceil() as usize).max(1)
}
