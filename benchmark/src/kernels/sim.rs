//! `sim_eval` and `sim_profile`: the interpreter loop, PMU off and on.
//!
//! Both drive `Machine::call` over a per-program request stream. With the
//! PMU off nothing but the interpreter runs; with it on (pipeline defaults:
//! period 199, LBR 16, PEBS) the same loop also writes the LBR ring, fires
//! the sample timer, walks the stack and allocates `Sample`s, which the
//! harness drains once per run, as the pipeline's batch source does.

use super::{Kernel, Ops, RoundOut};
use crate::inputs::{
    self, all_programs, build_binary, draws_for, mix, mix_samples, mix_stats, pipeline_config,
    sim_config, staged_machine, Build, Scale, FNV_INIT, SEGMENT_REQUESTS,
};
use crate::trace::Tracer;
use csspgo_codegen::Binary;
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::workload::Workload;

/// Simulated instructions per lap round (a prefix of the published stream;
/// a full-scale round runs each program's whole published stream once).
const LAP_INSTS: u64 = 500_000;
/// Requests per program whose results are checked against the `-O0` build.
const REFERENCE_PREFIX: usize = 24;

struct Program {
    workload: Workload,
    binary: Binary,
    requests: Vec<Vec<i64>>,
    /// Results of the first [`REFERENCE_PREFIX`] requests on the `-O0` build.
    reference: Vec<i64>,
}

/// The simulator kernel; `PMU` selects `sim_profile` over `sim_eval`.
pub struct Sim<const PMU: bool> {
    cfg: PipelineConfig,
    programs: Vec<Program>,
}

pub type SimEval = Sim<false>;
pub type SimProfile = Sim<true>;

impl<const PMU: bool> Kernel for Sim<PMU> {
    const NAME: &'static str = if PMU { "sim_profile" } else { "sim_eval" };
    const RATE: &'static str = "sim_mips";
    const ROUND_SECS: f64 = if PMU { 0.36 } else { 0.31 };

    fn setup(seed: u64, scale: Scale, t: &mut Tracer) -> Result<Self, String> {
        let cfg = pipeline_config(seed, scale);
        let mut programs = Vec::new();
        for workload in all_programs(scale) {
            let build = if PMU { Build::Probes } else { Build::O2 };
            let binary = build_binary(&workload, build, &cfg)?;
            t.segment();
            // Production traffic trains, held-out traffic evaluates.
            let published = if PMU {
                &workload.train_calls
            } else {
                &workload.eval_calls
            };
            // A round replays the published stream in a seeded order: the
            // request mix — and with it instructions per round and the PMU
            // buffer's high-water mark — stays comparable across seeds, the
            // order-dependent machine state (hash tables, VM stacks) does
            // not. The lap runs a prefix of the stream as published.
            let requests = match scale {
                Scale::Full => {
                    let mut rng = inputs::rng_for(seed, &workload.name, Self::NAME);
                    inputs::shuffled(published, &mut rng)
                }
                Scale::Lap => {
                    let mut m = staged_machine(&binary, &workload, sim_config(&cfg, false));
                    for args in published {
                        m.call(&workload.entry, args).map_err(|e| e.to_string())?;
                    }
                    let n = draws_for(LAP_INSTS, m.stats().instructions, published.len());
                    published[..n.min(published.len())].to_vec()
                }
            };
            let o0 = build_binary(&workload, Build::O0, &cfg)?;
            t.segment();
            let mut m = staged_machine(&o0, &workload, sim_config(&cfg, false));
            let reference = requests
                .iter()
                .take(REFERENCE_PREFIX)
                .map(|args| m.call(&workload.entry, args).map_err(|e| e.to_string()))
                .collect::<Result<Vec<i64>, String>>()?;
            programs.push(Program {
                workload,
                binary,
                requests,
                reference,
            });
            t.segment();
        }
        Ok(Sim { cfg, programs })
    }

    fn digest(&self) -> u64 {
        let mut h = FNV_INIT;
        for p in &self.programs {
            mix(&mut h, p.binary.len() as u64);
            mix(&mut h, p.binary.sections.text);
            for args in &p.requests {
                for &a in args {
                    mix(&mut h, a as u64);
                }
            }
            for &r in &p.reference {
                mix(&mut h, r as u64);
            }
        }
        h
    }

    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut {
        let span_name = if PMU { "sim.profile" } else { "sim.eval" };
        let mut work = 0;
        let mut fingerprint = FNV_INIT;
        for p in &self.programs {
            // A fresh machine per round, as every evaluation run in the repo
            // starts from.
            let mut m = staged_machine(&p.binary, &p.workload, sim_config(&self.cfg, PMU));
            let mut lbr_entries = 0u64;
            for (i, args) in p.requests.iter().enumerate() {
                let before = m.stats().instructions;
                let open = t.begin(span_name);
                let result = m.call(&p.workload.entry, args);
                t.end(open, m.stats().instructions - before);
                match result {
                    Ok(r) => {
                        mix(&mut fingerprint, r as u64);
                        match p.reference.get(i) {
                            Some(&want) if want != r => ops.fail(|| {
                                format!(
                                    "{}: request {i} returned {r}, -O0 build returned {want}",
                                    p.workload.name
                                )
                            }),
                            _ => ops.ok(1),
                        }
                    }
                    Err(e) => ops.fail(|| format!("{}: request {i}: {e}", p.workload.name)),
                }
                let last = i + 1 == p.requests.len();
                // Drained once per run, as the pipeline's `BatchSource` does.
                if PMU && last {
                    let samples = t.time("sim.take_samples", 0, || m.take_samples());
                    lbr_entries += samples.iter().map(|s| s.lbr.len() as u64).sum::<u64>();
                    mix_samples(&mut fingerprint, &samples);
                }
                if (i + 1) % SEGMENT_REQUESTS == 0 || last {
                    t.segment();
                }
            }
            let stats = *m.stats();
            mix_stats(&mut fingerprint, &stats);
            work += stats.instructions;
            t.count("sim.insts", stats.instructions);
            t.count("sim.cycles", stats.cycles);
            t.count("sim.mispredicts", stats.mispredicts);
            t.count("sim.icache_misses", stats.icache_misses);
            if PMU {
                t.count("sim.samples", stats.samples);
                t.count("sim.lbr_entries", lbr_entries);
            }
        }
        RoundOut {
            work,
            fingerprint,
            probe_ns: 0,
        }
    }

    fn rate(work: u64, secs: f64) -> f64 {
        work as f64 / secs / 1e6
    }

    fn verify(&mut self, _ops: &mut Ops) {}

    fn exact(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
