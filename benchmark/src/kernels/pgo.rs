//! `pgo_cycle`: the release engineer's whole loop — profiling build,
//! profiling run, profile generation, wire hand-off, optimised rebuild,
//! evaluation — for AutoFDO, full CSSPGO, and full CSSPGO over a drifted
//! source with stale matching and MCF inference.
//!
//! The product entry points (`run_pgo_cycle*`) are single calls of
//! 20–60 ms, and on this host no call that long can be timed reliably (see
//! the README's noise floor). So both passes run [`staged_cycle`]: the same
//! public functions in the same order as `run_pgo_cycle_with`, with a
//! segment boundary and a span per layer call. After the rounds every
//! staged cycle is checked against the product entry point on every field a
//! `PgoOutcome` exposes — it must reproduce the real outcome bit for bit, or
//! the figures would describe a different program.

use super::profgen::full_product;
use super::{Kernel, Ops, RoundOut};
use crate::inputs::{
    self, mix, mix_stats, pipeline_config, server_programs, sim_config, staged_machine, Scale,
    FNV_INIT, SEGMENT_REQUESTS,
};
use crate::trace::Tracer;
use csspgo_codegen::{lower_module, Binary, SectionSizes};
use csspgo_core::annotate::{
    autofdo_annotate, collect_block_counts, csspgo_annotate, AnnotateConfig, AnnotateStats,
};
use csspgo_core::binprof;
use csspgo_core::correlate::dwarf_profile;
use csspgo_core::inference::InferenceMode;
use csspgo_core::overlap::BlockCounts;
use csspgo_core::pipeline::{
    run_pgo_cycle, run_pgo_cycle_drifted, PgoOutcome, PgoVariant, PipelineConfig,
};
use csspgo_core::preinline::to_inline_plan;
use csspgo_core::profile::{FlatProfile, ProbeProfile};
use csspgo_core::shard::sharded_range_counts;
use csspgo_core::stalematch::StaleMatching;
use csspgo_core::tailcall::InferStats;
use csspgo_core::workload::Workload;
use csspgo_ir::{InlinePlan, Module};
use csspgo_sim::RunStats;
use csspgo_workloads::drift;

/// The three sampled-PGO cycles run per program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cycle {
    AutoFdo,
    Full,
    FullDrifted,
}

const CYCLES: [Cycle; 3] = [Cycle::AutoFdo, Cycle::Full, Cycle::FullDrifted];

/// The fields of a `PgoOutcome` the replica must reproduce.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    profiling: RunStats,
    eval: RunStats,
    eval_result_hash: u64,
    /// `[text, debug_line, pseudo_probe]` of the optimised binary.
    sections: [u64; 3],
    /// The same of the profiling binary.
    profiling_sections: [u64; 3],
    annotate_stats: AnnotateStats,
    quality_counts: BlockCounts,
    nodes_before: usize,
    nodes_after: usize,
    plan_len: usize,
    infer_stats: InferStats,
}

fn sizes(s: SectionSizes) -> [u64; 3] {
    [s.text, s.debug_line, s.pseudo_probe]
}

impl From<PgoOutcome> for Outcome {
    fn from(o: PgoOutcome) -> Self {
        Outcome {
            profiling: o.profiling,
            eval: o.eval,
            eval_result_hash: o.eval_result_hash,
            sections: sizes(o.sections),
            profiling_sections: sizes(o.profiling_sections),
            annotate_stats: o.annotate_stats,
            quality_counts: o.quality_counts,
            nodes_before: o.context_nodes_before_trim,
            nodes_after: o.context_nodes_after_trim,
            plan_len: o.plan_len,
            infer_stats: o.infer_stats,
        }
    }
}

struct Program {
    workload: Workload,
    drifted_source: String,
    /// `-O2` evaluation cycles and result hash, fresh source.
    o2: (u64, u64),
    /// `-O2` evaluation cycles and result hash, drifted source.
    o2_drifted: (u64, u64),
}

/// The PGO-cycle kernel.
pub struct PgoCycle {
    cfg: PipelineConfig,
    cfg_drift: PipelineConfig,
    programs: Vec<Program>,
    /// Outcomes of the latest round, `programs × CYCLES` (`None`: failed).
    latest: Vec<Option<Outcome>>,
}

/// Front end plus the preparation passes (`discriminators`, `probes`).
fn frontend(source: &str, name: &str, probes: bool, t: &mut Tracer) -> Result<Module, String> {
    let mut module = t
        .time("lang.compile", 0, || csspgo_lang::compile(source, name))
        .map_err(|e| e.to_string())?;
    t.time("opt.prepare", 0, || {
        csspgo_opt::discriminators::run(&mut module);
        if probes {
            csspgo_opt::probes::run(&mut module);
        }
    });
    t.segment();
    Ok(module)
}

fn lower(module: &Module, cfg: &PipelineConfig, t: &mut Tracer) -> Binary {
    let binary = t.time("codegen.lower", 0, || lower_module(module, &cfg.codegen));
    t.count("codegen.minsts", binary.len() as u64);
    t.segment();
    binary
}

fn count_run(t: &mut Tracer, stats: &RunStats) {
    t.count("sim.insts", stats.instructions);
    t.count("sim.cycles", stats.cycles);
    t.count("sim.mispredicts", stats.mispredicts);
    t.count("sim.icache_misses", stats.icache_misses);
}

enum Generated {
    Flat(FlatProfile),
    Probe(ProbeProfile, InlinePlan),
}

/// One PGO cycle, stage by stage, under a `pipeline.cycle` span.
fn staged_cycle(
    w: &Workload,
    cycle: Cycle,
    cfg: &PipelineConfig,
    build_source: &str,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let cycle_span = t.begin("pipeline.cycle");
    let result = staged_cycle_inner(w, cycle, cfg, build_source, t);
    t.end(cycle_span, 1);
    result
}

fn staged_cycle_inner(
    w: &Workload,
    cycle: Cycle,
    cfg: &PipelineConfig,
    build_source: &str,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let probes = cycle != Cycle::AutoFdo;

    // Profiling build.
    let mut module = frontend(&w.source, &w.name, probes, t)?;
    t.time("opt.pipeline", 0, || {
        csspgo_opt::run_pipeline(&mut module, &cfg.opt)
    });
    t.segment();
    let binary = lower(&module, cfg, t);

    // Profiling run "in production".
    let mut machine = staged_machine(&binary, w, sim_config(cfg, true));
    let open = t.begin("sim.profile");
    for chunk in w.train_calls.chunks(SEGMENT_REQUESTS) {
        for args in chunk {
            machine.call(&w.entry, args).map_err(|e| e.to_string())?;
        }
        t.segment();
    }
    let profiling = *machine.stats();
    t.end(open, profiling.instructions);
    let samples = t.time("sim.take_samples", 0, || machine.take_samples());
    count_run(t, &profiling);
    t.count("sim.samples", profiling.samples);
    t.count(
        "sim.lbr_entries",
        samples.iter().map(|s| s.lbr.len() as u64).sum(),
    );

    // The plan refers to the fresh build module, so compile it first.
    let mut build_module = frontend(build_source, &w.name, probes, t)?;

    // Profile generation.
    let n = samples.len() as u64;
    let mut nodes = (0, 0);
    let mut plan_len = 0;
    let mut infer_stats = InferStats::default();
    let generated = if cycle == Cycle::AutoFdo {
        let rc = t.time("ranges.count", n, || {
            sharded_range_counts(&binary, &samples, cfg.ingest_shards)
        });
        t.segment();
        Generated::Flat(t.time("correlate.dwarf", 0, || dwarf_profile(&binary, &rc)))
    } else {
        let full = full_product(&binary, &samples, cfg, t);
        nodes = full.nodes;
        plan_len = full.preinline.plan_paths.len();
        infer_stats = full.infer_stats;
        let plan = to_inline_plan(&full.preinline.plan_paths, &build_module);
        Generated::Probe(full.probe, plan)
    };

    // Hand-off through the binary wire format.
    let generated = match generated {
        Generated::Flat(p) => {
            let bytes = t.time("binprof.encode", 0, || binprof::encode_flat(&p));
            t.count("binprof.bytes", bytes.len() as u64);
            let decoded = t
                .time("binprof.decode", 0, || binprof::decode_flat(&bytes))
                .map_err(|e| e.to_string())?;
            Generated::Flat(decoded)
        }
        Generated::Probe(p, plan) => {
            let bytes = t.time("binprof.encode", 0, || binprof::encode_probe(&p));
            t.count("binprof.bytes", bytes.len() as u64);
            let decoded = t
                .time("binprof.decode", 0, || binprof::decode_probe(&bytes))
                .map_err(|e| e.to_string())?;
            Generated::Probe(decoded, plan)
        }
    };

    t.segment();

    // Quality snapshot: a second compile annotated without replay. It is
    // pipeline glue, so it carries no layer spans and lands in
    // `pipeline.self_ms`.
    let quality_counts = {
        let mut q = csspgo_lang::compile(build_source, &w.name).map_err(|e| e.to_string())?;
        csspgo_opt::discriminators::run(&mut q);
        if probes {
            csspgo_opt::probes::run(&mut q);
        }
        let no_replay = AnnotateConfig {
            inline_budget: 0,
            ..cfg.annotate
        };
        match &generated {
            Generated::Flat(p) => {
                autofdo_annotate(&mut q, p, &no_replay);
            }
            Generated::Probe(p, _) => {
                csspgo_annotate(&mut q, p, None, &no_replay);
            }
        }
        collect_block_counts(&q)
    };

    t.segment();

    // Optimised build.
    let annotate_stats = t.time("annotate.apply", 0, || match &generated {
        Generated::Flat(p) => autofdo_annotate(&mut build_module, p, &cfg.annotate),
        Generated::Probe(p, plan) => {
            csspgo_annotate(&mut build_module, p, Some(plan), &cfg.annotate)
        }
    });
    t.count(
        "inference.adjusted_blocks",
        annotate_stats.inference.counts_adjusted,
    );
    t.count(
        "stalematch.recovered_funcs",
        annotate_stats.stale_recovered as u64,
    );
    t.segment();
    let mut opt_cfg = cfg.opt.clone();
    if probes {
        // Full CSSPGO honours the pre-inliner: the bottom-up inliner is
        // held to trivially small callees.
        opt_cfg.inline_hot_size = opt_cfg.inline_small_size;
    }
    t.time("opt.pipeline", 0, || {
        csspgo_opt::run_pipeline(&mut build_module, &opt_cfg);
        if let Some(root) = build_module.find_function(&w.entry) {
            csspgo_opt::strip::run(&mut build_module, &[root]);
        }
    });
    t.segment();
    let final_binary = lower(&build_module, cfg, t);

    // Evaluation run.
    let mut machine = staged_machine(&final_binary, w, sim_config(cfg, false));
    let mut hash = FNV_INIT;
    let open = t.begin("sim.eval");
    for chunk in w.eval_calls.chunks(SEGMENT_REQUESTS) {
        for args in chunk {
            let r = machine.call(&w.entry, args).map_err(|e| e.to_string())?;
            mix(&mut hash, r as u64);
        }
        t.segment();
    }
    let eval = *machine.stats();
    t.end(open, eval.instructions);
    count_run(t, &eval);

    Ok(Outcome {
        profiling,
        eval,
        eval_result_hash: hash,
        sections: sizes(final_binary.sections),
        profiling_sections: sizes(binary.sections),
        annotate_stats,
        quality_counts,
        nodes_before: nodes.0,
        nodes_after: nodes.1,
        plan_len,
        infer_stats,
    })
}

impl PgoCycle {
    fn config_for(&self, cycle: Cycle) -> &PipelineConfig {
        if cycle == Cycle::FullDrifted {
            &self.cfg_drift
        } else {
            &self.cfg
        }
    }

    /// The product entry point for `cycle`.
    fn real_cycle(&self, p: &Program, cycle: Cycle) -> Result<Outcome, String> {
        let cfg = self.config_for(cycle);
        match cycle {
            Cycle::AutoFdo => run_pgo_cycle(&p.workload, PgoVariant::AutoFdo, cfg),
            Cycle::Full => run_pgo_cycle(&p.workload, PgoVariant::CsspgoFull, cfg),
            Cycle::FullDrifted => {
                run_pgo_cycle_drifted(&p.workload, PgoVariant::CsspgoFull, cfg, &p.drifted_source)
            }
        }
        .map(Outcome::from)
        .map_err(|e| e.to_string())
    }

    fn staged(&self, p: &Program, cycle: Cycle, t: &mut Tracer) -> Result<Outcome, String> {
        let source = if cycle == Cycle::FullDrifted {
            &p.drifted_source
        } else {
            &p.workload.source
        };
        staged_cycle(&p.workload, cycle, self.config_for(cycle), source, t)
    }

    fn outcome(&self, program: usize, cycle: Cycle) -> Option<&Outcome> {
        let at = program * CYCLES.len() + CYCLES.iter().position(|&c| c == cycle)?;
        self.latest.get(at)?.as_ref()
    }

    /// `100 × geomean(-O2 cycles ÷ PGO cycles)` over the programs.
    fn vs_o2_pct(&self, cycle: Cycle) -> f64 {
        let mut log_sum = 0.0;
        let mut n = 0;
        for (i, p) in self.programs.iter().enumerate() {
            if let Some(o) = self.outcome(i, cycle) {
                let base = if cycle == Cycle::FullDrifted {
                    p.o2_drifted.0
                } else {
                    p.o2.0
                };
                log_sum += (base as f64 / o.eval.cycles as f64).ln();
                n += 1;
            }
        }
        100.0 * (log_sum / f64::from(n.max(1))).exp()
    }
}

impl Kernel for PgoCycle {
    const NAME: &'static str = "pgo_cycle";
    const RATE: &'static str = "cycle_ms";
    const ROUND_SECS: f64 = 0.61;

    fn setup(seed: u64, scale: Scale, t: &mut Tracer) -> Result<Self, String> {
        let cfg = pipeline_config(seed, scale);
        let cfg_drift = PipelineConfig::builder()
            .ingest_shards(cfg.ingest_shards)
            .seed(cfg.seed)
            .stale_matching(StaleMatching::Recover)
            .inference(InferenceMode::Mcf)
            .build()
            .map_err(|e| e.to_string())?;
        let mut programs = Vec::new();
        for mut workload in server_programs(scale) {
            if scale == Scale::Full {
                // Production traffic is what varies between deployments:
                // drawn with replacement. The evaluation stream is the
                // measuring stick: the published requests in a seeded
                // order, so evaluation cycles compare across seeds.
                let n = workload.train_calls.len();
                let mut rng = inputs::rng_for(seed, &workload.name, "pgo_cycle.train");
                workload.train_calls = inputs::resample(&workload.train_calls, n, &mut rng);
                let mut rng = inputs::rng_for(seed, &workload.name, "pgo_cycle.eval");
                workload.eval_calls = inputs::shuffled(&workload.eval_calls, &mut rng);
            }
            let drifted_source = drift::change_cfg(&workload.source);
            let fresh =
                run_pgo_cycle(&workload, PgoVariant::O2, &cfg).map_err(|e| e.to_string())?;
            t.segment();
            let drifted = run_pgo_cycle_drifted(&workload, PgoVariant::O2, &cfg, &drifted_source)
                .map_err(|e| e.to_string())?;
            programs.push(Program {
                workload,
                drifted_source,
                o2: (fresh.eval.cycles, fresh.eval_result_hash),
                o2_drifted: (drifted.eval.cycles, drifted.eval_result_hash),
            });
            t.segment();
        }
        Ok(PgoCycle {
            cfg,
            cfg_drift,
            programs,
            latest: Vec::new(),
        })
    }

    fn digest(&self) -> u64 {
        let mut h = FNV_INIT;
        for p in &self.programs {
            for calls in [&p.workload.train_calls, &p.workload.eval_calls] {
                for args in calls {
                    for &a in args {
                        mix(&mut h, a as u64);
                    }
                }
            }
            for v in [p.o2.0, p.o2.1, p.o2_drifted.0, p.o2_drifted.1] {
                mix(&mut h, v);
            }
        }
        h
    }

    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut {
        let mut latest = Vec::with_capacity(self.programs.len() * CYCLES.len());
        let mut fingerprint = FNV_INIT;
        let mut work = 0;
        for p in &self.programs {
            for cycle in CYCLES {
                let result = self.staged(p, cycle, t);
                work += 1;
                match result {
                    Ok(o) => {
                        let want = if cycle == Cycle::FullDrifted {
                            p.o2_drifted.1
                        } else {
                            p.o2.1
                        };
                        ops.check(o.eval_result_hash == want, || {
                            format!(
                                "{} {cycle:?}: result hash {:#x} differs from its -O2 build's {want:#x}",
                                p.workload.name, o.eval_result_hash
                            )
                        });
                        mix_stats(&mut fingerprint, &o.eval);
                        mix_stats(&mut fingerprint, &o.profiling);
                        mix(&mut fingerprint, o.sections[0]);
                        latest.push(Some(o));
                    }
                    Err(e) => {
                        ops.fail(|| format!("{} {cycle:?}: {e}", p.workload.name));
                        latest.push(None);
                    }
                }
            }
        }
        self.latest = latest;
        RoundOut {
            work,
            fingerprint,
            probe_ns: 0,
        }
    }

    fn rate(work: u64, secs: f64) -> f64 {
        secs * 1e3 / work as f64
    }

    fn verify(&mut self, ops: &mut Ops) {
        // The staged replica must match the product entry point on every
        // field a `PgoOutcome` exposes (timings aside).
        let mut off = Tracer::off();
        for p in &self.programs {
            for cycle in CYCLES {
                let real = self.real_cycle(p, cycle);
                let replica = self.staged(p, cycle, &mut off);
                match (real, replica) {
                    (Ok(a), Ok(b)) => ops.check(a == b, || {
                        format!(
                            "{} {cycle:?}: staged cycle diverges from run_pgo_cycle \
                             (eval cycles {} vs {}, text {} vs {})",
                            p.workload.name,
                            b.eval.cycles,
                            a.eval.cycles,
                            b.sections[0],
                            a.sections[0]
                        )
                    }),
                    (Err(e), _) | (_, Err(e)) => {
                        ops.fail(|| format!("{} {cycle:?}: {e}", p.workload.name))
                    }
                }
            }
        }
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        let full = |f: &dyn Fn(&Outcome) -> u64| -> f64 {
            (0..self.programs.len())
                .filter_map(|i| self.outcome(i, Cycle::Full))
                .map(f)
                .sum::<u64>() as f64
        };
        vec![
            ("eval_mcycles", full(&|o| o.eval.cycles) / 1e6),
            ("eval_vs_o2_pct", self.vs_o2_pct(Cycle::Full)),
            ("eval_vs_o2_drift_pct", self.vs_o2_pct(Cycle::FullDrifted)),
            ("text_bytes", full(&|o| o.sections[0])),
        ]
    }
}
