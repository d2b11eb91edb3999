//! `compile`: source → `Binary` for every program and five release-chain
//! descendants of each, in three modes — `-O2`, the probe-carrying
//! profiling build, and a profile-annotated recompile. `lang`, `opt`,
//! `codegen` and `annotate` do all the work here and almost none of a PGO
//! cycle, so without this workload a change to them could never show.
//!
//! The annotated mode applies the *base* program's profile to every
//! descendant, so the stale matcher and MCF inference see real drift.

use super::profgen::{full_product, record_all};
use super::{Kernel, Ops, RoundOut};
use crate::inputs::{
    all_programs, mix, pipeline_config, sim_config, staged_machine, Scale, FNV_INIT,
};
use crate::trace::Tracer;
use csspgo_codegen::{lower_module, Binary};
use csspgo_core::annotate::{csspgo_annotate, AnnotateConfig};
use csspgo_core::context::FrameKey;
use csspgo_core::inference::{infer_counts, InferenceMode};
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::preinline::to_inline_plan;
use csspgo_core::profile::ProbeProfile;
use csspgo_core::stalematch::{match_stale_profile, MatchConfig, StaleMatching};
use csspgo_core::workload::Workload;
use csspgo_ir::BlockId;
use csspgo_opt::OptConfig;
use csspgo_workloads::drift;
use std::collections::HashMap;
use std::time::Instant;

/// Release-chain descendants compiled per program.
const DESCENDANTS: usize = 5;
/// PMU samples behind each base program's set-up-time profile (one host).
const PROFILE_SAMPLES: u64 = 8_000;
/// Requests per source run on each built binary after the rounds, to check
/// the three modes against each other.
const CHECK_REQUESTS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    O2,
    Probes,
    Annotated,
}

const MODES: [Mode; 3] = [Mode::O2, Mode::Probes, Mode::Annotated];

/// A program lineage: its base workload, the sources to compile (base
/// first) and the base's set-up-time profile and inline decisions.
struct Lineage {
    workload: Workload,
    sources: Vec<String>,
    profile: ProbeProfile,
    plan_paths: Vec<Vec<FrameKey>>,
}

/// The compile kernel.
pub struct Compile {
    cfg: PipelineConfig,
    annotate: AnnotateConfig,
    /// Full CSSPGO's optimiser knobs (bottom-up inliner held back).
    opt_annotated: OptConfig,
    lineages: Vec<Lineage>,
    text_bytes: u64,
}

impl Compile {
    /// Compiles one source in one mode, one span per layer call.
    fn build(
        &self,
        lineage: &Lineage,
        source: &str,
        mode: Mode,
        t: &mut Tracer,
    ) -> Result<Binary, String> {
        let name = &lineage.workload.name;
        let mut module = t
            .time("lang.compile", 0, || csspgo_lang::compile(source, name))
            .map_err(|e| e.to_string())?;
        t.time("opt.prepare", 0, || {
            csspgo_opt::discriminators::run(&mut module);
            if mode != Mode::O2 {
                csspgo_opt::probes::run(&mut module);
            }
        });
        if mode == Mode::Annotated {
            let plan = to_inline_plan(&lineage.plan_paths, &module);
            let stats = t.time("annotate.apply", 0, || {
                csspgo_annotate(&mut module, &lineage.profile, Some(&plan), &self.annotate)
            });
            t.count("inference.adjusted_blocks", stats.inference.counts_adjusted);
            t.count("stalematch.recovered_funcs", stats.stale_recovered as u64);
        }
        let opt = if mode == Mode::Annotated {
            &self.opt_annotated
        } else {
            &self.cfg.opt
        };
        t.time("opt.pipeline", 0, || {
            csspgo_opt::run_pipeline(&mut module, opt);
            if mode != Mode::Probes {
                if let Some(root) = module.find_function(&lineage.workload.entry) {
                    csspgo_opt::strip::run(&mut module, &[root]);
                }
            }
        });
        let binary = t.time("codegen.lower", 0, || {
            lower_module(&module, &self.cfg.codegen)
        });
        t.count("codegen.minsts", binary.len() as u64);
        Ok(binary)
    }

    /// Traced-only: calls the stale matcher and per-function inference
    /// directly, on the inputs `csspgo_annotate` hands them internally, so
    /// both layers get spans of their own. Returns the time it took.
    fn probe_annotate_internals(&self, lineage: &Lineage, source: &str, t: &mut Tracer) -> u64 {
        let start = Instant::now();
        let Ok(mut module) = csspgo_lang::compile(source, &lineage.workload.name) else {
            return 0;
        };
        csspgo_opt::discriminators::run(&mut module);
        csspgo_opt::probes::run(&mut module);
        t.time("stalematch.match", 0, || {
            match_stale_profile(&module, &lineage.profile, &MatchConfig::default())
        });
        // Annotating with inference off leaves the raw correlated counts on
        // the blocks — what `infer_counts` is given.
        let raw_cfg = AnnotateConfig {
            inference: InferenceMode::Off,
            inline_budget: 0,
            ..self.annotate
        };
        csspgo_annotate(&mut module, &lineage.profile, None, &raw_cfg);
        for func in &module.functions {
            let Some(entry) = func.entry_count else {
                continue;
            };
            let raw: HashMap<BlockId, u64> = func
                .iter_blocks()
                .filter_map(|(bid, b)| b.count.map(|c| (bid, c)))
                .collect();
            t.time("inference.infer", 0, || {
                infer_counts(func, &raw, entry, InferenceMode::Mcf)
            });
        }
        start.elapsed().as_nanos() as u64
    }
}

/// Evaluates `requests` on `binary`, folding the results into a hash.
fn run_hash(
    binary: &Binary,
    w: &Workload,
    requests: &[Vec<i64>],
    cfg: &PipelineConfig,
) -> Result<u64, String> {
    let mut m = staged_machine(binary, w, sim_config(cfg, false));
    let mut h = FNV_INIT;
    for args in requests {
        mix(
            &mut h,
            m.call(&w.entry, args).map_err(|e| e.to_string())? as u64,
        );
    }
    Ok(h)
}

impl Kernel for Compile {
    const NAME: &'static str = "compile";
    const RATE: &'static str = "compile_kinst_per_s";
    const ROUND_SECS: f64 = 0.135;

    fn setup(seed: u64, scale: Scale, t: &mut Tracer) -> Result<Self, String> {
        let cfg = pipeline_config(seed, scale);
        let recorded = record_all(
            all_programs(scale),
            seed,
            scale,
            Self::NAME,
            1,
            PROFILE_SAMPLES,
            &cfg,
            t,
        )?;
        let mut lineages = Vec::new();
        for r in recorded {
            let full = full_product(&r.binary, &r.samples, &cfg, t);
            let mut sources = vec![r.workload.source.clone()];
            let keep = [r.workload.entry.as_str()];
            for (mutator, source) in drift::release_chain(&r.workload.source, DESCENDANTS, &keep) {
                let module = csspgo_lang::compile(&source, &r.workload.name)
                    .map_err(|e| format!("{} after {mutator}: {e}", r.workload.name))?;
                if module.find_function(&r.workload.entry).is_none() {
                    return Err(format!("{} after {mutator}: entry lost", r.workload.name));
                }
                sources.push(source);
                t.segment();
            }
            lineages.push(Lineage {
                workload: r.workload,
                sources,
                profile: full.probe,
                plan_paths: full.preinline.plan_paths,
            });
        }
        let annotate = AnnotateConfig {
            stale_matching: StaleMatching::Recover,
            inference: InferenceMode::Mcf,
            ..cfg.annotate
        };
        let mut opt_annotated = cfg.opt.clone();
        opt_annotated.inline_hot_size = opt_annotated.inline_small_size;
        Ok(Compile {
            cfg,
            annotate,
            opt_annotated,
            lineages,
            text_bytes: 0,
        })
    }

    fn digest(&self) -> u64 {
        let mut h = FNV_INIT;
        for l in &self.lineages {
            for s in &l.sources {
                mix(&mut h, s.len() as u64);
            }
            mix(&mut h, l.profile.total());
            mix(&mut h, l.plan_paths.len() as u64);
        }
        h
    }

    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut {
        let mut work = 0;
        let mut fingerprint = FNV_INIT;
        let mut text_bytes = 0;
        let mut probe_ns = 0;
        for lineage in &self.lineages {
            for (i, source) in lineage.sources.iter().enumerate() {
                for mode in MODES {
                    let built = self.build(lineage, source, mode, t);
                    t.segment();
                    match built {
                        Ok(binary) => {
                            ops.ok(1);
                            work += binary.len() as u64;
                            mix(&mut fingerprint, binary.len() as u64);
                            mix(&mut fingerprint, binary.sections.total());
                            if mode == Mode::O2 {
                                text_bytes += binary.sections.text;
                            }
                        }
                        Err(e) => ops.fail(|| {
                            format!("{} release {i} {mode:?}: {e}", lineage.workload.name)
                        }),
                    }
                }
                if t.enabled() {
                    probe_ns += self.probe_annotate_internals(lineage, source, t);
                    t.skip_segment();
                }
            }
        }
        self.text_bytes = text_bytes;
        RoundOut {
            work,
            fingerprint,
            probe_ns,
        }
    }

    fn rate(work: u64, secs: f64) -> f64 {
        work as f64 / secs / 1e3
    }

    fn verify(&mut self, ops: &mut Ops) {
        // Every mode of every source must compute what its unoptimised
        // build computes.
        let mut off = Tracer::off();
        for lineage in &self.lineages {
            let w = &lineage.workload;
            let requests = &w.eval_calls[..CHECK_REQUESTS.min(w.eval_calls.len())];
            for (i, source) in lineage.sources.iter().enumerate() {
                let reference = csspgo_lang::compile(source, &w.name)
                    .map_err(|e| e.to_string())
                    .map(|m| lower_module(&m, &self.cfg.codegen))
                    .and_then(|b| run_hash(&b, w, requests, &self.cfg));
                for mode in MODES {
                    let got = self
                        .build(lineage, source, mode, &mut off)
                        .and_then(|b| run_hash(&b, w, requests, &self.cfg));
                    match (reference.as_ref(), got.as_ref()) {
                        (Ok(want), Ok(got)) => ops.check(want == got, || {
                            format!("{} release {i} {mode:?}: results differ from -O0", w.name)
                        }),
                        (Err(e), _) | (_, Err(e)) => {
                            ops.fail(|| format!("{} release {i} {mode:?}: {e}", w.name))
                        }
                    }
                }
            }
        }
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![("text_bytes", self.text_bytes as f64)]
    }
}
