//! Helpers shared by the integration tests.

#![allow(dead_code)] // each test that includes this uses a part of it

use csspgo::core::annotate::AnnotateConfig;
use csspgo::core::inference::InferenceMode;
use csspgo::core::pipeline::{
    context_profile, finish_probe_profile, profiling_build, profiling_run, PgoVariant,
    PipelineConfig,
};
use csspgo::core::profile::ProbeProfile;
use csspgo::core::stalematch::StaleMatching;
use csspgo::core::Workload;
use csspgo::opt::OptConfig;
use csspgo::sim::RunStats;
use csspgo::workloads::drift;

/// Collects an untrimmed probe profile on the clean build of `w` from the
/// pipeline's own stages — what `csspgo_lint` judges drifted builds
/// against.
pub fn collect_probe_profile(w: &Workload, config: &PipelineConfig) -> ProbeProfile {
    let binary = profiling_build(&w.source, &w.name, PgoVariant::CsspgoFull, config)
        .unwrap()
        .binary;
    let run = profiling_run(&binary, w, config.sim_config(config.sample_period)).unwrap();
    let generated = context_profile(&binary, &run.samples, config.ingest_shards);
    finish_probe_profile(&generated.profile, &generated.range_counts, &binary)
}

/// One program as the compile tests build it: its base source and the five
/// `drift::release_chain` descendants, the default optimizer config, and
/// what an annotated build of each reads — the base program's probe profile
/// at traffic scale 0.05, stale matching on, MCF inference, and the
/// full-CSSPGO inline limits.
pub struct Lineage {
    pub workload: Workload,
    pub sources: Vec<String>,
    pub opt: OptConfig,
    pub probe: ProbeProfile,
    pub annotate: AnnotateConfig,
    pub opt_annotated: OptConfig,
}

/// The lineages of the six `csspgo_workloads` programs.
pub fn lineages() -> Vec<Lineage> {
    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    workloads
        .into_iter()
        .map(|workload| {
            let config = PipelineConfig::default();
            let probe = collect_probe_profile(&workload.scaled(0.05), &config);
            let mut opt_annotated = config.opt.clone();
            opt_annotated.inline_hot_size = opt_annotated.inline_small_size;
            let mut sources = vec![workload.source.clone()];
            sources.extend(
                drift::release_chain(&workload.source, 5, &[workload.entry.as_str()])
                    .into_iter()
                    .map(|(_, s)| s),
            );
            Lineage {
                annotate: AnnotateConfig {
                    stale_matching: StaleMatching::Recover,
                    inference: InferenceMode::Mcf,
                    ..config.annotate
                },
                workload,
                sources,
                opt: config.opt,
                probe,
                opt_annotated,
            }
        })
        .collect()
}

/// `s` as the goldens hold it: one JSON object, every field.
pub fn run_stats_json(s: &RunStats) -> String {
    format!(
        "{{\"cycles\": {}, \"instructions\": {}, \"taken_branches\": {}, \"mispredicts\": {}, \
         \"icache_misses\": {}, \"calls\": {}, \"samples\": {}}}",
        s.cycles,
        s.instructions,
        s.taken_branches,
        s.mispredicts,
        s.icache_misses,
        s.calls,
        s.samples
    )
}
