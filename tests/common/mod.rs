//! Helpers shared by the integration tests.

use csspgo::core::pipeline::{
    context_profile, finish_probe_profile, profiling_build, profiling_run, PgoVariant,
    PipelineConfig,
};
use csspgo::core::profile::ProbeProfile;
use csspgo::core::Workload;

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
