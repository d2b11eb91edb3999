//! End-to-end PGO cycles: build → profile in "production" → generate
//! profile → rebuild with the profile → evaluate.
//!
//! Mirrors the paper's evaluation setup (§IV.A): Profi-style inference,
//! ext-TSP layout and function splitting are enabled for *every* variant, so
//! measured differences come from correlation quality and
//! context-sensitivity — the two things CSSPGO changes.

use crate::annotate::{
    autofdo_annotate, collect_block_counts, csspgo_annotate, instr_annotate_reconstructed,
    AnnotateConfig, AnnotateStats,
};
use crate::context::ContextProfile;
use crate::correlate::{dwarf_profile, probe_profile};
use crate::overlap::BlockCounts;
use crate::preinline::{run_preinliner, to_inline_plan, PreInlineConfig};
use crate::profile::{FlatProfile, ProbeProfile};
use crate::ranges::RangeCounts;
use crate::shard::{sharded_context_profile, sharded_range_counts};
use crate::stream::StreamConfig;
use crate::tailcall::{InferStats, TailCallGraph};
use crate::workload::Workload;
use csspgo_codegen::{lower_module, Binary, CodegenConfig, SectionSizes};
use csspgo_ir::flow::FlowEdge;
use csspgo_ir::{BlockId, FuncId, InlinePlan, Module};
use csspgo_opt::instrument::CounterMap;
use csspgo_opt::OptConfig;
use csspgo_sim::{Machine, RunStats, Sample, SimConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The PGO variants evaluated in the paper.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so future variants (e.g. streaming-refresh hybrids) are not breaking
/// changes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PgoVariant {
    /// Plain optimized build, no profile (the pre-PGO baseline).
    O2,
    /// Instrumentation-based PGO (exact counts, heavy profiling run).
    Instr,
    /// Sampling-based PGO with debug-info correlation (the baseline PGO).
    AutoFdo,
    /// CSSPGO using only pseudo-instrumentation (paper's "probe-only").
    CsspgoProbeOnly,
    /// Full CSSPGO: pseudo-instrumentation + context-sensitive profiling +
    /// the pre-inliner.
    CsspgoFull,
}

impl PgoVariant {
    /// All variants, in presentation order.
    pub const ALL: [PgoVariant; 5] = [
        PgoVariant::O2,
        PgoVariant::Instr,
        PgoVariant::AutoFdo,
        PgoVariant::CsspgoProbeOnly,
        PgoVariant::CsspgoFull,
    ];

    /// Whether the variant inserts pseudo-probes.
    pub fn uses_probes(self) -> bool {
        matches!(self, PgoVariant::CsspgoProbeOnly | PgoVariant::CsspgoFull)
    }
}

impl fmt::Display for PgoVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PgoVariant::O2 => "O2",
            PgoVariant::Instr => "Instr PGO",
            PgoVariant::AutoFdo => "AutoFDO",
            PgoVariant::CsspgoProbeOnly => "CSSPGO (probe-only)",
            PgoVariant::CsspgoFull => "CSSPGO (full)",
        };
        f.write_str(s)
    }
}

/// Pipeline configuration.
///
/// Fields are public: start from [`PipelineConfig::default`] (always valid)
/// and assign, or chain the few [`PipelineConfig::builder`] shorthands.
/// Either way [`PipelineConfig::validate`] runs where a configuration is
/// consumed ([`run_pgo_cycle_drifted`], `FleetBinaries::compile`), so
/// validity does not depend on how the struct was built.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Optimizer knobs (shared across variants for fair comparison).
    pub opt: OptConfig,
    /// Code generation knobs.
    pub codegen: CodegenConfig,
    /// Annotation / replay knobs.
    pub annotate: AnnotateConfig,
    /// Pre-inliner knobs (full CSSPGO).
    pub preinline: PreInlineConfig,
    /// Streaming-aggregation knobs (epoch ingestion; see [`crate::stream`]).
    pub stream: StreamConfig,
    /// Counter-placement knobs for the instrumented variant.
    pub instrument: csspgo_opt::instrument::InstrumentConfig,
    /// Cold-context trimming threshold (full CSSPGO).
    pub trim_threshold: u64,
    /// PMU sampling period in cycles.
    pub sample_period: u64,
    /// LBR depth.
    pub lbr_size: usize,
    /// Precise sampling (PEBS).
    pub pebs: bool,
    /// Deterministic seed.
    pub seed: u64,
    /// Simulator step budget per run.
    pub max_steps: u64,
    /// Sample-ingestion shard count (`0` = auto: one shard per available
    /// thread, none of fewer than 1 024 samples). Any value produces
    /// bit-identical profiles; see [`crate::shard`].
    pub ingest_shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            opt: OptConfig::default(),
            codegen: CodegenConfig::default(),
            annotate: AnnotateConfig::default(),
            preinline: PreInlineConfig::default(),
            stream: StreamConfig::default(),
            instrument: csspgo_opt::instrument::InstrumentConfig::default(),
            trim_threshold: 16,
            sample_period: 199,
            lbr_size: 16,
            pebs: true,
            seed: 0xC55,
            max_steps: 40_000_000_000,
            ingest_shards: 0,
        }
    }
}

/// Hard cap on explicit shard requests; anything beyond this is a typo, not
/// a parallelism plan.
const MAX_INGEST_SHARDS: usize = 1 << 16;

impl PipelineConfig {
    /// Starts a validating builder seeded with the default configuration.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            cfg: PipelineConfig::default(),
        }
    }

    /// The simulator configuration of this pipeline with the PMU sampling
    /// every `sample_period` cycles (`0`: PMU off, as evaluation and
    /// instrumented runs want it).
    pub fn sim_config(&self, sample_period: u64) -> SimConfig {
        SimConfig {
            lbr_size: self.lbr_size,
            pebs: self.pebs,
            sample_period,
            seed: self.seed,
            max_steps: self.max_steps,
            ..SimConfig::default()
        }
    }

    /// Checks the configuration's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] describing the first
    /// rejected combination.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let fail = |msg: String| Err(PipelineError::InvalidConfig(msg));
        if self.sample_period == 0 {
            return fail(
                "sample_period must be non-zero: sampling variants would collect no samples \
                 (and sharded ingestion would have nothing to shard)"
                    .into(),
            );
        }
        if self.lbr_size < 2 {
            return fail(format!(
                "lbr_size {} is too small: range derivation needs at least two LBR entries",
                self.lbr_size
            ));
        }
        if self.max_steps == 0 {
            return fail("max_steps must be non-zero: every run would exceed its budget".into());
        }
        if self.ingest_shards > MAX_INGEST_SHARDS {
            return fail(format!(
                "ingest_shards {} exceeds the {MAX_INGEST_SHARDS} cap (0 means auto)",
                self.ingest_shards
            ));
        }
        if self.stream.max_pending_samples == 0 {
            return fail(
                "stream.max_pending_samples must be non-zero: no batch could ever be pushed".into(),
            );
        }
        if !(0.0..=1.0).contains(&self.stream.drift_threshold) {
            return fail(format!(
                "stream.drift_threshold {} is not a fraction in [0, 1]",
                self.stream.drift_threshold
            ));
        }
        Ok(())
    }
}

/// Chaining shorthands for [`PipelineConfig`], one per field some caller
/// overrides in an expression; everything else is a public field.
/// [`PipelineConfigBuilder::build`] validates the combination and returns
/// [`PipelineError::InvalidConfig`] on inconsistency.
#[derive(Clone, Debug)]
pub struct PipelineConfigBuilder {
    cfg: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Sets the stale-profile handling mode (`off | recover`) —
    /// shorthand for overriding just that field of the annotate knobs.
    #[must_use]
    pub fn stale_matching(mut self, mode: crate::stalematch::StaleMatching) -> Self {
        self.cfg.annotate.stale_matching = mode;
        self
    }

    /// Sets the profile-inference algorithm (`off | mcf`) —
    /// shorthand for overriding just that field of the annotate knobs.
    #[must_use]
    pub fn inference(mut self, mode: crate::inference::InferenceMode) -> Self {
        self.cfg.annotate.inference = mode;
        self
    }

    /// Sets the streaming-aggregation knobs.
    #[must_use]
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.cfg.stream = stream;
        self
    }

    /// Sets the counter-placement policy for the instrumented variant
    /// (`full | spanning_tree`) — shorthand for overriding just that field
    /// of the instrumentation knobs.
    #[must_use]
    pub fn placement(mut self, placement: csspgo_opt::instrument::Placement) -> Self {
        self.cfg.instrument.placement = placement;
        self
    }

    /// Sets the PMU sampling period in cycles.
    #[must_use]
    pub fn sample_period(mut self, period: u64) -> Self {
        self.cfg.sample_period = period;
        self
    }

    /// Sets the deterministic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the sample-ingestion shard count (`0` = auto).
    #[must_use]
    pub fn ingest_shards(mut self, shards: usize) -> Self {
        self.cfg.ingest_shards = shards;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] when the combination is
    /// inconsistent (see [`PipelineConfig::validate`]).
    pub fn build(self) -> Result<PipelineConfig, PipelineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Pipeline failure.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so new failure modes are not breaking changes.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// Frontend rejected the workload source.
    Compile(csspgo_lang::CompileError),
    /// The simulator failed.
    Sim(csspgo_sim::SimError),
    /// A configuration combination rejected by
    /// [`PipelineConfig::validate`].
    InvalidConfig(String),
    /// Malformed profile or snapshot text.
    Profile(crate::textprof::ParseError),
    /// Malformed binary profile payload (see [`crate::binprof`]).
    Decode(crate::binprof::DecodeError),
    /// Streaming-aggregation misuse: buffer overflow, binary mismatch,
    /// malformed snapshot structure (see [`crate::stream`]).
    Stream(String),
    /// An internal invariant on sample/profile data did not hold.
    Inconsistent(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation error: {e}"),
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::Profile(e) => write!(f, "profile data error: {e}"),
            PipelineError::Decode(e) => write!(f, "profile decode error: {e}"),
            PipelineError::Stream(msg) => write!(f, "stream aggregation error: {msg}"),
            PipelineError::Inconsistent(msg) => write!(f, "internal inconsistency: {msg}"),
        }
    }
}

impl Error for PipelineError {}

impl From<csspgo_lang::CompileError> for PipelineError {
    fn from(e: csspgo_lang::CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<csspgo_sim::SimError> for PipelineError {
    fn from(e: csspgo_sim::SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<crate::textprof::ParseError> for PipelineError {
    fn from(e: crate::textprof::ParseError) -> Self {
        PipelineError::Profile(e)
    }
}

impl From<crate::binprof::DecodeError> for PipelineError {
    fn from(e: crate::binprof::DecodeError) -> Self {
        PipelineError::Decode(e)
    }
}

/// Everything one PGO cycle produced.
#[derive(Clone, Debug, PartialEq)]
pub struct PgoOutcome {
    /// Which variant ran.
    pub variant: PgoVariant,
    /// Stats of the profiling run (empty for `O2`).
    pub profiling: RunStats,
    /// Stats of the evaluation run on the final binary.
    pub eval: RunStats,
    /// Hash of all evaluation return values (must agree across variants).
    pub eval_result_hash: u64,
    /// Sections of the final optimized binary.
    pub sections: SectionSizes,
    /// Sections of the profiling binary (Fig. 9 uses these).
    pub profiling_sections: SectionSizes,
    /// Annotation outcome.
    pub annotate_stats: AnnotateStats,
    /// Fresh-IR block counts used for the quality metric (no inline
    /// replay, same CFG for every variant).
    pub quality_counts: BlockCounts,
    /// Context-trie size before trimming (full CSSPGO).
    pub context_nodes_before_trim: usize,
    /// Context-trie size after trimming.
    pub context_nodes_after_trim: usize,
    /// Pre-inliner plan size (full CSSPGO).
    pub plan_len: usize,
    /// Counter sites placed in the profiling build (instrumented variant
    /// only; 0 elsewhere). Each site lowers to one counter instruction.
    pub counter_sites: usize,
    /// Tail-call missing-frame inference stats (full CSSPGO).
    pub infer_stats: InferStats,
}

impl PgoOutcome {
    fn empty(variant: PgoVariant) -> Self {
        PgoOutcome {
            variant,
            profiling: RunStats::default(),
            eval: RunStats::default(),
            eval_result_hash: 0,
            sections: SectionSizes::default(),
            profiling_sections: SectionSizes::default(),
            annotate_stats: AnnotateStats::default(),
            quality_counts: BlockCounts::new(),
            context_nodes_before_trim: 0,
            context_nodes_after_trim: 0,
            plan_len: 0,
            counter_sites: 0,
            infer_stats: InferStats::default(),
        }
    }
}

// ---------------------------------------------------------------------
// The stages of a PGO cycle, cut along the paper's tool boundaries:
// profiling build, `perf` collection, `llvm-profgen`, profile-guided
// rebuild. Each is a plain function over plain data; `run_pgo_cycle_drifted`
// is their composition, and every other consumer that needs "the cycle up
// to here" (lint, diff, fleet, release train, benches) calls the same ones.
// ---------------------------------------------------------------------

/// Stage 1 — the front end plus the preparation passes every build shares:
/// discriminators, and pseudo-probes when `probes`.
///
/// # Errors
///
/// Returns [`PipelineError::Compile`] when the front end rejects `source`.
pub fn prepared_module(source: &str, name: &str, probes: bool) -> Result<Module, PipelineError> {
    let mut module = csspgo_lang::compile(source, name)?;
    csspgo_opt::discriminators::run(&mut module);
    if probes {
        csspgo_opt::probes::run(&mut module);
    }
    Ok(module)
}

/// The product of [`profiling_build`].
#[derive(Clone, Debug)]
pub struct ProfilingBuild {
    /// The binary deployed "in production".
    pub binary: Binary,
    /// Instrumented variant only: what each counter measures, and the
    /// pre-instrumentation module the placement was planned on.
    pub instrumented: Option<(CounterMap, Module)>,
}

/// Stage 1b — the profiling build of `variant`: a [`prepared_module`]
/// (probes for the CSSPGO variants, counters under `config.instrument` for
/// the instrumented one) through the optimizer and code generation.
///
/// # Errors
///
/// Returns [`PipelineError::Compile`] when the front end rejects `source`.
pub fn profiling_build(
    source: &str,
    name: &str,
    variant: PgoVariant,
    config: &PipelineConfig,
) -> Result<ProfilingBuild, PipelineError> {
    let mut module = prepared_module(source, name, variant.uses_probes())?;
    let instrumented = (variant == PgoVariant::Instr).then(|| {
        let reference = module.clone();
        let map = csspgo_opt::instrument::run_with(&mut module, &config.instrument);
        (map, reference)
    });
    csspgo_opt::run_pipeline(&mut module, &config.opt);
    Ok(ProfilingBuild {
        binary: lower_module(&module, &config.codegen),
        instrumented,
    })
}

/// A machine over `binary` with the workload's global arrays staged.
pub fn staged_machine<'b>(binary: &'b Binary, workload: &Workload, sim: SimConfig) -> Machine<'b> {
    let mut machine = Machine::new(binary, sim);
    for (name, values) in &workload.setup {
        machine.set_global(name, values);
    }
    machine
}

/// What a profiling run leaves behind.
#[derive(Clone, Debug, Default)]
pub struct ProfilingRun {
    /// The complete, ordered PMU sample stream.
    pub samples: Vec<Sample>,
    /// Run statistics of the training traffic.
    pub stats: RunStats,
    /// Instrumentation counter values (empty for uninstrumented builds).
    pub counters: Vec<u64>,
}

/// Stage 2 — the profiling run "in production": all training traffic on a
/// [`staged_machine`], samples drained once at the end. The simulator is
/// deterministic, so draining more often yields the same stream.
///
/// # Errors
///
/// Returns [`PipelineError::Sim`] when a training call fails (e.g. step
/// budget exceeded).
pub fn profiling_run(
    binary: &Binary,
    workload: &Workload,
    sim: SimConfig,
) -> Result<ProfilingRun, PipelineError> {
    let mut machine = staged_machine(binary, workload, sim);
    for args in &workload.train_calls {
        machine.call(&workload.entry, args)?;
    }
    Ok(ProfilingRun {
        samples: machine.take_samples(),
        stats: *machine.stats(),
        counters: machine.counters().to_vec(),
    })
}

/// Stage 3, AutoFDO — range counts correlated through debug info.
pub fn autofdo_profile(binary: &Binary, samples: &[Sample], shards: usize) -> FlatProfile {
    dwarf_profile(binary, &sharded_range_counts(binary, samples, shards))
}

/// Stage 3, probe-only CSSPGO — range counts correlated through probes.
pub fn probe_only_profile(binary: &Binary, samples: &[Sample], shards: usize) -> ProbeProfile {
    probe_profile(binary, &sharded_range_counts(binary, samples, shards))
}

/// What full-CSSPGO profile generation produces, for a batch
/// ([`context_profile`]) or from live state
/// ([`crate::stream::StreamAggregator::to_generated`]), and what
/// [`build_from_context`] turns into an evaluated build.
#[derive(Clone, Debug)]
pub struct ContextGenerated {
    /// The context trie, checksummed and *untrimmed*.
    pub profile: ContextProfile,
    /// The LBR range/branch counts the tail-call graph was built from.
    pub range_counts: RangeCounts,
    /// Tail-call missing-frame inference counters of the unwind.
    pub infer_stats: InferStats,
    /// Samples whose stack could not be interpreted at all.
    pub broken_stacks: u64,
}

impl ContextGenerated {
    /// Stamps `binary`'s probe CFG checksums onto the unwound `profile` —
    /// the one place a raw trie becomes a generated profile.
    pub(crate) fn new(
        binary: &Binary,
        mut profile: ContextProfile,
        range_counts: RangeCounts,
        (infer_stats, broken_stacks): (InferStats, u64),
    ) -> Self {
        let checksums = binary
            .funcs
            .iter()
            .filter_map(|f| f.probe_checksum.map(|c| (f.guid, c)))
            .collect();
        profile.set_checksums(&checksums);
        ContextGenerated {
            profile,
            range_counts,
            infer_stats,
            broken_stacks,
        }
    }
}

/// Stage 3, full CSSPGO — range counts, the tail-call graph, Algorithm 1
/// (context unwinding) and the binary's probe checksums. Stops *before*
/// cold trimming and the pre-inliner: [`build_from_context`] does both,
/// `csspgo_lint` does neither.
pub fn context_profile(binary: &Binary, samples: &[Sample], shards: usize) -> ContextGenerated {
    let range_counts = sharded_range_counts(binary, samples, shards);
    let tail_graph = TailCallGraph::build(binary, &range_counts);
    let unwound = sharded_context_profile(binary, Some(&tail_graph), samples, shards);
    let diagnostics = (unwound.infer_stats, unwound.broken_stacks);
    ContextGenerated::new(binary, unwound.profile, range_counts, diagnostics)
}

/// Stage 3 finisher — flattens a (trimmed, pre-inlined, or neither)
/// context profile into the [`ProbeProfile`] handed to the compiler.
/// Context entry counts can be sparse: each is raised to the plain LBR
/// entry count where that is larger.
pub fn finish_probe_profile(
    profile: &ContextProfile,
    rc: &RangeCounts,
    binary: &Binary,
) -> ProbeProfile {
    let mut probe = profile.to_probe_profile();
    for (fidx, c) in rc.entry_counts(binary) {
        let guid = binary.funcs[fidx as usize].guid;
        if let Some(fp) = probe.funcs.get_mut(&guid) {
            fp.entry = fp.entry.max(c);
        }
    }
    probe
}

/// Names every function the LBR saw entered, for profiles that are printed
/// or judged. A step of its own: profiles fed straight back to the
/// compiler stay unnamed.
fn name_entered_functions(probe: &mut ProbeProfile, rc: &RangeCounts, binary: &Binary) {
    for fidx in rc.entry_counts(binary).into_keys() {
        let f = &binary.funcs[fidx as usize];
        probe.names.entry(f.guid).or_insert_with(|| f.name.clone());
    }
}

/// The offline collection `csspgo_lint` judges and the matcher oracle
/// pins: the full-CSSPGO profiling build, its profiling run, and the
/// context profile finished *untrimmed* with every entered function named.
/// Trimming merges cold contexts into base profiles, discarding exactly the
/// call anchors rename matching aligns on, and an offline judge has no
/// profile-size budget. The optimizer's inter-pass checkpoints are on, so a
/// pass that breaks the IR or the probe metadata stops the collection,
/// release build or not.
///
/// # Errors
///
/// Returns [`PipelineError::Compile`] when the front end rejects the
/// workload's source, [`PipelineError::Sim`] when a training call fails.
pub fn untrimmed_probe_profile(workload: &Workload) -> Result<ProbeProfile, PipelineError> {
    let mut config = PipelineConfig::default();
    config.opt.interpass_verify = true;
    let binary = profiling_build(
        &workload.source,
        &workload.name,
        PgoVariant::CsspgoFull,
        &config,
    )?
    .binary;
    let run = profiling_run(&binary, workload, config.sim_config(config.sample_period))?;
    let generated = context_profile(&binary, &run.samples, config.ingest_shards);
    let mut probe = finish_probe_profile(&generated.profile, &generated.range_counts, &binary);
    name_entered_functions(&mut probe, &generated.range_counts, &binary);
    Ok(probe)
}

/// Stage 3, instrumentation — counter values mapped back to exact block
/// counts. Sparse (spanning-tree) measurements are solved back to full flow
/// against `reference`, the profiling build's pre-instrumentation module
/// (the CFG the placement was planned on).
///
/// # Errors
///
/// Returns [`PipelineError::Inconsistent`] when a sparse placement fails to
/// reconstruct.
fn instr_profile(
    map: CounterMap,
    counters: &[u64],
    reference: &Module,
) -> Result<BuildProfile, PipelineError> {
    let mut exact = HashMap::new();
    for ((fid, bid), counter) in map.by_block {
        exact.insert((fid, bid), counters[counter as usize]);
    }
    let mut per_func: HashMap<FuncId, HashMap<FlowEdge, u64>> = HashMap::new();
    for (fid, edge, counter) in map.by_edge {
        per_func
            .entry(fid)
            .or_default()
            .insert(edge, counters[counter as usize]);
    }
    let mut recovered_edges = HashMap::new();
    for (fid, measured) in per_func {
        let flow = csspgo_ir::flow::reconstruct(reference.func(fid), &measured).ok_or(
            PipelineError::Inconsistent("sparse counter placement failed to reconstruct full flow"),
        )?;
        for (bid, c) in &flow.block_counts {
            exact.insert((fid, *bid), *c);
        }
        recovered_edges.insert(fid, flow.edge_counts);
    }
    Ok(BuildProfile::Counters(exact, recovered_edges))
}

/// What profile generation hands the compiler.
#[derive(Clone, Debug)]
pub enum BuildProfile {
    /// No profile (`-O2`).
    None,
    /// AutoFDO's line-keyed profile.
    Flat(FlatProfile),
    /// CSSPGO's probe-keyed profile (probe-only and full).
    Probe(ProbeProfile),
    /// Exact per-block counts plus, under sparse placement, the
    /// Kirchhoff-recovered edge counts per function.
    Counters(
        HashMap<(FuncId, BlockId), u64>,
        HashMap<FuncId, Vec<(BlockId, BlockId, u64)>>,
    ),
}

impl BuildProfile {
    /// Annotates `module` with this profile.
    fn annotate(
        &self,
        module: &mut Module,
        plan: Option<&InlinePlan>,
        config: &AnnotateConfig,
    ) -> AnnotateStats {
        match self {
            BuildProfile::None => AnnotateStats::default(),
            BuildProfile::Flat(p) => autofdo_annotate(module, p, config),
            BuildProfile::Probe(p) => csspgo_annotate(module, p, plan, config),
            BuildProfile::Counters(c, e) => instr_annotate_reconstructed(module, c, e),
        }
    }
}

/// Stage 4 — the hand-off through the binary wire format. Production
/// profiles travel between collector and compiler as binprof payloads; the
/// cycle compiles from the decoded copy, so the wire format is
/// load-bearing — a lossy encode or a decode regression fails the cycle.
/// Counter profiles never leave the build host and pass through.
///
/// # Errors
///
/// Returns [`PipelineError::Decode`] when the payload does not decode.
pub fn wire_handoff(profile: BuildProfile) -> Result<BuildProfile, PipelineError> {
    Ok(match profile {
        BuildProfile::Flat(p) => BuildProfile::Flat(crate::binprof::decode_flat(
            &crate::binprof::encode_flat(&p),
        )?),
        BuildProfile::Probe(p) => BuildProfile::Probe(crate::binprof::decode_probe(
            &crate::binprof::encode_probe(&p),
        )?),
        other => other,
    })
}

/// Stage 5 — the profile-guided rebuild of a [`prepared_module`]: annotate
/// (replaying `plan`), optimize, strip what `entry` no longer reaches
/// (link-time GC: fully-inlined functions lose their standalone bodies),
/// lower.
///
/// Full CSSPGO honors the pre-inliner's global decisions: the bottom-up
/// inliner is restricted to trivially-small callees so it cannot undo the
/// pre-inliner's selectivity (paper §III.B: the compiler "will try to
/// honor the decision made by pre-inliner when possible").
pub fn optimized_build(
    mut module: Module,
    variant: PgoVariant,
    profile: &BuildProfile,
    plan: Option<&InlinePlan>,
    entry: &str,
    config: &PipelineConfig,
) -> (Binary, AnnotateStats) {
    let stats = profile.annotate(&mut module, plan, &config.annotate);
    let mut opt_cfg = config.opt.clone();
    if variant == PgoVariant::CsspgoFull {
        opt_cfg.inline_hot_size = opt_cfg.inline_small_size;
    }
    csspgo_opt::run_pipeline(&mut module, &opt_cfg);
    if let Some(root) = module.find_function(entry) {
        csspgo_opt::strip::run(&mut module, &[root]);
    }
    (lower_module(&module, &config.codegen), stats)
}

/// Stages 4–6, the tail every build shares: wire hand-off, the quality
/// snapshot, the profile-guided rebuild of `build_module`, evaluation.
/// Returns the outcome fields those stages determine.
fn rebuild_and_evaluate(
    variant: PgoVariant,
    build_module: Module,
    profile: BuildProfile,
    plan: Option<&InlinePlan>,
    workload: &Workload,
    config: &PipelineConfig,
) -> Result<PgoOutcome, PipelineError> {
    let mut outcome = PgoOutcome::empty(variant);
    let profile = wire_handoff(profile)?;
    outcome.quality_counts = quality_counts(build_module.clone(), &profile, &config.annotate);
    let entry = &workload.entry;
    let (binary, stats) = optimized_build(build_module, variant, &profile, plan, entry, config);
    outcome.annotate_stats = stats;
    outcome.sections = binary.sections;
    (outcome.eval, outcome.eval_result_hash) = evaluate(&binary, workload, config)?;
    Ok(outcome)
}

/// A generated context profile → an evaluated build of `build_source`: the
/// one path from full-CSSPGO profile to binary, shared by the batch cycle
/// ([`run_pgo_cycle_drifted`]), the fleet's drift refresh and the release
/// train's baseline, candidate and floor
/// ([`crate::fleet::FleetService::rebuild`]). Cold contexts are trimmed at
/// `config.trim_threshold`, the pre-inliner runs against `profiled` (the
/// binary the samples came from) and its plan is resolved against the
/// build module, the trie is flattened with LBR entry counts back-filled,
/// and the profile goes through the wire hand-off into the rebuild and the
/// evaluation on `workload`'s traffic. `config.annotate.stale_matching`
/// decides what happens to functions whose checksum no longer matches.
///
/// Returns the [`PgoOutcome`] fields these stages determine; the
/// profiling-side ones (`profiling`, `profiling_sections`) are the
/// collector's to fill.
///
/// # Errors
///
/// Returns [`PipelineError`] if `build_source` fails to compile, the
/// hand-off does not decode or the evaluation exceeds its budget.
pub fn build_from_context(
    mut generated: ContextGenerated,
    profiled: &Binary,
    workload: &Workload,
    build_source: &str,
    config: &PipelineConfig,
) -> Result<PgoOutcome, PipelineError> {
    // The pre-inliner's plan refers to the fresh build module, so its
    // front end runs first.
    let build_module = prepared_module(build_source, &workload.name, true)?;
    let context_nodes_before_trim = generated.profile.node_count();
    generated.profile.trim_cold(config.trim_threshold);
    let context_nodes_after_trim = generated.profile.node_count();
    let pre = run_preinliner(&mut generated.profile, profiled, &config.preinline);
    let plan = Some(to_inline_plan(&pre.plan_paths, &build_module));
    let probe = finish_probe_profile(&generated.profile, &generated.range_counts, profiled);
    let (full, profile) = (PgoVariant::CsspgoFull, BuildProfile::Probe(probe));
    let built = rebuild_and_evaluate(full, build_module, profile, plan.as_ref(), workload, config)?;
    Ok(PgoOutcome {
        infer_stats: generated.infer_stats,
        context_nodes_before_trim,
        context_nodes_after_trim,
        plan_len: pre.plan_paths.len(),
        ..built
    })
}

/// Runs one full PGO cycle for `workload` with `variant`.
///
/// # Errors
///
/// Returns [`PipelineError`] if `config` is invalid, the source fails to
/// compile or a simulation exceeds its budget.
pub fn run_pgo_cycle(
    workload: &Workload,
    variant: PgoVariant,
    config: &PipelineConfig,
) -> Result<PgoOutcome, PipelineError> {
    run_pgo_cycle_drifted(workload, variant, config, &workload.source)
}

/// Like [`run_pgo_cycle`] but the *optimized* build compiles
/// `build_source` instead of the profiled source — the paper's source-drift
/// scenario (profile collected on last week's binary, build uses today's
/// code).
///
/// # Errors
///
/// Returns [`PipelineError`] if `config` is invalid, either source fails to
/// compile or a simulation exceeds its budget.
pub fn run_pgo_cycle_drifted(
    workload: &Workload,
    variant: PgoVariant,
    config: &PipelineConfig,
    build_source: &str,
) -> Result<PgoOutcome, PipelineError> {
    config.validate()?;
    let shards = config.ingest_shards;
    let build_module = || prepared_module(build_source, &workload.name, variant.uses_probes());
    let rebuild =
        |module, profile| rebuild_and_evaluate(variant, module, profile, None, workload, config);
    if variant == PgoVariant::O2 {
        return rebuild(build_module()?, BuildProfile::None);
    }

    // Profiling build and run "in production".
    let ProfilingBuild {
        binary,
        instrumented,
    } = profiling_build(&workload.source, &workload.name, variant, config)?;
    let period = match variant {
        PgoVariant::Instr => 0,
        _ => config.sample_period,
    };
    let run = profiling_run(&binary, workload, config.sim_config(period))?;
    let counter_sites = instrumented.as_ref().map_or(0, |(map, _)| map.len());

    let mut outcome = match variant {
        PgoVariant::CsspgoFull => {
            let generated = context_profile(&binary, &run.samples, shards);
            build_from_context(generated, &binary, workload, build_source, config)?
        }
        PgoVariant::AutoFdo => {
            let profile = autofdo_profile(&binary, &run.samples, shards);
            rebuild(build_module()?, BuildProfile::Flat(profile))?
        }
        PgoVariant::CsspgoProbeOnly => {
            let profile = probe_only_profile(&binary, &run.samples, shards);
            rebuild(build_module()?, BuildProfile::Probe(profile))?
        }
        PgoVariant::Instr => {
            let (map, reference) = instrumented.ok_or(PipelineError::Inconsistent(
                "instrumented build produced no counter map",
            ))?;
            let module = build_module()?;
            rebuild(module, instr_profile(map, &run.counters, &reference)?)?
        }
        PgoVariant::O2 => unreachable!("returned above"),
    };
    outcome.profiling_sections = binary.sections;
    outcome.profiling = run.stats;
    outcome.counter_sites = counter_sites;
    Ok(outcome)
}

/// The quality snapshot: `module` annotated without inline replay, so block
/// counts stay on a CFG common to every variant.
fn quality_counts(
    mut module: Module,
    profile: &BuildProfile,
    annotate: &AnnotateConfig,
) -> BlockCounts {
    let no_replay = AnnotateConfig {
        inline_budget: 0,
        ..*annotate
    };
    profile.annotate(&mut module, None, &no_replay);
    collect_block_counts(&module)
}

/// Stage 6 — runs the evaluation traffic on `binary`, returning stats and
/// a hash of the results (for cross-variant correctness checking).
///
/// # Errors
///
/// Returns [`PipelineError::Sim`] when an evaluation call fails.
pub fn evaluate(
    binary: &Binary,
    workload: &Workload,
    config: &PipelineConfig,
) -> Result<(RunStats, u64), PipelineError> {
    let mut machine = staged_machine(binary, workload, config.sim_config(0));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for args in &workload.eval_calls {
        let r = machine.call(&workload.entry, args)?;
        hash ^= r as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok((*machine.stats(), hash))
}

/// Builds `workload` at plain `-O2` (probes on or off) and evaluates it —
/// the overhead experiments' custom build.
///
/// # Errors
///
/// Returns [`PipelineError`] if the source fails to compile or the
/// evaluation exceeds its budget.
pub fn build_and_run(
    workload: &Workload,
    with_probes: bool,
    config: &PipelineConfig,
) -> Result<(RunStats, SectionSizes), PipelineError> {
    let module = prepared_module(&workload.source, &workload.name, with_probes)?;
    let (o2, none) = (PgoVariant::O2, BuildProfile::None);
    let built = rebuild_and_evaluate(o2, module, none, None, workload, config)?;
    Ok((built.eval, built.sections))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        let src = r#"
fn weight(i) {
    if (i % 7 == 0) { return 3; }
    return 1;
}
fn score(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weight(i) * i;
        i = i + 1;
    }
    return s;
}
"#;
        Workload::new("tiny", src, "score", vec![vec![900]; 4], vec![vec![901]; 4])
    }

    fn quick_config() -> PipelineConfig {
        PipelineConfig::builder()
            .sample_period(61)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn all_variants_compute_identical_results() {
        let w = tiny_workload();
        let cfg = quick_config();
        let mut hashes = Vec::new();
        for v in PgoVariant::ALL {
            let o = run_pgo_cycle(&w, v, &cfg).unwrap_or_else(|e| panic!("{v}: {e}"));
            hashes.push((v, o.eval_result_hash));
        }
        let first = hashes[0].1;
        for (v, h) in &hashes {
            assert_eq!(*h, first, "variant {v} changed program behaviour");
        }
    }

    #[test]
    fn sampling_variants_profile_and_annotate() {
        let w = tiny_workload();
        let cfg = quick_config();
        for v in [
            PgoVariant::AutoFdo,
            PgoVariant::CsspgoProbeOnly,
            PgoVariant::CsspgoFull,
        ] {
            let o = run_pgo_cycle(&w, v, &cfg).unwrap();
            assert!(o.profiling.samples > 0, "{v} must sample");
            assert!(o.annotate_stats.annotated > 0, "{v} must annotate");
            assert!(o.annotate_stats.inference.functions > 0, "{v} must infer");
            assert_eq!(o.annotate_stats.inference.declined, 0, "{v}");
            assert!(!o.quality_counts.is_empty(), "{v} must snapshot quality");
        }
    }

    #[test]
    fn instrumented_profiling_is_much_slower() {
        let w = tiny_workload();
        let cfg = quick_config();
        let auto = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).unwrap();
        let instr = run_pgo_cycle(&w, PgoVariant::Instr, &cfg).unwrap();
        let ratio = instr.profiling.cycles as f64 / auto.profiling.cycles as f64;
        assert!(
            ratio > 1.2,
            "instrumented profiling should be much slower, got {ratio:.2}x"
        );
    }

    #[test]
    fn csspgo_full_produces_contexts_and_plan() {
        let w = tiny_workload();
        let cfg = quick_config();
        let o = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg).unwrap();
        assert!(o.context_nodes_before_trim > 0);
        assert!(o.context_nodes_after_trim <= o.context_nodes_before_trim);
    }

    #[test]
    fn probe_binary_carries_metadata_section() {
        let w = tiny_workload();
        let cfg = quick_config();
        let o = run_pgo_cycle(&w, PgoVariant::CsspgoProbeOnly, &cfg).unwrap();
        assert!(o.profiling_sections.pseudo_probe > 0);
        let a = run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).unwrap();
        assert_eq!(a.profiling_sections.pseudo_probe, 0);
    }

    #[test]
    fn pgo_beats_o2_on_layout_sensitive_workload() {
        // A rare-but-bulky error path: without profile the cold arm sits on
        // the fall-through path and pollutes the i-cache; with profile it is
        // laid out away (and split out), the hot arm falls through.
        let src = r#"
global stats[8];
fn classify(x) {
    if (x % 97 == 0) {
        stats[0] = stats[0] + x;
        stats[1] = stats[1] + x * 3;
        stats[2] = stats[2] + x * 5;
        stats[3] = stats[3] + x * 7;
        stats[4] = stats[4] + x * 11;
        stats[5] = stats[5] + x * 13;
        stats[6] = stats[6] + x * 17;
        stats[7] = stats[7] + x * 19;
        return 0 - x;
    }
    return x + 1;
}
fn score(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + classify(i);
        i = i + 1;
    }
    return s;
}
"#;
        let w = Workload::new(
            "layouty",
            src,
            "score",
            vec![vec![1500]; 3],
            vec![vec![1501]; 3],
        );
        let cfg = quick_config();
        let o2 = run_pgo_cycle(&w, PgoVariant::O2, &cfg).unwrap();
        let instr = run_pgo_cycle(&w, PgoVariant::Instr, &cfg).unwrap();
        assert_eq!(instr.eval_result_hash, o2.eval_result_hash);
        assert!(
            instr.eval.cycles < o2.eval.cycles,
            "instr PGO {} should beat O2 {}",
            instr.eval.cycles,
            o2.eval.cycles
        );
    }

    #[test]
    fn validate_accepts_valid_and_rejects_invalid_combos() {
        let cfg = PipelineConfig::builder()
            .sample_period(97)
            .ingest_shards(4)
            .build()
            .expect("valid combo");
        assert_eq!(cfg.sample_period, 97);
        assert_eq!(cfg.ingest_shards, 4);

        let bad = |edit: fn(&mut PipelineConfig)| {
            let mut cfg = PipelineConfig::default();
            edit(&mut cfg);
            cfg
        };
        let w = tiny_workload();
        for cfg in [
            bad(|c| c.sample_period = 0),
            bad(|c| c.lbr_size = 1),
            bad(|c| c.max_steps = 0),
            bad(|c| c.ingest_shards = MAX_INGEST_SHARDS + 1),
            bad(|c| c.stream.drift_threshold = 1.5),
            bad(|c| c.stream.max_pending_samples = 0),
        ] {
            // Rejected the same way whether the struct came through the
            // builder or was assigned field by field and handed to a cycle.
            for err in [
                cfg.validate().expect_err("combo must be rejected"),
                run_pgo_cycle(&w, PgoVariant::O2, &cfg).expect_err("cycle must reject it"),
            ] {
                assert!(
                    matches!(err, PipelineError::InvalidConfig(_)),
                    "wrong error: {err}"
                );
            }
        }

        // `Default` stays valid by construction.
        PipelineConfig::default().validate().expect("default valid");
    }

    #[test]
    fn builder_inference_shorthand() {
        use crate::inference::InferenceMode;
        let cfg = PipelineConfig::builder()
            .sample_period(61)
            .inference(InferenceMode::Off)
            .build()
            .expect("valid combo");
        assert_eq!(cfg.annotate.inference, InferenceMode::Off);
        assert_eq!(
            PipelineConfig::default().annotate.inference,
            InferenceMode::Mcf,
            "mcf is the default, per the paper's always-on Profi"
        );
    }
}
