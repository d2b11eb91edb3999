//! The paper's contribution: context-sensitive sampling-based PGO with
//! pseudo-instrumentation.
//!
//! This crate turns PMU samples from `csspgo-sim` into compiler profiles and
//! drives complete PGO cycles:
//!
//! * [`ranges`] — LBR snapshots → linear execution ranges and branch edges;
//! * [`profile`] — the AutoFDO-style nested line profile and the CSSPGO
//!   probe profile;
//! * [`context`] — the context-sensitive profile trie with cold-context
//!   trimming (paper §III.B "Scalability");
//! * [`correlate`] — debug-info correlation (MAX heuristic, the paper's
//!   §III.A foil) and pseudo-probe correlation (1:1 anchors, SUM over
//!   duplication, CFG-checksum staleness detection);
//! * [`unwind`] — **Algorithm 1**: reconstructing the calling context of
//!   every LBR range from synchronized LBR + stack samples;
//! * [`shard`] — parallel sharded sample ingestion (chunk → partial
//!   profiles → count-additive merge, bit-identical to sequential);
//! * [`binprof`] — the compact binary profile wire format (ExtBinary-shaped
//!   header/sections/varints), the one format the tools read, behind
//!   snapshots, pipeline hand-off and every CLI; [`textprof`] prints it;
//! * [`tailcall`] — the missing-frame inferrer for tail-call-broken stacks;
//! * [`inference`] — profile inference (min-cost-flow flow-conservation
//!   repair — real Profi — used by *all* sampling variants, per the paper's
//!   setup);
//! * [`preinline`] — **Algorithms 2 and 3**: the context-sensitive
//!   pre-inliner with binary-extracted size estimates;
//! * [`annotate`] — applying profiles onto fresh IR, replaying inline
//!   decisions (AutoFDO's early inliner and CSSPGO's plan-driven inliner);
//! * [`stalematch`] — static anchor-based stale-profile matching: recovers
//!   checksum-mismatched counts by LCS-aligning call anchors and interval-
//!   mapping block probes (the salvage path behind
//!   [`stalematch::StaleMatching`]);
//! * [`overlap`] — the block-overlap profile-quality metric of Table I;
//! * [`merge`] — count-additive cross-host merging of flat profiles and
//!   context tries;
//! * [`pipeline`] — the stages of a PGO cycle as plain public functions
//!   (profiling run, per-variant profile generation, wire hand-off,
//!   profile-guided rebuild, evaluation), their composition for every
//!   variant the paper evaluates ([`pipeline::PgoVariant`]), and the one
//!   path from a context profile to an evaluated build
//!   ([`pipeline::build_from_context`]);
//! * [`stream`] — the streaming aggregation service: epoch-incremental
//!   bounded-memory profile folding with snapshot/restore and drift
//!   detection (the continuous-profiling deployment mode), offering its
//!   live state in the batch profile's shape;
//! * [`fleet`] — the multi-tenant profile-continuum service: N tenants ×
//!   M binary versions, each tenant-version one runtime unit (machine,
//!   aggregator, LRU clock) served by one round loop with rayon fan-out
//!   across tenant-versions, LRU-by-epoch cold-context eviction, a drift
//!   probe whose first stale versions (up to a bounded queue depth) are
//!   refreshed, totals read off what was served, and one rebuild from a
//!   version's live profile;
//! * [`release_train`] — a workload rolled through successive releases
//!   under live fleet traffic: traffic rotation, oracle and never-refresh
//!   anchors, retention arithmetic, the canary rule;
//! * [`workload`] — the workload abstraction consumed by the pipelines.

pub mod annotate;
pub mod binprof;
pub mod context;
pub mod correlate;
pub mod fasthash;
pub mod fleet;
pub mod inference;
pub mod merge;
pub mod overlap;
pub mod pipeline;
pub mod preinline;
pub mod profile;
pub mod ranges;
pub mod release_train;
pub mod shard;
pub mod stalematch;
pub mod stream;
pub mod tailcall;
pub mod textprof;
pub mod unwind;
pub mod workload;

pub use fleet::{
    EpochEvent, FleetBinaries, FleetConfig, FleetError, FleetEvent, FleetRun, FleetService,
    FleetStats, RefreshEvent, TenantId, TenantSpec, TrafficShare, VersionSpec,
};
pub use pipeline::{
    run_pgo_cycle, PgoOutcome, PgoVariant, PipelineConfig, PipelineConfigBuilder, PipelineError,
};
pub use release_train::{
    canary_promotes, run_release_train, CanaryReport, ReleaseReport, ReleaseSpec, TrainReport,
};
pub use stream::{
    ContextEdge, EpochSummary, EvictStats, SnapshotFormat, StreamAggregator, StreamConfig,
};
pub use workload::Workload;
