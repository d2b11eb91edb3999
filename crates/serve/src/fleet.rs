//! The multi-tenant profile-continuum fleet service.
//!
//! The paper's CSSPGO deployment is fleet-scale: AlwaysOn sampling across
//! many services and binary versions, with periodic profile refreshes.
//! This module is that service surface, composing three existing
//! subsystems — [`csspgo_core::stream`] epoch aggregation,
//! [`csspgo_core::shard`]'s bit-identical sharded ingestion (inside every
//! aggregator), and the [`csspgo_core::stalematch`] recovery path — behind
//! one library API:
//!
//! * a [`TenantId`]-keyed registry of tenants, each serving M binary
//!   versions, each version wrapping its own [`StreamAggregator`];
//! * concurrent epoch ingestion: each service round fans out across
//!   tenant-versions with rayon — their state is disjoint, so the fan-out
//!   is trivially deterministic and every tenant's profile stays
//!   *bit-identical* to serving it alone;
//! * a context-profile store kept under a resident-node cap by
//!   cold-context eviction: depth-1 trie subtrees are tracked
//!   LRU-by-epoch ([`ContextEdge`] granules) and the coldest are folded
//!   into the per-function base profiles
//!   ([`StreamAggregator::evict_contexts`]) — totals are conserved, so
//!   bounding memory never drops weight;
//! * per-version drift watchdogs: the final eval epoch doubles as a drift
//!   probe, and the first stale versions, up to a *bounded* queue depth,
//!   are rebuilt (overflow is recorded, not silently grown);
//! * one way from a served profile to a binary: [`FleetService::rebuild`]
//!   builds a source from a version's *live* profile through
//!   [`build_from_context`]. A drift refresh is that call under
//!   [`StaleMatching::Recover`], and so are a release train's baseline,
//!   candidate and floor.
//!
//! Construction is two-phase because [`StreamAggregator`] (and
//! [`Machine`]) borrow the profiled [`Binary`]: [`FleetBinaries::compile`]
//! owns the compiled artifacts, then [`FleetService::new`] borrows them
//! for the serving lifetime, and [`FleetService::run`] serves.

use csspgo_codegen::Binary;
use csspgo_core::pipeline::{
    build_from_context, profiling_build, staged_machine, PgoOutcome, PgoVariant, PipelineConfig,
    PipelineError,
};
use csspgo_core::ranges::RangeCounts;
use csspgo_core::stalematch::StaleMatching;
use csspgo_core::stream::{
    ContextEdge, EpochSummary, EvictStats, SnapshotFormat, StreamAggregator,
};
use csspgo_core::tailcall::TailCallGraph;
use csspgo_core::workload::Workload;
use csspgo_sim::Machine;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------
// Identity and specs
// ---------------------------------------------------------------------

/// Opaque tenant identity — the registry key for one served workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// How a version participates in its tenant's *train* traffic stream.
///
/// Canary evaluation registers the stable and candidate binaries as two
/// versions of one tenant that *split* the live stream instead of each
/// replaying all of it — the per-version profiles then describe disjoint
/// request slices of the same distribution, which is what makes them
/// comparable before promotion. Eval traffic (the drift probe) is always
/// served in full by every version so probe verdicts stay comparable too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficShare {
    /// The version serves every training request (the default; solo
    /// serving and fleet serving stay bit-identical under it).
    Full,
    /// A/B slice: the version serves the requests whose stream position
    /// is ≡ `index` (mod `of`).
    Split {
        /// This version's residue class, `< of`.
        index: usize,
        /// Number of ways the stream is split.
        of: usize,
    },
}

impl TrafficShare {
    /// The train-call indices this share serves out of a stream of `len`.
    fn train_indices(self, len: usize) -> Vec<usize> {
        match self {
            TrafficShare::Full => (0..len).collect(),
            TrafficShare::Split { index, of } => (0..len).filter(|i| i % of == index).collect(),
        }
    }
}

/// One binary version of a tenant's service: a release label plus the
/// source it was built from.
#[derive(Clone, Debug)]
pub struct VersionSpec {
    /// Release label (e.g. `v0`, `v1`).
    pub label: String,
    /// MiniLang source of this release.
    pub source: String,
    /// Slice of the tenant's train traffic this version serves.
    pub share: TrafficShare,
}

impl VersionSpec {
    /// A version serving the full traffic stream.
    pub fn new(label: impl Into<String>, source: impl Into<String>) -> Self {
        VersionSpec {
            label: label.into(),
            source: source.into(),
            share: TrafficShare::Full,
        }
    }

    /// Sets this version's traffic share.
    #[must_use]
    pub fn with_share(mut self, share: TrafficShare) -> Self {
        self.share = share;
        self
    }
}

/// Everything the fleet needs to serve one tenant.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Registry key; must be unique across the fleet.
    pub id: TenantId,
    /// The workload supplying traffic (train/eval request streams and
    /// staged globals). `workload.source` is only used as the profiling
    /// source of a version whose [`VersionSpec::source`] equals it.
    pub workload: Workload,
    /// Binary versions served concurrently (canary + stable, etc.); their
    /// labels must be distinct, since a label names the version to
    /// [`FleetService::rebuild`] and [`FleetService::aggregator`].
    pub versions: Vec<VersionSpec>,
    /// Source of the *next* release a drift-triggered refresh builds
    /// against (profile collected on the stale version, build on this).
    /// `None` rebuilds the drifted version's own source.
    pub refresh_source: Option<String>,
}

impl TenantSpec {
    /// A single-version tenant serving `workload` as release `v0`.
    pub fn single_version(id: TenantId, workload: Workload) -> Self {
        let source = workload.source.clone();
        TenantSpec {
            id,
            workload,
            versions: vec![VersionSpec::new("v0", source)],
            refresh_source: None,
        }
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Fleet-service knobs. Fields are public — override with struct-update
/// syntax over [`FleetConfig::default`]; [`FleetBinaries::compile`]
/// validates whatever it is handed.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The per-tenant pipeline knobs (sampling, opt, annotate, stream).
    pub pipeline: PipelineConfig,
    /// Resident context-node cap **per tenant-version** (`0` =
    /// unbounded), counted as [`StreamAggregator::resident_contexts`] —
    /// trie nodes beyond the per-function base profiles. The fleet-wide
    /// footprint is bounded by `cap × versions`; keeping the slice per
    /// version keeps eviction a pure function of that version's own
    /// stream, which is what makes fleet serving bit-identical to solo
    /// serving.
    pub resident_cap: usize,
    /// Bounded depth of the drift-refresh queue: the first this many stale
    /// versions, in service order, are refreshed; the rest are dropped
    /// (and counted), never queued unboundedly.
    pub refresh_queue_cap: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            pipeline: PipelineConfig::default(),
            resident_cap: 0,
            refresh_queue_cap: 8,
        }
    }
}

impl FleetConfig {
    /// Checks invariants the service relies on.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for a zero queue depth or an
    /// invalid inner pipeline config.
    fn validate(&self) -> Result<(), FleetError> {
        if self.refresh_queue_cap == 0 {
            return Err(FleetError::InvalidConfig(
                "refresh_queue_cap must be non-zero: every drift refresh would be dropped".into(),
            ));
        }
        self.pipeline
            .validate()
            .map_err(|e| FleetError::InvalidConfig(e.to_string()))
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Fleet-service failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// A configuration or tenant spec the fleet refuses before serving.
    InvalidConfig(String),
    /// The fleet was given no tenants to serve.
    NoTenants,
    /// Two tenant specs share a [`TenantId`].
    DuplicateTenant(TenantId),
    /// A tenant spec carries no binary versions.
    NoVersions(TenantId),
    /// The mid-stream snapshot self-check restored to a different state —
    /// the epoch invariant is broken for this tenant-version.
    SnapshotDiverged {
        /// Tenant whose check failed.
        tenant: TenantId,
        /// Version label whose check failed.
        version: String,
    },
    /// An underlying pipeline stage failed (compile, simulate, refresh).
    Pipeline(PipelineError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidConfig(msg) => write!(f, "invalid fleet configuration: {msg}"),
            FleetError::NoTenants => write!(f, "fleet has no tenants"),
            FleetError::DuplicateTenant(id) => write!(f, "duplicate tenant id {id}"),
            FleetError::NoVersions(id) => write!(f, "tenant {id} has no binary versions"),
            FleetError::SnapshotDiverged { tenant, version } => write!(
                f,
                "snapshot self-check diverged for tenant {tenant} version {version}"
            ),
            FleetError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for FleetError {
    fn from(e: PipelineError) -> Self {
        FleetError::Pipeline(e)
    }
}

// ---------------------------------------------------------------------
// Compiled fleet (phase 1: owns the binaries)
// ---------------------------------------------------------------------

struct CompiledVersion {
    spec: VersionSpec,
    binary: Binary,
}

/// The compiled fleet: owns every tenant's spec and binaries so a
/// [`FleetService`] can borrow them (aggregators and machines hold
/// `&Binary` for their whole lifetime).
pub struct FleetBinaries {
    specs: Vec<TenantSpec>,
    /// `(tenant index, version)` in `(tenant, version)` order.
    versions: Vec<(usize, CompiledVersion)>,
}

impl FleetBinaries {
    /// Validates the specs and compiles every tenant × version probed
    /// profiling binary, fanning the builds out with rayon.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::NoTenants`] / [`FleetError::DuplicateTenant`]
    /// / [`FleetError::NoVersions`] for malformed fleets,
    /// [`FleetError::InvalidConfig`] for an invalid configuration, a
    /// version label repeated within a tenant, a split share that is not a
    /// residue class or a workload that stages a global its version does
    /// not declare, and [`FleetError::Pipeline`] when a source fails to
    /// compile.
    pub fn compile(specs: &[TenantSpec], cfg: &FleetConfig) -> Result<FleetBinaries, FleetError> {
        cfg.validate()?;
        if specs.is_empty() {
            return Err(FleetError::NoTenants);
        }
        let mut seen = BTreeSet::new();
        for spec in specs {
            if !seen.insert(spec.id) {
                return Err(FleetError::DuplicateTenant(spec.id));
            }
            if spec.versions.is_empty() {
                return Err(FleetError::NoVersions(spec.id));
            }
            let mut labels = BTreeSet::new();
            for v in &spec.versions {
                if !labels.insert(v.label.as_str()) {
                    return Err(FleetError::InvalidConfig(format!(
                        "tenant {} declares version label `{}` twice",
                        spec.id, v.label
                    )));
                }
                if let TrafficShare::Split { index, of } = v.share {
                    if of == 0 || index >= of {
                        return Err(FleetError::InvalidConfig(format!(
                            "tenant {} version {}: split share {index}/{of} is not a residue class",
                            spec.id, v.label
                        )));
                    }
                }
            }
        }

        // One build unit per tenant-version, so rayon spreads the compiles
        // evenly even when version counts are uneven; the shim's `collect`
        // preserves input order.
        let units: Vec<(usize, &VersionSpec)> = specs
            .iter()
            .enumerate()
            .flat_map(|(ti, spec)| spec.versions.iter().map(move |v| (ti, v)))
            .collect();
        let compiled: Vec<Result<(usize, CompiledVersion), PipelineError>> = units
            .into_par_iter()
            .map(|(ti, v)| {
                let name = format!("{}-{}", specs[ti].workload.name, v.label);
                let build =
                    profiling_build(&v.source, &name, PgoVariant::CsspgoFull, &cfg.pipeline);
                let binary = build?.binary;
                Ok((
                    ti,
                    CompiledVersion {
                        spec: v.clone(),
                        binary,
                    },
                ))
            })
            .collect();
        let versions: Vec<(usize, CompiledVersion)> =
            compiled.into_iter().collect::<Result<_, _>>()?;
        // Staging is the service's first act on every version: refuse here
        // what `FleetService::new` could not stage.
        let sim = cfg.pipeline.sim_config(0);
        for (ti, v) in &versions {
            let (tenant, label) = (&specs[*ti], &v.spec.label);
            staged_machine(&v.binary, &tenant.workload, sim.clone()).map_err(|e| {
                FleetError::InvalidConfig(format!("tenant {} version {label}: {e}", tenant.id))
            })?;
        }
        Ok(FleetBinaries {
            specs: specs.to_vec(),
            versions,
        })
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One sealed epoch on one tenant-version.
#[derive(Clone, Debug)]
pub struct EpochEvent {
    /// Tenant the epoch belongs to.
    pub tenant: TenantId,
    /// Workload display name.
    pub workload: String,
    /// Version label the epoch ran on.
    pub version: String,
    /// Row label (`epoch-N` / `drift-probe`).
    pub label: String,
    /// What the seal did (sizes, drift verdict).
    pub summary: EpochSummary,
    /// Context-trie nodes resident after the seal (and any eviction).
    pub resident_contexts: usize,
    /// Eviction done by *this* epoch's cap enforcement.
    pub evicted_this_epoch: EvictStats,
}

/// One drift-triggered refresh: the [`FleetService::rebuild`] of the tenant's
/// refresh source from the stale version's live profile.
#[derive(Clone, Debug)]
pub struct RefreshEvent {
    /// Tenant that drifted.
    pub tenant: TenantId,
    /// Version label whose profile went stale.
    pub version: String,
    /// Checksum-gated functions dropped during annotation.
    pub stale_dropped: usize,
    /// Checksum-gated functions the stale matcher salvaged.
    pub stale_recovered: usize,
    /// Evaluation cycles of the refreshed binary.
    pub eval_cycles: u64,
}

/// Everything a fleet run reports, in service order.
#[derive(Clone, Debug)]
pub enum FleetEvent {
    /// A sealed epoch.
    Epoch(EpochEvent),
    /// The mid-stream snapshot self-check passed on this tenant-version.
    SnapshotChecked {
        /// Tenant checked.
        tenant: TenantId,
        /// Version label checked.
        version: String,
        /// Snapshot payload size.
        bytes: usize,
    },
    /// A drift refresh ran.
    Refresh(RefreshEvent),
    /// The watchdog wanted a refresh past
    /// [`FleetConfig::refresh_queue_cap`].
    RefreshDropped {
        /// Tenant whose request was dropped.
        tenant: TenantId,
        /// Version label whose request was dropped.
        version: String,
    },
}

/// Fleet-wide aggregates over one [`FleetService::run`], read off the
/// aggregators and the events at its end.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetStats {
    /// Tenants served.
    pub tenants: usize,
    /// Tenant × version aggregators served.
    pub versions: usize,
    /// Epochs sealed across the fleet.
    pub epochs_sealed: u64,
    /// Samples folded across the fleet.
    pub total_samples: u64,
    /// Context-trie nodes resident across the fleet at the end.
    pub resident_contexts: usize,
    /// Cold-context eviction totals across the fleet.
    pub evicted: EvictStats,
    /// Drift refreshes that ran.
    pub refreshes_triggered: usize,
    /// Drift refreshes dropped past the queue cap.
    pub refreshes_dropped: usize,
}

/// The result of [`FleetService::run`]: the event stream plus aggregates.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// Every epoch / snapshot / refresh event, in service order.
    pub events: Vec<FleetEvent>,
    /// Fleet-wide aggregates.
    pub stats: FleetStats,
}

// ---------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------

/// One tenant-version being served, the fleet's runtime unit: its spec and
/// binary, borrowed; its machine, aggregator, traffic cursor and LRU clock,
/// owned. No two share state, so a round fans out over them.
struct VersionRt<'b> {
    tenant: &'b TenantSpec,
    spec: &'b VersionSpec,
    binary: &'b Binary,
    machine: Machine<'b>,
    /// Made by the version's first epoch (its calibration).
    agg: Option<StreamAggregator<'b>>,
    /// The train-call indices this version serves (its traffic share).
    train_idx: Vec<usize>,
    /// Next position in `train_idx` to serve.
    cursor: usize,
    /// Depth-1 context edges → last epoch they were hot (the LRU clock).
    lru: BTreeMap<ContextEdge, u64>,
}

/// The serving half of the fleet: borrows a [`FleetBinaries`] and owns
/// every tenant-version's runtime state. [`FleetService::run`] serves;
/// afterwards [`FleetService::rebuild`] builds from what was served.
pub struct FleetService<'b> {
    cfg: FleetConfig,
    /// Every tenant-version, in `(tenant, version)` order: the service order.
    versions: Vec<VersionRt<'b>>,
}

impl<'b> FleetService<'b> {
    /// Builds the serving runtime over a compiled fleet: one simulator
    /// machine per tenant-version, globals staged, aggregators created at
    /// calibration time.
    pub fn new(binaries: &'b FleetBinaries, cfg: FleetConfig) -> FleetService<'b> {
        let sim = cfg.pipeline.sim_config(cfg.pipeline.sample_period);
        let versions = binaries
            .versions
            .iter()
            .map(|(ti, v)| {
                let tenant = &binaries.specs[*ti];
                let train_calls = tenant.workload.train_calls.len();
                VersionRt {
                    tenant,
                    spec: &v.spec,
                    binary: &v.binary,
                    machine: staged_machine(&v.binary, &tenant.workload, sim.clone())
                        .expect("`FleetBinaries::compile` staged every global"),
                    agg: None,
                    train_idx: v.spec.share.train_indices(train_calls),
                    cursor: 0,
                    lru: BTreeMap::new(),
                }
            })
            .collect();
        FleetService { cfg, versions }
    }

    /// One service round over every tenant-version, fanned out with rayon
    /// (per-version state is disjoint, so concurrency cannot perturb any
    /// profile) and reported in service order. A train round serves each
    /// version that is not calibrated yet or has train traffic left. The
    /// drift probe serves every version and returns the stale ones the
    /// refresh queue admits; each stale version past
    /// [`FleetConfig::refresh_queue_cap`] is
    /// [`FleetEvent::RefreshDropped`] right after its probe epoch.
    fn round(
        &mut self,
        drift_probe: bool,
        events: &mut Vec<FleetEvent>,
    ) -> Result<Vec<usize>, FleetError> {
        let cfg = &self.cfg;
        let served: Vec<Result<Vec<FleetEvent>, FleetError>> = self
            .versions
            .par_iter_mut()
            .map(|v| v.serve(cfg, drift_probe))
            .collect();
        let mut admitted = Vec::new();
        for (vi, served) in served.into_iter().enumerate() {
            for event in served? {
                let stale =
                    matches!(&event, FleetEvent::Epoch(e) if drift_probe && e.summary.stale);
                events.push(event);
                if stale && admitted.len() < cfg.refresh_queue_cap {
                    admitted.push(vi);
                } else if stale {
                    let v = &self.versions[vi];
                    events.push(FleetEvent::RefreshDropped {
                        tenant: v.tenant.id,
                        version: v.spec.label.clone(),
                    });
                }
            }
        }
        Ok(admitted)
    }

    /// The full service lifecycle: train rounds (the first calibrates every
    /// version) until every traffic share is drained, the drift probe on
    /// eval traffic, then one refresh per admitted stale version, in
    /// service order. The totals are read off the aggregators and the
    /// events.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Pipeline`] when a simulated request or a
    /// refresh rebuild fails and [`FleetError::SnapshotDiverged`] when the
    /// mid-stream snapshot self-check restores to a different state.
    pub fn run(&mut self) -> Result<FleetRun, FleetError> {
        let mut events = Vec::new();
        while self.versions.iter().any(VersionRt::due) {
            self.round(false, &mut events)?;
        }
        for vi in self.round(true, &mut events)? {
            // A refresh builds the tenant's next release source (the
            // version's own when the tenant names none) from the stale
            // version's live profile, drift-probe epoch included.
            let v = &self.versions[vi];
            let (tenant, version) = (v.tenant.id, &v.spec.label);
            let build_source = v.tenant.refresh_source.as_ref().unwrap_or(&v.spec.source);
            let outcome = self.rebuild(tenant, version, build_source, StaleMatching::Recover)?;
            events.push(FleetEvent::Refresh(RefreshEvent {
                tenant,
                version: version.clone(),
                stale_dropped: outcome.annotate_stats.stale_dropped,
                stale_recovered: outcome.annotate_stats.stale_recovered,
                eval_cycles: outcome.eval.cycles,
            }));
        }

        let count = |f: fn(&FleetEvent) -> bool| events.iter().filter(|&e| f(e)).count();
        let mut stats = FleetStats {
            tenants: self
                .versions
                .iter()
                .map(|v| v.tenant.id)
                .collect::<BTreeSet<_>>()
                .len(),
            versions: self.versions.len(),
            refreshes_triggered: count(|e| matches!(e, FleetEvent::Refresh(_))),
            refreshes_dropped: count(|e| matches!(e, FleetEvent::RefreshDropped { .. })),
            ..FleetStats::default()
        };
        for agg in self.versions.iter().filter_map(|v| v.agg.as_ref()) {
            stats.epochs_sealed += agg.epochs_sealed();
            stats.total_samples += agg.total_samples();
            stats.resident_contexts += agg.resident_contexts();
            stats.evicted.absorb(agg.evict_stats());
        }
        Ok(FleetRun { events, stats })
    }

    /// Builds `build_source` from the *live* profile of one tenant-version
    /// — everything its aggregator has folded so far — and evaluates the
    /// build on the tenant's eval traffic: [`StreamAggregator::to_generated`]
    /// into [`build_from_context`] under the service's pipeline
    /// configuration, with `stale_matching` deciding what happens to
    /// functions whose checksum `build_source` no longer matches. The
    /// outcome's profiling side describes the served version: its binary's
    /// sections and its machine's run statistics so far.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Pipeline`] when the tenant-version is not
    /// being served or has sealed no epoch yet
    /// ([`PipelineError::Stream`]), `build_source` fails to compile or the
    /// evaluation fails.
    pub fn rebuild(
        &self,
        id: TenantId,
        version: &str,
        build_source: &str,
        stale_matching: StaleMatching,
    ) -> Result<PgoOutcome, FleetError> {
        let served = self.served(id, version);
        let Some((v, agg)) = served.and_then(|v| Some((v, v.agg.as_ref()?))) else {
            return Err(FleetError::Pipeline(PipelineError::Stream(format!(
                "tenant {id} has no live profile for version `{version}`"
            ))));
        };
        let mut cfg = self.cfg.pipeline.clone();
        cfg.annotate.stale_matching = stale_matching;
        let generated = agg.to_generated();
        let workload = &v.tenant.workload;
        let mut outcome = build_from_context(generated, v.binary, workload, build_source, &cfg)?;
        outcome.profiling = *v.machine.stats();
        outcome.profiling_sections = v.binary.sections;
        Ok(outcome)
    }

    /// The registry lookup: one tenant-version's runtime state.
    fn served(&self, id: TenantId, version: &str) -> Option<&VersionRt<'b>> {
        self.versions
            .iter()
            .find(|v| v.tenant.id == id && v.spec.label == version)
    }

    /// Direct access to one tenant-version's aggregator, if calibrated.
    pub fn aggregator(&self, id: TenantId, version: &str) -> Option<&StreamAggregator<'b>> {
        self.served(id, version)?.agg.as_ref()
    }
}

impl VersionRt<'_> {
    /// Whether a train round serves this version: it is not calibrated yet
    /// (however empty its traffic share), or it has train traffic left.
    fn due(&self) -> bool {
        self.agg.is_none() || self.cursor < self.train_idx.len()
    }

    /// The one epoch path: serve calls → drain the PMU in `BATCH_SAMPLES`
    /// batches, as a collector daemon would → seal → enforce the resident
    /// cap → report. A train epoch (`epoch-N`) serves this version's next
    /// `EPOCH_CALLS` train requests, and nothing when the version is not
    /// [`due`](Self::due); the drift probe serves the whole eval stream.
    /// The first epoch of a version finds no aggregator: its samples pin
    /// the tail-call graph the aggregator is then made with. The epoch
    /// after it also snapshot→restore self-checks the aggregator.
    fn serve(
        &mut self,
        cfg: &FleetConfig,
        drift_probe: bool,
    ) -> Result<Vec<FleetEvent>, FleetError> {
        /// Traffic calls folded per train epoch.
        const EPOCH_CALLS: usize = 4;
        /// PMU drain granularity: samples pulled off a machine per batch.
        const BATCH_SAMPLES: usize = 256;

        if !drift_probe && !self.due() {
            return Ok(Vec::new());
        }
        let workload = &self.tenant.workload;
        let calls: Vec<&Vec<i64>> = if drift_probe {
            workload.eval_calls.iter().collect()
        } else {
            let end = (self.cursor + EPOCH_CALLS).min(self.train_idx.len());
            let served = &self.train_idx[self.cursor..end];
            self.cursor = end;
            served.iter().map(|&i| &workload.train_calls[i]).collect()
        };
        for args in calls {
            self.machine
                .call(&workload.entry, args)
                .map_err(|e| FleetError::Pipeline(PipelineError::Sim(e)))?;
        }

        if self.agg.is_none() {
            let samples = self.machine.take_samples();
            let mut rc = RangeCounts::default();
            rc.add_samples(self.binary, &samples);
            let mut agg = StreamAggregator::with_tail_graph(
                self.binary,
                cfg.pipeline.stream.clone(),
                cfg.pipeline.ingest_shards,
                TailCallGraph::build(self.binary, &rc),
            );
            agg.push_batch(samples)?;
            self.agg = Some(agg);
        }
        let agg = self.agg.as_mut().expect("made above");
        while self.machine.pending_samples() > 0 {
            agg.push_batch(self.machine.take_sample_batch(BATCH_SAMPLES))?;
        }
        let summary = agg.seal_epoch();
        let epoch = summary.epoch;
        let evicted_this_epoch = self.enforce_cap(cfg, epoch);

        let agg = self.agg.as_ref().expect("made above");
        let (tenant, version) = (self.tenant.id, &self.spec.label);
        let mut events = vec![FleetEvent::Epoch(EpochEvent {
            tenant,
            workload: workload.name.clone(),
            version: version.clone(),
            label: if drift_probe {
                "drift-probe".to_string()
            } else {
                format!("epoch-{epoch}")
            },
            summary,
            resident_contexts: agg.resident_contexts(),
            evicted_this_epoch,
        })];

        // Mid-stream snapshot→restore self-check on the first epoch after
        // calibration (the epoch invariant, live), in the production wire
        // format.
        if !drift_probe && epoch == 1 {
            let bytes = agg.snapshot_as(SnapshotFormat::Binary);
            let restored = StreamAggregator::restore_from(
                self.binary,
                cfg.pipeline.stream.clone(),
                cfg.pipeline.ingest_shards,
                &bytes,
            )?;
            if restored.context_profile() != agg.context_profile()
                || restored.total_samples() != agg.total_samples()
            {
                let version = version.clone();
                return Err(FleetError::SnapshotDiverged { tenant, version });
            }
            events.push(FleetEvent::SnapshotChecked {
                tenant,
                version: version.clone(),
                bytes: bytes.len(),
            });
        }
        Ok(events)
    }

    /// Touches this epoch's depth-1 context edges in the LRU clock, then
    /// evicts coldest-first until the resident-node count is back under
    /// the per-version cap. Eviction order is `(last-hot epoch, edge)` —
    /// fully determined by this version's own stream, never by fleet
    /// co-tenants, which is what keeps fleet serving bit-identical to
    /// solo serving.
    fn enforce_cap(&mut self, cfg: &FleetConfig, epoch: u64) -> EvictStats {
        let agg = self.agg.as_mut().expect("cap enforcement after calibrate");
        for &edge in agg.last_epoch_edges() {
            self.lru.insert(edge, epoch);
        }
        let mut stats = EvictStats::default();
        if cfg.resident_cap == 0 || agg.resident_contexts() <= cfg.resident_cap {
            return stats;
        }
        let mut order: Vec<(u64, ContextEdge)> =
            self.lru.iter().map(|(&edge, &ep)| (ep, edge)).collect();
        order.sort_unstable();
        for (_, edge) in order {
            if agg.resident_contexts() <= cfg.resident_cap {
                break;
            }
            stats.absorb(agg.evict_contexts(&[edge]));
            self.lru.remove(&edge);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload(name: &str) -> Workload {
        // Three call levels with two mid-level call sites, so the context
        // trie has depth and fan-out worth evicting.
        let src = r#"
fn leaf(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn mid(x) {
    if (x % 2 == 0) { return leaf(x) + 1; }
    return leaf(x + 3);
}
fn serve(n, mode) {
    let i = 0;
    let s = 0;
    while (i < n) {
        if (mode == 1) { s = s + mid(i); } else { s = s + mid(i * 2); }
        i = i + 1;
    }
    return s;
}
"#;
        Workload::new(
            name,
            src,
            "serve",
            vec![vec![60, 1]; 16],
            vec![vec![60, 1]; 2],
        )
    }

    #[test]
    fn compile_rejects_invalid_configs_however_they_were_built() {
        let spec = TenantSpec::single_version(TenantId(1), tiny_workload("w"));
        let bad_pipeline = PipelineConfig {
            sample_period: 0,
            ..PipelineConfig::default()
        };
        for bad in [
            FleetConfig {
                refresh_queue_cap: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                pipeline: bad_pipeline,
                ..FleetConfig::default()
            },
        ] {
            let err = FleetBinaries::compile(std::slice::from_ref(&spec), &bad)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, FleetError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn compile_rejects_malformed_fleets() {
        let cfg = FleetConfig::default();
        let err = FleetBinaries::compile(&[], &cfg).map(|_| ()).unwrap_err();
        assert!(matches!(err, FleetError::NoTenants), "{err}");

        let spec = TenantSpec::single_version(TenantId(1), tiny_workload("w"));
        let err = FleetBinaries::compile(&[spec.clone(), spec.clone()], &cfg)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, FleetError::DuplicateTenant(TenantId(1))),
            "{err}"
        );

        let mut twice = spec.clone();
        let again = VersionSpec::new("v0", twice.workload.source.clone());
        twice.versions.push(again);
        let err = FleetBinaries::compile(&[twice], &cfg)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FleetError::InvalidConfig(_)), "{err}");

        let mut stray = spec.clone();
        stray.workload.setup.push(("undeclared".into(), vec![1]));
        let err = FleetBinaries::compile(&[stray], &cfg)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(&err, FleetError::InvalidConfig(m) if m.contains("`undeclared`")),
            "{err}"
        );

        let mut empty = spec;
        empty.versions.clear();
        let err = FleetBinaries::compile(&[empty], &cfg)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FleetError::NoVersions(TenantId(1))), "{err}");
    }

    #[test]
    fn fleet_serves_tenants_and_reports_stats() {
        let cfg = FleetConfig::default();
        let specs = vec![
            TenantSpec::single_version(TenantId(1), tiny_workload("alpha")),
            TenantSpec::single_version(TenantId(2), tiny_workload("beta")),
        ];
        let binaries = FleetBinaries::compile(&specs, &cfg).expect("compile fleet");
        let mut service = FleetService::new(&binaries, cfg);
        let source = &specs[0].workload.source;
        let rebuild = |service: &FleetService<'_>, id| {
            service.rebuild(TenantId(id), "v0", source, StaleMatching::Off)
        };
        // Nothing served yet: no live profile to build from.
        let unserved = rebuild(&service, 1).map(|_| ()).unwrap_err();
        let no_profile = |e| matches!(e, FleetError::Pipeline(PipelineError::Stream(_)));
        assert!(no_profile(unserved));
        let run = service.run().expect("fleet run");
        let built = rebuild(&service, 1).expect("a served version rebuilds");
        let served = service.aggregator(TenantId(1), "v0").expect("served");
        assert_eq!(built.profiling.samples, served.total_samples());
        assert!(built.eval.cycles > 0 && built.annotate_stats.stale_total() == 0);
        assert!(no_profile(rebuild(&service, 3).map(|_| ()).unwrap_err()));

        let stats = run.stats;
        assert_eq!(stats.tenants, 2);
        assert_eq!(stats.versions, 2);
        assert!(stats.total_samples > 0);
        assert!(stats.resident_contexts > 0);
        // 16 train calls at 4/epoch = 1 calibration + 3 steady rounds,
        // plus the drift probe, per tenant.
        assert_eq!(stats.epochs_sealed, 10);
        let snapshot_checks = run
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::SnapshotChecked { .. }))
            .count();
        assert_eq!(snapshot_checks, 2);
        assert!(service.aggregator(TenantId(1), "v0").is_some());
        assert!(service.aggregator(TenantId(3), "v0").is_none());
    }

    #[test]
    fn resident_cap_bounds_the_store_and_conserves_weight() {
        let uncapped = FleetConfig::default();
        let spec = TenantSpec::single_version(TenantId(7), tiny_workload("capped"));
        let binaries = FleetBinaries::compile(std::slice::from_ref(&spec), &uncapped).unwrap();
        let mut service = FleetService::new(&binaries, uncapped.clone());
        let full_nodes = service.run().unwrap().stats.resident_contexts;
        let total = |service: &FleetService<'_>| {
            let agg = service.aggregator(TenantId(7), "v0").unwrap();
            agg.context_profile().total()
        };
        let full_total = total(&service);
        assert!(full_nodes > 2, "need a trie worth evicting from");

        let cap = full_nodes - 1;
        let capped = FleetConfig {
            resident_cap: cap,
            ..FleetConfig::default()
        };
        let binaries = FleetBinaries::compile(&[spec], &capped).unwrap();
        let mut service = FleetService::new(&binaries, capped);
        let run = service.run().unwrap();

        assert!(run.stats.resident_contexts <= cap, "cap not enforced");
        assert!(run.stats.evicted.subtrees > 0, "nothing was evicted");
        assert!(run.stats.evicted.weight_folded > 0);
        // Conservation: the capped profile total matches the uncapped one.
        assert_eq!(total(&service), full_total);
    }

    #[test]
    fn split_shares_partition_the_stream() {
        // The residue classes of a k-way split cover every train index
        // exactly once.
        for of in 1..=4usize {
            let mut seen = vec![0usize; 13];
            for index in 0..of {
                for i in (TrafficShare::Split { index, of }).train_indices(13) {
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{of}-way split: {seen:?}");
        }
        assert_eq!(TrafficShare::Full.train_indices(5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn canary_split_serves_and_is_rejected_when_malformed() {
        let cfg = FleetConfig::default();
        let w = tiny_workload("canary");
        let spec = TenantSpec {
            id: TenantId(4),
            workload: w.clone(),
            versions: vec![
                VersionSpec::new("stable", w.source.clone())
                    .with_share(TrafficShare::Split { index: 0, of: 2 }),
                VersionSpec::new("canary", w.source.clone())
                    .with_share(TrafficShare::Split { index: 1, of: 2 }),
            ],
            refresh_source: None,
        };
        let binaries = FleetBinaries::compile(std::slice::from_ref(&spec), &cfg).unwrap();
        let mut service = FleetService::new(&binaries, cfg.clone());
        let run = service.run().unwrap();
        // 16 train calls split 8/8 at 4/epoch: calibration + 1 steady
        // round + drift probe per version.
        assert_eq!(run.stats.epochs_sealed, 6);
        assert!(service.aggregator(TenantId(4), "stable").is_some());
        assert!(service.aggregator(TenantId(4), "canary").is_some());

        let mut bad = spec;
        bad.versions[1].share = TrafficShare::Split { index: 2, of: 2 };
        let err = FleetBinaries::compile(&[bad], &cfg)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FleetError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn an_empty_traffic_share_still_calibrates_and_probes() {
        // One train call split two ways: `b` serves no train request, yet
        // it gets its (empty) calibration epoch and its drift probe, in the
        // same service order as a version with traffic.
        let mut w = tiny_workload("sparse");
        w.train_calls.truncate(1);
        let split = |label: &str, index| {
            VersionSpec::new(label, w.source.clone())
                .with_share(TrafficShare::Split { index, of: 2 })
        };
        let spec = TenantSpec {
            id: TenantId(5),
            workload: w.clone(),
            versions: vec![split("a", 0), split("b", 1)],
            refresh_source: None,
        };
        let cfg = FleetConfig::default();
        let binaries = FleetBinaries::compile(&[spec], &cfg).unwrap();
        let run = FleetService::new(&binaries, cfg).run().unwrap();
        let epochs: Vec<&EpochEvent> = run
            .events
            .iter()
            .map(|e| match e {
                FleetEvent::Epoch(e) => e,
                other => panic!("only epochs expected, got {other:?}"),
            })
            .collect();
        let order: Vec<(&str, &str)> = epochs
            .iter()
            .map(|e| (e.version.as_str(), e.label.as_str()))
            .collect();
        assert_eq!(
            order,
            [
                ("a", "epoch-0"),
                ("b", "epoch-0"),
                ("a", "drift-probe"),
                ("b", "drift-probe"),
            ]
        );
        assert_eq!(epochs[1].summary.samples, 0, "b served no train request");
        assert!([0, 2, 3].iter().all(|&i| epochs[i].summary.samples > 0));
        assert_eq!(run.stats.epochs_sealed, 4);
    }

    #[test]
    fn refresh_queue_is_bounded() {
        // Three tenants drift (train mode 1, eval mode 2), but the queue
        // holds `cap` requests: the first `cap` stale versions in service
        // order are refreshed, after every probe; each later one becomes
        // RefreshDropped right after its own drift probe.
        let mk = |name: &str| {
            let mut w = tiny_workload(name);
            w.eval_calls = vec![vec![60, 2]; 4];
            w
        };
        let mut pipeline = PipelineConfig::default();
        pipeline.stream.drift_threshold = 0.95;
        let cfg = |refresh_queue_cap| FleetConfig {
            pipeline: pipeline.clone(),
            refresh_queue_cap,
            ..FleetConfig::default()
        };
        let specs = vec![
            TenantSpec::single_version(TenantId(1), mk("drift_a")),
            TenantSpec::single_version(TenantId(2), mk("drift_b")),
            TenantSpec::single_version(TenantId(3), mk("drift_c")),
        ];
        let binaries = FleetBinaries::compile(&specs, &cfg(1)).unwrap();
        for cap in [1, 2] {
            let run = FleetService::new(&binaries, cfg(cap)).run().unwrap();
            let events = &run.events;

            let stale: Vec<(TenantId, &str)> = events
                .iter()
                .filter_map(|e| match e {
                    FleetEvent::Epoch(p) if p.label == "drift-probe" && p.summary.stale => {
                        Some((p.tenant, p.version.as_str()))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(stale.len(), 3, "every tenant drifts");
            let refreshed: Vec<(TenantId, &str)> = events
                .iter()
                .filter_map(|e| match e {
                    FleetEvent::Refresh(r) => Some((r.tenant, r.version.as_str())),
                    _ => None,
                })
                .collect();
            let dropped: Vec<(TenantId, &str)> = events
                .iter()
                .filter_map(|e| match e {
                    FleetEvent::RefreshDropped { tenant, version } => {
                        Some((*tenant, version.as_str()))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(run.stats.refreshes_triggered, refreshed.len());
            assert_eq!(run.stats.refreshes_dropped, dropped.len());
            assert_eq!(refreshed.len(), cap, "bounded queue admits exactly {cap}");
            assert_eq!(
                dropped.len(),
                3 - cap,
                "overflow must be recorded, not queued"
            );
            assert_eq!(refreshed, stale[..cap], "the first stale versions refresh");
            assert_eq!(dropped, stale[cap..]);

            for (i, e) in events.iter().enumerate() {
                if let FleetEvent::RefreshDropped { tenant, version } = e {
                    assert!(
                        matches!(&events[i - 1], FleetEvent::Epoch(p)
                            if p.label == "drift-probe" && p.tenant == *tenant && p.version == *version),
                        "{tenant}/{version}: a drop follows its own probe"
                    );
                }
            }
            let tail = &events[events.len() - cap..];
            assert!(
                tail.iter().all(|e| matches!(e, FleetEvent::Refresh(_))),
                "refreshes come last"
            );
        }
    }
}
