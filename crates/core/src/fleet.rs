//! The multi-tenant profile-continuum fleet service.
//!
//! The paper's CSSPGO deployment is fleet-scale: AlwaysOn sampling across
//! many services and binary versions, with periodic profile refreshes.
//! This module is that service surface, composing three existing
//! subsystems — [`crate::stream`] epoch aggregation, [`crate::shard`]'s
//! bit-identical sharded ingestion (inside every aggregator), and the
//! [`crate::stalematch`] recovery path — behind one library API:
//!
//! * a [`TenantId`]-keyed registry of tenants, each serving M binary
//!   versions, each version wrapping its own [`StreamAggregator`];
//! * concurrent epoch ingestion: each service round fans out across
//!   tenants with rayon — per-tenant state is disjoint, so the fan-out is
//!   trivially deterministic and every tenant's profile stays
//!   *bit-identical* to serving it alone;
//! * a context-profile store kept under a resident-node cap by
//!   cold-context eviction: depth-1 trie subtrees are tracked
//!   LRU-by-epoch ([`ContextEdge`] granules) and the coldest are folded
//!   into the per-function base profiles
//!   ([`StreamAggregator::evict_contexts`]) — totals are conserved, so
//!   bounding memory never drops weight;
//! * per-tenant drift watchdogs: the final eval epoch doubles as a drift
//!   probe, and stale versions schedule rebuilds through a *bounded*
//!   refresh queue (overflow is recorded, not silently grown);
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

use crate::pipeline::{
    build_from_context, profiling_build, staged_machine, PgoOutcome, PgoVariant, PipelineConfig,
    PipelineError,
};
use crate::ranges::RangeCounts;
use crate::stalematch::StaleMatching;
use crate::stream::{ContextEdge, EpochSummary, EvictStats, SnapshotFormat, StreamAggregator};
use crate::tailcall::TailCallGraph;
use crate::workload::Workload;
use csspgo_codegen::Binary;
use csspgo_sim::Machine;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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
    /// Binary versions served concurrently (canary + stable, etc.).
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
    /// Bounded depth of the drift-refresh queue; watchdog requests past
    /// this are dropped (and counted), never queued unboundedly.
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
    pub fn validate(&self) -> Result<(), FleetError> {
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
    /// A configuration combination rejected by [`FleetConfig::validate`].
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
    label: String,
    source: String,
    share: TrafficShare,
    binary: Binary,
}

struct TenantBinaries {
    spec: TenantSpec,
    versions: Vec<CompiledVersion>,
}

/// The compiled fleet: owns every tenant's binaries so a
/// [`FleetService`] can borrow them (aggregators and machines hold
/// `&Binary` for their whole lifetime).
pub struct FleetBinaries {
    tenants: Vec<TenantBinaries>,
}

impl FleetBinaries {
    /// Validates the specs and compiles every tenant × version probed
    /// profiling binary, fanning the builds out with rayon.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::NoTenants`] / [`FleetError::DuplicateTenant`]
    /// / [`FleetError::NoVersions`] for malformed fleets and
    /// [`FleetError::Pipeline`] when a source fails to compile.
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
            for v in &spec.versions {
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

        // Flatten to (tenant, version) build units so rayon spreads the
        // compiles evenly even when version counts are uneven.
        let units: Vec<(usize, &VersionSpec)> = specs
            .iter()
            .enumerate()
            .flat_map(|(ti, spec)| spec.versions.iter().map(move |v| (ti, v)))
            .collect();
        let compiled: Vec<Result<(usize, CompiledVersion), PipelineError>> = units
            .into_par_iter()
            .map(|(ti, v)| {
                let name = format!("{}-{}", specs[ti].workload.name, v.label);
                let binary =
                    profiling_build(&v.source, &name, PgoVariant::CsspgoFull, &cfg.pipeline)?
                        .binary;
                Ok((
                    ti,
                    CompiledVersion {
                        label: v.label.clone(),
                        source: v.source.clone(),
                        share: v.share,
                        binary,
                    },
                ))
            })
            .collect();

        let mut tenants: Vec<TenantBinaries> = specs
            .iter()
            .map(|spec| TenantBinaries {
                spec: spec.clone(),
                versions: Vec::new(),
            })
            .collect();
        // The shim preserves input order, so versions land back in spec
        // order within each tenant.
        for unit in compiled {
            let (ti, version) = unit?;
            tenants[ti].versions.push(version);
        }
        Ok(FleetBinaries { tenants })
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
    /// Cumulative eviction on this tenant-version so far.
    pub evicted_total: EvictStats,
}

/// One drift-triggered refresh: the [`FleetService::rebuild`] of the tenant's
/// refresh source from the stale version's live profile.
#[derive(Clone, Debug)]
pub struct RefreshEvent {
    /// Tenant that drifted.
    pub tenant: TenantId,
    /// Workload display name.
    pub workload: String,
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
    /// The watchdog wanted a refresh but the bounded queue was full.
    RefreshDropped {
        /// Tenant whose request was dropped.
        tenant: TenantId,
        /// Version label whose request was dropped.
        version: String,
    },
}

/// Fleet-wide aggregates over one [`FleetService::run`].
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
    /// Drift refreshes dropped at the bounded queue.
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

struct VersionRt<'b> {
    label: String,
    source: String,
    binary: &'b Binary,
    machine: Machine<'b>,
    agg: Option<StreamAggregator<'b>>,
    /// The train-call indices this version serves (its traffic share).
    train_idx: Vec<usize>,
    /// Next position in `train_idx` to serve.
    cursor: usize,
    /// Depth-1 context edges → last epoch they were hot (the LRU clock).
    lru: BTreeMap<ContextEdge, u64>,
    snapshot_checked: bool,
}

struct TenantRt<'b> {
    id: TenantId,
    workload: Workload,
    refresh_source: Option<String>,
    versions: Vec<VersionRt<'b>>,
}

struct RefreshRequest {
    tenant: usize,
    version: usize,
}

/// The serving half of the fleet: borrows a [`FleetBinaries`], owns every
/// tenant's machines, aggregators, LRU clocks, and the bounded refresh
/// queue. [`FleetService::run`] serves; afterwards
/// [`FleetService::rebuild`] builds from what was served.
pub struct FleetService<'b> {
    cfg: FleetConfig,
    tenants: Vec<TenantRt<'b>>,
    refresh_queue: VecDeque<RefreshRequest>,
    refreshes_triggered: usize,
    refreshes_dropped: usize,
    epochs_sealed: u64,
}

impl<'b> FleetService<'b> {
    /// Builds the serving runtime over a compiled fleet: one simulator
    /// machine per tenant-version, globals staged, aggregators created at
    /// calibration time.
    pub fn new(binaries: &'b FleetBinaries, cfg: FleetConfig) -> FleetService<'b> {
        let sim = cfg.pipeline.sim_config(cfg.pipeline.sample_period);
        let tenants = binaries
            .tenants
            .iter()
            .map(|t| {
                let versions = t
                    .versions
                    .iter()
                    .map(|v| {
                        let machine = staged_machine(&v.binary, &t.spec.workload, sim.clone());
                        VersionRt {
                            label: v.label.clone(),
                            source: v.source.clone(),
                            binary: &v.binary,
                            machine,
                            agg: None,
                            train_idx: v.share.train_indices(t.spec.workload.train_calls.len()),
                            cursor: 0,
                            lru: BTreeMap::new(),
                            snapshot_checked: false,
                        }
                    })
                    .collect();
                TenantRt {
                    id: t.spec.id,
                    workload: t.spec.workload.clone(),
                    refresh_source: t.spec.refresh_source.clone(),
                    versions,
                }
            })
            .collect();
        FleetService {
            cfg,
            tenants,
            refresh_queue: VecDeque::new(),
            refreshes_triggered: 0,
            refreshes_dropped: 0,
            epochs_sealed: 0,
        }
    }

    /// Runs the calibration epoch on every tenant-version: the first
    /// epoch of train requests pins each version's tail-call graph,
    /// and the calibration samples become `epoch-0`.
    fn calibrate(&mut self) -> Result<Vec<FleetEvent>, FleetError> {
        let cfg = &self.cfg;
        let per_tenant: Vec<Result<Vec<FleetEvent>, FleetError>> = self
            .tenants
            .par_iter_mut()
            .map(|t| t.calibrate(cfg))
            .collect();
        let events: Vec<FleetEvent> = sequence(per_tenant)?;
        self.epochs_sealed += events.len() as u64;
        Ok(events)
    }

    /// Serves one steady-state epoch of train traffic on every
    /// tenant-version that still has requests, fanning out across tenants
    /// with rayon. Per-tenant state is disjoint, so concurrency cannot
    /// perturb any tenant's profile.
    fn run_round(&mut self) -> Result<Vec<FleetEvent>, FleetError> {
        let cfg = &self.cfg;
        let per_tenant: Vec<Result<Vec<FleetEvent>, FleetError>> = self
            .tenants
            .par_iter_mut()
            .map(|t| t.run_round(cfg))
            .collect();
        let events: Vec<FleetEvent> = sequence(per_tenant)?;
        self.epochs_sealed += events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Epoch(_)))
            .count() as u64;
        Ok(events)
    }

    /// Whether every tenant-version has drained its traffic share.
    fn is_done(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| t.versions.iter().all(|v| v.cursor >= v.train_idx.len()))
    }

    /// Serves the evaluation traffic as a final epoch on every
    /// tenant-version — the drift probe. Stale versions are enqueued on
    /// the bounded refresh queue; overflow becomes
    /// [`FleetEvent::RefreshDropped`].
    fn drift_probe(&mut self) -> Result<Vec<FleetEvent>, FleetError> {
        let cfg = &self.cfg;
        let per_tenant: Vec<Result<Vec<(usize, EpochEvent)>, FleetError>> = self
            .tenants
            .par_iter_mut()
            .map(|t| t.drift_probe(cfg))
            .collect();
        let probed = per_tenant
            .into_iter()
            .collect::<Result<Vec<_>, FleetError>>()?;

        let mut events = Vec::new();
        for (ti, tenant_events) in probed.into_iter().enumerate() {
            for (vi, event) in tenant_events {
                let stale = event.summary.stale;
                let version = event.version.clone();
                let tenant = event.tenant;
                events.push(FleetEvent::Epoch(event));
                self.epochs_sealed += 1;
                if stale {
                    if self.refresh_queue.len() < self.cfg.refresh_queue_cap {
                        self.refresh_queue.push_back(RefreshRequest {
                            tenant: ti,
                            version: vi,
                        });
                    } else {
                        self.refreshes_dropped += 1;
                        events.push(FleetEvent::RefreshDropped { tenant, version });
                    }
                }
            }
        }
        Ok(events)
    }

    /// Drains the refresh queue: each stale version's live profile —
    /// drift-probe epoch included — rebuilds the tenant's next release
    /// source (its own when the tenant names none) under
    /// [`StaleMatching::Recover`].
    fn process_refreshes(&mut self) -> Result<Vec<FleetEvent>, FleetError> {
        let mut events = Vec::new();
        while let Some(req) = self.refresh_queue.pop_front() {
            let tenant = &self.tenants[req.tenant];
            let version = &tenant.versions[req.version];
            let build_source = tenant.refresh_source.as_ref().unwrap_or(&version.source);
            let outcome = self.rebuild(
                tenant.id,
                &version.label,
                build_source,
                StaleMatching::Recover,
            )?;
            self.refreshes_triggered += 1;
            events.push(FleetEvent::Refresh(RefreshEvent {
                tenant: tenant.id,
                workload: tenant.workload.name.clone(),
                version: version.label.clone(),
                stale_dropped: outcome.annotate_stats.stale_dropped,
                stale_recovered: outcome.annotate_stats.stale_recovered,
                eval_cycles: outcome.eval.cycles,
            }));
        }
        Ok(events)
    }

    /// The full service lifecycle: calibrate, serve train traffic to
    /// exhaustion, drift-probe on eval traffic, drain the refresh queue.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Pipeline`] when a simulated request or a
    /// refresh rebuild fails and [`FleetError::SnapshotDiverged`] when the
    /// mid-stream snapshot self-check restores to a different state.
    pub fn run(&mut self) -> Result<FleetRun, FleetError> {
        let mut events = self.calibrate()?;
        while !self.is_done() {
            events.extend(self.run_round()?);
        }
        events.extend(self.drift_probe()?);
        events.extend(self.process_refreshes()?);
        Ok(FleetRun {
            events,
            stats: self.stats(),
        })
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
        let Some((tenant, v, agg)) = served.and_then(|(t, v)| Some((t, v, v.agg.as_ref()?))) else {
            return Err(FleetError::Pipeline(PipelineError::Stream(format!(
                "tenant {id} has no live profile for version `{version}`"
            ))));
        };
        let mut cfg = self.cfg.pipeline.clone();
        cfg.annotate.stale_matching = stale_matching;
        let generated = agg.to_generated();
        let workload = &tenant.workload;
        let mut outcome = build_from_context(generated, v.binary, workload, build_source, &cfg)?;
        outcome.profiling = *v.machine.stats();
        outcome.profiling_sections = v.binary.sections;
        Ok(outcome)
    }

    /// Fleet-wide aggregates over the service so far.
    pub fn stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            tenants: self.tenants.len(),
            epochs_sealed: self.epochs_sealed,
            refreshes_triggered: self.refreshes_triggered,
            refreshes_dropped: self.refreshes_dropped,
            ..FleetStats::default()
        };
        for t in &self.tenants {
            for v in &t.versions {
                stats.versions += 1;
                if let Some(agg) = &v.agg {
                    stats.total_samples += agg.total_samples();
                    stats.resident_contexts += agg.resident_contexts();
                    stats.evicted.absorb(agg.evict_stats());
                }
            }
        }
        stats
    }

    /// The registry lookup: one tenant-version's runtime state.
    fn served(&self, id: TenantId, version: &str) -> Option<(&TenantRt<'b>, &VersionRt<'b>)> {
        let tenant = self.tenants.iter().find(|t| t.id == id)?;
        let version = tenant.versions.iter().find(|v| v.label == version)?;
        Some((tenant, version))
    }

    /// Direct access to one tenant-version's aggregator, if calibrated.
    pub fn aggregator(&self, id: TenantId, version: &str) -> Option<&StreamAggregator<'b>> {
        self.served(id, version)?.1.agg.as_ref()
    }

    /// Registry view: every `(tenant, version-label)` pair served.
    pub fn registry(&self) -> Vec<(TenantId, String)> {
        self.tenants
            .iter()
            .flat_map(|t| t.versions.iter().map(|v| (t.id, v.label.clone())))
            .collect()
    }
}

impl TenantRt<'_> {
    /// Calibration is the first train epoch of every version: the one
    /// served while the version has no aggregator yet.
    fn calibrate(&mut self, cfg: &FleetConfig) -> Result<Vec<FleetEvent>, FleetError> {
        let mut events = Vec::new();
        for v in &mut self.versions {
            let event = v.serve_epoch(cfg, self.id, &self.workload, false)?;
            events.push(FleetEvent::Epoch(event));
        }
        Ok(events)
    }

    fn run_round(&mut self, cfg: &FleetConfig) -> Result<Vec<FleetEvent>, FleetError> {
        let mut events = Vec::new();
        for v in &mut self.versions {
            if v.cursor >= v.train_idx.len() {
                continue;
            }
            let event = v.serve_epoch(cfg, self.id, &self.workload, false)?;
            events.push(FleetEvent::Epoch(event));

            // Mid-stream snapshot→restore self-check, once per version
            // (the epoch invariant, live), in the production wire format.
            if !v.snapshot_checked {
                v.snapshot_checked = true;
                let agg = v.agg.as_ref().expect("served above");
                let bytes = agg.snapshot_as(SnapshotFormat::Binary);
                let restored = StreamAggregator::restore_from(
                    v.binary,
                    cfg.pipeline.stream.clone(),
                    cfg.pipeline.ingest_shards,
                    &bytes,
                )?;
                if restored.context_profile() != agg.context_profile()
                    || restored.total_samples() != agg.total_samples()
                {
                    return Err(FleetError::SnapshotDiverged {
                        tenant: self.id,
                        version: v.label.clone(),
                    });
                }
                events.push(FleetEvent::SnapshotChecked {
                    tenant: self.id,
                    version: v.label.clone(),
                    bytes: bytes.len(),
                });
            }
        }
        Ok(events)
    }

    /// Runs the eval traffic as the drift-probe epoch on every version;
    /// returns `(version-index, event)` so the caller can schedule
    /// refreshes for stale ones.
    fn drift_probe(&mut self, cfg: &FleetConfig) -> Result<Vec<(usize, EpochEvent)>, FleetError> {
        let mut events = Vec::new();
        for (vi, v) in self.versions.iter_mut().enumerate() {
            events.push((vi, v.serve_epoch(cfg, self.id, &self.workload, true)?));
        }
        Ok(events)
    }
}

impl VersionRt<'_> {
    /// The one epoch path: serve calls → drain the PMU in `BATCH_SAMPLES`
    /// batches, as a collector daemon would → seal → enforce the resident
    /// cap → report. A train epoch (`epoch-N`) serves this version's next
    /// `EPOCH_CALLS` train requests; the drift probe serves the whole eval
    /// stream. The first epoch of a version finds no aggregator: its
    /// samples pin the tail-call graph the aggregator is then made with.
    fn serve_epoch(
        &mut self,
        cfg: &FleetConfig,
        tenant: TenantId,
        workload: &Workload,
        drift_probe: bool,
    ) -> Result<EpochEvent, FleetError> {
        /// Traffic calls folded per train epoch.
        const EPOCH_CALLS: usize = 4;
        /// PMU drain granularity: samples pulled off a machine per batch.
        const BATCH_SAMPLES: usize = 256;

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
        let evicted_this_epoch = self.enforce_cap(cfg, summary.epoch);

        let agg = self.agg.as_ref().expect("made above");
        Ok(EpochEvent {
            tenant,
            workload: workload.name.clone(),
            version: self.label.clone(),
            label: if drift_probe {
                "drift-probe".to_string()
            } else {
                format!("epoch-{}", summary.epoch)
            },
            summary,
            resident_contexts: agg.resident_contexts(),
            evicted_this_epoch,
            evicted_total: agg.evict_stats(),
        })
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

/// Sequences per-tenant fan-out results, flattening events in tenant
/// order (the shim's `collect` preserves input order).
fn sequence<T>(per_tenant: Vec<Result<Vec<T>, FleetError>>) -> Result<Vec<T>, FleetError> {
    let mut out = Vec::new();
    for r in per_tenant {
        out.extend(r?);
    }
    Ok(out)
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
        assert_eq!(service.registry().len(), 2);
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
        service.run().unwrap();
        let full_nodes = service.stats().resident_contexts;
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
    fn refresh_queue_is_bounded() {
        // Both tenants drift (train mode 1, eval mode 2), but the queue
        // holds one request: the second becomes RefreshDropped.
        let mk = |name: &str| {
            let mut w = tiny_workload(name);
            w.eval_calls = vec![vec![60, 2]; 4];
            w
        };
        let mut pipeline = PipelineConfig::default();
        pipeline.stream.drift_threshold = 0.95;
        let cfg = FleetConfig {
            pipeline,
            refresh_queue_cap: 1,
            ..FleetConfig::default()
        };
        let specs = vec![
            TenantSpec::single_version(TenantId(1), mk("drift_a")),
            TenantSpec::single_version(TenantId(2), mk("drift_b")),
        ];
        let binaries = FleetBinaries::compile(&specs, &cfg).unwrap();
        let mut service = FleetService::new(&binaries, cfg);
        let run = service.run().unwrap();

        let refreshed = run
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Refresh(_)))
            .count();
        let dropped = run
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::RefreshDropped { .. }))
            .count();
        assert_eq!(run.stats.refreshes_triggered, refreshed);
        assert_eq!(run.stats.refreshes_dropped, dropped);
        assert_eq!(refreshed, 1, "bounded queue admits exactly one");
        assert_eq!(dropped, 1, "overflow must be recorded, not queued");
    }
}
