//! Release-train orchestration: end-to-end drift validation across
//! successive releases.
//!
//! Production PGO is not one stale profile against one new build — it is
//! a *train* of releases with live traffic flowing the whole time, each
//! release inheriting the previous release's profile until a refresh
//! lands. This module rolls a workload through N successive source
//! versions while a [`FleetService`] serves traffic continuously, and per
//! release measures where the live-profile build lands between two
//! anchors:
//!
//! * the **oracle** — a fresh profile collected on the new source itself
//!   (`run_pgo_cycle(CsspgoFull)`), the best any refresh could do;
//! * the **floor** — the release-0 service's live profile applied with
//!   [`StaleMatching::Off`], i.e. never refreshing and dropping every
//!   checksum-mismatched function, the paper's source-drift failure mode.
//!
//! The per-release **pgo** point is the [`FleetService::rebuild`] of the
//! release source from the *live* stable-version profile under
//! [`StaleMatching::Recover`] — the build a drift refresh of that version
//! produces — so the whole stream/stalematch/inference stack is on the
//! measured path. Every build here is that one call; what this module owns
//! is the traffic rotation, the two anchors, the retention arithmetic and
//! the canary rule. Retention is reported signed against the `-O2`
//! baseline: `(o2 − x) / (o2 − oracle) × 100`.
//!
//! Each release also runs **canary evaluation**: the stable and candidate
//! binaries register as two versions of one tenant with
//! [`TrafficShare::Split`] halves of the train stream, their per-version
//! profiles are compared ([`probe_weights`] overlap), and
//! [`canary_promotes`] decides promotion.

use crate::fleet::{
    FleetBinaries, FleetConfig, FleetError, FleetEvent, FleetService, TenantId, TenantSpec,
    TrafficShare, VersionSpec,
};
use csspgo_core::overlap::share_overlap;
use csspgo_core::pipeline::{run_pgo_cycle, PgoOutcome, PgoVariant};
use csspgo_core::stalematch::StaleMatching;
use csspgo_core::stream::probe_weights;
use csspgo_core::workload::Workload;
use serde::Serialize;

/// One release in a train: a label, the mutator that produced it, and the
/// cumulative source (see `csspgo_workloads::drift::release_chain`).
#[derive(Clone, Debug)]
pub struct ReleaseSpec {
    /// Unique release label (`r1`, `r2`, …).
    pub label: String,
    /// Name of the mutation this release applied (for reporting).
    pub mutator: String,
    /// Full MiniLang source of this release.
    pub source: String,
}

impl ReleaseSpec {
    /// A release spec from its three parts.
    pub fn new(
        label: impl Into<String>,
        mutator: impl Into<String>,
        source: impl Into<String>,
    ) -> Self {
        ReleaseSpec {
            label: label.into(),
            mutator: mutator.into(),
            source: source.into(),
        }
    }
}

/// The canary verdict of one release.
#[derive(Clone, Debug, Serialize)]
pub struct CanaryReport {
    /// Whether the candidate was promoted to stable.
    pub promoted: bool,
    /// Eval cycles of the incumbent stable build.
    pub stable_cycles: u64,
    /// Eval cycles of the candidate build.
    pub canary_cycles: u64,
    /// Whether the candidate's eval results hash-matched the `-O2`
    /// reference build of the same source.
    pub behavior_ok: bool,
    /// [`share_overlap`] of the stable and candidate live profiles over
    /// their split traffic halves (1.0 = identical distributions).
    pub profile_agreement: f64,
}

/// Everything measured for one release of the train.
#[derive(Clone, Debug, Serialize)]
pub struct ReleaseReport {
    /// Zero-based release index.
    pub release: usize,
    /// Release label.
    pub label: String,
    /// Mutator that produced this release.
    pub mutator: String,
    /// Whether the drift watchdog marked a version stale this release.
    pub watchdog_fired: bool,
    /// Watchdog refreshes that ran through the fleet's bounded queue.
    pub refreshes: usize,
    /// Checksum-mismatched functions the candidate build dropped.
    pub stale_dropped: usize,
    /// Checksum-mismatched functions the stale matcher salvaged for the
    /// candidate build.
    pub stale_recovered: usize,
    /// Eval cycles of the plain `-O2` build of this release's source.
    pub o2_cycles: u64,
    /// Eval cycles of the always-fresh-profile oracle.
    pub oracle_cycles: u64,
    /// Eval cycles of the live-profile candidate build — the release
    /// train's own operating point.
    pub pgo_cycles: u64,
    /// Eval cycles of the never-refresh floor (release-0 live profile,
    /// `stale_matching: Off`).
    pub floor_cycles: u64,
    /// Signed share of the oracle's win over `-O2` the candidate
    /// retained; `None` when the oracle does not beat `-O2`.
    pub retained_pct: Option<f64>,
    /// The floor's retained share, same definition.
    pub floor_retained_pct: Option<f64>,
    /// The canary verdict.
    pub canary: CanaryReport,
}

/// The whole train on one workload.
#[derive(Clone, Debug, Serialize)]
pub struct TrainReport {
    /// Workload name.
    pub workload: String,
    /// Eval cycles of the release-0 stable build (live v0 profile on the
    /// v0 source) — where the train starts.
    pub baseline_cycles: u64,
    /// Per-release measurements, in train order.
    pub releases: Vec<ReleaseReport>,
    /// Train-wide retention: `Σ(o2 − pgo) / Σ(o2 − oracle) × 100` over
    /// all releases (signed; 0.0 when the oracle never wins).
    pub train_retention_pct: f64,
    /// The never-refresh floor's train-wide retention, same definition.
    pub floor_retention_pct: f64,
    /// Releases the canary gate promoted.
    pub promoted: usize,
    /// Releases the canary gate rejected.
    pub rejected: usize,
    /// Releases on which the drift watchdog fired.
    pub watchdog_fires: usize,
    /// Watchdog refreshes that ran across the train.
    pub refreshes: usize,
}

/// The canary rule: a candidate is promoted when its eval results
/// hash-match the `-O2` build of the *same source* and its eval cycles stay
/// within `CANARY_TOLERANCE_PCT` (5 %) of that build's. Anchoring on `-O2`
/// targets profile-induced regressions specifically: a release whose source
/// is intentionally slower (a new feature) still ships, but a profile that
/// makes the optimized build slower than not profiling at all cannot.
pub fn canary_promotes(candidate_cycles: u64, candidate_hash: u64, o2: &PgoOutcome) -> bool {
    /// The candidate may be at most this much slower than its `-O2`.
    const CANARY_TOLERANCE_PCT: f64 = 5.0;
    let cycles_ok =
        candidate_cycles as f64 <= o2.eval.cycles as f64 * (1.0 + CANARY_TOLERANCE_PCT / 100.0);
    candidate_hash == o2.eval_result_hash && cycles_ok
}

/// Rolls `workload` through `releases` with live traffic flowing through
/// a [`FleetService`] the entire train. Per release: the stable and
/// candidate versions split the (diurnally rotated) train stream, the
/// drift watchdog probes on eval traffic and refreshes what it admits,
/// the candidate is rebuilt from the stable version's *live* profile, and
/// the canary rule decides promotion. See the module docs for the
/// oracle/floor/pgo definitions.
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] for an empty train or, from
/// [`FleetBinaries::compile`], a release label colliding with the
/// incumbent stable label, and propagates any fleet or pipeline failure.
pub fn run_release_train(
    workload: &Workload,
    releases: &[ReleaseSpec],
    cfg: &FleetConfig,
) -> Result<TrainReport, FleetError> {
    if releases.is_empty() {
        return Err(FleetError::InvalidConfig(
            "release train needs at least one release".into(),
        ));
    }
    let tenant = TenantId(0);

    // ---- Release 0: v0 served solo. Its service stays alive for the whole
    // train: the never-refresh floor of every release is built from its
    // live profile, and so is the train's starting point, v0 optimized from
    // its own profile.
    let spec0 = TenantSpec::single_version(tenant, workload.clone());
    let binaries0 = FleetBinaries::compile(std::slice::from_ref(&spec0), cfg)?;
    let mut service0 = FleetService::new(&binaries0, cfg.clone());
    service0.run()?;
    let baseline = service0.rebuild(tenant, "v0", &workload.source, StaleMatching::Recover)?;
    let baseline_cycles = baseline.eval.cycles;

    let mut stable_source = workload.source.clone();
    let mut stable_label = "v0".to_string();
    let mut stable_cycles = baseline_cycles;

    let mut reports: Vec<ReleaseReport> = Vec::with_capacity(releases.len());
    let (mut sum_o2, mut sum_oracle, mut sum_pgo, mut sum_floor) = (0u128, 0u128, 0u128, 0u128);

    for (ri, rel) in releases.iter().enumerate() {
        // Diurnal traffic: release `i` rotates the stream by
        // `((i+1) mod period) / period` of its length, so hot contexts
        // shift between releases (eval traffic stays pinned, so the drift
        // probe compares against a stable reference mix).
        /// Diurnal phase length in releases.
        const DIURNAL_PERIOD: usize = 4;
        let mut traffic = workload.clone();
        let len = traffic.train_calls.len();
        traffic
            .train_calls
            .rotate_left(((ri + 1) % DIURNAL_PERIOD) * len / DIURNAL_PERIOD);

        // Live serving across the release: stable + candidate split the
        // stream; a watchdog refresh rebuilds the new source.
        let spec = TenantSpec {
            id: tenant,
            workload: traffic,
            versions: vec![
                VersionSpec::new(stable_label.clone(), stable_source.clone())
                    .with_share(TrafficShare::Split { index: 0, of: 2 }),
                VersionSpec::new(rel.label.clone(), rel.source.clone())
                    .with_share(TrafficShare::Split { index: 1, of: 2 }),
            ],
            refresh_source: Some(rel.source.clone()),
        };
        let binaries = FleetBinaries::compile(std::slice::from_ref(&spec), cfg)?;
        let mut service = FleetService::new(&binaries, cfg.clone());
        let run = service.run()?;

        let watchdog_fired = run.events.iter().any(
            |e| matches!(e, FleetEvent::Epoch(ev) if ev.label == "drift-probe" && ev.summary.stale),
        );

        // Per-version live profiles: agreement across the split halves,
        // then the candidate from the *stable* version's profile (the
        // profile a fleet actually has when the release ships) — the same
        // rebuild a refresh of that version ran, if the watchdog asked.
        let live = |label: &str| {
            let agg = service.aggregator(tenant, label).expect("served above");
            probe_weights(agg.context_profile())
        };
        let profile_agreement = round4(share_overlap(&live(&stable_label), &live(&rel.label)));
        let candidate =
            service.rebuild(tenant, &stable_label, &rel.source, StaleMatching::Recover)?;

        // Anchors on the new source: plain -O2, the fresh-profile oracle,
        // and the never-refresh floor (release 0's profile, matching off).
        let mut rel_wl = workload.clone();
        rel_wl.source = rel.source.clone();
        let o2 = run_pgo_cycle(&rel_wl, PgoVariant::O2, &cfg.pipeline)?;
        let oracle = run_pgo_cycle(&rel_wl, PgoVariant::CsspgoFull, &cfg.pipeline)?;
        let floor = service0.rebuild(tenant, "v0", &rel.source, StaleMatching::Off)?;

        let (o2_cycles, oracle_cycles) = (o2.eval.cycles, oracle.eval.cycles);
        let (pgo_cycles, floor_cycles) = (candidate.eval.cycles, floor.eval.cycles);
        let oracle_win = o2_cycles as f64 - oracle_cycles as f64;
        let retained = |cycles: u64| {
            (oracle_win > 0.0)
                .then(|| round4((o2_cycles as f64 - cycles as f64) / oracle_win * 100.0))
        };
        sum_o2 += u128::from(o2_cycles);
        sum_oracle += u128::from(oracle_cycles);
        sum_pgo += u128::from(pgo_cycles);
        sum_floor += u128::from(floor_cycles);

        let promoted = canary_promotes(pgo_cycles, candidate.eval_result_hash, &o2);
        reports.push(ReleaseReport {
            release: ri,
            label: rel.label.clone(),
            mutator: rel.mutator.clone(),
            watchdog_fired,
            refreshes: run.stats.refreshes_triggered,
            stale_dropped: candidate.annotate_stats.stale_dropped,
            stale_recovered: candidate.annotate_stats.stale_recovered,
            o2_cycles,
            oracle_cycles,
            pgo_cycles,
            floor_cycles,
            retained_pct: retained(pgo_cycles),
            floor_retained_pct: retained(floor_cycles),
            canary: CanaryReport {
                promoted,
                stable_cycles,
                canary_cycles: pgo_cycles,
                behavior_ok: candidate.eval_result_hash == o2.eval_result_hash,
                profile_agreement,
            },
        });

        if promoted {
            stable_source = rel.source.clone();
            stable_label = rel.label.clone();
            stable_cycles = pgo_cycles;
        }
    }

    let retention = |spent: u128| {
        let denom = sum_o2 as f64 - sum_oracle as f64;
        if denom > 0.0 {
            round4((sum_o2 as f64 - spent as f64) / denom * 100.0)
        } else {
            0.0
        }
    };
    let promoted = reports.iter().filter(|r| r.canary.promoted).count();
    Ok(TrainReport {
        workload: workload.name.clone(),
        baseline_cycles,
        train_retention_pct: retention(sum_pgo),
        floor_retention_pct: retention(sum_floor),
        promoted,
        rejected: reports.len() - promoted,
        watchdog_fires: reports.iter().filter(|r| r.watchdog_fired).count(),
        refreshes: reports.iter().map(|r| r.refreshes).sum(),
        releases: reports,
    })
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_train_is_rejected() {
        let w = Workload::new(
            "w",
            "fn f(x) { return x; }",
            "f",
            vec![vec![1]],
            vec![vec![1]],
        );
        // No release, or one labelled like the incumbent stable `v0`.
        let colliding = ReleaseSpec::new("v0", "none", "fn f(x) { return x + 1; }");
        for releases in [&[][..], &[colliding]] {
            let err = run_release_train(&w, releases, &FleetConfig::default())
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, FleetError::InvalidConfig(_)), "{err}");
        }
    }
}
