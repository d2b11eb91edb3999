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
//! * the **floor** — the release-0 profile applied with
//!   `stale_matching: Off`, i.e. never refreshing and dropping every
//!   checksum-mismatched function, the paper's source-drift failure mode.
//!
//! The per-release **pgo** point is built from the *live* stable-version
//! profile ([`crate::stream::StreamAggregator::context_snapshot`] →
//! pre-inliner →
//! binprof hand-off → [`optimized_build`] under
//! [`StaleMatching::Recover`] + MCF inference), so the whole
//! stream/stalematch/inference stack is on the measured path. Retention
//! is reported signed against the `-O2` baseline:
//! `(o2 − x) / (o2 − oracle) × 100`.
//!
//! Each release also runs **canary evaluation**: the stable and candidate
//! binaries register as two versions of one tenant with
//! [`TrafficShare::Split`] halves of the train stream, their per-version
//! profiles are compared ([`probe_weights`] overlap), and the candidate
//! is promoted only if its eval cycles stay within tolerance of the
//! same source's `-O2` build — the gate targets *profile-induced*
//! regressions, not intentional source-side slowdowns — *and* its eval
//! results hash-match that `-O2` reference.
//! A seeded sabotage hook corrupts the hand-off profile of one release so
//! tests can assert the gate actually gates.

use crate::annotate::AnnotateConfig;
use crate::binprof;
use crate::context::FrameKey;
use crate::fleet::{
    FleetBinaries, FleetConfig, FleetError, FleetEvent, FleetService, TenantId, TenantSpec,
    TrafficShare, VersionSpec,
};
use crate::inference::InferenceMode;
use crate::pipeline::{
    evaluate, optimized_build, prepared_module, run_pgo_cycle, BuildProfile, PgoVariant,
    PipelineConfig, PipelineError,
};
use crate::preinline::{run_preinliner, to_inline_plan};
use crate::profile::{ProbeFuncProfile, ProbeProfile};
use crate::stalematch::StaleMatching;
use crate::stream::{probe_weights, weight_overlap};
use crate::workload::Workload;
use serde::Serialize;

/// Schema tag of `BENCH_release_train.json`.
pub const TRAIN_SCHEMA: &str = "csspgo-train-v1";

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

/// Train-harness knobs.
#[derive(Clone, Debug, Default)]
pub struct TrainConfig {
    /// The fleet service every release serves traffic through. Its
    /// `pipeline.stream.drift_threshold` decides when the watchdog fires.
    pub fleet: FleetConfig,
    /// Corrupts the profile handed to this release's candidate build
    /// (hot/cold inversion, inline plan dropped) — the canary gate must
    /// reject it.
    pub sabotage_release: Option<usize>,
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
    /// [`weight_overlap`] of the stable and candidate live profiles over
    /// their split traffic halves (1.0 = identical distributions).
    pub profile_agreement: f64,
    /// Whether this release's hand-off profile was deliberately
    /// corrupted ([`TrainConfig::sabotage_release`]).
    pub sabotaged: bool,
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
    /// Checksum-mismatched functions dropped across those refreshes.
    pub stale_dropped: usize,
    /// Checksum-mismatched functions the stale matcher salvaged.
    pub stale_recovered: usize,
    /// Eval cycles of the plain `-O2` build of this release's source.
    pub o2_cycles: u64,
    /// Eval cycles of the always-fresh-profile oracle.
    pub oracle_cycles: u64,
    /// Eval cycles of the live-profile candidate build (recover + MCF by
    /// default) — the release train's own operating point.
    pub pgo_cycles: u64,
    /// Eval cycles of the never-refresh floor (release-0 profile,
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

/// The `BENCH_release_train.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct TrainBenchDoc {
    /// Always [`TRAIN_SCHEMA`].
    pub schema: String,
    /// One train per workload.
    pub trains: Vec<TrainReport>,
}

impl TrainBenchDoc {
    /// Wraps train reports in the versioned document.
    pub fn new(trains: Vec<TrainReport>) -> Self {
        TrainBenchDoc {
            schema: TRAIN_SCHEMA.to_string(),
            trains,
        }
    }

    /// Pretty JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("train report serializes")
    }
}

/// Rolls `workload` through `releases` with live traffic flowing through
/// a [`FleetService`] the entire train. Per release: the stable and
/// candidate versions split the (diurnally rotated) train stream, the
/// drift watchdog probes on eval traffic and drains its refresh queue,
/// the candidate is built from the stable version's *live* profile, and
/// the canary gate decides promotion. See the module docs for the
/// oracle/floor/pgo definitions.
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] for an empty train or a release
/// label colliding with the incumbent stable label, and propagates any
/// fleet or pipeline failure.
pub fn run_release_train(
    workload: &Workload,
    releases: &[ReleaseSpec],
    cfg: &TrainConfig,
) -> Result<TrainReport, FleetError> {
    if releases.is_empty() {
        return Err(FleetError::InvalidConfig(
            "release train needs at least one release".into(),
        ));
    }
    let pipe = cfg.fleet.pipeline.clone();
    let tenant = TenantId(0);

    // ---- Release 0: serve v0 solo to collect the founding live profile.
    // Refreshes are deliberately not processed — this round only exists
    // to give the train its floor/baseline profile.
    let spec0 = TenantSpec::single_version(tenant, workload.clone());
    let binaries0 = FleetBinaries::compile(std::slice::from_ref(&spec0), &cfg.fleet)?;
    let mut service0 = FleetService::new(&binaries0, cfg.fleet.clone());
    service0.calibrate()?;
    while !service0.is_done() {
        service0.run_round()?;
    }
    service0.drift_probe()?;
    let agg0 = service0.aggregator(tenant, "v0").expect("v0 calibrated");
    let v0_binary = binaries0.binary(tenant, "v0").expect("v0 compiled");
    // Floor assets, frozen for the whole train: context snapshot +
    // pre-inline plan paths + probe profile, all from the v0 live stream.
    let mut floor_ctx = agg0.context_snapshot(pipe.trim_threshold);
    let floor_pre = run_preinliner(&mut floor_ctx, v0_binary, &pipe.preinline);
    let mut floor_probe = floor_ctx.to_probe_profile();
    agg0.backfill_entries(&mut floor_probe);
    let floor_probe = BuildProfile::Probe(
        binprof::decode_probe(&binprof::encode_probe(&floor_probe))
            .map_err(|e| FleetError::Pipeline(PipelineError::from(e)))?,
    );

    // The live-profile candidate (the "pgo" curve) recovers stale
    // functions; the floor drops them. Both infer with MCF.
    let with_matching = |stale_matching| PipelineConfig {
        annotate: AnnotateConfig {
            stale_matching,
            inference: InferenceMode::Mcf,
            ..pipe.annotate
        },
        ..pipe.clone()
    };
    let live_pipe = with_matching(StaleMatching::Recover);
    let floor_pipe = with_matching(StaleMatching::Off);

    // The train's starting point: v0 optimized from its own live profile.
    let (baseline_cycles, _) = build_with_profile(
        workload,
        &workload.source,
        &floor_probe,
        Some(&floor_pre.plan_paths),
        &live_pipe,
    )?;

    let mut stable_source = workload.source.clone();
    let mut stable_label = "v0".to_string();
    let mut stable_cycles = baseline_cycles;

    let mut reports: Vec<ReleaseReport> = Vec::with_capacity(releases.len());
    let (mut sum_o2, mut sum_oracle, mut sum_pgo, mut sum_floor) = (0u128, 0u128, 0u128, 0u128);

    for (ri, rel) in releases.iter().enumerate() {
        if rel.label == stable_label {
            return Err(FleetError::InvalidConfig(format!(
                "release {ri} label `{}` collides with the incumbent stable label",
                rel.label
            )));
        }

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
        // stream; the watchdog's refresh path builds the new source.
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
        let binaries = FleetBinaries::compile(std::slice::from_ref(&spec), &cfg.fleet)?;
        let mut service = FleetService::new(&binaries, cfg.fleet.clone());
        let run = service.run()?;

        let watchdog_fired = run.events.iter().any(
            |e| matches!(e, FleetEvent::Epoch(ev) if ev.label == "drift-probe" && ev.summary.stale),
        );
        let (mut stale_dropped, mut stale_recovered) = (0usize, 0usize);
        for e in &run.events {
            if let FleetEvent::Refresh(r) = e {
                stale_dropped += r.stale_dropped;
                stale_recovered += r.stale_recovered;
            }
        }

        // Per-version live profiles: agreement across the split halves,
        // then the candidate build from the *stable* version's profile
        // (the profile a fleet actually has when the release ships).
        let stable_agg = service
            .aggregator(tenant, &stable_label)
            .expect("stable calibrated");
        let canary_agg = service
            .aggregator(tenant, &rel.label)
            .expect("canary calibrated");
        let profile_agreement = round4(weight_overlap(
            &probe_weights(stable_agg.context_profile()),
            &probe_weights(canary_agg.context_profile()),
        ));

        let stable_bin = binaries
            .binary(tenant, &stable_label)
            .expect("stable compiled");
        let mut live_ctx = stable_agg.context_snapshot(pipe.trim_threshold);
        let live_pre = run_preinliner(&mut live_ctx, stable_bin, &pipe.preinline);
        let mut live_probe = live_ctx.to_probe_profile();
        stable_agg.backfill_entries(&mut live_probe);
        let mut live_probe = binprof::decode_probe(&binprof::encode_probe(&live_probe))
            .map_err(|e| FleetError::Pipeline(PipelineError::from(e)))?;
        let sabotaged = cfg.sabotage_release == Some(ri);
        let mut plan_paths: Option<&[Vec<FrameKey>]> = Some(&live_pre.plan_paths);
        if sabotaged {
            corrupt_profile(&mut live_probe);
            plan_paths = None;
        }
        let (pgo_cycles, pgo_hash) = build_with_profile(
            workload,
            &rel.source,
            &BuildProfile::Probe(live_probe),
            plan_paths,
            &live_pipe,
        )?;

        // Anchors on the new source: plain -O2 and the fresh-profile
        // oracle.
        let mut rel_wl = workload.clone();
        rel_wl.source = rel.source.clone();
        let o2 = run_pgo_cycle(&rel_wl, PgoVariant::O2, &pipe)?;
        let oracle = run_pgo_cycle(&rel_wl, PgoVariant::CsspgoFull, &pipe)?;

        // Never-refresh floor: the frozen v0 profile with matching off.
        let (floor_cycles, _) = build_with_profile(
            workload,
            &rel.source,
            &floor_probe,
            Some(&floor_pre.plan_paths),
            &floor_pipe,
        )?;

        let o2_cycles = o2.eval.cycles;
        let oracle_cycles = oracle.eval.cycles;
        let oracle_win = o2_cycles as f64 - oracle_cycles as f64;
        let retained = |cycles: u64| {
            (oracle_win > 0.0)
                .then(|| round4((o2_cycles as f64 - cycles as f64) / oracle_win * 100.0))
        };
        sum_o2 += u128::from(o2_cycles);
        sum_oracle += u128::from(oracle_cycles);
        sum_pgo += u128::from(pgo_cycles);
        sum_floor += u128::from(floor_cycles);

        // Canary gate, anchored on the *same source's* -O2 build so it
        // catches profile-induced regressions specifically: a release
        // whose source is intentionally slower (new feature) still
        // ships, but a profile that makes the optimized build slower
        // than not profiling at all (beyond tolerance) cannot. Behaviour
        // must also hash-match the -O2 reference.
        /// The candidate may be at most this much slower than its `-O2`.
        const CANARY_TOLERANCE_PCT: f64 = 5.0;
        let behavior_ok = pgo_hash == o2.eval_result_hash;
        let cycles_ok =
            (pgo_cycles as f64) <= o2_cycles as f64 * (1.0 + CANARY_TOLERANCE_PCT / 100.0);
        let promoted = behavior_ok && cycles_ok;

        reports.push(ReleaseReport {
            release: ri,
            label: rel.label.clone(),
            mutator: rel.mutator.clone(),
            watchdog_fired,
            refreshes: run.stats.refreshes_triggered,
            stale_dropped,
            stale_recovered,
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
                behavior_ok,
                profile_agreement,
                sabotaged,
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

/// The optimized-build half of the full-CSSPGO cycle with the profile
/// supplied instead of collected: builds `build_source` from `profile` and
/// optional pre-inline plan paths under `pipe` (whose annotate knobs carry
/// the matching mode under test), then evaluates it. Returns `(eval cycles,
/// eval result hash)`.
fn build_with_profile(
    workload: &Workload,
    build_source: &str,
    profile: &BuildProfile,
    plan_paths: Option<&[Vec<FrameKey>]>,
    pipe: &PipelineConfig,
) -> Result<(u64, u64), PipelineError> {
    let module = prepared_module(build_source, &workload.name, true)?;
    let plan = plan_paths.map(|p| to_inline_plan(p, &module));
    let (binary, _) = optimized_build(
        module,
        PgoVariant::CsspgoFull,
        profile,
        plan.as_ref(),
        &workload.entry,
        pipe,
    );
    let (run_stats, hash) = evaluate(&binary, workload, pipe)?;
    Ok((run_stats.cycles, hash))
}

/// Hot/cold inversion: every probe count `c` becomes `max − c + 1` within
/// its function, so the profile claims the coldest paths are the hottest.
/// Checksums are left intact — the corruption must *apply* cleanly and
/// mislead layout/splitting/inlining, which is exactly the failure a
/// canary gate exists to catch.
fn corrupt_profile(profile: &mut ProbeProfile) {
    fn invert(f: &mut ProbeFuncProfile) {
        let max = f.probes.values().copied().max().unwrap_or(0);
        for c in f.probes.values_mut() {
            *c = max - *c + 1;
        }
        f.entry = f.entry.max(1);
        for child in f.callsites.values_mut() {
            invert(child);
        }
        f.recompute_totals();
    }
    for f in profile.funcs.values_mut() {
        invert(f);
    }
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
        let err = run_release_train(&w, &[], &TrainConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FleetError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn corruption_inverts_hot_and_cold() {
        let mut p = ProbeProfile::default();
        let f = p.funcs.entry(1).or_default();
        f.probes.insert(1, 100);
        f.probes.insert(2, 0);
        f.recompute_totals();
        corrupt_profile(&mut p);
        let f = &p.funcs[&1];
        assert_eq!(f.probes[&1], 1, "hottest probe must go cold");
        assert_eq!(f.probes[&2], 101, "coldest probe must go hot");
        assert_eq!(f.total, 102);
    }
}
