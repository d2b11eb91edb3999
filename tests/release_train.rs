//! Release-train integration tests: the end-to-end drift stack (fleet
//! serving → drift watchdog → stale recovery → MCF inference → canary
//! promotion) validated across successive releases, per the paper's
//! continuous-deployment framing.

use csspgo::core::pipeline::{
    evaluate, finish_probe_profile, optimized_build, prepared_module, profiling_build,
    run_pgo_cycle, wire_handoff, BuildProfile, PgoVariant, PipelineConfig,
};
use csspgo::core::preinline::run_preinliner;
use csspgo::core::profile::{FuncProfile, ProbeProfile};
use csspgo::core::stalematch::StaleMatching;
use csspgo::core::stream::StreamConfig;
use csspgo::core::Workload;
use csspgo::serve::fleet::{
    FleetBinaries, FleetConfig, FleetEvent, FleetService, TenantId, TenantSpec, TrafficShare,
    VersionSpec,
};
use csspgo::serve::release_train::{canary_promotes, run_release_train, ReleaseSpec};
use csspgo::workloads::{self, drift, phase_shifted, tenant_traffic_mix};

#[path = "common/golden.rs"]
mod golden;

/// The `release_train` figure's configuration: drift verdicts at the same
/// threshold `profile_fleet` uses, defaults elsewhere (MCF inference).
fn train_config() -> FleetConfig {
    let pipeline = PipelineConfig {
        stream: StreamConfig {
            drift_threshold: 0.8,
            ..StreamConfig::default()
        },
        ..PipelineConfig::default()
    };
    pipeline.validate().expect("valid pipeline config");
    FleetConfig {
        pipeline,
        ..FleetConfig::default()
    }
}

/// The canonical release lineage for `w` (cumulative mutator chain).
fn releases_for(w: &Workload, n: usize) -> Vec<ReleaseSpec> {
    let keep = [w.entry.as_str()];
    drift::release_chain(&w.source, n, &keep)
        .into_iter()
        .enumerate()
        .map(|(i, (mutator, source))| ReleaseSpec::new(format!("r{}", i + 1), mutator, source))
        .collect()
}

/// The figure's two trains: a steady tenant-mixed workload and a
/// phase-shifted drifting one.
fn steady() -> Workload {
    tenant_traffic_mix(&workloads::ad_finder().scaled(0.25), 7)
}
fn drifting() -> Workload {
    phase_shifted(&phase_shifted(&workloads::haas().scaled(0.25), 1), 0)
}

/// The tenant a train on `w` serves during its first release `r1`: v0 and
/// r1 split the stream, which the first diurnal phase rotates a quarter
/// turn, and a refresh builds r1's source.
fn first_release_tenant(w: &Workload, r1: &ReleaseSpec) -> TenantSpec {
    let mut traffic = w.clone();
    traffic.train_calls.rotate_left(w.train_calls.len() / 4);
    let split = |index| TrafficShare::Split { index, of: 2 };
    TenantSpec {
        id: TenantId(0),
        workload: traffic,
        versions: vec![
            VersionSpec::new("v0", w.source.clone()).with_share(split(0)),
            VersionSpec::new("r1", r1.source.clone()).with_share(split(1)),
        ],
        refresh_source: Some(r1.source.clone()),
    }
}

/// The mechanism behind the retention claim (which
/// `tests/paper_claims.rs` asserts from the `release_train` figure): on
/// the drifting train the watchdog fires and its refreshes run, on the
/// steady one neither happens — and on both the train reports the salvage
/// of the builds it ships, refresh or no refresh.
#[test]
fn recover_mcf_train_beats_never_refresh_floor() {
    let cfg = train_config();
    for (w, expect_watchdog) in [(steady(), false), (drifting(), true)] {
        let report = run_release_train(&w, &releases_for(&w, 5), &cfg).expect("train runs");
        let name = &report.workload;
        assert_eq!(report.releases.len(), 5);
        assert_eq!(report.watchdog_fires > 0, expect_watchdog, "{name}");
        assert_eq!(report.refreshes > 0, expect_watchdog, "{name}");
        assert!(report.promoted >= 1, "{name}: a healthy train promotes");
        let recovered: usize = report.releases.iter().map(|r| r.stale_recovered).sum();
        assert!(
            recovered > 0,
            "{name}: candidates built against mutated sources must salvage \
             checksum-mismatched functions"
        );
        for r in &report.releases {
            assert!(
                (0.0..=1.0).contains(&r.canary.profile_agreement),
                "profile agreement is a share"
            );
        }
    }
}

/// A refresh *is* the candidate build. On a release where the watchdog
/// fires on the stable version, the fleet's refresh of that version and the
/// train's candidate are the same rebuild of the same live profile — the
/// drift-probe epoch that tripped the watchdog included.
#[test]
fn a_refresh_is_the_candidate_build_from_the_live_profile() {
    let (cfg, w) = (train_config(), drifting());
    let specs = releases_for(&w, 1);
    let report = run_release_train(&w, &specs, &cfg).expect("train runs");
    let r1 = &report.releases[0];
    assert!(r1.watchdog_fired && r1.refreshes > 0);

    // Release r1 served by hand.
    let tenant = TenantId(0);
    let spec = first_release_tenant(&w, &specs[0]);
    let binaries = FleetBinaries::compile(&[spec], &cfg).expect("fleet compiles");
    let mut service = FleetService::new(&binaries, cfg.clone());
    let run = service.run().expect("fleet serves");
    let refresh = run.events.iter().find_map(|e| match e {
        FleetEvent::Refresh(r) if r.version == "v0" => Some(r),
        _ => None,
    });
    let refresh = refresh.expect("the watchdog fires on the stable version");
    assert_eq!(
        (
            refresh.eval_cycles,
            refresh.stale_dropped,
            refresh.stale_recovered
        ),
        (r1.pgo_cycles, r1.stale_dropped, r1.stale_recovered)
    );

    // What a refresh builds from is everything the service aggregated.
    let agg = service.aggregator(tenant, "v0").expect("served");
    let probe = run.events.iter().find_map(|e| match e {
        FleetEvent::Epoch(ev) if ev.version == "v0" && ev.label == "drift-probe" => Some(ev),
        _ => None,
    });
    let probe = probe.expect("every version is probed").summary;
    assert!(probe.samples > 0 && probe.total_samples == agg.total_samples());
    let live = agg.to_generated();
    assert_eq!(live.profile.total(), agg.context_profile().total());
    let rebuilt = service
        .rebuild(tenant, "v0", &specs[0].source, StaleMatching::Recover)
        .expect("rebuilds");
    assert_eq!(rebuilt.eval.cycles, refresh.eval_cycles);
    assert_eq!(rebuilt.profiling.samples, agg.total_samples());
    assert_eq!(rebuilt.context_nodes_before_trim, live.profile.node_count());
}

/// Hot/cold inversion: every probe count `c` becomes `max − c + 1` within
/// its function, so the profile claims the coldest paths are the hottest.
/// Checksums are left intact — the corruption must *apply* cleanly and
/// mislead layout/splitting/inlining, which is exactly the failure a
/// canary gate exists to catch.
fn corrupt_profile(profile: &mut ProbeProfile) {
    fn invert(f: &mut FuncProfile<u32>) {
        let max = f.body.values().copied().max().unwrap_or(0);
        for c in f.body.values_mut() {
            *c = max - *c + 1;
        }
        f.entry = f.entry.max(1);
        for child in f.callsites.values_mut() {
            invert(child);
        }
    }
    for f in profile.funcs.values_mut() {
        invert(f);
    }
}

#[test]
fn corruption_inverts_hot_and_cold() {
    let mut p = ProbeProfile::default();
    let f = p.funcs.entry(1).or_default();
    f.body.insert(1, 100);
    f.body.insert(2, 0);
    corrupt_profile(&mut p);
    let f = &p.funcs[&1];
    assert_eq!(f.body[&1], 1, "hottest probe must go cold");
    assert_eq!(f.body[&2], 101, "coldest probe must go hot");
    assert_eq!(f.total(), 102);
}

/// The canary rule gates: the train's own candidate for a release is
/// promoted, and a candidate for the same release built through the public
/// stages from a corrupted hand-off profile (hot/cold inversion) is
/// rejected by the same rule.
#[test]
fn sabotaged_canary_is_rejected_and_clean_twin_promotes() {
    let (cfg, w) = (train_config(), steady());
    let specs = releases_for(&w, 1);
    let mut r1 = w.clone();
    r1.source = specs[0].source.clone();
    let o2 = run_pgo_cycle(&r1, PgoVariant::O2, &cfg.pipeline).expect("-O2 builds");

    let clean = run_release_train(&w, &specs, &cfg).expect("clean train runs");
    let clean = &clean.releases[0];
    assert_eq!(clean.o2_cycles, o2.eval.cycles);
    assert!(
        clean.canary.promoted && canary_promotes(clean.pgo_cycles, o2.eval_result_hash, &o2),
        "the un-sabotaged release must pass the canary gate (pgo {} vs o2 {})",
        clean.pgo_cycles,
        clean.o2_cycles
    );

    // The sabotaged twin, stage by stage: the live v0 profile r1's candidate
    // is built from — trimmed, pre-inlined and flattened as the hand-off has
    // it — then inverted; r1 is built from it under the train's own
    // matching mode. (`profiled` is the binary the fleet serves as v0.)
    let mut pipe = cfg.pipeline.clone();
    pipe.annotate.stale_matching = StaleMatching::Recover;
    let profiled = profiling_build(&w.source, &w.name, PgoVariant::CsspgoFull, &pipe)
        .expect("v0 compiles")
        .binary;
    let spec = first_release_tenant(&w, &specs[0]);
    let binaries = FleetBinaries::compile(&[spec], &cfg).expect("fleet compiles");
    let mut service = FleetService::new(&binaries, cfg.clone());
    service.run().expect("fleet serves");
    let v0 = service.aggregator(TenantId(0), "v0").expect("served");
    let mut generated = v0.to_generated();
    generated.profile.trim_cold(pipe.trim_threshold);
    run_preinliner(&mut generated.profile, &profiled, &pipe.preinline);
    let mut probe = finish_probe_profile(&generated.profile, &generated.range_counts, &profiled);
    corrupt_profile(&mut probe);
    let profile = wire_handoff(BuildProfile::Probe(probe)).expect("hand-off decodes");
    let module = prepared_module(&r1.source, &r1.name, true).expect("r1 compiles");
    let full = PgoVariant::CsspgoFull;
    let (binary, stats) = optimized_build(module, full, &profile, &r1.entry, &pipe);
    assert!(stats.annotated > 0, "the corruption must apply cleanly");
    let (eval, hash) = evaluate(&binary, &r1, &pipe).expect("sabotaged build runs");
    assert_eq!(hash, o2.eval_result_hash, "a profile never changes results");
    assert!(
        !canary_promotes(eval.cycles, hash, &o2),
        "a hot/cold-inverted profile must not pass the canary gate (pgo {} vs o2 {})",
        eval.cycles,
        o2.eval.cycles
    );
    // And no cycle count buys a promotion for a build that misbehaves.
    assert!(!canary_promotes(
        clean.pgo_cycles,
        !o2.eval_result_hash,
        &o2
    ));
}

/// A small fixed-traffic service for the determinism golden: big enough
/// that the structural mutators bite (multi-line functions, a real hot
/// path), small enough to run the train three times in a debug test.
fn golden_workload() -> Workload {
    let src = r#"
fn weigh(x, mode) {
    if (mode == 1) {
        if (x > 0) { return x * 3; }
        return 1;
    }
    if (x > 40) { return x - 40; }
    return 2;
}
fn pass_a(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weigh(i % 97, 1);
        i = i + 1;
    }
    return s;
}
fn pass_b(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weigh(i % 61, 2);
        i = i + 1;
    }
    return s;
}
fn main(n) {
    return pass_a(n) + pass_b(n);
}
"#;
    Workload::new(
        "golden_service",
        src,
        "main",
        (0..16).map(|i| vec![120 + i]).collect(),
        (0..8).map(|i| vec![130 + i]).collect(),
    )
}

/// Two identical train runs must serialize byte-identically, and the
/// report is pinned as a golden (`BLESS=1 cargo test --test release_train`).
#[test]
fn train_reports_are_deterministic_and_match_golden() {
    let w = golden_workload();
    let specs = releases_for(&w, 3);
    let cfg = train_config();

    let a = run_release_train(&w, &specs, &cfg).expect("first run");
    let b = run_release_train(&w, &specs, &cfg).expect("second run");
    let a_json = serde_json::to_string_pretty(&a).expect("report serializes");
    let b_json = serde_json::to_string_pretty(&b).expect("report serializes");
    assert_eq!(
        a_json, b_json,
        "two identical train runs must agree byte-for-byte"
    );

    golden::check(
        "tests/golden/release_train.json",
        a_json,
        "the train report drifted from the golden; re-bless only for an intended change",
    );
}
