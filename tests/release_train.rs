//! Release-train integration tests: the end-to-end drift stack (fleet
//! serving → drift watchdog → stale recovery → MCF inference → canary
//! promotion) validated across successive releases, per the paper's
//! continuous-deployment framing.

use csspgo::core::fleet::FleetConfig;
use csspgo::core::pipeline::PipelineConfig;
use csspgo::core::release_train::{run_release_train, ReleaseSpec, TrainBenchDoc, TrainConfig};
use csspgo::core::stream::StreamConfig;
use csspgo::core::Workload;
use csspgo::workloads::{self, drift, phase_shifted, tenant_traffic_mix};
use std::path::PathBuf;

/// The bench binary's train configuration: drift verdicts at the same
/// threshold `profile_fleet` uses, defaults elsewhere (recover + MCF).
fn train_config() -> TrainConfig {
    let pipeline = PipelineConfig::builder()
        .stream(StreamConfig {
            drift_threshold: 0.8,
            ..StreamConfig::default()
        })
        .build()
        .expect("valid pipeline config");
    TrainConfig {
        fleet: FleetConfig {
            pipeline,
            ..FleetConfig::default()
        },
        ..TrainConfig::default()
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

/// The acceptance claim: across a 5-release train on two workloads —
/// a steady tenant-mixed one and a phase-shifted drifting one — the
/// recover+MCF refresh path retains strictly more of the oracle's win
/// train-wide than never refreshing (`stale_matching: Off` on the frozen
/// release-0 profile).
#[test]
fn recover_mcf_train_beats_never_refresh_floor() {
    let cfg = train_config();
    let steady = tenant_traffic_mix(&workloads::ad_finder().scaled(0.25), 7);
    let drifting = phase_shifted(&phase_shifted(&workloads::haas().scaled(0.25), 1), 0);

    for (w, expect_watchdog) in [(&steady, false), (&drifting, true)] {
        let specs = releases_for(w, 5);
        let report = run_release_train(w, &specs, &cfg).expect("train runs");
        assert_eq!(report.releases.len(), 5);
        assert!(
            report.train_retention_pct > report.floor_retention_pct,
            "{}: recover+MCF ({:+.2}%) must retain strictly more than the \
             never-refresh floor ({:+.2}%)",
            report.workload,
            report.train_retention_pct,
            report.floor_retention_pct
        );
        assert!(
            report.promoted >= 1,
            "{}: a healthy train should promote releases",
            report.workload
        );
        if expect_watchdog {
            assert!(
                report.watchdog_fires > 0,
                "{}: the drifting workload must trip the watchdog",
                report.workload
            );
            assert!(report.refreshes > 0, "watchdog fires must drive refreshes");
            let recovered: usize = report.releases.iter().map(|r| r.stale_recovered).sum();
            assert!(
                recovered > 0,
                "{}: refreshes against mutated sources must salvage \
                 checksum-mismatched functions",
                report.workload
            );
        }
        for r in &report.releases {
            assert!(!r.canary.sabotaged, "no sabotage was configured");
            assert!(
                (0.0..=1.0).contains(&r.canary.profile_agreement),
                "profile agreement is a share"
            );
        }
    }
}

/// The canary gate: a corrupted hand-off profile (hot/cold inversion)
/// must be rejected, while the identical release without sabotage is
/// promoted.
#[test]
fn sabotaged_canary_is_rejected_and_clean_twin_promotes() {
    let w = tenant_traffic_mix(&workloads::ad_finder().scaled(0.25), 7);
    let specs = releases_for(&w, 1);

    let clean = run_release_train(&w, &specs, &train_config()).expect("clean train runs");
    assert!(
        clean.releases[0].canary.promoted,
        "the un-sabotaged release must pass the canary gate (pgo {} vs o2 {})",
        clean.releases[0].pgo_cycles, clean.releases[0].o2_cycles
    );

    let cfg = TrainConfig {
        sabotage_release: Some(0),
        ..train_config()
    };
    let sabotaged = run_release_train(&w, &specs, &cfg).expect("sabotaged train runs");
    let rel = &sabotaged.releases[0];
    assert!(rel.canary.sabotaged, "the sabotage hook must be recorded");
    assert!(
        !rel.canary.promoted,
        "a hot/cold-inverted profile must not pass the canary gate (pgo {} vs o2 {})",
        rel.pgo_cycles, rel.o2_cycles
    );
    assert_eq!(sabotaged.rejected, 1);
    assert_eq!(sabotaged.promoted, 0);
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
/// document is pinned as a golden (re-bless with `BLESS=1 cargo test`).
#[test]
fn train_reports_are_deterministic_and_match_golden() {
    let w = golden_workload();
    let specs = releases_for(&w, 3);
    let cfg = train_config();

    let a = run_release_train(&w, &specs, &cfg).expect("first run");
    let b = run_release_train(&w, &specs, &cfg).expect("second run");
    let a_json = TrainBenchDoc::new(vec![a]).to_json();
    let b_json = TrainBenchDoc::new(vec![b]).to_json();
    assert_eq!(
        a_json, b_json,
        "two identical train runs must agree byte-for-byte"
    );

    let golden: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "release_train.json",
    ]
    .iter()
    .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().expect("golden has a parent"))
            .expect("create golden dir");
        std::fs::write(&golden, &a_json).expect("bless golden");
        return;
    }
    let pinned = std::fs::read_to_string(&golden)
        .expect("golden missing — run `BLESS=1 cargo test` to create it");
    assert_eq!(
        a_json, pinned,
        "train report drifted from the golden; if intentional, re-bless \
         with `BLESS=1 cargo test`"
    );
}
