//! The release train: end-to-end drift validation across successive
//! releases.
//!
//! Rolls each workload through an N-release source lineage
//! ([`drift::release_chain`]: split/merge refactors, feature-flag flips,
//! dependency bumps, renames, comment and CFG churn) while live traffic
//! flows through a `FleetService` the whole train — each release serves
//! stable + candidate as a two-way traffic split of one tenant, the
//! drift watchdog schedules recover-mode MCF refreshes, and a canary
//! gate (cycle tolerance + behaviour hash against `-O2`) decides
//! promotion.
//!
//! Per release the candidate built from the *live* stable profile is
//! placed between two anchors:
//!
//! * **oracle** — a fresh profile collected on the new source itself
//!   (the best any refresh could do);
//! * **floor** — the release-0 profile applied with stale matching off
//!   (never refreshing; the paper's source-drift failure mode).
//!
//! The train-wide retention curve (`Σ(o2−pgo) / Σ(o2−oracle)`) is the
//! headline number: the recover+MCF train must retain strictly more of
//! the oracle's win than the never-refresh floor.
//!
//! Flags: `--releases N` (train length, default 5) and
//! `--min-retention PCT` (exit non-zero if any train's retention falls
//! below — the CI gate). Output goes to `BENCH_release_train.json`
//! (override with `BENCH_RELEASE_TRAIN_OUT`); `CSSPGO_SCALE` scales
//! traffic as in the other bench binaries.

use csspgo_bench::traffic_scale;
use csspgo_core::fleet::FleetConfig;
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::release_train::{run_release_train, ReleaseSpec, TrainBenchDoc};
use csspgo_core::stream::StreamConfig;
use csspgo_core::Workload;
use csspgo_workloads::{ad_finder, drift, haas, phase_shifted, tenant_traffic_mix};

/// Drift verdict threshold (same rationale as `profile_fleet`).
const DRIFT_THRESHOLD: f64 = 0.8;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn train_config() -> FleetConfig {
    let pipeline = PipelineConfig::builder()
        .stream(StreamConfig {
            drift_threshold: DRIFT_THRESHOLD,
            ..StreamConfig::default()
        })
        .build()
        .expect("train pipeline config is valid");
    FleetConfig {
        pipeline,
        ..FleetConfig::default()
    }
}

/// The train's release lineage for one workload.
fn releases_for(w: &Workload, n: usize) -> Vec<ReleaseSpec> {
    let keep = [w.entry.as_str()];
    drift::release_chain(&w.source, n, &keep)
        .into_iter()
        .enumerate()
        .map(|(i, (mutator, source))| ReleaseSpec::new(format!("r{}", i + 1), mutator, source))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let releases: usize = arg_value(&args, "--releases")
        .map(|v| v.parse().expect("--releases takes a count"))
        .unwrap_or(5);
    let min_retention: Option<f64> =
        arg_value(&args, "--min-retention").map(|v| v.parse().expect("--min-retention takes %"));

    let scale = traffic_scale();
    let cfg = train_config();

    // Two trains: a steady tenant-mixed server workload, and a
    // phase-shifted drifting one whose evaluation mix diverges from the
    // steady-state tail (the watchdog's bread and butter). Both are
    // workloads where the fresh profile genuinely beats -O2, so the
    // oracle win that retention is measured against is real.
    let workloads = vec![
        tenant_traffic_mix(&ad_finder().scaled(scale), 7),
        // Both arguments shifted: evaluation traffic collapses onto one
        // expression root (same recipe as `profile_fleet`'s drifting
        // tenant), pushing the drift probe's overlap under the verdict
        // threshold so the watchdog genuinely fires along the train.
        phase_shifted(&phase_shifted(&haas().scaled(scale), 1), 0),
    ];

    let mut trains = Vec::new();
    for w in &workloads {
        let specs = releases_for(w, releases);
        let report = run_release_train(w, &specs, &cfg)
            .unwrap_or_else(|e| panic!("{} release train failed: {e}", w.name));

        println!("\n# {} — {}-release train", report.workload, releases);
        println!(
            "baseline {} cycles; {} promoted / {} rejected; watchdog fired on {} releases, {} refreshes",
            report.baseline_cycles,
            report.promoted,
            report.rejected,
            report.watchdog_fires,
            report.refreshes
        );
        println!("| release | mutator | o2 | oracle | pgo | floor | retained% | floor% | canary |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for r in &report.releases {
            let fmt_pct =
                |p: Option<f64>| p.map(|v| format!("{v:+.1}")).unwrap_or_else(|| "-".into());
            let cells = [
                r.label.clone(),
                r.mutator.clone(),
                r.o2_cycles.to_string(),
                r.oracle_cycles.to_string(),
                r.pgo_cycles.to_string(),
                r.floor_cycles.to_string(),
                fmt_pct(r.retained_pct),
                fmt_pct(r.floor_retained_pct),
                if r.canary.promoted {
                    "promoted"
                } else {
                    "REJECTED"
                }
                .to_string(),
            ];
            println!("| {} |", cells.join(" | "));
        }
        println!(
            "train retention: {:+.1}% (never-refresh floor {:+.1}%)",
            report.train_retention_pct, report.floor_retention_pct
        );
        // Short trains can end before cumulative drift wrecks the frozen
        // floor profile (the early releases only perturb a few
        // checksums), so the strict separation claim is only meaningful
        // once the train is long enough for churn to compound.
        if releases >= 5 {
            assert!(
                report.train_retention_pct > report.floor_retention_pct,
                "{}: recover+MCF train must retain strictly more of the oracle win \
                 than the never-refresh floor ({:+.2}% vs {:+.2}%)",
                report.workload,
                report.train_retention_pct,
                report.floor_retention_pct
            );
        }
        trains.push(report);
    }

    let doc = TrainBenchDoc::new(trains);
    let path = std::env::var("BENCH_RELEASE_TRAIN_OUT")
        .unwrap_or_else(|_| "BENCH_release_train.json".to_string());
    std::fs::write(&path, doc.to_json()).expect("write release_train bench report");
    println!("\nwrote {} trains to {path}", doc.trains.len());

    if let Some(min) = min_retention {
        for t in &doc.trains {
            if t.train_retention_pct < min {
                eprintln!(
                    "FAIL: {} train retention {:+.2}% below the --min-retention {min}% gate",
                    t.workload, t.train_retention_pct
                );
                std::process::exit(1);
            }
        }
        println!("retention gate: all trains ≥ {min}%");
    }
}
