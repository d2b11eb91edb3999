//! The multi-tenant profile-continuum fleet: serves several tenants, each
//! with two binary versions in flight (stable + canary), through one
//! [`FleetService`] — concurrent epoch streams, a shared context-profile
//! store under a resident-context cap with LRU-by-epoch cold-context
//! eviction, and per-tenant drift watchdogs feeding a bounded refresh
//! queue.
//!
//! The fleet this binary stands up:
//!
//! * `t0` / ad_ranker and `t1` / hhvm — steady tenants whose traffic is a
//!   tenant-specific re-deal of the same request multiset
//!   ([`tenant_traffic_mix`]): their profiles must converge to the same
//!   totals solo serving would produce;
//! * `t2` / haas — a drifting tenant: its traffic is phase-shifted
//!   ([`phase_shifted`]) so the evaluation mix diverges from the
//!   steady-state tail and the drift watchdog schedules a refresh
//!   recompile (stale matching on, salvage counters recorded).
//!
//! Every version runs under a per-version resident-context cap, so cold
//! context subtrees get folded into base profiles mid-run (weight
//! conserved — the eviction counters in the report prove the fold).
//!
//! Per-tenant epoch rows plus fleet aggregates go to stdout only; the run
//! at `CSSPGO_SCALE=0.25` (which scales the traffic) is committed as
//! `results/profile_fleet.txt` and CI diffs it.

use csspgo_bench::traffic_scale;
use csspgo_core::fleet::{
    FleetBinaries, FleetConfig, FleetEvent, FleetService, TenantId, TenantSpec, VersionSpec,
};
use csspgo_core::pipeline::PipelineConfig;
use csspgo_core::stream::StreamConfig;
use csspgo_workloads::{drift, phase_shifted, tenant_traffic_mix};

/// Per-version resident-context cap. Tuned so the busiest versions run
/// over it mid-stream and the LRU eviction path genuinely fires.
const RESIDENT_CAP: usize = 48;
/// Drift verdict threshold: between the steady tenants' epoch-to-epoch
/// overlap (≥ 0.94 — same distribution, re-dealt) and the phase-shifted
/// tenant's eval-epoch overlap (≈ 0.68 — traffic collapsed onto one
/// expression root).
const DRIFT_THRESHOLD: f64 = 0.8;
/// Bounded refresh queue: one slot, so concurrent drift verdicts beyond
/// the first are *dropped* (and counted), never piled up.
const REFRESH_QUEUE_CAP: usize = 1;

/// A two-version tenant: `v0` is the workload's own source, `v1` a canary
/// carrying a behavior-preserving source edit (so the two versions
/// correlate samples against genuinely different probe layouts).
fn two_versions(id: TenantId, workload: csspgo_core::Workload) -> TenantSpec {
    let stable = workload.source.clone();
    let canary = drift::insert_statement(&stable, 1);
    TenantSpec {
        id,
        workload,
        versions: vec![
            VersionSpec::new("v0", stable),
            VersionSpec::new("v1", canary),
        ],
        refresh_source: None,
    }
}

fn main() {
    let scale = traffic_scale();
    let pipeline = PipelineConfig::builder()
        .stream(StreamConfig {
            drift_threshold: DRIFT_THRESHOLD,
            ..StreamConfig::default()
        })
        .build()
        .expect("fleet pipeline config is valid");
    let cfg = FleetConfig {
        pipeline,
        resident_cap: RESIDENT_CAP,
        refresh_queue_cap: REFRESH_QUEUE_CAP,
    };

    // Steady tenants: same request multiset, tenant-specific arrival
    // order. Drifting tenant: phase-shifted traffic, refresh builds
    // against cosmetically-changed source (the stale-matching path).
    let mut specs = vec![
        two_versions(
            TenantId(0),
            tenant_traffic_mix(&csspgo_workloads::ad_ranker().scaled(scale), 11),
        ),
        two_versions(
            TenantId(1),
            tenant_traffic_mix(&csspgo_workloads::hhvm().scaled(scale), 22),
        ),
        two_versions(
            TenantId(2),
            // Shift both arguments: evaluation traffic collapses onto a
            // single expression root at one rep — a different hot path
            // entirely from the steady-state sweep.
            phase_shifted(
                &phase_shifted(&csspgo_workloads::haas().scaled(scale), 1),
                0,
            ),
        ),
    ];
    // The refresh release carries a real source edit (a dead guard in one
    // function), so the recompile correlates a profile whose checksums
    // mismatch — the stale-matching salvage path, counters recorded.
    specs[2].refresh_source = Some(drift::insert_statement(&specs[2].workload.source, 3));

    let binaries = FleetBinaries::compile(&specs, &cfg)
        .unwrap_or_else(|e| panic!("fleet compile failed: {e}"));
    println!(
        "fleet: {} tenants, {} tenant-version aggregators, resident cap {}/version\n",
        specs.len(),
        specs.iter().map(|s| s.versions.len()).sum::<usize>(),
        cfg.resident_cap
    );

    let mut service = FleetService::new(&binaries, cfg);
    let run = service
        .run()
        .unwrap_or_else(|e| panic!("fleet serve failed: {e}"));

    for event in &run.events {
        match event {
            FleetEvent::Epoch(e) => {
                println!(
                    "{} {:>12}/{} {:>11}: {:6} samples  {:4} resident  evicted {:3} ({:6} wt)  overlap {:.3}{}",
                    e.tenant,
                    e.workload,
                    e.version,
                    e.label,
                    e.summary.samples,
                    e.resident_contexts,
                    e.evicted_this_epoch.subtrees,
                    e.evicted_this_epoch.weight_folded,
                    e.summary.overlap,
                    if e.summary.stale { "  STALE" } else { "" }
                );
            }
            FleetEvent::SnapshotChecked {
                tenant,
                version,
                bytes,
            } => {
                println!(
                    "{tenant} {version:>14} {:>11}: binary {bytes} bytes, restores bit-identical",
                    "snapshot"
                );
            }
            FleetEvent::Refresh(e) => {
                println!(
                    "{} {:>12}/{} {:>11}: drift refresh, eval {} cycles, {} stale dropped / {} recovered",
                    e.tenant,
                    e.workload,
                    e.version,
                    "refresh",
                    e.eval_cycles,
                    e.stale_dropped,
                    e.stale_recovered
                );
            }
            FleetEvent::RefreshDropped { tenant, version } => {
                println!(
                    "{tenant} {version:>14} {:>11}: refresh dropped at the bounded queue",
                    "refresh"
                );
            }
        }
    }

    let stats = run.stats;
    println!(
        "\nfleet totals: {} epochs, {} samples, {} resident contexts, \
         {} subtrees evicted ({} weight folded), {} refreshes ({} dropped)",
        stats.epochs_sealed,
        stats.total_samples,
        stats.resident_contexts,
        stats.evicted.subtrees,
        stats.evicted.weight_folded,
        stats.refreshes_triggered,
        stats.refreshes_dropped
    );
    assert!(
        stats.refreshes_triggered > 0,
        "drifting tenant t2 should have triggered a refresh"
    );
}
