//! Integration tests for the multi-tenant fleet service: serving several
//! tenants interleaved through one [`FleetService`] must be bit-identical
//! to serving each tenant solo (tenant isolation), and the
//! resident-context cap must bound every tenant-version's store while
//! conserving the weight its evictions fold away.

use csspgo::core::fleet::{
    FleetBinaries, FleetConfig, FleetError, FleetService, TenantId, TenantSpec,
};
use csspgo::core::pipeline::PipelineConfig;
use csspgo::workloads::{self, tenant_traffic_mix};

fn fleet_cfg(resident_cap: usize) -> FleetConfig {
    FleetConfig {
        pipeline: PipelineConfig::builder()
            .sample_period(89)
            .build()
            .expect("valid pipeline config"),
        resident_cap,
        ..FleetConfig::default()
    }
}

/// Two tenants running the same services real fleets would: the same
/// request multisets in tenant-specific arrival orders.
fn two_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::single_version(
            TenantId(0),
            tenant_traffic_mix(&workloads::ad_finder().scaled(0.2), 7),
        ),
        TenantSpec::single_version(
            TenantId(1),
            tenant_traffic_mix(&workloads::ad_ranker().scaled(0.2), 8),
        ),
    ]
}

/// The isolation contract: a tenant's profile out of the interleaved fleet
/// is bit-identical to what solo serving produces — under *and* without a
/// resident cap (eviction is a pure function of the tenant's own stream).
#[test]
fn interleaved_tenants_match_solo_serving_bit_for_bit() {
    for cap in [0, 6] {
        let cfg = fleet_cfg(cap);
        let specs = two_tenants();
        let fleet_bins = FleetBinaries::compile(&specs, &cfg).expect("fleet compiles");
        let mut fleet = FleetService::new(&fleet_bins, cfg.clone());
        let run = fleet.run().expect("fleet serves");
        assert_eq!(run.stats.tenants, 2);

        for spec in &specs {
            let solo_bins =
                FleetBinaries::compile(std::slice::from_ref(spec), &cfg).expect("solo compiles");
            let mut solo = FleetService::new(&solo_bins, cfg.clone());
            solo.run().expect("solo serves");

            let fleet_agg = fleet.aggregator(spec.id, "v0").expect("tenant registered");
            let solo_agg = solo.aggregator(spec.id, "v0").expect("tenant registered");
            assert_eq!(
                fleet_agg.context_profile(),
                solo_agg.context_profile(),
                "tenant {} (cap {cap}) diverged from solo serving",
                spec.id
            );
            assert_eq!(fleet_agg.total_samples(), solo_agg.total_samples());
            assert_eq!(fleet_agg.epochs_sealed(), solo_agg.epochs_sealed());
        }
    }
}

/// The cap contract: capped serving evicts, stays under the cap on every
/// tenant-version, and folds exactly the weight away that uncapped serving
/// keeps resident — totals match bit for bit.
#[test]
fn resident_cap_bounds_every_tenant_and_conserves_weight() {
    let free_cfg = fleet_cfg(0);
    let specs = two_tenants();
    let bins = FleetBinaries::compile(&specs, &free_cfg).expect("fleet compiles");
    let served: Vec<(TenantId, &str)> = specs
        .iter()
        .flat_map(|s| s.versions.iter().map(move |v| (s.id, v.label.as_str())))
        .collect();

    let mut free = FleetService::new(&bins, free_cfg);
    free.run().expect("uncapped fleet serves");
    let max_resident = served
        .iter()
        .map(|&(id, v)| free.aggregator(id, v).unwrap().resident_contexts())
        .max()
        .unwrap();
    assert!(max_resident > 2, "need a store worth capping");

    let cap = max_resident - 2;
    let mut capped = FleetService::new(&bins, fleet_cfg(cap));
    let run = capped.run().expect("capped fleet serves");
    assert!(
        run.stats.evicted.subtrees > 0,
        "cap {cap} under max residency {max_resident} must evict"
    );

    for &(id, version) in &served {
        let capped_agg = capped.aggregator(id, version).unwrap();
        let free_agg = free.aggregator(id, version).unwrap();
        assert!(
            capped_agg.resident_contexts() <= cap,
            "tenant {id} {version}: {} resident over cap {cap}",
            capped_agg.resident_contexts()
        );
        assert_eq!(
            capped_agg.context_profile().total(),
            free_agg.context_profile().total(),
            "tenant {id} {version}: eviction lost weight"
        );
    }
}

/// No constructible configuration hangs the service. `FleetService::new`
/// is infallible and never validates, so every row is served both as
/// `FleetBinaries::compile` would admit it and — where `compile` rejects
/// it — straight through `new` on binaries compiled under the defaults.
/// (The two fields that could spin, a zero epoch size and a zero PMU drain
/// batch, are constants now and cannot be written here.)
#[test]
fn extreme_configurations_serve_or_fail_typed_and_never_spin() {
    type Edit = fn(&mut FleetConfig);
    let rows: [(&str, Edit); 10] = [
        ("resident_cap 0", |c| c.resident_cap = 0),
        ("resident_cap 1", |c| c.resident_cap = 1),
        ("resident_cap MAX", |c| c.resident_cap = usize::MAX),
        // The queue rows run with every epoch stale, so the queue is
        // actually asked: with no slot the refresh is dropped and counted,
        // with one it runs.
        ("refresh_queue_cap 0", |c| {
            c.pipeline.stream.drift_threshold = 1.0;
            c.refresh_queue_cap = 0;
        }),
        ("refresh_queue_cap 1", |c| {
            c.pipeline.stream.drift_threshold = 1.0;
            c.refresh_queue_cap = 1;
        }),
        ("sample_period 1", |c| c.pipeline.sample_period = 1),
        ("drift_threshold 0.0", |c| {
            c.pipeline.stream.drift_threshold = 0.0
        }),
        ("drift_threshold 1.0", |c| {
            c.pipeline.stream.drift_threshold = 1.0
        }),
        ("ingest_shards 0", |c| c.pipeline.ingest_shards = 0),
        ("ingest_shards 7", |c| c.pipeline.ingest_shards = 7),
    ];

    let spec = TenantSpec::single_version(
        TenantId(0),
        tenant_traffic_mix(&workloads::ad_finder().scaled(0.05), 7),
    );
    let specs = std::slice::from_ref(&spec);
    let default_bins = FleetBinaries::compile(specs, &FleetConfig::default()).unwrap();

    for (row, edit) in rows {
        let mut cfg = FleetConfig::default();
        edit(&mut cfg);
        let admitted = match FleetBinaries::compile(specs, &cfg) {
            Ok(bins) => Some(bins),
            Err(FleetError::InvalidConfig(_)) => None,
            Err(e) => panic!("{row}: compile failed untyped for a config error: {e}"),
        };
        let bins = admitted.as_ref().unwrap_or(&default_bins);
        let run = FleetService::new(bins, cfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("{row}: {e}"));
        assert!(run.stats.epochs_sealed >= 2, "{row}: served no traffic");
        assert!(
            run.stats.refreshes_triggered <= cfg.refresh_queue_cap,
            "{row}: more refreshes ran than the queue admits"
        );
        if row.starts_with("refresh_queue_cap") {
            assert_eq!(
                run.stats.refreshes_triggered + run.stats.refreshes_dropped,
                1,
                "{row}: the one stale version is refreshed or counted as dropped"
            );
        }
    }
}
