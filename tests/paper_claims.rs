//! The paper's claims, asserted from the current code.
//!
//! One test per claim of PAPER.md / EXPERIMENTS.md E1–E12 and E14–E16, read
//! from the cells of `csspgo_bench::figures` at traffic scale 0.25 — the same
//! functions the `figures` bin renders into `results/`. All tests share one
//! context, so the default-configuration outcome matrix is computed once
//! for the whole binary.
//!
//! A claim that does not hold today is not banded away: it is an
//! `#[ignore]`d test that states the claim, and its reason carries the id
//! (`KD-n`) and the number under which EXPERIMENTS.md records the
//! deviation. `cargo test --test paper_claims -- --ignored` fails on
//! exactly those; fixing one (ROADMAP item 1) means deleting its
//! `#[ignore]`.

use csspgo_bench::figures::{Ctx, REGISTRY};
use csspgo_bench::Table;
use std::path::Path;
use std::sync::OnceLock;

const SERVERS: [&str; 5] = ["ad_ranker", "ad_retriever", "ad_finder", "hhvm", "haas"];

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| Ctx::new(0.25))
}

/// The tables of the registered figure `name`, as `figures` renders them.
fn figure(name: &str) -> Vec<Table> {
    let (_, figure) = REGISTRY
        .iter()
        .find(|(known, _)| *known == name)
        .unwrap_or_else(|| panic!("no figure `{name}`"));
    figure(ctx())
}

/// The first table of a figure (the only one of the paper's own figures).
fn table(name: &str) -> Table {
    figure(name).remove(0)
}

/// The number at (`row`, `column`). Asking for a cell that is not there is a
/// bug in the test, not a claim that fails.
fn num(t: &Table, row: &str, column: &str) -> f64 {
    t.get(row, column)
        .unwrap_or_else(|| panic!("no number at ({row}, {column}) in\n{t}"))
}

// ---- E1, Fig. 6 ------------------------------------------------------

#[test]
fn fig6_full_csspgo_beats_autofdo_on_every_server_workload() {
    let t = table("fig6_perf");
    for w in SERVERS {
        assert!(num(&t, w, "full CSSPGO Δ%") > 0.0, "{w}\n{t}");
    }
}

#[test]
fn fig6_full_is_no_worse_than_probe_only_which_is_no_worse_than_autofdo() {
    let t = table("fig6_perf");
    for w in SERVERS {
        let (probe, full) = (num(&t, w, "probe-only Δ%"), num(&t, w, "full CSSPGO Δ%"));
        assert!(full >= probe && probe >= -0.05, "{w}\n{t}");
    }
}

/// The paper's "substantial fraction" is 38–78% on all five.
#[test]
fn fig6_probe_only_alone_is_over_a_third_of_the_gain_on_four_of_five() {
    let t = table("fig6_perf");
    let over_a_third = |w: &&str| {
        t.get(w, "probe share of gain")
            .is_some_and(|s| s > 100.0 / 3.0)
    };
    assert!(SERVERS.into_iter().filter(over_a_third).count() >= 4, "{t}");
}

#[test]
#[ignore = "KD-1: on hhvm Instr PGO is 1.50% slower than AutoFDO (full CSSPGO +1.00%), so there is no gap to bridge"]
fn fig6_hhvm_instr_tops_the_chart_and_csspgo_bridges_most_of_the_gap() {
    let t = table("fig6_perf");
    let (full, instr) = (
        num(&t, "hhvm", "full CSSPGO Δ%"),
        num(&t, "hhvm", "Instr PGO Δ%"),
    );
    assert!(instr >= full && full / instr * 100.0 > 60.0, "{t}");
}

// ---- E2, Fig. 7 ------------------------------------------------------

#[test]
#[ignore = "KD-2: full CSSPGO text is <= AutoFDO on 2 of 5 and <= probe-only on 1 of 5; haas +62.31%"]
fn fig7_full_csspgo_is_smaller_than_autofdo_and_than_probe_only_on_four_of_five() {
    let t = table("fig7_codesize");
    let (mut no_larger_than_autofdo, mut no_larger_than_probe_only) = (0, 0);
    for w in SERVERS {
        let (probe, full) = (num(&t, w, "probe-only Δ%"), num(&t, w, "full CSSPGO Δ%"));
        no_larger_than_autofdo += usize::from(full <= 0.0);
        no_larger_than_probe_only += usize::from(full <= probe);
    }
    assert!(
        no_larger_than_autofdo >= 4 && no_larger_than_probe_only >= 4,
        "{t}"
    );
}

// ---- E3, Fig. 8 ------------------------------------------------------

#[test]
fn fig8_probe_overhead_is_below_one_percent_except_on_ad_finder() {
    let t = table("fig8_overhead");
    for w in SERVERS.into_iter().filter(|&w| w != "ad_finder") {
        assert!(num(&t, w, "overhead %") < 1.0, "{w}\n{t}");
    }
}

#[test]
#[ignore = "KD-3: ad_finder pays +1.290% for one probe-blocked tail merge (+0.766% at scale 1)"]
fn fig8_probe_overhead_is_below_one_percent_on_ad_finder() {
    let t = table("fig8_overhead");
    assert!(num(&t, "ad_finder", "overhead %") < 1.0, "{t}");
}

// ---- E4, Fig. 9 ------------------------------------------------------

#[test]
fn fig9_probe_metadata_averages_a_quarter_of_the_binary() {
    let t = table("fig9_metadata");
    let shares = SERVERS.map(|w| num(&t, w, "probe % of total"));
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    assert!((20.0..=35.0).contains(&mean), "mean {mean}\n{t}");
}

// ---- E5, Table I -----------------------------------------------------

#[test]
fn table1_overlap_orders_autofdo_below_csspgo_below_instrumentation() {
    let t = table("table1_quality");
    let overlap = |variant| num(&t, "block overlap", variant);
    let (autofdo, probe, full, instr) = (
        overlap("AutoFDO"),
        overlap("CSSPGO (probe-only)"),
        overlap("CSSPGO (full)"),
        overlap("Instr PGO"),
    );
    assert!(autofdo < probe && probe <= full && full < instr, "{t}");
    assert!((instr - 100.0).abs() < 1e-9, "{t}");
}

#[test]
fn table1_csspgo_profiles_for_free_and_instrumentation_does_not() {
    let t = table("table1_quality");
    let overhead = |variant| num(&t, "profiling overhead", variant);
    assert!(overhead("CSSPGO (probe-only)") < 0.1, "{t}");
    assert!(overhead("CSSPGO (full)") < 0.1, "{t}");
    assert!(overhead("Instr PGO") > 50.0, "{t}");
}

// ---- E6, §IV.D client workload ---------------------------------------

#[test]
fn client_sampling_reaches_fewer_functions_than_instrumentation() {
    let t = table("client_workload");
    let reached = |variant| num(&t, variant, "functions w/ profile");
    assert!(reached("CSSPGO (full)") < reached("Instr PGO"), "{t}");
}

#[test]
#[ignore = "KD-4: on the client workload full CSSPGO is 3.53% slower than AutoFDO, and Instr PGO leads it by 2.77 pp against 5.05 pp on ad_ranker"]
fn client_csspgo_beats_autofdo_and_trails_instr_by_more_than_on_any_server() {
    let client = table("client_workload");
    let perf = |variant| num(&client, variant, "perf vs AutoFDO");
    assert!(perf("CSSPGO (full)") >= 0.0, "{client}");
    let servers = table("fig6_perf");
    let lead = perf("Instr PGO") - perf("CSSPGO (full)");
    for w in SERVERS {
        let on_server = num(&servers, w, "Instr PGO Δ%") - num(&servers, w, "full CSSPGO Δ%");
        assert!(lead > on_server, "{w}\n{client}\n{servers}");
    }
}

// ---- E7, probe blocking; E12, the sweep ------------------------------

#[test]
fn probe_blocking_barrier_costs_more_than_the_production_tuning() {
    let t = table("ablation_probe_blocking");
    let overhead = |tuning| num(&t, tuning, "overhead vs unprobed");
    assert!(
        overhead("low-overhead (production)") <= overhead("high-accuracy (barrier)"),
        "{t}"
    );
}

#[test]
#[ignore = "KD-5: the barrier tuning overlaps 98.2% with instrumentation, the production tuning 99.3%"]
fn probe_blocking_barrier_buys_accuracy() {
    let t = table("ablation_probe_blocking");
    let overlap = |tuning| num(&t, tuning, "block overlap vs instr");
    assert!(
        overlap("high-accuracy (barrier)") >= overlap("low-overhead (production)"),
        "{t}"
    );
}

#[test]
fn balance_sweep_overhead_never_falls_along_the_dial() {
    let t = table("extension_balance_sweep");
    let overheads: Vec<f64> = (t.rows.iter())
        .map(|(tuning, _)| num(&t, tuning, "profiling overhead %"))
        .collect();
    assert_eq!(overheads.len(), 4, "{t}");
    assert!(overheads.windows(2).all(|w| w[0] <= w[1]), "{t}");
}

// ---- E8, cold-context trimming ---------------------------------------

#[test]
fn trimming_shrinks_the_trie_monotonically_and_keeps_the_benefit() {
    let t = table("ablation_ctx_trim");
    let thresholds = ["0", "4", "16", "64", "256"];
    let keys: Vec<&str> = t.rows.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, thresholds, "{t}");
    let after = thresholds.map(|th| num(&t, th, "after"));
    assert!(after.windows(2).all(|w| w[0] >= w[1]), "{t}");
    assert!(after[4] < after[0], "{t}");
    for th in thresholds {
        assert!(
            num(&t, th, "perf vs AutoFDO") >= num(&t, "0", "perf vs AutoFDO"),
            "{t}"
        );
    }
}

/// "Comparable in size to regular profile", read as within 2x.
#[test]
#[ignore = "KD-9: at threshold 256 the trimmed trie is still 31.0x the flat profile (75.0x at scale 1)"]
fn trimming_brings_the_context_profile_within_reach_of_the_flat_one() {
    let t = table("ablation_ctx_trim");
    assert!(num(&t, "256", "size vs flat") <= 2.0, "{t}");
}

// ---- E9, source drift ------------------------------------------------

#[test]
fn drift_costs_autofdo_and_not_csspgo_which_detects_cfg_changes() {
    let t = table("drift_resilience");
    assert!(num(&t, "AutoFDO", "drift penalty %") > 5.0, "{t}");
    assert_eq!(num(&t, "CSSPGO (full)", "drift penalty %"), 0.0, "{t}");
    assert_eq!(num(&t, "CSSPGO (full)", "stale fns (comment)"), 0.0, "{t}");
    assert!(
        num(&t, "CSSPGO (full)", "stale fns (CFG change)") >= 1.0,
        "{t}"
    );
}

// ---- E10, tail calls -------------------------------------------------

#[test]
fn tail_call_frames_are_recovered_wherever_there_are_gaps() {
    let t = table("tailcall_recovery");
    let mut with_gaps = 0;
    for w in SERVERS {
        let gaps = num(&t, w, "recovered frames") + num(&t, w, "failed gaps");
        let rate = t.get(w, "recovery rate");
        assert_eq!(rate.is_some(), gaps > 0.0, "{w}\n{t}");
        if let Some(rate) = rate {
            assert!(rate > 200.0 / 3.0, "{w}\n{t}");
            with_gaps += 1;
        }
    }
    assert!(with_gaps >= 1, "{t}");
}

// ---- E11, PEBS -------------------------------------------------------

#[test]
fn pebs_gains_at_least_as_much_as_skidding_samples() {
    let t = table("ablation_pebs");
    let gain = |sampling| num(&t, sampling, "full CSSPGO vs AutoFDO");
    assert!(gain("PEBS (`:upp`)") >= gain("no PEBS (skid)"), "{t}");
}

#[test]
#[ignore = "KD-6: skid breaks 0 stacks (0 with PEBS) and grows the trie from 7 to 17 nodes instead of shrinking it"]
fn pebs_skid_breaks_stacks_and_loses_contexts() {
    let t = table("ablation_pebs");
    let (pebs, skid) = ("PEBS (`:upp`)", "no PEBS (skid)");
    assert!(
        num(&t, skid, "broken stacks") > num(&t, pebs, "broken stacks"),
        "{t}"
    );
    assert!(
        num(&t, skid, "trie nodes") < num(&t, pebs, "trie nodes"),
        "{t}"
    );
}

// ---- E14, bench_pipeline: ROADMAP item 1's two -----------------------
// (Counter placement, its first table, is held by `tests/placement.rs`.)

#[test]
#[ignore = "KD-7: ad_ranker's fresh full-CSSPGO build takes 228455 cycles, its -O2 build 219838"]
fn fresh_full_csspgo_never_loses_to_o2() {
    let t = figure("bench_pipeline").remove(1);
    for w in SERVERS {
        let cycles = |row| num(&t, &format!("{w} | {row}"), "eval cycles");
        assert!(cycles("drift-clean") <= cycles("drift-O2"), "{w}\n{t}");
    }
}

#[test]
#[ignore = "KD-8: under change_cfg + Recover + MCF, ad_retriever retains -4.1% of the clean win, ad_finder -0.2%, haas -145.4% (ad_ranker has no win to retain)"]
fn a_drifted_recovered_profile_never_loses_to_o2() {
    let t = figure("bench_pipeline").remove(1);
    for w in SERVERS {
        let retained = t.get(&format!("{w} | drift-mcf"), "retained %");
        assert!(retained.is_some_and(|r| r >= 0.0), "{w}\n{t}");
    }
}

// ---- E15, fleet serving ----------------------------------------------

#[test]
fn fleet_refreshes_the_drifting_tenant_and_only_it_and_holds_the_resident_cap() {
    let tables = figure("profile_fleet");
    let [epochs, _snapshots, refreshes, totals] = &tables[..] else {
        panic!("four tables");
    };
    let cap = num(totals, "resident cap per version", "value");
    let mut stale = 0;
    for (row, _) in &epochs.rows {
        assert!(num(epochs, row, "resident contexts") <= cap, "{row}");
        if num(epochs, row, "verdict") == 1.0 {
            assert!(row.starts_with("t2 | haas"), "{row} went stale");
            stale += 1;
        }
    }
    assert!(num(totals, "subtrees evicted", "value") > 0.0, "{totals}");
    // Two stale verdicts, one queue slot: one rebuild, one counted drop.
    assert_eq!(stale, 2, "{epochs}");
    assert_eq!(num(totals, "refreshes run", "value"), 1.0, "{totals}");
    assert_eq!(num(totals, "refreshes dropped", "value"), 1.0, "{totals}");
    assert!(
        num(refreshes, "t2 | v0", "eval cycles") > 0.0,
        "{refreshes}"
    );
}

// ---- E16, release trains ---------------------------------------------

/// One table per train (`ad_finder`, `haas`), then the train-wide one.
fn trains() -> &'static [Table] {
    static TRAINS: OnceLock<Vec<Table>> = OnceLock::new();
    TRAINS.get_or_init(|| figure("release_train"))
}

#[test]
fn a_live_refreshed_train_retains_more_of_the_oracle_win_than_never_refreshing() {
    let (wide, per_train) = trains().split_last().expect("three tables");
    assert_eq!(per_train.len(), 2);
    for train in ["ad_finder", "haas"] {
        let retention = |who| num(wide, train, who);
        assert!(
            retention("train retention %") > retention("floor retention %"),
            "{train}\n{wide}"
        );
    }
}

#[test]
fn every_release_computes_what_its_o2_build_computes() {
    for t in &trains()[..2] {
        assert_eq!(t.rows.len(), 5, "{t}");
        for (release, _) in &t.rows {
            assert_eq!(num(t, release, "behaviour"), 1.0, "{release}\n{t}");
        }
    }
}

#[test]
#[ignore = "KD-10: r3 bump_dependency is promoted at 212961 cycles against 205332 at -O2 on ad_finder, and at 4220 against 4196 on haas"]
fn no_promoted_release_is_slower_than_its_o2_build() {
    for t in &trains()[..2] {
        for (release, _) in &t.rows {
            let promoted = num(t, release, "canary") == 1.0;
            assert!(
                !promoted || num(t, release, "pgo") <= num(t, release, "o2"),
                "{release}\n{t}"
            );
        }
    }
}

// ---- registry <-> results/ <-> EXPERIMENTS.md -------------------------

/// CI regenerates `results/` and fails on any diff; this keeps the three
/// lists of experiment names from drifting apart.
#[test]
fn every_figure_has_a_results_file_and_an_experiments_section() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut expected = vec!["csspgo_lint.txt".to_string()];
    for (name, _) in REGISTRY {
        let heading = experiments
            .lines()
            .find(|l| l.starts_with("## ") && l.contains(&format!("(`{name}`)")));
        assert!(
            heading.is_some(),
            "no `## … (`{name}`)` section in EXPERIMENTS.md"
        );
        expected.push(format!("{name}.txt"));
    }
    let mut found: Vec<String> = std::fs::read_dir(root.join("results"))
        .expect("results/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    found.sort();
    expected.sort();
    assert_eq!(
        found, expected,
        "results/ must hold one file per figure plus csspgo_lint.txt"
    );
}
