//! The paper's claims, asserted from the current code.
//!
//! One claim per claim of PAPER.md / EXPERIMENTS.md E1–E12 and E14–E16, read
//! from the cells of `csspgo_bench::figures` at traffic scale 0.25 — the same
//! functions the `figures` bin renders into `results/`. Each claim is a
//! function from the figure tables it reads to a verdict (`mod claim`), and
//! a `#[test]` of the same name calls it. All tests share one context and
//! one rendering per figure, so the default-configuration outcome matrix is
//! computed once for the whole binary.
//!
//! A claim that does not hold today is not banded away: its test is
//! `#[ignore]`d, and the reason carries the id (`KD-n`) and the numbers
//! under which EXPERIMENTS.md records the deviation. `cargo test --test
//! paper_claims -- --ignored` fails on exactly those.
//! `every_known_deviation_still_fails_and_quotes_its_figures` keeps them
//! honest in tier-1: an ignored claim that now holds fails it (fixing one,
//! ROADMAP item 1, means deleting its `#[ignore]`), and so does a reason
//! quoting a number its figures no longer show.

use csspgo_bench::figures::{render, Ctx, REGISTRY};
use csspgo_bench::Table;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

const SERVERS: [&str; 5] = ["ad_ranker", "ad_retriever", "ad_finder", "hhvm", "haas"];

/// The traffic scale every claim reads its figures at.
const SCALE: f64 = 0.25;

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| Ctx::new(SCALE))
}

/// The tables of the registered figure `name`, as `figures` renders them,
/// computed once per test binary.
fn figure(name: &str) -> Vec<Table> {
    type Slots = Mutex<HashMap<&'static str, Arc<OnceLock<Vec<Table>>>>>;
    static RENDERED: OnceLock<Slots> = OnceLock::new();
    let (known, figure) = REGISTRY
        .iter()
        .find(|(known, _)| *known == name)
        .unwrap_or_else(|| panic!("no figure `{name}`"));
    let slots = RENDERED.get_or_init(Slots::default);
    let slot = Arc::clone(slots.lock().unwrap().entry(*known).or_default());
    slot.get_or_init(|| figure(ctx())).clone()
}

/// The figures one claim reads, remembered so that a known deviation's
/// reason can be checked against the figures it cites. A claim reads every
/// figure it needs before its first `ensure!`, so that a failing claim has
/// still cited them all.
#[derive(Default)]
struct Figures {
    cited: RefCell<BTreeSet<&'static str>>,
}

impl Figures {
    /// Every table of figure `name`.
    fn all(&self, name: &'static str) -> Vec<Table> {
        self.cited.borrow_mut().insert(name);
        figure(name)
    }

    /// The first table of a figure (the only one of the paper's own
    /// figures).
    fn table(&self, name: &'static str) -> Table {
        self.all(name).remove(0)
    }
}

/// Whether a claim holds; `Err` says where it does not.
type Verdict = Result<(), String>;

type Claim = fn(&Figures) -> Verdict;

/// Fails the enclosing claim with the formatted message unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($message:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($message)+));
        }
    };
}

/// Defines each claim in `mod claim`, a `#[test]` of the same name (with
/// the claim's attributes, `#[ignore]` included) that asserts it, and
/// `CLAIMS`, every claim by name.
macro_rules! claims {
    ($($(#[$attr:meta])* fn $name:ident($figures:ident) $body:block)*) => {
        mod claim {
            use super::*;
            $(pub fn $name($figures: &Figures) -> Verdict {
                $body
                Ok(())
            })*
        }
        $(#[test] $(#[$attr])* fn $name() {
            if let Err(failed) = claim::$name(&Figures::default()) {
                panic!("{failed}");
            }
        })*
        const CLAIMS: &[(&str, Claim)] = &[$((stringify!($name), claim::$name)),*];
    };
}

/// The number at (`row`, `column`). Asking for a cell that is not there is a
/// bug in the test, not a claim that fails.
fn num(t: &Table, row: &str, column: &str) -> f64 {
    t.get(row, column)
        .unwrap_or_else(|| panic!("no number at ({row}, {column}) in\n{t}"))
}

claims! {
    // ---- E1, Fig. 6 --------------------------------------------------

    fn fig6_full_csspgo_beats_autofdo_on_every_server_workload(f) {
        let t = f.table("fig6_perf");
        for w in SERVERS {
            ensure!(num(&t, w, "full CSSPGO Δ%") > 0.0, "{w}\n{t}");
        }
    }

    fn fig6_full_is_no_worse_than_probe_only_which_is_no_worse_than_autofdo(f) {
        let t = f.table("fig6_perf");
        for w in SERVERS {
            let (probe, full) = (num(&t, w, "probe-only Δ%"), num(&t, w, "full CSSPGO Δ%"));
            ensure!(full >= probe && probe >= -0.05, "{w}\n{t}");
        }
    }

    /// The paper's "substantial fraction" is 38–78% on all five.
    fn fig6_probe_only_alone_is_over_a_third_of_the_gain_on_four_of_five(f) {
        let t = f.table("fig6_perf");
        let over_a_third = |w: &&str| {
            t.get(w, "probe share of gain")
                .is_some_and(|s| s > 100.0 / 3.0)
        };
        ensure!(SERVERS.into_iter().filter(over_a_third).count() >= 4, "{t}");
    }

    #[ignore = "KD-1: on hhvm Instr PGO is 1.50% slower than AutoFDO (full CSSPGO +1.00%), so there is no gap to bridge"]
    fn fig6_hhvm_instr_tops_the_chart_and_csspgo_bridges_most_of_the_gap(f) {
        let t = f.table("fig6_perf");
        let (full, instr) = (
            num(&t, "hhvm", "full CSSPGO Δ%"),
            num(&t, "hhvm", "Instr PGO Δ%"),
        );
        ensure!(instr >= full && full / instr * 100.0 > 60.0, "{t}");
    }

    // ---- E2, Fig. 7 --------------------------------------------------

    #[ignore = "KD-2: full CSSPGO text is <= AutoFDO on 2 of 5 and <= probe-only on 1 of 5; haas +62.31%"]
    fn fig7_full_csspgo_is_smaller_than_autofdo_and_than_probe_only_on_four_of_five(f) {
        let t = f.table("fig7_codesize");
        let (mut no_larger_than_autofdo, mut no_larger_than_probe_only) = (0, 0);
        for w in SERVERS {
            let (probe, full) = (num(&t, w, "probe-only Δ%"), num(&t, w, "full CSSPGO Δ%"));
            no_larger_than_autofdo += usize::from(full <= 0.0);
            no_larger_than_probe_only += usize::from(full <= probe);
        }
        ensure!(
            no_larger_than_autofdo >= 4 && no_larger_than_probe_only >= 4,
            "{t}"
        );
    }

    // ---- E3, Fig. 8 --------------------------------------------------

    fn fig8_probe_overhead_is_below_one_percent_except_on_ad_finder(f) {
        let t = f.table("fig8_overhead");
        for w in SERVERS.into_iter().filter(|&w| w != "ad_finder") {
            ensure!(num(&t, w, "overhead %") < 1.0, "{w}\n{t}");
        }
    }

    #[ignore = "KD-3: ad_finder pays +1.290% for one probe-blocked tail merge (+0.766% at scale 1)"]
    fn fig8_probe_overhead_is_below_one_percent_on_ad_finder(f) {
        let t = f.table("fig8_overhead");
        ensure!(num(&t, "ad_finder", "overhead %") < 1.0, "{t}");
    }

    // ---- E4, Fig. 9 --------------------------------------------------

    fn fig9_probe_metadata_averages_a_quarter_of_the_binary(f) {
        let t = f.table("fig9_metadata");
        let shares = SERVERS.map(|w| num(&t, w, "probe % of total"));
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        ensure!((20.0..=35.0).contains(&mean), "mean {mean}\n{t}");
    }

    // ---- E5, Table I -------------------------------------------------

    fn table1_overlap_orders_autofdo_below_csspgo_below_instrumentation(f) {
        let t = f.table("table1_quality");
        let overlap = |variant| num(&t, "block overlap", variant);
        let (autofdo, probe, full, instr) = (
            overlap("AutoFDO"),
            overlap("CSSPGO (probe-only)"),
            overlap("CSSPGO (full)"),
            overlap("Instr PGO"),
        );
        ensure!(autofdo < probe && probe <= full && full < instr, "{t}");
        ensure!((instr - 100.0).abs() < 1e-9, "{t}");
    }

    fn table1_csspgo_profiles_for_free_and_instrumentation_does_not(f) {
        let t = f.table("table1_quality");
        let overhead = |variant| num(&t, "profiling overhead", variant);
        ensure!(overhead("CSSPGO (probe-only)") < 0.1, "{t}");
        ensure!(overhead("CSSPGO (full)") < 0.1, "{t}");
        ensure!(overhead("Instr PGO") > 50.0, "{t}");
    }

    // ---- E6, §IV.D client workload -----------------------------------

    fn client_sampling_reaches_fewer_functions_than_instrumentation(f) {
        let t = f.table("client_workload");
        let reached = |variant| num(&t, variant, "functions w/ profile");
        ensure!(reached("CSSPGO (full)") < reached("Instr PGO"), "{t}");
    }

    #[ignore = "KD-4: on the client workload full CSSPGO is 3.53% slower than AutoFDO, and Instr PGO leads it by 2.77 pp against 5.05 pp on ad_ranker"]
    fn client_csspgo_beats_autofdo_and_trails_instr_by_more_than_on_any_server(f) {
        let (client, servers) = (f.table("client_workload"), f.table("fig6_perf"));
        let perf = |variant| num(&client, variant, "perf vs AutoFDO");
        ensure!(perf("CSSPGO (full)") >= 0.0, "{client}");
        let lead = perf("Instr PGO") - perf("CSSPGO (full)");
        for w in SERVERS {
            let on_server = num(&servers, w, "Instr PGO Δ%") - num(&servers, w, "full CSSPGO Δ%");
            ensure!(lead > on_server, "{w}\n{client}\n{servers}");
        }
    }

    // ---- E7, probe blocking; E12, the sweep --------------------------

    fn probe_blocking_barrier_costs_more_than_the_production_tuning(f) {
        let t = f.table("ablation_probe_blocking");
        let overhead = |tuning| num(&t, tuning, "overhead vs unprobed");
        ensure!(
            overhead("low-overhead (production)") <= overhead("high-accuracy (barrier)"),
            "{t}"
        );
    }

    #[ignore = "KD-5: the barrier tuning overlaps 98.2% with instrumentation, the production tuning 99.3%"]
    fn probe_blocking_barrier_buys_accuracy(f) {
        let t = f.table("ablation_probe_blocking");
        let overlap = |tuning| num(&t, tuning, "block overlap vs instr");
        ensure!(
            overlap("high-accuracy (barrier)") >= overlap("low-overhead (production)"),
            "{t}"
        );
    }

    fn balance_sweep_overhead_never_falls_along_the_dial(f) {
        let t = f.table("extension_balance_sweep");
        let overheads: Vec<f64> = (t.rows.iter())
            .map(|(tuning, _)| num(&t, tuning, "profiling overhead %"))
            .collect();
        ensure!(overheads.len() == 4, "{t}");
        ensure!(overheads.windows(2).all(|w| w[0] <= w[1]), "{t}");
    }

    // ---- E8, cold-context trimming -----------------------------------

    fn trimming_shrinks_the_trie_monotonically_and_keeps_the_benefit(f) {
        let t = f.table("ablation_ctx_trim");
        let thresholds = ["0", "4", "16", "64", "256"];
        let keys: Vec<&str> = t.rows.iter().map(|(key, _)| key.as_str()).collect();
        ensure!(keys == thresholds, "{t}");
        let after = thresholds.map(|th| num(&t, th, "after"));
        ensure!(after.windows(2).all(|w| w[0] >= w[1]), "{t}");
        ensure!(after[4] < after[0], "{t}");
        for th in thresholds {
            ensure!(
                num(&t, th, "perf vs AutoFDO") >= num(&t, "0", "perf vs AutoFDO"),
                "{t}"
            );
        }
    }

    /// "Comparable in size to regular profile", read as within 2x.
    #[ignore = "KD-9: at threshold 256 the trimmed trie is still 31.0x the flat profile (75.0x at scale 1)"]
    fn trimming_brings_the_context_profile_within_reach_of_the_flat_one(f) {
        let t = f.table("ablation_ctx_trim");
        ensure!(num(&t, "256", "size vs flat") <= 2.0, "{t}");
    }

    // ---- E9, source drift --------------------------------------------

    fn drift_costs_autofdo_and_not_csspgo_which_detects_cfg_changes(f) {
        let t = f.table("drift_resilience");
        ensure!(num(&t, "AutoFDO", "drift penalty %") > 5.0, "{t}");
        ensure!(num(&t, "CSSPGO (full)", "drift penalty %") == 0.0, "{t}");
        ensure!(num(&t, "CSSPGO (full)", "stale fns (comment)") == 0.0, "{t}");
        ensure!(
            num(&t, "CSSPGO (full)", "stale fns (CFG change)") >= 1.0,
            "{t}"
        );
    }

    // ---- E10, tail calls ---------------------------------------------

    fn tail_call_frames_are_recovered_wherever_there_are_gaps(f) {
        let t = f.table("tailcall_recovery");
        let mut with_gaps = 0;
        for w in SERVERS {
            let gaps = num(&t, w, "recovered frames") + num(&t, w, "failed gaps");
            let rate = t.get(w, "recovery rate");
            ensure!(rate.is_some() == (gaps > 0.0), "{w}\n{t}");
            if let Some(rate) = rate {
                ensure!(rate > 200.0 / 3.0, "{w}\n{t}");
                with_gaps += 1;
            }
        }
        ensure!(with_gaps >= 1, "{t}");
    }

    // ---- E11, PEBS ---------------------------------------------------

    fn pebs_gains_at_least_as_much_as_skidding_samples(f) {
        let t = f.table("ablation_pebs");
        let gain = |sampling| num(&t, sampling, "full CSSPGO vs AutoFDO");
        ensure!(gain("PEBS (`:upp`)") >= gain("no PEBS (skid)"), "{t}");
    }

    #[ignore = "KD-6: skid breaks 0 stacks (0 with PEBS) and grows the trie from 7 to 17 nodes instead of shrinking it"]
    fn pebs_skid_breaks_stacks_and_loses_contexts(f) {
        let t = f.table("ablation_pebs");
        let (pebs, skid) = ("PEBS (`:upp`)", "no PEBS (skid)");
        ensure!(
            num(&t, skid, "broken stacks") > num(&t, pebs, "broken stacks"),
            "{t}"
        );
        ensure!(
            num(&t, skid, "trie nodes") < num(&t, pebs, "trie nodes"),
            "{t}"
        );
    }

    // ---- E14, bench_pipeline: ROADMAP item 1's two -------------------
    // (Counter placement, its first table, is held by `tests/placement.rs`.)

    #[ignore = "KD-7: ad_ranker's fresh full-CSSPGO build takes 228455 cycles, its -O2 build 219838"]
    fn fresh_full_csspgo_never_loses_to_o2(f) {
        let t = f.all("bench_pipeline").remove(1);
        for w in SERVERS {
            let cycles = |row| num(&t, &format!("{w} | {row}"), "eval cycles");
            ensure!(cycles("drift-clean") <= cycles("drift-O2"), "{w}\n{t}");
        }
    }

    #[ignore = "KD-8: under change_cfg + Recover + MCF, ad_ranker's drifted build takes 239235 cycles against 219838 at -O2, with no clean win to retain (KD-7); the other four retain 77.5% to 100.3% of theirs"]
    fn a_drifted_recovered_profile_never_loses_to_o2(f) {
        let t = f.all("bench_pipeline").remove(1);
        for w in SERVERS {
            let retained = t.get(&format!("{w} | drift-mcf"), "retained %");
            ensure!(retained.is_some_and(|r| r >= 0.0), "{w}\n{t}");
        }
    }

    // ---- E15, fleet serving ------------------------------------------

    fn fleet_refreshes_the_drifting_tenant_and_only_it_and_holds_the_resident_cap(f) {
        let tables = f.all("profile_fleet");
        let [epochs, _snapshots, refreshes, totals] = &tables[..] else {
            panic!("four tables");
        };
        let cap = num(totals, "resident cap per version", "value");
        let mut stale = 0;
        for (row, _) in &epochs.rows {
            ensure!(num(epochs, row, "resident contexts") <= cap, "{row}");
            if num(epochs, row, "verdict") == 1.0 {
                ensure!(row.starts_with("t2 | haas"), "{row} went stale");
                stale += 1;
            }
        }
        ensure!(num(totals, "subtrees evicted", "value") > 0.0, "{totals}");
        // Two stale verdicts, one queue slot: one rebuild, one counted drop.
        ensure!(stale == 2, "{epochs}");
        ensure!(num(totals, "refreshes run", "value") == 1.0, "{totals}");
        ensure!(num(totals, "refreshes dropped", "value") == 1.0, "{totals}");
        ensure!(
            num(refreshes, "t2 | v0", "eval cycles") > 0.0,
            "{refreshes}"
        );
    }

    // ---- E16, release trains: one table per train (`ad_finder`, `haas`),
    // then the train-wide one ------------------------------------------

    fn a_live_refreshed_train_retains_more_of_the_oracle_win_than_never_refreshing(f) {
        let trains = f.all("release_train");
        let (wide, per_train) = trains.split_last().expect("three tables");
        ensure!(per_train.len() == 2, "{wide}");
        for train in ["ad_finder", "haas"] {
            let retention = |who| num(wide, train, who);
            ensure!(
                retention("train retention %") > retention("floor retention %"),
                "{train}\n{wide}"
            );
        }
    }

    fn every_release_computes_what_its_o2_build_computes(f) {
        for t in &f.all("release_train")[..2] {
            ensure!(t.rows.len() == 5, "{t}");
            for (release, _) in &t.rows {
                ensure!(num(t, release, "behaviour") == 1.0, "{release}\n{t}");
            }
        }
    }

    fn no_promoted_release_is_slower_than_its_o2_build(f) {
        for t in &f.all("release_train")[..2] {
            for (release, _) in &t.rows {
                let promoted = num(t, release, "canary") == 1.0;
                ensure!(
                    !promoted || num(t, release, "pgo") <= num(t, release, "o2"),
                    "{release}\n{t}"
                );
            }
        }
    }
}

// ---- known deviations <-> their figures -------------------------------

/// `(test name, ignore reason)` of every `#[ignore]`d claim in this file.
fn known_deviations() -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/paper_claims.rs");
    let source = std::fs::read_to_string(path).expect("tests/paper_claims.rs");
    let mut lines = source.lines().map(str::trim);
    let mut found = Vec::new();
    while let Some(line) = lines.next() {
        let Some(reason) = line.strip_prefix("#[ignore = \"") else {
            continue;
        };
        let reason = reason.strip_suffix("\"]").expect("one-line ignore reason");
        let name = lines
            .find_map(|l| l.strip_prefix("fn "))
            .and_then(|l| l.split('(').next())
            .expect("an ignored claim");
        found.push((name.to_string(), reason.to_string()));
    }
    found
}

/// The numbers of `text` with their byte offsets: runs of digits with at
/// most one inner `.`, not part of a word (`O2`, `r3`, `KD-7`). A `-` right
/// before one makes it negative.
fn numbers(text: &str) -> Vec<(usize, &str, f64)> {
    let b = text.as_bytes();
    let word = |i: usize| b[i].is_ascii_alphanumeric() || b[i] == b'_';
    let mut found = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let glued = i > 0 && (word(i - 1) || (b[i - 1] == b'-' && i > 1 && word(i - 2)));
        if !b[i].is_ascii_digit() || glued {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len()
            && (b[i].is_ascii_digit()
                || (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
        {
            i += 1;
        }
        let token = &text[start..i];
        let sign = if start > 0 && b[start - 1] == b'-' {
            -1.0
        } else {
            1.0
        };
        found.push((start, token, sign * token.parse::<f64>().expect("a number")));
        while i < b.len() && word(i) {
            i += 1;
        }
    }
    found
}

/// `(id, the number)` of every row of EXPERIMENTS.md's known-deviation
/// table: `| KD-n | experiment | the claim that fails | the number |`.
fn known_deviation_rows() -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let experiments = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
    (experiments.lines())
        .filter(|l| l.starts_with("| KD-"))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 6, "four cells in {row}");
            (cells[1].to_string(), cells[4].to_string())
        })
        .collect()
}

/// The numbers of a known deviation's text (its ignore reason past the
/// `KD-n` id, or the last cell of its EXPERIMENTS.md row) that the figures
/// it `cited` do not show. A number is looked up among the numbers of the figures
/// rendered at the claims' scale, or, when followed by "at scale 1" (past
/// a `%`, `x` or `×` sign), in `results/`, which `tests/results.rs` holds
/// equal to the scale-1 rendering. A difference in percentage points
/// ("2.77 pp") must be the difference of two numbers shown; a tally ("2 of
/// 5") is the claim's own count and is not looked up.
fn unquoted(text: &str, cited: &BTreeSet<&'static str>) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut here, mut at_scale_1) = (String::new(), String::new());
    for &name in cited {
        here += &render(&figure(name));
        let path = root.join(format!("results/{name}.txt"));
        at_scale_1 += &std::fs::read_to_string(path).expect("a results file");
    }
    let shown = |rendering: &str| -> Vec<(String, f64)> {
        (numbers(rendering).into_iter())
            .map(|(_, token, value)| (token.to_string(), value))
            .collect()
    };
    let (here, at_scale_1) = (shown(&here), shown(&at_scale_1));
    let mut missing = Vec::new();
    let mut tally = false;
    for (at, token, _) in numbers(text) {
        let after = text[at + token.len()..].trim_start_matches(['%', 'x', '×']);
        if std::mem::take(&mut tally) || text[..at].ends_with("scale ") {
            continue;
        }
        if after.starts_with(" of ") {
            tally = true;
            continue;
        }
        let decimals = token.split_once('.').map_or(0, |(_, d)| d.len());
        let found = if after.starts_with(" pp") {
            (here.iter()).any(|(_, a)| {
                (here.iter()).any(|(_, b)| format!("{:.*}", decimals, a - b) == token)
            })
        } else if after.starts_with(" at scale 1") {
            at_scale_1.iter().any(|(shown, _)| shown == token)
        } else {
            here.iter().any(|(shown, _)| shown == token)
        };
        if !found {
            missing.push(format!("{token} is not in {cited:?}"));
        }
    }
    missing
}

/// ROADMAP item 17: every `#[ignore]`d claim still fails, so a fixed known
/// deviation cannot stay ignored; EXPERIMENTS.md's table has one row per
/// ignored claim and no other; and every number its reason and its row
/// quote is in a figure the claim reads, so neither carries a stale number.
#[test]
fn every_known_deviation_still_fails_and_quotes_its_figures() {
    let deviations = known_deviations();
    assert!(!deviations.is_empty(), "no #[ignore]d claim found");
    let rows: BTreeMap<String, String> = known_deviation_rows().into_iter().collect();
    let ids: BTreeSet<&str> = (deviations.iter())
        .map(|(_, reason)| reason.split_once(": ").expect("`KD-n: …`").0)
        .collect();
    assert_eq!(
        rows.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        ids,
        "EXPERIMENTS.md's KD rows (left) must be exactly the ignored claims (right)"
    );
    let mut wrong = Vec::new();
    for (name, reason) in &deviations {
        let (_, claim) = (CLAIMS.iter())
            .find(|(known, _)| known == name)
            .unwrap_or_else(|| panic!("`{name}` is not a claim"));
        let figures = Figures::default();
        if claim(&figures).is_ok() {
            wrong.push(format!(
                "{reason}\n  `{name}` now holds: delete its #[ignore] and its row in EXPERIMENTS.md"
            ));
        }
        let (id, text) = reason.split_once(": ").expect("`KD-n: …`");
        let row = &rows[id];
        let cited = figures.cited.borrow();
        for number in unquoted(text, &cited) {
            wrong.push(format!("{reason}\n  {number}"));
        }
        for number in unquoted(row, &cited) {
            wrong.push(format!("EXPERIMENTS.md {id}: {row}\n  {number}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
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
