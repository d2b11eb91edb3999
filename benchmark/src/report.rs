//! What the benchmark prints and writes, and `--compare`.

use crate::metrics::END_TO_END;
use crate::runner::{Metric, RunResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One complete set of runs: every workload, untraced and traced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: u64,
    pub rustc: String,
    pub git_commit: String,
    pub runs: Vec<RunResult>,
}

/// The contract's result object: the last line a single run prints.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ValueUnit>,
}

#[derive(Serialize)]
struct ValueUnit {
    value: f64,
    unit: String,
}

/// The result object of `run`, as one line of JSON.
pub fn result_line(run: &RunResult) -> String {
    let line = ResultLine {
        correct: run.correct,
        attempted: run.attempted,
        failed: run.failed,
        metrics: run
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    ValueUnit {
                        value: m.value,
                        unit: m.unit.clone(),
                    },
                )
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("plain structs serialise")
}

/// Every metric of `run` by name, with unit, spread and provenance.
pub fn table(run: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}, {} rounds, {}) ==",
        run.workload,
        run.seed,
        run.rounds,
        if run.trace { "traced" } else { "untraced" }
    );
    for (name, m) in &run.metrics {
        let tail = m.percentile.map_or(String::new(), |p| format!(" p{p:.0}"));
        let _ = writeln!(
            out,
            "  {name:<30} {:>16.4} {:<11} n={:<6} [{}]{tail}",
            m.value, m.unit, m.n, m.source
        );
    }
    if !run.layer_share_pct.is_empty() {
        let mut shares: Vec<(&String, &f64)> = run.layer_share_pct.iter().collect();
        shares.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap_or(std::cmp::Ordering::Equal));
        let line: Vec<String> = shares
            .iter()
            .map(|(layer, pct)| format!("{layer} {pct:.1}%"))
            .collect();
        let _ = writeln!(
            out,
            "  layer shares of the traced rounds: {}",
            line.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "  operations: {} attempted, {} failed",
        run.attempted, run.failed
    );
    for msg in &run.messages {
        let _ = writeln!(out, "  FAILED: {msg}");
    }
    out
}

/// How `b` stands against `a` on one metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges `b` against baseline `a` for a metric with the given direction
/// and bound: `Unresolved` when either side's own split-half estimates lie
/// further apart than the bound (the run does not reproduce itself well
/// enough to resolve the bound), unless both of `b`'s are better than both
/// of `a`'s; otherwise `Worse` when `b`'s value is worse than `a`'s by more
/// than the bound.
pub fn judge(a: &Metric, b: &Metric, higher_is_better: bool, bound: f64) -> Verdict {
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better {
        (a.value - b.value) / base
    } else {
        (b.value - a.value) / base
    };
    let spread = |m: &Metric| (m.hi - m.lo).abs() / m.value.abs().max(f64::MIN_POSITIVE);
    let clearly_better = if higher_is_better {
        b.lo > a.hi
    } else {
        b.hi < a.lo
    };
    if (spread(a) > bound || spread(b) > bound) && !clearly_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares two reports row by row. Returns the table and whether every
/// row is `ok`.
pub fn compare(a: &Report, b: &Report) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "A: seed {} commit {}   B: seed {} commit {}",
        a.seed, a.git_commit, b.seed, b.git_commit
    );
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for run_a in a.runs.iter().filter(|r| !r.trace) {
        let Some(run_b) = b
            .runs
            .iter()
            .find(|r| !r.trace && r.workload == run_a.workload)
        else {
            let _ = writeln!(out, "{:<14} missing from B", run_a.workload);
            all_ok = false;
            continue;
        };
        for (name, _, higher, bound) in END_TO_END {
            let (Some(ma), Some(mb)) = (run_a.metrics.get(name), run_b.metrics.get(name)) else {
                let _ = writeln!(out, "{:<14} {name:<22} missing", run_a.workload);
                all_ok = false;
                continue;
            };
            let verdict = judge(ma, mb, higher, bound);
            all_ok &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<14} {name:<22} {:>14.4} {:>14.4} {:>9.4} {:>6.1}%  {}",
                run_a.workload,
                ma.value,
                mb.value,
                mb.value / ma.value,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if !(run_a.correct && run_b.correct) {
            let _ = writeln!(out, "{:<14} a run reported failures", run_a.workload);
            all_ok = false;
        }
    }
    (out, all_ok)
}
