//! Bit-identity oracle for the simulator: every observable of a run — the
//! [`RunStats`], every request's result, every field of every PMU
//! [`Sample`], the instrumentation counters and the final data memory — of
//! the six `csspgo_workloads` programs under four machine configurations,
//! pinned in `tests/golden/sim_runs.json`. The golden was written by the
//! `VecDeque`/`Vec<i64>`-per-frame interpreter that preceded the pre-decoded
//! core (ISSUE 15) and must never be re-blessed for a change that only
//! means to make the simulator faster (`BLESS=1 cargo test --test sim_runs`
//! is for an intended change to the cost model or the PMU).

use csspgo::core::pipeline::{profiling_build, staged_machine, PgoVariant, PipelineConfig};
use csspgo::sim::{Sample, SimConfig};

mod common;
#[path = "common/golden.rs"]
mod golden;
use golden::Fnv;

/// Folds every field of `s` into `h`, word by word.
fn hash_sample(h: &mut Fnv, s: &Sample) {
    h.word(s.cycle).word(s.pc).word(s.lbr.len() as u64);
    for &(from, to) in &s.lbr {
        h.word(from).word(to);
    }
    h.word(s.stack.len() as u64);
    for &a in &s.stack {
        h.word(a);
    }
}

/// The four machine configurations: which build, and how the PMU is set.
fn cases() -> [(&'static str, PgoVariant, SimConfig); 4] {
    let sim = |sample_period, pebs, lbr_size| SimConfig {
        sample_period,
        pebs,
        lbr_size,
        ..SimConfig::default()
    };
    [
        ("o2/pmu_off", PgoVariant::AutoFdo, sim(0, true, 16)),
        (
            "probes/p199/pebs",
            PgoVariant::CsspgoFull,
            sim(199, true, 16),
        ),
        (
            "probes/p61/skid/lbr4",
            PgoVariant::CsspgoFull,
            sim(61, false, 4),
        ),
        ("instr/pmu_off", PgoVariant::Instr, sim(0, true, 16)),
    ]
}

#[test]
fn every_run_matches_golden() {
    let config = PipelineConfig::builder().build().expect("default config");
    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());

    let mut rows = Vec::new();
    for w in workloads {
        let w = w.scaled(0.1);
        for (label, variant, sim) in cases() {
            let binary = profiling_build(&w.source, &w.name, variant, &config)
                .expect("workload compiles")
                .binary;
            let mut machine = staged_machine(&binary, &w, sim).expect("globals stage");
            let mut results = Fnv::new();
            for args in w.train_calls.iter().chain(&w.eval_calls) {
                let r = machine.call(&w.entry, args).expect("request completes");
                results.word(r as u64);
            }
            let samples = machine.take_samples();
            let mut sample_hash = Fnv::new();
            let mut lbr_entries = 0usize;
            for s in &samples {
                hash_sample(&mut sample_hash, s);
                lbr_entries += s.lbr.len();
            }
            let mut counters = Fnv::new();
            for &c in machine.counters() {
                counters.word(c);
            }
            let mut globals = Fnv::new();
            for g in &binary.globals {
                let values = machine.global(&g.name).expect("global exists");
                globals.word(values.len() as u64);
                for &v in values {
                    globals.word(v as u64);
                }
            }

            rows.push(golden::object(&[
                ("case", format!("\"{}/{label}\"", w.name)),
                ("insts", binary.len().to_string()),
                ("stats", common::run_stats_json(machine.stats())),
                ("results_fnv", results.0.to_string()),
                ("samples", samples.len().to_string()),
                ("lbr_entries", lbr_entries.to_string()),
                ("samples_fnv", sample_hash.0.to_string()),
                ("counters", machine.counters().len().to_string()),
                ("counters_fnv", counters.0.to_string()),
                ("globals_fnv", globals.0.to_string()),
            ]));
        }
    }
    golden::check(
        "tests/golden/sim_runs.json",
        golden::array(&rows),
        "a simulator run drifted from the golden; re-bless only for an \
         intended change to the cost model or the PMU",
    );
}
