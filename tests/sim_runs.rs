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
use csspgo::sim::{RunStats, Sample, SimConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn sample(&mut self, s: &Sample) {
        self.word(s.cycle);
        self.word(s.pc);
        self.word(s.lbr.len() as u64);
        for &(from, to) in &s.lbr {
            self.word(from);
            self.word(to);
        }
        self.word(s.stack.len() as u64);
        for &a in &s.stack {
            self.word(a);
        }
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

fn stats_json(s: &RunStats) -> String {
    format!(
        "{{\"cycles\": {}, \"instructions\": {}, \"taken_branches\": {}, \"mispredicts\": {}, \
         \"icache_misses\": {}, \"calls\": {}, \"samples\": {}}}",
        s.cycles,
        s.instructions,
        s.taken_branches,
        s.mispredicts,
        s.icache_misses,
        s.calls,
        s.samples
    )
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
                sample_hash.sample(s);
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

            let mut out = String::new();
            writeln!(out, "  {{").unwrap();
            writeln!(out, "    \"case\": \"{}/{label}\",", w.name).unwrap();
            writeln!(out, "    \"insts\": {},", binary.len()).unwrap();
            writeln!(out, "    \"stats\": {},", stats_json(machine.stats())).unwrap();
            writeln!(out, "    \"results_fnv\": {},", results.0).unwrap();
            writeln!(out, "    \"samples\": {},", samples.len()).unwrap();
            writeln!(out, "    \"lbr_entries\": {lbr_entries},").unwrap();
            writeln!(out, "    \"samples_fnv\": {},", sample_hash.0).unwrap();
            writeln!(out, "    \"counters\": {},", machine.counters().len()).unwrap();
            writeln!(out, "    \"counters_fnv\": {},", counters.0).unwrap();
            writeln!(out, "    \"globals_fnv\": {}", globals.0).unwrap();
            write!(out, "  }}").unwrap();
            rows.push(out);
        }
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));

    let golden: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "sim_runs.json",
    ]
    .iter()
    .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &json).expect("bless golden");
        return;
    }
    let pinned = std::fs::read_to_string(&golden)
        .expect("golden missing — run `BLESS=1 cargo test --test sim_runs` to create it");
    assert_eq!(
        json, pinned,
        "a simulator run drifted from the golden; re-bless only for an \
         intended change to the cost model or the PMU"
    );
}
