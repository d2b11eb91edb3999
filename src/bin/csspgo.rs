//! `csspgo` — the command-line driver tying the toolchain together, in the
//! shape of the paper's workflow (`clang` + `perf` + `llvm-profgen`):
//!
//! ```text
//! csspgo compile service.mini -o service.bin --probes
//! csspgo run service.bin --entry serve --args 3,1 --repeat 100 \
//!        --sample-period 199 --samples-out samples.json
//! csspgo profgen service.bin --samples samples.json --format context -o service.prof
//! csspgo show service.prof
//! csspgo pgo service.mini --entry serve --variant csspgo --train 3,1 --eval 4,2
//! ```
//!
//! Everything is file-based: binaries and samples serialize as JSON,
//! profiles as [`csspgo::core::binprof`] documents, the one profile format
//! the tools read. `show` prints a profile as the LLVM-style text of
//! [`csspgo::core::textprof`], which is output only.

use csspgo::codegen::{lower_module, Binary, CodegenConfig};
use csspgo::core::binprof::{self, DecodeError};
use csspgo::core::merge::{merge_flat, merge_tries};
use csspgo::core::pipeline::{
    autofdo_profile, context_profile, prepared_module, probe_only_profile, run_pgo_cycle,
    PgoVariant, PipelineConfig,
};
use csspgo::core::textprof;
use csspgo::core::Workload;
use csspgo::sim::{Machine, Sample, SimConfig, SimError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("profgen") => cmd_profgen(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        Some("pgo") => cmd_pgo(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `csspgo help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("csspgo: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        r#"csspgo — context-sensitive sampling-based PGO toolchain

USAGE:
  csspgo compile <src> -o <out.bin> [--probes] [--instrument] [--no-opt]
  csspgo run <bin> --entry <fn> [--args a,b] [--repeat N]
             [--sample-period N] [--samples-out <file>]
  csspgo profgen <bin> --samples <file> --format flat|probe|context
             -o <file>
  csspgo merge <prof1> <prof2> ... -o <file>
  csspgo show <prof>
  csspgo pgo <src> --entry <fn> --variant o2|instr|autofdo|probe|csspgo
             [--train a,b] [--eval a,b] [--repeat N]   (N <= {MAX_PGO_REPEAT})

Sources are MiniLang (.mini); binaries and samples are JSON; profiles are
binprof documents. `show` prints one as LLVM-style text; `merge` takes flat
or context profiles, all of one kind."#
    );
}

/// The most training and evaluation calls `pgo --repeat` asks for: the
/// workload holds each call's arguments before any of them runs.
const MAX_PGO_REPEAT: usize = 100_000;

/// Pulls `--flag value` out of an argument list.
fn opt_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_args_list(s: &str) -> Result<Vec<i64>, String> {
    if s.is_empty() {
        return Ok(vec![]);
    }
    s.split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("bad argument `{p}`")))
        .collect()
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let src_path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("compile: missing source file")?;
    let out = opt_value(args, "-o").ok_or("compile: missing -o <out>")?;
    let source =
        std::fs::read_to_string(src_path).map_err(|e| format!("reading {src_path}: {e}"))?;
    let mut module = prepared_module(&source, src_path, has_flag(args, "--probes"))
        .map_err(|e| format!("{src_path}: {e}"))?;
    if has_flag(args, "--instrument") {
        csspgo::opt::instrument::run(&mut module);
    }
    if !has_flag(args, "--no-opt") {
        csspgo::opt::run_pipeline(&mut module, &csspgo::opt::OptConfig::default());
    }
    let binary = lower_module(&module, &CodegenConfig::default());
    let json = serde_json::to_string(&binary).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} instructions, text {} B, debug {} B, probe metadata {} B",
        binary.len(),
        binary.sections.text,
        binary.sections.debug_line,
        binary.sections.pseudo_probe
    );
    Ok(())
}

/// Reads a binary and checks the tables every consumer indexes, so a
/// hostile file is an error naming it before profile generation or the
/// simulator touches it.
fn load_binary(path: &str) -> Result<Binary, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let binary: Binary =
        serde_json::from_str(&json).map_err(|e| format!("{path}: not a csspgo binary: {e}"))?;
    binary
        .check_tables()
        .map_err(|why| format!("{path}: {}", SimError::MalformedBinary(why)))?;
    Ok(binary)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let bin_path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("run: missing binary")?;
    let entry = opt_value(args, "--entry").ok_or("run: missing --entry")?;
    let call_args = parse_args_list(&opt_value(args, "--args").unwrap_or_default())?;
    let repeat: u64 = opt_value(args, "--repeat")
        .map(|v| v.parse().map_err(|_| "bad --repeat"))
        .transpose()?
        .unwrap_or(1);
    let period: u64 = opt_value(args, "--sample-period")
        .map(|v| v.parse().map_err(|_| "bad --sample-period"))
        .transpose()?
        .unwrap_or(0);

    let binary = load_binary(bin_path)?;
    let mut machine = Machine::try_new(
        &binary,
        SimConfig {
            sample_period: period,
            ..SimConfig::default()
        },
    )
    .map_err(|e| format!("{bin_path}: {e}"))?;
    let mut last = 0;
    for _ in 0..repeat {
        last = machine
            .call(&entry, &call_args)
            .map_err(|e| e.to_string())?;
    }
    let stats = machine.stats();
    println!("result: {last}");
    println!(
        "cycles: {}  instructions: {}  taken: {}  mispredicts: {}  icache misses: {}  samples: {}",
        stats.cycles,
        stats.instructions,
        stats.taken_branches,
        stats.mispredicts,
        stats.icache_misses,
        stats.samples
    );
    if let Some(out) = opt_value(args, "--samples-out") {
        let samples = machine.take_samples();
        let json = serde_json::to_string(&samples).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {} samples to {out}", samples.len());
    }
    Ok(())
}

fn cmd_profgen(args: &[String]) -> Result<(), String> {
    let bin_path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("profgen: missing binary")?;
    let samples_path = opt_value(args, "--samples").ok_or("profgen: missing --samples")?;
    let format = opt_value(args, "--format").unwrap_or_else(|| "flat".into());
    let out = opt_value(args, "-o").ok_or("profgen: missing -o <out>")?;
    let binary = load_binary(bin_path)?;
    let samples: Vec<Sample> = {
        let json = std::fs::read_to_string(&samples_path)
            .map_err(|e| format!("reading {samples_path}: {e}"))?;
        serde_json::from_str(&json).map_err(|e| format!("{samples_path}: {e}"))?
    };
    // `0`: one ingestion shard per available thread.
    let bytes = match format.as_str() {
        "flat" => binprof::encode_flat(&autofdo_profile(&binary, &samples, 0)),
        "probe" => binprof::encode_probe(&probe_only_profile(&binary, &samples, 0)),
        "context" => {
            let mut profile = context_profile(&binary, &samples, 0).profile;
            for f in &binary.funcs {
                profile.names.insert(f.guid, f.name.clone());
            }
            binprof::encode_context(&profile)
        }
        other => return Err(format!("unknown --format `{other}`")),
    };
    write_profile(&out, &bytes)
}

fn write_profile(out: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(out, bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out} ({} bytes)", bytes.len());
    Ok(())
}

fn read_profile(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Prints a profile of any kind as LLVM-style text.
fn cmd_show(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("show: missing profile")?;
    let bytes = read_profile(path)?;
    let text = match binprof::decode_flat(&bytes) {
        Err(DecodeError::Kind { .. }) => match binprof::decode_probe(&bytes) {
            Err(DecodeError::Kind { .. }) => {
                binprof::decode_context(&bytes).map(|p| textprof::write_context(&p))
            }
            probe => probe.map(|p| textprof::write_profile(&p)),
        },
        flat => flat.map(|p| textprof::write_profile(&p)),
    }
    .map_err(|e| format!("{path}: {e}"))?;
    print!("{text}");
    Ok(())
}

/// Merges flat or context profiles, the kind taken from the first input;
/// a probe profile is refused. The result is checked by the reader that
/// loads it after every input, so no file is written that the tools refuse.
fn cmd_merge(args: &[String]) -> Result<(), String> {
    let out = opt_value(args, "-o").ok_or("merge: missing -o <out>")?;
    let inputs: Vec<&String> = {
        // Positional arguments: everything but `-o` and its value.
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                skip_next = *a == "-o";
                !skip_next
            })
            .collect()
    };
    if inputs.len() < 2 {
        return Err("merge: need at least two profiles".into());
    }
    let first = read_profile(inputs[0])?;
    let bytes = match binprof::decode_flat(&first) {
        Err(DecodeError::Kind { .. }) if binprof::decode_probe(&first).is_ok() => Err(format!(
            "merge: {} is a probe profile; merge takes flat or context profiles",
            inputs[0]
        )),
        Err(DecodeError::Kind { .. }) => merged(
            &inputs,
            binprof::decode_context,
            binprof::encode_context,
            |acc, next| *acc = merge_tries([&*acc, next]),
        ),
        _ => merged(
            &inputs,
            binprof::decode_flat,
            binprof::encode_flat,
            merge_flat,
        ),
    }?;
    write_profile(&out, &bytes)
}

/// The encoded merge of `inputs`, each loaded by `decode`. The running
/// result is encoded and loaded again after every input, so a merge past
/// what the reader accepts stops there.
fn merged<T>(
    inputs: &[&String],
    decode: fn(&[u8]) -> Result<T, DecodeError>,
    encode: fn(&T) -> Vec<u8>,
    merge: impl Fn(&mut T, &T),
) -> Result<Vec<u8>, String> {
    let load = |p: &str| decode(&read_profile(p)?).map_err(|e| format!("{p}: {e}"));
    let mut acc = load(inputs[0])?;
    let mut bytes = Vec::new();
    for p in &inputs[1..] {
        merge(&mut acc, &load(p)?);
        bytes = encode(&acc);
        decode(&bytes).map_err(|e| format!("merge: the result would not load after {p}: {e}"))?;
    }
    Ok(bytes)
}

fn cmd_pgo(args: &[String]) -> Result<(), String> {
    let src_path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("pgo: missing source file")?;
    let entry = opt_value(args, "--entry").ok_or("pgo: missing --entry")?;
    let variant = match opt_value(args, "--variant").as_deref() {
        Some("o2") => PgoVariant::O2,
        Some("instr") => PgoVariant::Instr,
        Some("autofdo") => PgoVariant::AutoFdo,
        Some("probe") => PgoVariant::CsspgoProbeOnly,
        Some("csspgo") | None => PgoVariant::CsspgoFull,
        Some(other) => return Err(format!("unknown --variant `{other}`")),
    };
    let train = parse_args_list(&opt_value(args, "--train").unwrap_or_default())?;
    let eval = parse_args_list(
        &opt_value(args, "--eval")
            .unwrap_or_else(|| opt_value(args, "--train").unwrap_or_default()),
    )?;
    let repeat: usize = opt_value(args, "--repeat")
        .map(|v| v.parse().map_err(|_| "bad --repeat"))
        .transpose()?
        .unwrap_or(10);
    if repeat > MAX_PGO_REPEAT {
        return Err(format!(
            "pgo: --repeat {repeat} is past the bound of {MAX_PGO_REPEAT}"
        ));
    }

    let source =
        std::fs::read_to_string(src_path).map_err(|e| format!("reading {src_path}: {e}"))?;
    let workload = Workload::new(
        src_path.as_str(),
        source,
        entry,
        vec![train; repeat],
        vec![eval; repeat],
    );
    let config = PipelineConfig::default();
    let outcome = run_pgo_cycle(&workload, variant, &config).map_err(|e| e.to_string())?;
    println!("variant: {}", outcome.variant);
    println!(
        "profiling: {} cycles, {} samples",
        outcome.profiling.cycles, outcome.profiling.samples
    );
    println!(
        "annotation: {} functions, {} stale dropped, {} stale recovered, {} inlines replayed, plan {}",
        outcome.annotate_stats.annotated,
        outcome.annotate_stats.stale_dropped,
        outcome.annotate_stats.stale_recovered,
        outcome.annotate_stats.replayed_inlines,
        outcome.plan_len
    );
    println!(
        "final binary: text {} B (+{} B debug, +{} B probe metadata)",
        outcome.sections.text, outcome.sections.debug_line, outcome.sections.pseudo_probe
    );
    println!(
        "evaluation: {} cycles / {} instructions ({} taken, {} mispredicted, {} icache misses)",
        outcome.eval.cycles,
        outcome.eval.instructions,
        outcome.eval.taken_branches,
        outcome.eval.mispredicts,
        outcome.eval.icache_misses
    );
    Ok(())
}
