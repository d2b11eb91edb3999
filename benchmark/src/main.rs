//! The benchmark's one command. See `benchmark/README.md`.
//!
//! ```text
//! run.sh                                         all six workloads, seed 1
//! run.sh --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! run.sh --check-determinism [--workload W]     first round twice, exact outputs equal
//! run.sh --compare A.json B.json                 judge report B against report A
//! ```

use csspgo_benchmark::metrics::WORKLOADS;
use csspgo_benchmark::report::{self, Report};
use csspgo_benchmark::runner::{self, RunArgs, RunResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where runs leave their files, relative to the repo root (the directory
/// the command is run from).
const OUT_DIR: &str = "benchmark/out";
/// The timed section of one run, as `BENCHMARK.json` declares it.
const DEFAULT_SECONDS: f64 = 16.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<usize>,
    check_determinism: bool,
    compare: Option<(PathBuf, PathBuf)>,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        rounds: None,
        check_determinism: false,
        compare: None,
        out: Path::new(OUT_DIR).join("report.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => cli.seed = num(flag, value("a number")?)?,
            "--seconds" => cli.seconds = num(flag, value("a number")?)?,
            "--rounds" => cli.rounds = Some(num(flag, value("a number")?)?),
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--out" => cli.out = PathBuf::from(value("a path")?),
            "--check-determinism" => cli.check_determinism = true,
            "--compare" => {
                let a = PathBuf::from(value("two report paths")?);
                let b = PathBuf::from(value("two report paths")?);
                cli.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", cli.seconds));
    }
    if cli.rounds == Some(0) {
        return Err("--rounds must be at least 1".into());
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(cli)
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_file(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("run.{workload}.trace{}.json", u8::from(trace)))
}

/// One pass of one workload, in this process.
fn single(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        rounds: cli.rounds,
    };
    let (result, spans) = runner::run(&args)?;
    write_json(&run_file(workload, cli.trace), &result)?;
    if cli.trace {
        write_json(
            &Path::new(OUT_DIR).join(format!("trace.{workload}.json")),
            &spans,
        )?;
    }
    print!("{}", report::table(&result));
    println!("{}", report::result_line(&result));
    Ok(result.correct)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, each pass in a process of its own, one after another.
fn full(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: Vec<RunResult> = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(r) = cli.rounds {
                cmd.args(["--rounds", &r.to_string()]);
            }
            // `status` waits for the child to end.
            let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
            all_correct &= status.success();
            let path = run_file(workload, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let report = Report {
        seed: cli.seed,
        seconds: cli.seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        rustc: tool_version("rustc", &["--version"]),
        git_commit: tool_version("git", &["rev-parse", "HEAD"]),
        runs,
    };
    write_json(&cli.out, &report)?;
    println!("wrote {}", cli.out.display());
    Ok(all_correct)
}

fn check_determinism(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    for workload in names {
        let a = runner::first_round(workload, cli.seed)?;
        let b = runner::first_round(workload, cli.seed)?;
        if a == b {
            println!(
                "{workload}: deterministic ({} work counts, {} exact metrics)",
                a.counts.len(),
                a.exact.len()
            );
        } else {
            ok = false;
            println!("{workload}: NOT deterministic");
            if a.digest != b.digest {
                println!("  set-up artefacts differ");
            }
            if a.fingerprint != b.fingerprint {
                println!("  round outputs differ");
            }
            for (k, v) in &a.counts {
                if b.counts.get(k) != Some(v) {
                    println!("  {k}: {v} vs {:?}", b.counts.get(k));
                }
            }
            for (x, y) in a.exact.iter().zip(&b.exact) {
                if x != y {
                    println!("  {}: {} vs {}", x.0, x.1, y.1);
                }
            }
        }
    }
    Ok(ok)
}

fn load_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    // Single-threaded by protocol: the sharded ingestion paths and codegen
    // must not fan out onto the second core.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        if let Some((a, b)) = &cli.compare {
            let (table, ok) = report::compare(&load_report(a)?, &load_report(b)?);
            print!("{table}");
            Ok(ok)
        } else if cli.check_determinism {
            check_determinism(&cli)
        } else if let Some(w) = cli.workload.clone() {
            single(&cli, &w)
        } else {
            full(&cli)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("csspgo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
