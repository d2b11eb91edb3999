//! Runs one workload in this process: repeated set-up, a warm-up round, the
//! timed rounds (untraced, or untraced and traced interleaved) with the
//! rounds of the reference lap — which fills the metrics the workload's own
//! rounds do not exercise — dealt out between them, then the
//! end-of-workload checks.
//!
//! Everything timed is a fixed piece of work done several times, and is
//! reported as its *quiet time* (`stats::quiet_ns`): the sum, over the
//! segments the kernel marks, of each segment's fastest showing.

use crate::inputs::Scale;
use crate::kernels::compile::Compile;
use crate::kernels::pgo::PgoCycle;
use crate::kernels::profgen::Profgen;
use crate::kernels::sim::{SimEval, SimProfile};
use crate::kernels::stream::StreamIngest;
use crate::kernels::{AnyKernel, Kernel, Ops};
use crate::metrics::{self, Reading, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{Span, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run.
const SETUP_REPS: usize = 5;
/// Rounds each lap kernel gets, dealt out between the native rounds.
/// A quiet time is as good as the number of showings each segment gets.
const LAP_TRIES: usize = 50;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed section; sets the round count.
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the round count derived from `seconds`.
    pub rounds: Option<usize>,
}

/// One metric of a finished run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Metric {
    /// The reported figure: quiet-time based for timings, exact otherwise.
    pub value: f64,
    pub unit: String,
    /// The figure recomputed from the even repetitions only and from the odd
    /// ones only, lower and higher of the two: how well the run reproduces
    /// itself. Equal to `value` for exact metrics.
    pub lo: f64,
    pub hi: f64,
    /// Rounds, set-ups or spans behind the figure.
    pub n: u64,
    /// `native`: from the workload's own rounds; `lap`: from the reference lap.
    pub source: String,
    /// The percentile a tail figure actually used.
    pub percentile: Option<f64>,
}

/// Everything one run produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub rounds: u64,
    pub nproc: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// Share (%) of the traced rounds' wall time spent in each layer's own
    /// spans, child spans taken off; `harness` is what no span covers.
    /// Empty for an untraced run.
    pub layer_share_pct: BTreeMap<String, f64>,
}

/// A figure, its two split-half estimates and the repetitions behind it.
struct Figure {
    value: f64,
    halves: (f64, f64),
    n: usize,
}

impl Figure {
    fn exact(value: f64) -> Self {
        Figure {
            value,
            halves: (value, value),
            n: 1,
        }
    }
}

/// What one kernel run (native or lap) yields.
struct KernelRun {
    /// End-to-end metrics by name.
    end_to_end: BTreeMap<&'static str, Figure>,
    /// Per-layer readings (traced runs only).
    layers: BTreeMap<&'static str, Reading>,
    /// Tracing overhead: traced quiet time over untraced, minus one, in %.
    overhead_pct: Option<f64>,
    layer_share_pct: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Segment timings of the repetitions of one piece of work.
#[derive(Default)]
struct Timings {
    segments: Vec<Vec<u64>>,
}

impl Timings {
    /// The quiet time of one repetition, in seconds.
    fn quiet_secs(&self, what: &str, ops: &mut Ops) -> Option<f64> {
        let quiet = stats::quiet_ns(&self.segments);
        if quiet.is_none() && !self.segments.is_empty() {
            ops.fail(|| format!("{what}: repetitions disagree on their segment count"));
        }
        quiet.map(|ns| ns as f64 / 1e9)
    }

    /// The figure `of(quiet seconds)` from all repetitions, and from the
    /// even and the odd repetitions alone.
    fn figure(&self, what: &str, ops: &mut Ops, of: impl Fn(f64) -> f64) -> Option<Figure> {
        let value = of(self.quiet_secs(what, ops)?);
        let half = |parity: usize| -> f64 {
            let part: Vec<Vec<u64>> = self
                .segments
                .iter()
                .skip(parity)
                .step_by(2)
                .cloned()
                .collect();
            stats::quiet_ns(&part).map_or(value, |ns| of(ns as f64 / 1e9))
        };
        Some(Figure {
            value,
            halves: (half(0), half(1)),
            n: self.segments.len(),
        })
    }
}

/// A set-up kernel going through its rounds.
struct Stage {
    kernel: Box<dyn AnyKernel>,
    /// The recording tracer of the traced rounds.
    on: Tracer,
    plain: Timings,
    traced: Timings,
    /// Wall time of the traced rounds, traced-only probes taken off.
    traced_wall_ns: u64,
    /// Work and output fingerprint of the warm-up round, which every later
    /// round must repeat.
    work: u64,
    fingerprint: u64,
}

impl Stage {
    /// Takes `kernel` through its untimed warm-up round.
    fn warm_up(mut kernel: Box<dyn AnyKernel>, ops: &mut Ops) -> Self {
        let warm = kernel.round(&mut Tracer::off(), ops);
        Stage {
            kernel,
            on: Tracer::on(),
            plain: Timings::default(),
            traced: Timings::default(),
            traced_wall_ns: 0,
            work: warm.work,
            fingerprint: warm.fingerprint,
        }
    }

    /// One timed round, traced or not.
    fn round(&mut self, traced: bool, ops: &mut Ops) {
        let mut off = Tracer::off();
        let (t, timings) = if traced {
            (&mut self.on, &mut self.traced)
        } else {
            (&mut off, &mut self.plain)
        };
        let start = Instant::now();
        t.restart_clock();
        let out = self.kernel.round(t, ops);
        t.segment();
        let wall = start.elapsed().as_nanos() as u64;
        timings.segments.push(t.take_segments());
        if traced {
            self.traced_wall_ns += wall.saturating_sub(out.probe_ns);
        }
        t.next_round();
        let name = self.kernel.name();
        ops.check(out.fingerprint == self.fingerprint, || {
            format!("{name}: a round produced different outputs than the warm-up round")
        });
    }

    /// Runs the end-of-workload checks and reads the figures off.
    fn finish(mut self, ops: &mut Ops) -> KernelRun {
        let name = self.kernel.name();
        self.kernel.verify(ops);
        for count in metrics::unstable_counts(&self.on) {
            ops.fail(|| format!("{name}: work count {count} differs between rounds"));
        }
        let plain_quiet = self.plain.quiet_secs(name, ops);
        let traced_quiet = self.traced.quiet_secs(name, ops);
        let mut end_to_end = BTreeMap::new();
        // A traced-only kernel has no end-to-end figure of its own.
        let (kernel, work) = (&self.kernel, self.work);
        if let Some(figure) = self.plain.figure(name, ops, |secs| kernel.rate(work, secs)) {
            end_to_end.insert(kernel.rate_name(), figure);
        }
        for (metric, value) in self.kernel.exact() {
            end_to_end.insert(metric, Figure::exact(value));
        }
        KernelRun {
            end_to_end,
            layers: metrics::read_layers(&self.on),
            overhead_pct: plain_quiet
                .zip(traced_quiet)
                .map(|(plain, traced)| (traced / plain - 1.0) * 100.0),
            layer_share_pct: layer_shares(&self.on, self.traced_wall_ns),
            spans: self.on.spans().to_vec(),
        }
    }
}

/// Self time per layer (the span name up to its first dot) as a share of
/// `traced_ns`, the wall time of the traced rounds.
fn layer_shares(t: &Tracer, traced_ns: u64) -> BTreeMap<String, f64> {
    if traced_ns == 0 {
        return BTreeMap::new();
    }
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for (span, own) in t.spans().iter().zip(t.self_ns()) {
        // Traced-only probes are not part of `traced_ns`.
        if metrics::PROBE_SPANS.contains(&span.name) {
            continue;
        }
        let layer = span.name.split('.').next().unwrap_or(span.name);
        *by_layer.entry(layer.to_string()).or_insert(0) += own;
    }
    let covered: u64 = by_layer.values().sum();
    by_layer.insert("harness".to_string(), traced_ns.saturating_sub(covered));
    by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, 100.0 * ns as f64 / traced_ns as f64))
        .collect()
}

/// Sets kernel `K` up, boxed.
fn boxed<K: Kernel>(seed: u64, scale: Scale, t: &mut Tracer) -> Result<Box<dyn AnyKernel>, String> {
    Ok(Box::new(K::setup(seed, scale, t)?))
}

fn round_secs<K: Kernel>() -> Result<f64, String> {
    Ok(K::ROUND_SECS)
}

/// Calls the generic function `$f::<K>` for the kernel called `$name`.
macro_rules! with_kernel {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            "sim_eval" => $f::<SimEval>($($arg),*),
            "sim_profile" => $f::<SimProfile>($($arg),*),
            "profgen" => $f::<Profgen>($($arg),*),
            "stream_ingest" => $f::<StreamIngest>($($arg),*),
            "pgo_cycle" => $f::<PgoCycle>($($arg),*),
            "compile" => $f::<Compile>($($arg),*),
            other => Err(format!(
                "unknown workload `{other}` (expected one of {})",
                metrics::WORKLOADS.join(", ")
            )),
        }
    };
}

/// Sets the workload up [`SETUP_REPS`] times; returns the last kernel and
/// the `setup_s` figure.
fn repeated_setup(
    args: &RunArgs,
    ops: &mut Ops,
) -> Result<(Box<dyn AnyKernel>, Option<Figure>), String> {
    let mut clock = Tracer::off();
    let mut setups = Timings::default();
    let mut kernel: Option<Box<dyn AnyKernel>> = None;
    let mut digest = None;
    for _ in 0..SETUP_REPS {
        // Dropped first, so two sets of artefacts never coexist.
        drop(kernel.take());
        clock.restart_clock();
        let k = with_kernel!(
            args.workload.as_str(),
            boxed(args.seed, Scale::Full, &mut clock)
        )?;
        clock.segment();
        setups.segments.push(clock.take_segments());
        let d = k.digest();
        ops.check(*digest.get_or_insert(d) == d, || {
            format!(
                "{}: two set-ups of seed {} differ",
                args.workload, args.seed
            )
        });
        kernel = Some(k);
    }
    let figure = setups.figure("set-up", ops, |secs| secs);
    Ok((kernel.expect("SETUP_REPS is at least one"), figure))
}

/// The end-to-end metrics kernel `name` can supply.
fn supplies(name: &str) -> &'static [&'static str] {
    match name {
        "sim_eval" | "sim_profile" => &["sim_mips"],
        "profgen" | "stream_ingest" => &["ksamples_per_s", "profile_bytes"],
        "pgo_cycle" => &[
            "cycle_ms",
            "eval_mcycles",
            "eval_vs_o2_pct",
            "eval_vs_o2_drift_pct",
            "text_bytes",
        ],
        "compile" => &["compile_kinst_per_s", "text_bytes"],
        _ => &[],
    }
}

/// Lap kernels in the order they fill gaps: the first supplier of a metric
/// wins, so `sim_eval`, `profgen` and `pgo_cycle` come before their siblings.
const LAP_ORDER: [&str; 6] = [
    "sim_eval",
    "profgen",
    "pgo_cycle",
    "compile",
    "sim_profile",
    "stream_ingest",
];

fn end_to_end_metric(name: &str, figure: &Figure, source: &str) -> Metric {
    let unit = END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("kernels only emit declared metrics");
    Metric {
        value: figure.value,
        unit: unit.to_string(),
        lo: figure.halves.0.min(figure.halves.1),
        hi: figure.halves.0.max(figure.halves.1),
        n: figure.n as u64,
        source: source.to_string(),
        percentile: None,
    }
}

fn layer_metric(name: &str, r: &Reading, source: &str) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("readings only exist for declared metrics");
    Metric {
        value: r.value,
        unit: unit.to_string(),
        lo: r.value,
        hi: r.value,
        n: r.n as u64,
        source: source.to_string(),
        percentile: r.percentile,
    }
}

/// Runs `args.workload` and returns its result plus the native trace.
pub fn run(args: &RunArgs) -> Result<(RunResult, Vec<Span>), String> {
    let mut ops = Ops::default();
    let (native, setup_figure) = repeated_setup(args, &mut ops)?;
    let rounds = match args.rounds {
        Some(n) => n,
        None => {
            let fit = args.seconds / with_kernel!(args.workload.as_str(), round_secs())?;
            // With tracing each round runs twice, so half as many fit.
            let fit = if args.trace { fit / 2.0 } else { fit };
            (fit.round() as usize).max(2)
        }
    };

    // The reference lap: other kernels at one-program scale, supplying the
    // metrics the workload's own rounds do not exercise. Untraced, only the
    // kernels that have such a metric run; traced, all of them do, so every
    // layer has spans. Lap rounds are dealt out between the native rounds:
    // taken in one go, a lap would sit inside a single burst of host noise.
    let mut covered: Vec<&str> = supplies(&args.workload).to_vec();
    let mut laps = Vec::new();
    for name in LAP_ORDER {
        let needed = supplies(name).iter().any(|m| !covered.contains(m));
        if name == args.workload || !(args.trace || needed) {
            continue;
        }
        covered.extend(supplies(name));
        let kernel = with_kernel!(name, boxed(0, Scale::Lap, &mut Tracer::off()))?;
        laps.push(Stage::warm_up(kernel, &mut ops));
    }
    let mut native = Stage::warm_up(native, &mut ops);
    for i in 0..rounds {
        native.round(false, &mut ops);
        if args.trace {
            native.round(true, &mut ops);
        }
        // This round's even share of the lap's rounds.
        let lap_rounds = (i + 1) * LAP_TRIES / rounds - i * LAP_TRIES / rounds;
        for lap in &mut laps {
            for _ in 0..lap_rounds {
                lap.round(args.trace, &mut ops);
            }
        }
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let mut native_run = native.finish(&mut ops);
    if let Some(figure) = setup_figure {
        native_run.end_to_end.insert("setup_s", figure);
    }
    native_run
        .end_to_end
        .insert("peak_rss_mb", Figure::exact(rss));

    let mut end_to_end: BTreeMap<String, Metric> = BTreeMap::new();
    let mut layers: BTreeMap<String, Metric> = BTreeMap::new();
    for (name, figure) in &native_run.end_to_end {
        end_to_end.insert(name.to_string(), end_to_end_metric(name, figure, "native"));
    }
    for (name, reading) in &native_run.layers {
        layers.insert(name.to_string(), layer_metric(name, reading, "native"));
    }
    for lap in laps {
        let lap_run = lap.finish(&mut ops);
        for (metric, figure) in &lap_run.end_to_end {
            end_to_end
                .entry(metric.to_string())
                .or_insert_with(|| end_to_end_metric(metric, figure, "lap"));
        }
        for (metric, reading) in &lap_run.layers {
            layers
                .entry(metric.to_string())
                .or_insert_with(|| layer_metric(metric, reading, "lap"));
        }
    }
    if let Some(pct) = native_run.overhead_pct {
        layers.insert(
            "trace.overhead_pct".to_string(),
            Metric {
                value: pct,
                unit: "%".to_string(),
                lo: pct,
                hi: pct,
                n: rounds as u64,
                source: "native".to_string(),
                percentile: None,
            },
        );
    }

    let mut metrics = if args.trace { layers } else { end_to_end };
    let declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    for name in declared {
        if name != "passed_pct" && !metrics.contains_key(name) {
            ops.fail(|| format!("metric {name} was not measured"));
        }
    }
    // Every operation and check is in; close the books.
    if !args.trace {
        let passed = 100.0 * (ops.attempted - ops.failed) as f64 / ops.attempted.max(1) as f64;
        metrics.insert(
            "passed_pct".to_string(),
            end_to_end_metric("passed_pct", &Figure::exact(passed), "native"),
        );
    }

    let result = RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        rounds: rounds as u64,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        messages: ops.messages,
        metrics,
        layer_share_pct: native_run.layer_share_pct,
    };
    Ok((result, native_run.spans))
}

/// The exact outputs of one workload's first round, for
/// `--check-determinism`.
#[derive(PartialEq, Debug)]
pub struct FirstRound {
    pub digest: u64,
    pub fingerprint: u64,
    pub counts: BTreeMap<&'static str, u64>,
    pub exact: Vec<(&'static str, f64)>,
}

/// Sets `workload` up from `seed` and runs its first round, traced.
pub fn first_round(workload: &str, seed: u64) -> Result<FirstRound, String> {
    let mut kernel = with_kernel!(workload, boxed(seed, Scale::Full, &mut Tracer::off()))?;
    let mut tracer = Tracer::on();
    let mut ops = Ops::default();
    let out = kernel.round(&mut tracer, &mut ops);
    tracer.next_round();
    if ops.failed > 0 {
        return Err(format!("{workload}: {}", ops.messages.join("; ")));
    }
    Ok(FirstRound {
        digest: kernel.digest(),
        fingerprint: out.fingerprint,
        counts: tracer.rounds()[0].clone(),
        exact: kernel.exact(),
    })
}
