//! Every table and figure of the paper's evaluation, and the serving
//! tier's two reports, as a function from a [`Ctx`] to [`Table`]s. No function here prints: the `figures` bin walks
//! [`REGISTRY`] and renders, `tests/paper_claims.rs` reads cells.
//!
//! Every cycle under the default configuration comes from one outcome
//! matrix — the five server workloads and the client workload ×
//! [`PgoVariant::ALL`] — computed on first use and at most once per
//! [`Ctx`]; an ablation runs only the cycles whose configuration differs
//! from the default.

use crate::{improvement_pct, par_map, run_variants, size_delta_pct, Cell, Outcomes, Table};
use csspgo_codegen::Binary;
use csspgo_core::overlap::program_overlap;
use csspgo_core::pipeline::PgoVariant::{self, AutoFdo, CsspgoFull, CsspgoProbeOnly, Instr, O2};
use csspgo_core::pipeline::{
    build_and_run, context_profile, probe_only_profile, profiling_build, profiling_run,
    run_pgo_cycle_drifted, PipelineConfig, ProfilingRun,
};
use csspgo_core::stalematch::StaleMatching;
use csspgo_core::Workload;
use csspgo_ir::probe::ProbeBarrier;
use csspgo_opt::instrument::Placement;
use csspgo_serve::fleet::{
    FleetBinaries, FleetConfig, FleetEvent, FleetService, TenantId, TenantSpec, VersionSpec,
};
use csspgo_serve::release_train::{run_release_train, ReleaseSpec};
use csspgo_workloads::drift::{self, Mutator};
use csspgo_workloads::{phase_shifted, tenant_traffic_mix};
use std::borrow::Cow;
use std::sync::OnceLock;

/// One experiment: its tables, top to bottom.
pub type Figure = fn(&Ctx) -> Vec<Table>;

macro_rules! registry {
    ($($f:ident),* $(,)?) => { &[$((stringify!($f), $f as Figure)),*] };
}

/// Every experiment by name, in the order `figures` runs and lists them;
/// `results/<name>.txt` is what each one renders at the default scale.
pub const REGISTRY: &[(&str, Figure)] = registry![
    fig6_perf,
    fig7_codesize,
    fig8_overhead,
    fig9_metadata,
    table1_quality,
    client_workload,
    drift_resilience,
    tailcall_recovery,
    ablation_probe_blocking,
    ablation_ctx_trim,
    ablation_pebs,
    extension_balance_sweep,
    bench_pipeline,
    profile_fleet,
    release_train,
];

/// The text of one experiment as printed and as committed: its tables, a
/// blank line between two.
pub fn render(tables: &[Table]) -> String {
    let tables: Vec<String> = tables.iter().map(Table::to_string).collect();
    tables.join("\n\n") + "\n"
}

/// What every figure function is handed: the traffic scale, the default
/// configuration and — computed on first use — the outcome matrix.
pub struct Ctx {
    scale: f64,
    cfg: PipelineConfig,
    matrix: OnceLock<Vec<(Workload, Outcomes)>>,
}

impl Ctx {
    /// A context whose workloads run `scale` of their traffic (the bin
    /// passes [`crate::traffic_scale`]).
    pub fn new(scale: f64) -> Ctx {
        let (cfg, matrix) = (PipelineConfig::default(), OnceLock::new());
        Ctx { scale, cfg, matrix }
    }

    /// The five server workloads in the paper's order, then the client
    /// one, each with its outcomes under the default configuration.
    fn matrix(&self) -> &[(Workload, Outcomes)] {
        self.matrix.get_or_init(|| {
            let mut workloads = csspgo_workloads::server_workloads();
            workloads.push(csspgo_workloads::client_compiler());
            par_map(workloads, |w| {
                let w = w.scaled(self.scale);
                let outcomes = run_variants(&w, &PgoVariant::ALL, &self.cfg);
                (w, outcomes)
            })
        })
    }

    /// The server rows of the matrix.
    fn servers(&self) -> &[(Workload, Outcomes)] {
        let (_client, servers) = self.matrix().split_last().expect("six workloads");
        servers
    }

    /// The matrix row of the workload called `name`.
    fn one(&self, name: &str) -> &(Workload, Outcomes) {
        let row = self.matrix().iter().find(|(w, _)| w.name == name);
        row.expect("a shipped workload")
    }

    /// Outcomes of the variants `vs` on `w` under `cfg`: the matrix row when
    /// `cfg` is the default configuration, fresh cycles otherwise.
    fn under(&self, w: &Workload, vs: &[PgoVariant], cfg: &PipelineConfig) -> Cow<'_, Outcomes> {
        if *cfg == self.cfg {
            return Cow::Borrowed(&self.one(&w.name).1);
        }
        Cow::Owned(run_variants(w, vs, cfg))
    }

    /// The serving figures' fleet configuration. The drift verdict sits at
    /// 0.8: between the steady tenants' epoch-to-epoch overlap (≥ 0.94 — the
    /// same distribution, re-dealt) and the eval-epoch overlap of
    /// `Ctx::drifting_haas` (≈ 0.68).
    fn fleet_config(&self, resident_cap: usize, refresh_queue_cap: usize) -> FleetConfig {
        let mut pipeline = self.cfg.clone();
        pipeline.stream.drift_threshold = 0.8;
        FleetConfig {
            pipeline,
            resident_cap,
            refresh_queue_cap,
        }
    }

    /// The serving figures' drifting workload: haas with both arguments
    /// phase-shifted, so evaluation traffic collapses onto a single
    /// expression root at one rep — a different hot path entirely from the
    /// steady-state sweep — and the drift watchdog fires.
    fn drifting_haas(&self) -> Workload {
        let haas = csspgo_workloads::haas().scaled(self.scale);
        phase_shifted(&phase_shifted(&haas, 1), 0)
    }

    /// An empty table headed `# <title>, scale=<scale>` (see [`Table::new`]).
    fn table(&self, title: &str, header: &str) -> Table {
        Table::new(format!("# {title}, scale={}", self.scale), header)
    }
}

/// The probed profiling binary of `w` and the profiling run of its training
/// traffic under `cfg`: stages 1–2 of the full-CSSPGO cycle.
fn profiled(w: &Workload, cfg: &PipelineConfig) -> (Binary, ProfilingRun) {
    let build = profiling_build(&w.source, &w.name, CsspgoFull, cfg).expect("workload compiles");
    let sim = cfg.sim_config(cfg.sample_period);
    let run = profiling_run(&build.binary, w, sim).expect("workload runs");
    (build.binary, run)
}

/// Evaluation cycles of the probed `-O2` build of `w` (no profile).
fn probed_o2_cycles(w: &Workload, cfg: &PipelineConfig) -> u64 {
    let (stats, _) = build_and_run(w, true, cfg).expect("probed -O2 build runs");
    stats.cycles
}

/// **Fig. 6**: CSSPGO performance vs AutoFDO (baseline) across the five
/// server workloads, with the probe-only breakdown and — where the paper
/// had it (HHVM) — instrumentation-based PGO.
///
/// Paper shapes to reproduce:
/// * CSSPGO delivers additional performance over AutoFDO on every workload
///   (paper: +1–5%);
/// * probe-only CSSPGO contributes a substantial fraction of the full gain
///   (paper: 38–78%);
/// * on HHVM, instrumentation PGO tops the chart and CSSPGO bridges a
///   majority of the AutoFDO↔Instr gap (paper: >60%).
fn fig6_perf(ctx: &Ctx) -> Vec<Table> {
    let mut t = ctx.table(
        "Fig. 6 — performance vs AutoFDO (positive = faster)",
        "workload | AutoFDO cycles | probe-only Δ% {:+.2} | full CSSPGO Δ% {:+.2} | Instr PGO Δ% {:+.2} | probe share of gain {:.0}%",
    );
    for (w, o) in ctx.servers() {
        let base = o[&AutoFdo].eval.cycles;
        let gain = |v| improvement_pct(base, o[&v].eval.cycles);
        let (probe, full, instr) = (gain(CsspgoProbeOnly), gain(CsspgoFull), gain(Instr));
        // No gain, or probe-only no part of it: no share of the gain.
        let share = (full > 0.0 && probe >= 0.0).then(|| probe / full * 100.0);
        let row = [
            Some(base as f64),
            Some(probe),
            Some(full),
            Some(instr),
            share,
        ];
        t.push(&w.name, &row);
        if w.name == "hhvm" {
            let bridged = (instr > 0.0).then(|| Cell::num(full / instr * 100.0, "{:.0}%"));
            let bridged = bridged.unwrap_or(Cell::text("n/a (Instr PGO does not beat AutoFDO)"));
            let mut cells = vec![Cell::text(""); 3];
            cells.extend([Cell::num(instr, "{:+.2}"), bridged]);
            let key = "↳ hhvm gap bridged (paper: >60%)".to_string();
            t.rows.push((key, cells));
        }
    }
    vec![t]
}

/// **Fig. 7**: code size of probe-only and full CSSPGO relative to AutoFDO.
///
/// Paper shapes: CSSPGO produces *smaller* text than AutoFDO on most
/// workloads, and full CSSPGO (with the more selective pre-inliner) is
/// smaller than probe-only; one workload (HaaS) stays within ±1%.
fn fig7_codesize(ctx: &Ctx) -> Vec<Table> {
    let mut t = ctx.table(
        "Fig. 7 — text size vs AutoFDO (negative = smaller)",
        "workload | AutoFDO text | probe-only Δ% {:+.2} | full CSSPGO Δ% {:+.2}",
    );
    for (w, o) in ctx.servers() {
        let base = o[&AutoFdo].sections.text;
        let delta = |v| size_delta_pct(base, o[&v].sections.text);
        let row = [base as f64, delta(CsspgoProbeOnly), delta(CsspgoFull)];
        t.push(&w.name, &row);
    }
    vec![t]
}

/// **Fig. 8**: run-time overhead of pseudo-instrumentation.
///
/// Two identical `-O2` builds — one with pseudo-probes, one without — run
/// the same traffic. Paper shape: the delta is within noise for every
/// workload (and occasionally *negative*: "this can happen when the
/// inserted pseudo-probes block undesirable optimizations"). Contrast with
/// the instrumented binary's slowdown (the 73% of Table I).
fn fig8_overhead(ctx: &Ctx) -> Vec<Table> {
    let mut t = ctx.table(
        "Fig. 8 — pseudo-instrumentation run-time overhead",
        "workload | no probes (cycles) | probes (cycles) | overhead % {:+.3}",
    );
    for (w, o) in ctx.servers() {
        let (plain, probed) = (o[&O2].eval.cycles, probed_o2_cycles(w, &ctx.cfg));
        let row = [plain as f64, probed as f64, size_delta_pct(plain, probed)];
        t.push(&w.name, &row);
    }
    vec![t]
}

/// **Fig. 9**: size of the pseudo-probe metadata section, as a percentage
/// of total binary size (text + debug info under `-g2`), compared with the
/// debug-info section itself.
///
/// Paper shape: probe metadata averages ~25% of the binary; debug info is
/// of comparable magnitude. The metadata is self-contained and never loaded
/// at run time. Sizes do not depend on traffic, so this figure runs no
/// cycle and ignores the scale.
fn fig9_metadata(ctx: &Ctx) -> Vec<Table> {
    let mut t = Table::new(
        "# Fig. 9 — metadata size as % of total binary size",
        "workload | text | debug info | probe metadata | probe % of total {:.1}% | debug % of total {:.1}%",
    );
    for w in csspgo_workloads::server_workloads() {
        let build = profiling_build(&w.source, &w.name, CsspgoFull, &ctx.cfg).expect("compiles");
        let s = build.binary.sections;
        let [text, debug, probe] = [s.text, s.debug_line, s.pseudo_probe].map(|b| b as f64);
        let pct = |bytes: f64| bytes / s.total() as f64 * 100.0;
        t.push(&w.name, &[text, debug, probe, pct(probe), pct(debug)]);
    }
    let shares = t
        .rows
        .iter()
        .filter_map(|(w, _)| t.get(w, "probe % of total"));
    let avg = shares.sum::<f64>() / t.rows.len() as f64;
    let average = format!("\naverage probe-metadata share: {avg:.1}% (paper: ~25%)");
    t.note(average);
    vec![t]
}

/// **Table I**: HHVM profile quality (block-overlap degree against
/// instrumentation ground truth) and profiling overhead.
///
/// Paper numbers: block overlap AutoFDO 88.2% / CSSPGO 92.3% / Instr 100%;
/// profiling overhead 0% / 0.04% / 73.06%.
///
/// Overlap is computed on the *common fresh CFG* (no inline replay) so that
/// all variants are compared block-for-block; profiling overhead compares
/// each variant's profiling-run cycles with AutoFDO's (whose profiling
/// binary is the plain production build).
fn table1_quality(ctx: &Ctx) -> Vec<Table> {
    let (_, o) = ctx.one("hhvm");
    let mut t = ctx.table(
        "Table I — HHVM profile quality and profiling overhead",
        "metric | AutoFDO | CSSPGO (probe-only) | CSSPGO (full) | Instr PGO",
    );
    let variants = [AutoFdo, CsspgoProbeOnly, CsspgoFull, Instr];
    let truth = &o[&Instr].quality_counts;
    let overlap = |v| program_overlap(&o[&v].quality_counts, truth) * 100.0;
    let overlaps = variants.map(|v| Cell::num(overlap(v), "{:.1}%"));
    let base = o[&AutoFdo].profiling.cycles;
    // AutoFDO's profiling binary is the baseline itself: an unsigned zero.
    let spec = |v| if v == AutoFdo { "{:.2}%" } else { "{:+.2}%" };
    let overhead = |v| size_delta_pct(base, o[&v].profiling.cycles);
    let overheads = variants.map(|v| Cell::num(overhead(v), spec(v)));
    let row = |metric: &str, cells: [Cell; 4]| (metric.to_string(), cells.to_vec());
    t.rows = vec![
        row("block overlap", overlaps),
        row("profiling overhead", overheads),
    ];
    vec![t]
}

/// **§IV.D**: the client workload (Clang-bootstrap analogue).
///
/// Paper shapes: CSSPGO +2.8% performance / −5.5% size over AutoFDO; Instr
/// PGO +6.6% / −34%; the sampling↔instrumentation gap is *wider* than on
/// server workloads because one short training run covers far less of the
/// executed code than instrumentation does. The coverage ratio is printed
/// to make that mechanism visible.
fn client_workload(ctx: &Ctx) -> Vec<Table> {
    let (_, o) = ctx.one("client_compiler");
    let mut t = ctx.table(
        "§IV.D — client workload (compiler bootstrap analogue)",
        "variant | perf vs AutoFDO {:+.2}% | text size vs AutoFDO {:+.2}% | functions w/ profile",
    );
    let base = &o[&AutoFdo];
    let reached = |v| o[&v].quality_counts.len() as f64;
    for v in [CsspgoProbeOnly, CsspgoFull, Instr] {
        let perf = improvement_pct(base.eval.cycles, o[&v].eval.cycles);
        let size = size_delta_pct(base.sections.text, o[&v].sections.text);
        t.push(v.to_string(), &[perf, size, reached(v)]);
    }
    // Coverage: functions the sampling profile reached vs the
    // instrumentation profile (which reaches everything executed).
    let (sampled, exact) = (reached(CsspgoFull), reached(Instr));
    t.note(format!(
        "\nsampling coverage: {sampled}/{exact} functions = {:.0}% (the paper's client-workload ceiling)",
        sampled / exact * 100.0
    ));
    vec![t]
}

/// **§III.A drift experiment**: a comment-only source change between the
/// profiling build and the optimizing build.
///
/// Paper: "a minor change in the source code such as adding or removing a
/// program comment can cause location of subsequent code to shift ... we
/// have observed minor source drift causing 8% performance loss for a
/// server workload. This problem is mitigated with pseudo-instrumentation"
/// (CFG checksums survive comment edits).
///
/// Also exercised: a CFG-changing edit, where CSSPGO must *reject* the
/// stale profile outright instead of mis-applying it.
fn drift_resilience(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("ad_retriever");
    let sources =
        [Mutator::InsertBodyComments, Mutator::ChangeCfg].map(|m| m.apply(&w.source, &[]));
    let mut t = ctx.table(
        "§III.A — source-drift resilience",
        "variant | clean cycles | comment-drift cycles | drift penalty % {:+.2} | stale fns (comment) | stale fns (CFG change)",
    );
    for v in [AutoFdo, CsspgoFull] {
        let clean = o[&v].eval.cycles;
        let run = |src: &String| run_pgo_cycle_drifted(w, v, &ctx.cfg, src).expect("drifted cycle");
        let [commented, cfg_changed] = sources.each_ref().map(run);
        let drifted = commented.eval.cycles;
        let penalty = -improvement_pct(clean, drifted);
        let stale = [commented, cfg_changed].map(|o| o.annotate_stats.stale_total() as f64);
        let row = [clean as f64, drifted as f64, penalty, stale[0], stale[1]];
        t.push(v.to_string(), &row);
    }
    t.note("\n(paper: AutoFDO lost 8% under comment drift; CSSPGO is unaffected and");
    t.note(" detects CFG-changing drift via checksum mismatch instead of mis-annotating)");
    vec![t]
}

/// **§III.B missing-frame inference**: tail-call frame recovery rate.
///
/// Paper: "In practice it is observed that more than two-thirds of the
/// missing tail call frames can be recovered."
fn tailcall_recovery(ctx: &Ctx) -> Vec<Table> {
    let mut t = ctx.table(
        "§III.B — tail-call missing-frame recovery",
        "workload | recovered frames | failed gaps | recovery rate {:.0}%",
    );
    for (w, o) in ctx.servers() {
        let s = o[&CsspgoFull].infer_stats;
        let gaps = s.recovered + s.failed;
        // No gap, no rate.
        let rate = (gaps > 0).then(|| s.recovered as f64 / gaps as f64 * 100.0);
        let row = [Some(s.recovered as f64), Some(s.failed as f64), rate];
        t.push(&w.name, &row);
    }
    t.note("\n(paper: > 2/3 recovered)");
    vec![t]
}

/// **Ablation (paper §III.A "flexible framework")**: how strongly probes
/// block optimizations trades run-time overhead against profile accuracy.
///
/// The paper: "If an implementation can tolerate higher run-time overhead,
/// it can choose to make pseudo-probe a stronger optimization barrier to
/// better preserve original control flow and vice versa. ... we fine-tune a
/// few critical optimizations, including if-convert, machine sink and
/// instruction scheduling, to be unblocked by pseudo-probe."
fn ablation_probe_blocking(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("hhvm");
    let plain = o[&O2].eval.cycles;
    let mut t = ctx.table(
        "Ablation — probe optimization-blocking strength (hhvm)",
        "probe tuning | probed binary cycles | overhead vs unprobed {:+.3}% | block overlap vs instr {:.1}%",
    );
    for (name, probe) in [
        ("low-overhead (production)", ProbeBarrier::None),
        ("high-accuracy (barrier)", ProbeBarrier::Duplication),
    ] {
        let mut cfg = ctx.cfg.clone();
        cfg.opt.probe = probe;
        let probed = probed_o2_cycles(w, &cfg);
        let o = ctx.under(w, &[CsspgoFull, Instr], &cfg);
        let overlap = program_overlap(&o[&CsspgoFull].quality_counts, &o[&Instr].quality_counts);
        let overhead = size_delta_pct(plain, probed);
        t.push(name, &[probed as f64, overhead, overlap * 100.0]);
    }
    vec![t]
}

/// **Ablation (paper §III.B "Scalability")**: context-profile size vs the
/// cold-context trimming threshold.
///
/// Paper: "for programs with a dense dynamic call graph, profile size
/// increase due to context-sensitivity can be on the order of 10x ... our
/// mitigation can produce context-sensitive profile comparable in size to
/// regular profile, without losing its benefit."
fn ablation_ctx_trim(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("haas");
    // The context-insensitive (probe-only) profile is the size baseline.
    let (binary, run) = profiled(w, &ctx.cfg);
    let flat_profile = probe_only_profile(&binary, &run.samples, ctx.cfg.ingest_shards);
    let flat = flat_profile.node_count();
    let mut t = ctx.table(
        "Ablation — cold-context trimming (haas)",
        "trim threshold | trie nodes before | after | size vs flat {:.1}x | perf vs AutoFDO {:+.2}%",
    );
    t.heading += &format!("\n(context-insensitive profile: {flat} profile nodes)");
    let autofdo = o[&AutoFdo].eval.cycles;
    for threshold in [0, 4, 16, 64, 256] {
        let mut cfg = ctx.cfg.clone();
        cfg.trim_threshold = threshold;
        let o = ctx.under(w, &[CsspgoFull], &cfg);
        let full = &o[&CsspgoFull];
        let before = full.context_nodes_before_trim as f64;
        let after = full.context_nodes_after_trim as f64;
        let perf = improvement_pct(autofdo, full.eval.cycles);
        let row = [before, after, after / flat.max(1) as f64, perf];
        t.push(threshold.to_string(), &row);
    }
    vec![t]
}

/// **Ablation (paper §III.B "Synchronizing LBR and stack sample")**: PEBS
/// on vs off.
///
/// "Due to sampling skid, we observed that stack sample can sometimes lag
/// behind LBR sample by one frame. Fortunately, PEBS can be used to
/// eliminate the skid so both stack sample and LBR sample are always
/// synchronized."
///
/// Without PEBS our simulator drops the leaf frame from ~1/3 of stack
/// samples. No stack breaks — the LBR re-anchors the walk — but the trie
/// picks up mis-rooted contexts (more nodes, not fewer: known deviation
/// KD-6 in EXPERIMENTS.md) and end-to-end CSSPGO performance suffers.
fn ablation_pebs(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("ad_retriever");
    let autofdo = o[&AutoFdo].eval.cycles;
    let mut t = ctx.table(
        "Ablation — PEBS vs sampling skid (ad_retriever)",
        "sampling | broken stacks | context samples | trie nodes | full CSSPGO vs AutoFDO {:+.2}%",
    );
    for (name, pebs) in [("PEBS (`:upp`)", true), ("no PEBS (skid)", false)] {
        let mut cfg = ctx.cfg.clone();
        cfg.pebs = pebs;
        // Direct unwinder statistics on the probed profiling binary.
        let (binary, run) = profiled(w, &cfg);
        let unwound = context_profile(&binary, &run.samples, cfg.ingest_shards);
        let trie = &unwound.profile;
        let o = ctx.under(w, &[CsspgoFull], &cfg);
        let perf = improvement_pct(autofdo, o[&CsspgoFull].eval.cycles);
        let (broken, samples) = (unwound.broken_stacks as f64, trie.total() as f64);
        t.push(name, &[broken, samples, trie.node_count() as f64, perf]);
    }
    t.note("\n(the paper's `perf record -g --call-graph fp -e br_inst_retired.near_taken:upp`)");
    vec![t]
}

/// **Extension (paper §VI future work)**: "Future work may explore a
/// different overhead and performance balance with CSSPGO to further
/// approach instrumentation-based PGO performance."
///
/// This sweep walks the probe-barrier levels from the production
/// low-overhead point to the full-barrier point, measuring for each:
/// profiling-binary overhead (what production pays) and the resulting full
/// CSSPGO evaluation performance (what better correlation buys).
fn extension_balance_sweep(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("hhvm");
    let (plain, autofdo) = (o[&O2].eval.cycles, o[&AutoFdo].eval.cycles);
    let instr_gain = improvement_pct(autofdo, o[&Instr].eval.cycles);
    let mut t = ctx.table(
        "Extension — probe overhead/accuracy balance sweep (hhvm)",
        "probe tuning | profiling overhead % {:+.3} | full CSSPGO vs AutoFDO {:+.2}%",
    );
    t.heading += &format!("\n(Instr PGO reference: {instr_gain:+.2}% over AutoFDO)\n");
    for (name, probe) in [
        ("production (nothing blocked)", ProbeBarrier::None),
        ("+ block if-convert", ProbeBarrier::IfConvert),
        ("+ block code motion", ProbeBarrier::CodeMotion),
        (
            "full barrier (+ block duplication)",
            ProbeBarrier::Duplication,
        ),
    ] {
        let mut cfg = ctx.cfg.clone();
        cfg.opt.probe = probe;
        let overhead = size_delta_pct(plain, probed_o2_cycles(w, &cfg));
        let o = ctx.under(w, &[CsspgoFull], &cfg);
        let perf = improvement_pct(autofdo, o[&CsspgoFull].eval.cycles);
        t.push(name, &[overhead, perf]);
    }
    t.note("\n(each step preserves more of the original CFG in the profiling binary");
    t.note(" at the cost of disabling an optimization there — §III.A's dial)");
    vec![t]
}

/// Two deterministic comparisons over every server workload (simulated
/// cycles and counters only — wall time is measured by `benchmark/run.sh`,
/// nowhere else):
///
/// 1. The instrumented variant under both counter placements
///    (`instr-full` / `instr-sptree`): the overhead delta the Ball–Larus
///    spanning-tree placement buys over naive every-block counting, at
///    identical ground-truth profiles.
/// 2. The fig6-style drifted-profile comparison: each workload's profile is
///    collected on the clean build while the optimized build compiles a
///    CFG-changed source, stale recovery salvages the counts and
///    min-cost-flow inference repairs them. Rows carry eval cycles, how much
///    of the clean-profile win over `-O2` the drifted cycle retained, the
///    repair-effort counters and the provenance mix of the annotated weight.
fn bench_pipeline(ctx: &Ctx) -> Vec<Table> {
    let mut instr = ctx.table(
        "bench_pipeline",
        "workload | row | counter sites | profiling cycles | eval cycles",
    );
    instr.heading += "\n\n# Instrumentation overhead (full vs spanning-tree counter placement)";
    for (w, _) in ctx.servers() {
        let mut sites = Vec::new();
        for (label, placement) in [
            ("instr-full", Placement::Full),
            ("instr-sptree", Placement::SpanningTree),
        ] {
            let mut cfg = ctx.cfg.clone();
            cfg.instrument.placement = placement;
            let o = ctx.under(w, &[Instr], &cfg);
            let o = &o[&Instr];
            sites.push(o.counter_sites as u64);
            let row = [o.counter_sites as u64, o.profiling.cycles, o.eval.cycles];
            instr.push(format!("{} | {label}", w.name), &row.map(|c| c as f64));
        }
        let (name, full, kept) = (&w.name, sites[0], sites[1]);
        let fewer = -size_delta_pct(full, kept);
        let counters = format!("{name}: {kept} of {full} counters kept ({fewer:.1}% fewer)");
        instr.note(counters);
    }

    // `-O2` and clean `CSSPGO (full)` anchor the retained-win scale, then
    // the CFG-drifted cycle runs with stale recovery (and the default MCF
    // inference).
    let mut drifted = Table::new(
        "# Drifted-profile inference comparison (change_cfg drift, stale recovery on)",
        "workload | row | eval cycles | retained % {:.1} | counts adjusted | flow moved | residual cost | salvaged % {:.1} | inferred % {:.1}",
    );
    drifted.missing = "-";
    let mut recover = ctx.cfg.clone();
    recover.annotate.stale_matching = StaleMatching::Recover;
    for (w, o) in ctx.servers() {
        let (o2, clean) = (o[&O2].eval.cycles, o[&CsspgoFull].eval.cycles);
        // Retained % is only meaningful when the clean profile actually
        // beats -O2 (it may not at small traffic scales); the drifted rows
        // then measure how much of that win survives, signed — a drifted
        // profile that makes the binary slower than -O2 goes negative.
        let clean_win = o2 as f64 - clean as f64;
        let retained = |cycles: u64| {
            (clean_win > 0.0).then(|| (o2 as f64 - cycles as f64) / clean_win * 100.0)
        };
        let changed = drift::change_cfg(&w.source);
        let mcf = run_pgo_cycle_drifted(w, CsspgoFull, &recover, &changed).expect("drifted cycle");
        let inf = mcf.annotate_stats.inference;
        let prov = mcf.annotate_stats.provenance;
        let share =
            |part: u64| (prov.total() > 0).then(|| part as f64 / prov.total() as f64 * 100.0);
        let key = |label| format!("{} | {label}", w.name);
        drifted.push(key("drift-O2"), &[o2 as f64]);
        drifted.push(key("drift-clean"), &[Some(clean as f64), retained(clean)]);
        let mut row = vec![Some(mcf.eval.cycles as f64), retained(mcf.eval.cycles)];
        row.extend(
            [inf.counts_adjusted, inf.flow_moved, inf.residual_cost].map(|c| Some(c as f64)),
        );
        row.extend([prov.stale_matched, prov.inferred].map(share));
        drifted.push(key("drift-mcf"), &row);
    }
    vec![instr, drifted]
}

/// **Multi-tenant fleet serving** (§III.A's continuous deployment): three
/// tenants, each with two binary versions in flight, through one
/// [`FleetService`] — concurrent epoch streams, a per-version
/// resident-context cap enforced by LRU cold-context eviction, drift
/// watchdogs feeding a bounded refresh queue.
///
/// `t0` / ad_ranker and `t1` / hhvm are steady tenants whose traffic is a
/// tenant-specific re-deal of the same request multiset; `t2` is
/// `Ctx::drifting_haas`, whose refresh rebuilds a source carrying a real
/// edit (a dead guard in one function) from the stale version's live
/// profile, so its row carries the stale matcher's salvage counters. `v1`
/// of every tenant is a canary with a behaviour-preserving edit, so the two
/// versions correlate samples against different probe layouts. The cap is
/// tuned so the busiest versions run over it mid-stream; the queue has one
/// slot, so the second concurrent stale verdict is dropped and counted.
fn profile_fleet(ctx: &Ctx) -> Vec<Table> {
    let cfg = ctx.fleet_config(48, 1);
    let two_versions = |id, workload: Workload| {
        let stable = workload.source.clone();
        let canary = Mutator::InsertStatement(1).apply(&stable, &[]);
        let versions = vec![
            VersionSpec::new("v0", stable),
            VersionSpec::new("v1", canary),
        ];
        TenantSpec {
            id: TenantId(id),
            workload,
            versions,
            refresh_source: None,
        }
    };
    let steady = |w: Workload, seed| tenant_traffic_mix(&w.scaled(ctx.scale), seed);
    let mut specs = vec![
        two_versions(0, steady(csspgo_workloads::ad_ranker(), 11)),
        two_versions(1, steady(csspgo_workloads::hhvm(), 22)),
        two_versions(2, ctx.drifting_haas()),
    ];
    specs[2].refresh_source =
        Some(Mutator::InsertStatement(3).apply(&specs[2].workload.source, &[]));
    let binaries = FleetBinaries::compile(&specs, &cfg).expect("fleet compiles");
    let run = FleetService::new(&binaries, cfg.clone())
        .run()
        .expect("fleet serves");

    let mut epochs = ctx.table(
        "Fleet serving — sealed epochs",
        "tenant | workload | version | epoch | samples | resident contexts | subtrees evicted | weight folded | overlap {:.3} | verdict",
    );
    let mut snapshots = Table::new(
        "# Mid-stream snapshot self-checks (binary format, restored bit-identical)",
        "tenant | version | bytes",
    );
    let mut refreshes = Table::new(
        "# Drift refreshes (the refresh source rebuilt from the stale version's live profile)",
        "tenant | version | eval cycles | stale dropped | stale recovered",
    );
    for event in &run.events {
        match event {
            FleetEvent::Epoch(e) => {
                let evicted = e.evicted_this_epoch;
                let key = format!(
                    "{} | {} | {} | {}",
                    e.tenant, e.workload, e.version, e.label
                );
                let row = [
                    e.summary.samples as f64,
                    e.resident_contexts as f64,
                    evicted.subtrees as f64,
                    evicted.weight_folded as f64,
                    e.summary.overlap,
                ];
                epochs.push(key, &row);
                epochs.end_row_with([Cell::flag(e.summary.stale, "STALE", "")]);
            }
            FleetEvent::SnapshotChecked {
                tenant,
                version,
                bytes,
            } => snapshots.push(format!("{tenant} | {version}"), &[*bytes as f64]),
            FleetEvent::Refresh(e) => {
                let row = [
                    e.eval_cycles as f64,
                    e.stale_dropped as f64,
                    e.stale_recovered as f64,
                ];
                refreshes.push(format!("{} | {}", e.tenant, e.version), &row);
            }
            FleetEvent::RefreshDropped { tenant, version } => {
                refreshes.push(format!("{tenant} | {version}"), &[] as &[f64]);
            }
        }
    }
    refreshes.note("(— = the request was dropped at the bounded queue)");

    let stats = run.stats;
    let mut totals = Table::new("# Fleet totals", "total | value");
    for (total, value) in [
        ("tenants", stats.tenants as f64),
        ("tenant-version aggregators", stats.versions as f64),
        ("resident cap per version", cfg.resident_cap as f64),
        ("epochs sealed", stats.epochs_sealed as f64),
        ("samples folded", stats.total_samples as f64),
        ("resident contexts", stats.resident_contexts as f64),
        ("subtrees evicted", stats.evicted.subtrees as f64),
        ("weight folded", stats.evicted.weight_folded as f64),
        ("refreshes run", stats.refreshes_triggered as f64),
        ("refreshes dropped", stats.refreshes_dropped as f64),
    ] {
        totals.push(total, &[value]);
    }
    vec![epochs, snapshots, refreshes, totals]
}

/// **Release trains** (§III.A: last week's profile on this week's source):
/// two workloads rolled through a five-release source lineage
/// ([`drift::release_chain`]: split/merge refactors, a feature-flag flip, a
/// dependency bump, comment churn) while live traffic flows through a
/// [`FleetService`] the whole train — a steady tenant-mixed ad_finder and
/// `Ctx::drifting_haas`, both workloads where the fresh profile beats
/// `-O2`, so the oracle win retention is measured against is real.
///
/// Per release the candidate rebuilt from the *live* stable profile (`pgo`)
/// sits between the fresh-profile `oracle` and the never-refresh `floor`
/// (release 0's profile, stale matching off); `retained` is
/// `(o2 − x) / (o2 − oracle)`. Five releases is the length at which the
/// frozen floor profile has collapsed and "the train retains more than the
/// floor" is a claim.
fn release_train(ctx: &Ctx) -> Vec<Table> {
    let cfg = ctx.fleet_config(0, 8);
    let ad_finder = csspgo_workloads::ad_finder().scaled(ctx.scale);
    let workloads = vec![tenant_traffic_mix(&ad_finder, 7), ctx.drifting_haas()];
    let reports = par_map(workloads, |w| {
        let chain = drift::release_chain(&w.source, 5, &[w.entry.as_str()]);
        let label =
            |(i, (mutator, source))| ReleaseSpec::new(format!("r{}", i + 1), mutator, source);
        let releases: Vec<ReleaseSpec> = chain.into_iter().enumerate().map(label).collect();
        run_release_train(&w, &releases, &cfg).expect("train runs")
    });

    let mut trains = Table::new(
        "# Train-wide",
        "train | baseline cycles | promoted | rejected | watchdog fires | refreshes | train retention % {:+.1} | floor retention % {:+.1}",
    );
    let mut tables = Vec::new();
    for report in &reports {
        let mut t = ctx.table(
            &format!("Release train — {}", report.workload),
            "release | mutator | o2 | oracle | pgo | floor | retained % {:+.1} | floor % {:+.1} | refreshes | stale dropped | stale recovered | agreement {:.4} | watchdog | behaviour | canary",
        );
        t.missing = "-";
        for r in &report.releases {
            let cycles = [r.o2_cycles, r.oracle_cycles, r.pgo_cycles, r.floor_cycles];
            let mut row: Vec<Option<f64>> = cycles.map(|c| Some(c as f64)).to_vec();
            row.extend([r.retained_pct, r.floor_retained_pct]);
            let counts = [r.refreshes, r.stale_dropped, r.stale_recovered];
            row.extend(counts.map(|c| Some(c as f64)));
            row.push(Some(r.canary.profile_agreement));
            t.push(format!("{} | {}", r.label, r.mutator), &row);
            t.end_row_with([
                Cell::flag(r.watchdog_fired, "fired", ""),
                Cell::flag(r.canary.behavior_ok, "= -O2", "DIVERGED"),
                Cell::flag(r.canary.promoted, "promoted", "REJECTED"),
            ]);
        }
        tables.push(t);
        let row = [
            report.baseline_cycles as f64,
            report.promoted as f64,
            report.rejected as f64,
            report.watchdog_fires as f64,
            report.refreshes as f64,
            report.train_retention_pct,
            report.floor_retention_pct,
        ];
        trains.push(&report.workload, &row);
    }
    tables.push(trains);
    tables
}
