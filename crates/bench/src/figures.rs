//! Every table and figure of the paper's evaluation as a function from a
//! [`Ctx`] to [`Table`]s. No function here prints: the `figures` bin walks
//! [`REGISTRY`] and renders, `tests/paper_claims.rs` reads cells.
//!
//! Every cycle under the default configuration comes from one outcome
//! matrix — the five server workloads and the client workload ×
//! [`PgoVariant::ALL`] — computed on first use and at most once per
//! [`Ctx`]; an ablation runs only the cycles whose configuration differs
//! from the default.

use crate::{
    cell, improvement_pct, par_map, profiled, run_variants, size_delta_pct, Cell, Outcomes, Table,
};
use csspgo_codegen::lower_module;
use csspgo_core::overlap::program_overlap;
use csspgo_core::pipeline::PgoVariant::{self, AutoFdo, CsspgoFull, CsspgoProbeOnly, Instr, O2};
use csspgo_core::pipeline::{
    build_and_run, context_profile, prepared_module, probe_only_profile, run_pgo_cycle_drifted,
    PgoOutcome, PipelineConfig,
};
use csspgo_core::stalematch::StaleMatching;
use csspgo_core::textprof::probe_profile_nodes;
use csspgo_core::Workload;
use csspgo_ir::probe::ProbeConfig;
use csspgo_opt::instrument::Placement;
use csspgo_workloads::drift;
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
];

/// The text of one experiment as printed and as committed: its tables, a
/// blank line between two.
pub fn render(tables: &[Table]) -> String {
    let tables: Vec<String> = tables.iter().map(Table::to_string).collect();
    tables.join("\n\n") + "\n"
}

/// What every figure function is handed: the traffic scale, the default
/// configuration, the six workloads at that scale and — computed on first
/// use — the outcome of every variant on each of them.
pub struct Ctx {
    scale: f64,
    cfg: PipelineConfig,
    /// The five server workloads in the paper's order, then the client one.
    workloads: Vec<Workload>,
    matrix: OnceLock<Vec<Outcomes>>,
}

impl Ctx {
    /// A context over the shipped workloads with traffic scaled by `scale`
    /// (the bin passes [`crate::traffic_scale`]).
    pub fn new(scale: f64) -> Ctx {
        let mut workloads = csspgo_workloads::server_workloads();
        workloads.push(csspgo_workloads::client_compiler());
        Ctx {
            scale,
            cfg: PipelineConfig::default(),
            workloads: workloads.iter().map(|w| w.scaled(scale)).collect(),
            matrix: OnceLock::new(),
        }
    }

    /// Every workload with its default-configuration outcomes.
    fn matrix(&self) -> impl Iterator<Item = (&Workload, &Outcomes)> {
        let matrix = self.matrix.get_or_init(|| {
            par_map(self.workloads.iter().collect(), |w| {
                run_variants(w, &PgoVariant::ALL, &self.cfg)
            })
        });
        self.workloads.iter().zip(matrix)
    }

    /// The server rows of the matrix.
    fn servers(&self) -> impl Iterator<Item = (&Workload, &Outcomes)> {
        self.matrix().take(self.workloads.len() - 1)
    }

    /// The matrix row of the workload called `name`.
    fn one(&self, name: &str) -> (&Workload, &Outcomes) {
        self.matrix()
            .find(|(w, _)| w.name == name)
            .expect("a shipped workload")
    }

    /// Outcomes of `variants` on `w` under `cfg`: the matrix row when `cfg`
    /// is the default configuration, fresh cycles otherwise. The caller
    /// says which by comparing the one knob it turned (`PipelineConfig` has
    /// no `PartialEq`).
    fn under(
        &self,
        w: &Workload,
        variants: &[PgoVariant],
        cfg: &PipelineConfig,
        is_default: bool,
    ) -> Cow<'_, Outcomes> {
        if is_default {
            Cow::Borrowed(self.one(&w.name).1)
        } else {
            Cow::Owned(run_variants(w, variants, cfg))
        }
    }

    /// The default configuration with one field group of the probe tuning
    /// replaced.
    fn with_probe(&self, probe: ProbeConfig) -> PipelineConfig {
        let mut cfg = self.cfg.clone();
        cfg.opt.probe = probe;
        cfg
    }
}

/// One cycle whose optimized build compiles `build_source`.
fn cycle(w: &Workload, v: PgoVariant, cfg: &PipelineConfig, build_source: &str) -> PgoOutcome {
    run_pgo_cycle_drifted(w, v, cfg, build_source)
        .unwrap_or_else(|e| panic!("{} / {v}: {e}", w.name))
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
pub fn fig6_perf(ctx: &Ctx) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "# Fig. 6 — performance vs AutoFDO (positive = faster), scale={}",
            ctx.scale
        ),
        &[
            "workload",
            "AutoFDO cycles",
            "probe-only Δ%",
            "full CSSPGO Δ%",
            "Instr PGO Δ%",
            "probe share of gain",
        ],
    );
    for (w, o) in ctx.servers() {
        let base = o[&AutoFdo].eval.cycles;
        let gain = |v| improvement_pct(base, o[&v].eval.cycles);
        let (probe, full, instr) = (gain(CsspgoProbeOnly), gain(CsspgoFull), gain(Instr));
        let share = if full.abs() > 1e-9 {
            probe / full * 100.0
        } else {
            0.0
        };
        t.push(
            &w.name,
            vec![
                cell!(base, "{}"),
                cell!(probe, "{:+.2}"),
                cell!(full, "{:+.2}"),
                cell!(instr, "{:+.2}"),
                cell!(share, "{:.0}%"),
            ],
        );
        if w.name == "hhvm" && instr > 0.0 {
            let bridged = full / instr * 100.0;
            let mut cells = vec![Cell::text(""); 5];
            cells[4] = cell!(bridged, "{:.0}% of the Instr-PGO gap (paper: >60%)");
            t.push("↳ hhvm gap bridged", cells);
        }
    }
    vec![t]
}

/// **Fig. 7**: code size of probe-only and full CSSPGO relative to AutoFDO.
///
/// Paper shapes: CSSPGO produces *smaller* text than AutoFDO on most
/// workloads, and full CSSPGO (with the more selective pre-inliner) is
/// smaller than probe-only; one workload (HaaS) stays within ±1%.
pub fn fig7_codesize(ctx: &Ctx) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "# Fig. 7 — text size vs AutoFDO (negative = smaller), scale={}",
            ctx.scale
        ),
        &[
            "workload",
            "AutoFDO text",
            "probe-only Δ%",
            "full CSSPGO Δ%",
        ],
    );
    for (w, o) in ctx.servers() {
        let base = o[&AutoFdo].sections.text;
        let delta = |v| cell!(size_delta_pct(base, o[&v].sections.text), "{:+.2}");
        t.push(
            &w.name,
            vec![cell!(base, "{}"), delta(CsspgoProbeOnly), delta(CsspgoFull)],
        );
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
pub fn fig8_overhead(ctx: &Ctx) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "# Fig. 8 — pseudo-instrumentation run-time overhead, scale={}",
            ctx.scale
        ),
        &[
            "workload",
            "no probes (cycles)",
            "probes (cycles)",
            "overhead %",
        ],
    );
    for (w, o) in ctx.servers() {
        let plain = o[&O2].eval.cycles;
        let probed = probed_o2_cycles(w, &ctx.cfg);
        t.push(
            &w.name,
            vec![
                cell!(plain, "{}"),
                cell!(probed, "{}"),
                cell!(size_delta_pct(plain, probed), "{:+.3}"),
            ],
        );
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
pub fn fig9_metadata(ctx: &Ctx) -> Vec<Table> {
    let mut t = Table::new(
        "# Fig. 9 — metadata size as % of total binary size",
        &[
            "workload",
            "text",
            "debug info",
            "probe metadata",
            "probe % of total",
            "debug % of total",
        ],
    );
    let mut probe_pcts = Vec::new();
    for w in csspgo_workloads::server_workloads() {
        let mut m = prepared_module(&w.source, &w.name, true).expect("compiles");
        csspgo_opt::run_pipeline(&mut m, &ctx.cfg.opt);
        let s = lower_module(&m, &ctx.cfg.codegen).sections;
        let pct = |bytes: u64| bytes as f64 / s.total() as f64 * 100.0;
        probe_pcts.push(pct(s.pseudo_probe));
        t.push(
            &w.name,
            vec![
                cell!(s.text, "{}"),
                cell!(s.debug_line, "{}"),
                cell!(s.pseudo_probe, "{}"),
                cell!(pct(s.pseudo_probe), "{:.1}%"),
                cell!(pct(s.debug_line), "{:.1}%"),
            ],
        );
    }
    let avg = probe_pcts.iter().sum::<f64>() / probe_pcts.len() as f64;
    t.note(format!(
        "\naverage probe-metadata share: {avg:.1}% (paper: ~25%)"
    ));
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
pub fn table1_quality(ctx: &Ctx) -> Vec<Table> {
    let (_, o) = ctx.one("hhvm");
    let mut t = Table::new(
        format!(
            "# Table I — HHVM profile quality and profiling overhead, scale={}",
            ctx.scale
        ),
        &[
            "metric",
            "AutoFDO",
            "CSSPGO (probe-only)",
            "CSSPGO (full)",
            "Instr PGO",
        ],
    );
    let variants = [AutoFdo, CsspgoProbeOnly, CsspgoFull, Instr];
    let truth = &o[&Instr].quality_counts;
    let overlap = |v| program_overlap(&o[&v].quality_counts, truth) * 100.0;
    t.push(
        "block overlap",
        variants.map(|v| cell!(overlap(v), "{:.1}%")).to_vec(),
    );
    let base = o[&AutoFdo].profiling.cycles;
    let overhead = |v| match v {
        AutoFdo => cell!(0.0, "{:.2}%"),
        _ => cell!(size_delta_pct(base, o[&v].profiling.cycles), "{:+.2}%"),
    };
    t.push("profiling overhead", variants.map(overhead).to_vec());
    vec![t]
}

/// **§IV.D**: the client workload (Clang-bootstrap analogue).
///
/// Paper shapes: CSSPGO +2.8% performance / −5.5% size over AutoFDO; Instr
/// PGO +6.6% / −34%; the sampling↔instrumentation gap is *wider* than on
/// server workloads because one short training run covers far less of the
/// executed code than instrumentation does. The coverage ratio is printed
/// to make that mechanism visible.
pub fn client_workload(ctx: &Ctx) -> Vec<Table> {
    let (_, o) = ctx.one("client_compiler");
    let mut t = Table::new(
        format!(
            "# §IV.D — client workload (compiler bootstrap analogue), scale={}",
            ctx.scale
        ),
        &[
            "variant",
            "perf vs AutoFDO",
            "text size vs AutoFDO",
            "functions w/ profile",
        ],
    );
    let base = &o[&AutoFdo];
    for v in [CsspgoProbeOnly, CsspgoFull, Instr] {
        t.push(
            v.to_string(),
            vec![
                cell!(
                    improvement_pct(base.eval.cycles, o[&v].eval.cycles),
                    "{:+.2}%"
                ),
                cell!(
                    size_delta_pct(base.sections.text, o[&v].sections.text),
                    "{:+.2}%"
                ),
                cell!(o[&v].quality_counts.len(), "{}"),
            ],
        );
    }
    // Coverage: functions the sampling profile reached vs the
    // instrumentation profile (which reaches everything executed).
    let sampled = o[&CsspgoFull].quality_counts.len();
    let exact = o[&Instr].quality_counts.len();
    t.note(format!(
        "\nsampling coverage: {sampled}/{exact} functions = {:.0}% (the paper's client-workload ceiling)",
        sampled as f64 / exact as f64 * 100.0
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
pub fn drift_resilience(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("ad_retriever");
    let commented = drift::insert_body_comments(&w.source);
    let cfg_changed = drift::change_cfg(&w.source);
    let mut t = Table::new(
        format!("# §III.A — source-drift resilience, scale={}", ctx.scale),
        &[
            "variant",
            "clean cycles",
            "comment-drift cycles",
            "drift penalty %",
            "stale fns (comment)",
            "stale fns (CFG change)",
        ],
    );
    for v in [AutoFdo, CsspgoFull] {
        let clean = o[&v].eval.cycles;
        let drifted = cycle(w, v, &ctx.cfg, &commented);
        let broken = cycle(w, v, &ctx.cfg, &cfg_changed);
        t.push(
            v.to_string(),
            vec![
                cell!(clean, "{}"),
                cell!(drifted.eval.cycles, "{}"),
                cell!(-improvement_pct(clean, drifted.eval.cycles), "{:+.2}"),
                cell!(drifted.annotate_stats.stale_total(), "{}"),
                cell!(broken.annotate_stats.stale_total(), "{}"),
            ],
        );
    }
    t.note("\n(paper: AutoFDO lost 8% under comment drift; CSSPGO is unaffected and");
    t.note(" detects CFG-changing drift via checksum mismatch instead of mis-annotating)");
    vec![t]
}

/// **§III.B missing-frame inference**: tail-call frame recovery rate.
///
/// Paper: "In practice it is observed that more than two-thirds of the
/// missing tail call frames can be recovered."
pub fn tailcall_recovery(ctx: &Ctx) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "# §III.B — tail-call missing-frame recovery, scale={}",
            ctx.scale
        ),
        &[
            "workload",
            "recovered frames",
            "failed gaps",
            "recovery rate",
        ],
    );
    for (w, o) in ctx.servers() {
        let s = o[&CsspgoFull].infer_stats;
        let total = s.recovered + s.failed;
        let rate = if total > 0 {
            s.recovered as f64 / total as f64 * 100.0
        } else {
            100.0
        };
        t.push(
            &w.name,
            vec![
                cell!(s.recovered, "{}"),
                cell!(s.failed, "{}"),
                cell!(rate, "{:.0}%"),
            ],
        );
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
pub fn ablation_probe_blocking(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("hhvm");
    let plain = o[&O2].eval.cycles;
    let mut t = Table::new(
        format!(
            "# Ablation — probe optimization-blocking strength (hhvm), scale={}",
            ctx.scale
        ),
        &[
            "probe tuning",
            "probed binary cycles",
            "overhead vs unprobed",
            "block overlap vs instr",
        ],
    );
    for (name, probe) in [
        ("low-overhead (production)", ProbeConfig::low_overhead()),
        ("high-accuracy (barrier)", ProbeConfig::high_accuracy()),
    ] {
        let cfg = ctx.with_probe(probe);
        let probed = probed_o2_cycles(w, &cfg);
        let o = ctx.under(w, &[CsspgoFull, Instr], &cfg, probe == ctx.cfg.opt.probe);
        let overlap =
            program_overlap(&o[&CsspgoFull].quality_counts, &o[&Instr].quality_counts) * 100.0;
        t.push(
            name,
            vec![
                cell!(probed, "{}"),
                cell!(size_delta_pct(plain, probed), "{:+.3}%"),
                cell!(overlap, "{:.1}%"),
            ],
        );
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
pub fn ablation_ctx_trim(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("haas");
    // The context-insensitive (probe-only) profile is the size baseline.
    let (binary, run) = profiled(w, true, &ctx.cfg);
    let flat = probe_profile_nodes(&probe_only_profile(
        &binary,
        &run.samples,
        ctx.cfg.ingest_shards,
    ));
    let mut t = Table::new(
        format!(
            "# Ablation — cold-context trimming (haas), scale={}\n\
             (context-insensitive profile: {flat} profile nodes)",
            ctx.scale
        ),
        &[
            "trim threshold",
            "trie nodes before",
            "after",
            "size vs flat",
            "perf vs AutoFDO",
        ],
    );
    let autofdo = o[&AutoFdo].eval.cycles;
    for threshold in [0u64, 4, 16, 64, 256] {
        let cfg = PipelineConfig {
            trim_threshold: threshold,
            ..ctx.cfg.clone()
        };
        let o = ctx.under(w, &[CsspgoFull], &cfg, threshold == ctx.cfg.trim_threshold);
        let full = &o[&CsspgoFull];
        let after = full.context_nodes_after_trim;
        t.push(
            threshold.to_string(),
            vec![
                cell!(full.context_nodes_before_trim, "{}"),
                cell!(after, "{}"),
                cell!(after as f64 / flat.max(1) as f64, "{:.1}x"),
                cell!(improvement_pct(autofdo, full.eval.cycles), "{:+.2}%"),
            ],
        );
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
/// samples; the unwinder then reconstructs fewer and shallower contexts,
/// and end-to-end CSSPGO performance suffers.
pub fn ablation_pebs(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("ad_retriever");
    let autofdo = o[&AutoFdo].eval.cycles;
    let mut t = Table::new(
        format!(
            "# Ablation — PEBS vs sampling skid (ad_retriever), scale={}",
            ctx.scale
        ),
        &[
            "sampling",
            "broken stacks",
            "context samples",
            "trie nodes",
            "full CSSPGO vs AutoFDO",
        ],
    );
    for (name, pebs) in [("PEBS (`:upp`)", true), ("no PEBS (skid)", false)] {
        let cfg = PipelineConfig {
            pebs,
            ..ctx.cfg.clone()
        };
        // Direct unwinder statistics on the probed profiling binary.
        let (binary, run) = profiled(w, true, &cfg);
        let unwound = context_profile(&binary, &run.samples, cfg.ingest_shards);
        let o = ctx.under(w, &[CsspgoFull], &cfg, pebs == ctx.cfg.pebs);
        t.push(
            name,
            vec![
                cell!(unwound.broken_stacks, "{}"),
                cell!(unwound.profile.total(), "{}"),
                cell!(unwound.profile.node_count(), "{}"),
                cell!(
                    improvement_pct(autofdo, o[&CsspgoFull].eval.cycles),
                    "{:+.2}%"
                ),
            ],
        );
    }
    t.note("\n(the paper's `perf record -g --call-graph fp -e br_inst_retired.near_taken:upp`)");
    vec![t]
}

/// **Extension (paper §VI future work)**: "Future work may explore a
/// different overhead and performance balance with CSSPGO to further
/// approach instrumentation-based PGO performance."
///
/// This sweep enumerates the probe-blocking lattice between the production
/// low-overhead point and the full-barrier point, measuring for each:
/// profiling-binary overhead (what production pays) and the resulting full
/// CSSPGO evaluation performance (what better correlation buys).
pub fn extension_balance_sweep(ctx: &Ctx) -> Vec<Table> {
    let (w, o) = ctx.one("hhvm");
    let (plain, autofdo) = (o[&O2].eval.cycles, o[&AutoFdo].eval.cycles);
    let instr_gain = improvement_pct(autofdo, o[&Instr].eval.cycles);
    let mut t = Table::new(
        format!(
            "# Extension — probe overhead/accuracy balance sweep (hhvm), scale={}\n\
             (Instr PGO reference: {instr_gain:+.2}% over AutoFDO)\n",
            ctx.scale
        ),
        &[
            "probe tuning",
            "profiling overhead %",
            "full CSSPGO vs AutoFDO",
        ],
    );
    // Blocked: [if-convert, code motion, jump threading (duplication)].
    for (name, [block_if_convert, block_code_motion, block_jump_threading]) in [
        ("production (nothing blocked)", [false, false, false]),
        ("+ block if-convert", [true, false, false]),
        ("+ block code motion", [true, true, false]),
        ("full barrier (+ block duplication)", [true, true, true]),
    ] {
        let probe = ProbeConfig {
            block_if_convert,
            block_code_motion,
            block_jump_threading,
        };
        let cfg = ctx.with_probe(probe);
        let o = ctx.under(w, &[CsspgoFull], &cfg, probe == ctx.cfg.opt.probe);
        t.push(
            name,
            vec![
                cell!(size_delta_pct(plain, probed_o2_cycles(w, &cfg)), "{:+.3}"),
                cell!(
                    improvement_pct(autofdo, o[&CsspgoFull].eval.cycles),
                    "{:+.2}%"
                ),
            ],
        );
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
pub fn bench_pipeline(ctx: &Ctx) -> Vec<Table> {
    let mut instr = Table::new(
        format!(
            "# bench_pipeline, scale={}\n\n\
             # Instrumentation overhead (full vs spanning-tree counter placement)",
            ctx.scale
        ),
        &[
            "workload | row",
            "counter sites",
            "profiling cycles",
            "eval cycles",
        ],
    );
    let mut kept = Vec::new();
    for (w, _) in ctx.servers() {
        let mut sites = [0; 2];
        for (i, (label, placement)) in [
            ("instr-full", Placement::Full),
            ("instr-sptree", Placement::SpanningTree),
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = ctx.cfg.clone();
            cfg.instrument.placement = placement;
            let at_default = placement == ctx.cfg.instrument.placement;
            let o = ctx.under(w, &[Instr], &cfg, at_default);
            let o = &o[&Instr];
            sites[i] = o.counter_sites;
            instr.push(
                format!("{} | {label}", w.name),
                vec![
                    cell!(o.counter_sites, "{}"),
                    cell!(o.profiling.cycles, "{}"),
                    cell!(o.eval.cycles, "{}"),
                ],
            );
        }
        let [full, sp] = sites;
        if full > 0 {
            kept.push(format!(
                "{}: {sp} of {full} counters kept ({:.1}% fewer)",
                w.name,
                (full - sp.min(full)) as f64 / full as f64 * 100.0
            ));
        }
    }
    instr.notes = kept;

    // `-O2` and clean `CSSPGO (full)` anchor the retained-win scale, then
    // the CFG-drifted cycle runs with stale recovery (and the default MCF
    // inference).
    let mut drifted = Table::new(
        "# Drifted-profile inference comparison (change_cfg drift, stale recovery on)",
        &[
            "workload | row",
            "eval cycles",
            "retained %",
            "counts adjusted",
            "flow moved",
            "residual cost",
            "salvaged %",
            "inferred %",
        ],
    );
    let mut recover = ctx.cfg.clone();
    recover.annotate.stale_matching = StaleMatching::Recover;
    let pct = |v: Option<f64>| Cell::opt(v, "-", |p| format!("{p:.1}"));
    for (w, o) in ctx.servers() {
        let (o2, clean) = (o[&O2].eval.cycles, o[&CsspgoFull].eval.cycles);
        // Retained % is only meaningful when the clean profile actually
        // beats -O2 (it may not at small traffic scales); the drifted rows
        // then measure how much of that win survives, signed — a drifted
        // profile that makes the binary slower than -O2 goes negative.
        let clean_win = o2 as f64 - clean as f64;
        let retained = |cycles: u64| {
            pct((clean_win > 0.0).then(|| (o2 as f64 - cycles as f64) / clean_win * 100.0))
        };
        let mcf = cycle(w, CsspgoFull, &recover, &drift::change_cfg(&w.source));
        let inf = mcf.annotate_stats.inference;
        let prov = mcf.annotate_stats.provenance;
        let share =
            |part: u64| pct((prov.total() > 0).then(|| part as f64 / prov.total() as f64 * 100.0));
        for (label, mut cells) in [
            ("drift-O2", vec![cell!(o2, "{}")]),
            ("drift-clean", vec![cell!(clean, "{}"), retained(clean)]),
            (
                "drift-mcf",
                vec![
                    cell!(mcf.eval.cycles, "{}"),
                    retained(mcf.eval.cycles),
                    cell!(inf.counts_adjusted, "{}"),
                    cell!(inf.flow_moved, "{}"),
                    cell!(inf.residual_cost, "{}"),
                    share(prov.stale_matched),
                    share(prov.inferred),
                ],
            ),
        ] {
            cells.resize(7, Cell::text("-"));
            drifted.push(format!("{} | {label}", w.name), cells);
        }
    }
    vec![instr, drifted]
}
