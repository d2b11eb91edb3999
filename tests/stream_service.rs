//! Integration tests for the streaming service surface: the public
//! pipeline stages composing to the product cycle under any sample
//! drainage, and the drift-detection → recompilation hook that keeps a
//! continuously served profile fresh.

use csspgo::core::annotate::AnnotateStats;
use csspgo::core::pipeline::{
    autofdo_profile, context_profile, evaluate, finish_probe_profile, optimized_build,
    prepared_module, profiling_build, profiling_run, run_pgo_cycle, run_pgo_cycle_drifted,
    staged_machine, wire_handoff, BuildProfile, PgoOutcome, PgoVariant, PipelineConfig,
};
use csspgo::core::preinline::run_preinliner;
use csspgo::core::stream::{StreamAggregator, StreamConfig};
use csspgo::core::tailcall::TailCallGraph;
use csspgo::core::Workload;
use csspgo::sim::{Machine, RunStats, Sample, SimConfig};
use csspgo::workloads::drift::Mutator;

fn cfg() -> PipelineConfig {
    let cfg = PipelineConfig {
        sample_period: 89,
        ..PipelineConfig::default()
    };
    cfg.validate().expect("valid test config");
    cfg
}

/// What a cycle assembled by hand from the public stages produced.
struct Staged {
    profiling: RunStats,
    samples: Vec<Sample>,
    nodes_after_trim: usize,
    plan_len: usize,
    annotate_stats: AnnotateStats,
    eval: RunStats,
    eval_result_hash: u64,
    text: u64,
}

/// The AutoFDO or full-CSSPGO cycle, stage by stage. With `drain_per_call`
/// the PMU is drained after every training call (the streaming shape) and
/// the concatenated stream feeds the same profile-generation stage.
fn staged_cycle(
    w: &Workload,
    variant: PgoVariant,
    cfg: &PipelineConfig,
    drain_per_call: bool,
) -> Staged {
    let binary = profiling_build(&w.source, &w.name, variant, cfg)
        .unwrap()
        .binary;
    let sim = cfg.sim_config(cfg.sample_period);
    let (samples, profiling) = if drain_per_call {
        let mut machine = staged_machine(&binary, w, sim).expect("globals stage");
        let mut samples = Vec::new();
        let mut epochs = 0;
        for args in &w.train_calls {
            machine.call(&w.entry, args).unwrap();
            let epoch = machine.take_samples();
            epochs += usize::from(!epoch.is_empty());
            samples.extend(epoch);
        }
        assert!(
            epochs > 1,
            "traffic must actually arrive in multiple epochs"
        );
        (samples, *machine.stats())
    } else {
        let run = profiling_run(&binary, w, sim).unwrap();
        (run.samples, run.stats)
    };

    let build_module = prepared_module(&w.source, &w.name, variant.uses_probes()).unwrap();
    let (mut nodes_after_trim, mut plan_len) = (0, 0);
    let profile = if variant == PgoVariant::AutoFdo {
        BuildProfile::Flat(autofdo_profile(&binary, &samples, cfg.ingest_shards))
    } else {
        let mut generated = context_profile(&binary, &samples, cfg.ingest_shards);
        generated.profile.trim_cold(cfg.trim_threshold);
        nodes_after_trim = generated.profile.node_count();
        let pre = run_preinliner(&mut generated.profile, &binary, &cfg.preinline);
        plan_len = pre.plan_paths.len();
        let rc = &generated.range_counts;
        BuildProfile::Probe(finish_probe_profile(&generated.profile, rc, &binary))
    };
    let profile = wire_handoff(profile).unwrap();
    let (optimized, annotate_stats) =
        optimized_build(build_module, variant, &profile, &w.entry, cfg);
    let (eval, eval_result_hash) = evaluate(&optimized, w, cfg).unwrap();
    Staged {
        profiling,
        samples,
        nodes_after_trim,
        plan_len,
        annotate_stats,
        eval,
        eval_result_hash,
        text: optimized.sections.text,
    }
}

fn assert_same_cycle(product: &PgoOutcome, staged: &Staged) {
    assert_eq!(product.profiling, staged.profiling);
    assert_eq!(product.profiling.samples, staged.samples.len() as u64);
    assert_eq!(product.context_nodes_after_trim, staged.nodes_after_trim);
    assert_eq!(product.plan_len, staged.plan_len);
    assert_eq!(product.annotate_stats, staged.annotate_stats);
    assert_eq!(product.eval_result_hash, staged.eval_result_hash);
    assert_eq!(product.eval, staged.eval);
    assert_eq!(product.sections.text, staged.text);
}

/// Draining the PMU once per training call and feeding the concatenated
/// stream to the same profile-generation stage reproduces the one-drain
/// sample stream, and with it the product cycle.
#[test]
fn per_epoch_drain_reproduces_one_drain_cycle_on_real_workload() {
    let w = csspgo::workloads::ad_finder().scaled(0.2);
    let cfg = cfg();
    for variant in [PgoVariant::AutoFdo, PgoVariant::CsspgoFull] {
        let per_epoch = staged_cycle(&w, variant, &cfg, true);
        let one_drain = staged_cycle(&w, variant, &cfg, false);
        assert_eq!(per_epoch.samples, one_drain.samples, "{variant}");
        assert_same_cycle(&run_pgo_cycle(&w, variant, &cfg).unwrap(), &per_epoch);
    }
}

/// The classic entry point is nothing but the stages in order: calling
/// them by hand lands on the same binary and the same cycles.
#[test]
fn stage_calls_reproduce_the_classic_entry_point() {
    let w = csspgo::workloads::ad_finder().scaled(0.2);
    let cfg = cfg();
    let staged = staged_cycle(&w, PgoVariant::AutoFdo, &cfg, false);
    assert_same_cycle(
        &run_pgo_cycle(&w, PgoVariant::AutoFdo, &cfg).unwrap(),
        &staged,
    );
}

/// The full continuous-serving story: steady traffic folds cleanly, a
/// behaviour shift trips the drift detector, and the stale signal drives a
/// profile refresh through the existing drifted-recompile path.
#[test]
fn stale_epoch_triggers_drifted_recompile() {
    let src = r#"
fn hot_a(x) {
    if (x % 3 == 0) { return x * 2; }
    return x + 1;
}
fn hot_b(x) {
    if (x % 7 == 0) { return x - 5; }
    return x * 3;
}
fn serve(n, mode) {
    let i = 0;
    let s = 0;
    while (i < n) {
        if (mode == 1) { s = s + hot_a(i); }
        if (mode != 1) { s = s + hot_b(i); }
        i = i + 1;
    }
    return s;
}
"#;
    let w = csspgo::core::Workload::new(
        "shifting",
        src,
        "serve",
        vec![vec![900, 1], vec![900, 1]],
        vec![vec![901, 1]],
    );

    // Probed build, served continuously.
    let module = prepared_module(src, "shifting", true).unwrap();
    let binary = csspgo::codegen::lower_module(&module, &csspgo::codegen::CodegenConfig::default());
    let mut machine = Machine::new(
        &binary,
        SimConfig {
            sample_period: 31,
            ..SimConfig::default()
        },
    );

    let stream_cfg = StreamConfig {
        drift_threshold: 0.8,
        ..StreamConfig::default()
    };
    let mut agg =
        StreamAggregator::with_tail_graph(&binary, stream_cfg, 2, TailCallGraph::default());

    // Two epochs of steady mode-1 traffic.
    for _ in 0..2 {
        machine.call("serve", &[2000, 1]).unwrap();
        agg.push_batch(machine.take_samples()).unwrap();
        let s = agg.seal_epoch();
        assert!(!s.stale, "steady traffic drifted: overlap {:.3}", s.overlap);
    }
    // Traffic shifts to mode 2: different hot function, profile goes stale.
    machine.call("serve", &[2000, 2]).unwrap();
    agg.push_batch(machine.take_samples()).unwrap();
    let shifted = agg.seal_epoch();
    assert!(
        shifted.stale,
        "behaviour shift must be detected: overlap {:.3}",
        shifted.overlap
    );

    // The stale signal hooks the existing drifted-cycle path: recompile
    // with today's (drifted) source while profiling the old deployment.
    let drifted_src = Mutator::InsertBodyComments.apply(src, &[]);
    let refreshed =
        run_pgo_cycle_drifted(&w, PgoVariant::CsspgoFull, &cfg(), &drifted_src).unwrap();
    assert_eq!(
        refreshed.annotate_stats.stale_total(),
        0,
        "probe checksums survive comment-only drift"
    );
    let clean = run_pgo_cycle(&w, PgoVariant::CsspgoFull, &cfg()).unwrap();
    assert_eq!(refreshed.eval_result_hash, clean.eval_result_hash);
}
