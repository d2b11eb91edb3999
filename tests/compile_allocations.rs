//! Heap allocations of the compile path, counted by a counting global
//! allocator in this test binary of its own: the six `csspgo_workloads`
//! programs and the five `drift::release_chain` descendants of each, built
//! `-O2`, with probes, and annotated from the base program's probe profile
//! (stale matching on, MCF inference) — the benchmark's compile lap at full
//! program scale. Every layer call is counted on its own and held to a
//! bound, so a layer that goes back to allocating per item fails here by
//! name.
//!
//! `cargo test --test compile_allocations -- --nocapture` prints the table.

use csspgo::codegen::{lower_module, CodegenConfig};
use csspgo::core::annotate::{csspgo_annotate, AnnotateConfig};
use csspgo::core::inference::InferenceMode;
use csspgo::core::pipeline::PipelineConfig;
use csspgo::core::stalematch::StaleMatching;
use csspgo::core::Workload;
use csspgo::ir::{InlinePlan, Module};
use csspgo::opt::OptConfig;
use csspgo::workloads::drift;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

/// Counts every `alloc`, `alloc_zeroed` and `realloc` of the calling thread
/// and hands the work to [`System`].
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Traffic scale of the profiling run behind each annotated build.
const SCALE: f64 = 0.05;

/// The layers, in pipeline order, with the most allocations each may make
/// over the whole set of builds: about 8 % above what a debug build makes
/// (a release build makes no more). The total was 416 489 before the front
/// end, inference, the instruction stream and the passes on the compile
/// path moved to dense tables.
const LAYERS: [(&str, u64); 15] = [
    ("lang", 24_000),
    ("prepare", 17_000),
    ("annotate", 13_500),
    ("simplify", 33_000),
    ("tail_dup", 5_000),
    ("licm", 14_500),
    ("sink", 1_200),
    ("inliner", 31_500),
    ("unroll", 6_000),
    ("tailmerge", 1_200),
    ("ifconvert", 1_000),
    ("layout", 17_500),
    ("strip", 350),
    ("codegen", 29_000),
    ("total", 195_000),
];

/// The most allocations `ad_retriever`'s lineage — the benchmark's compile
/// lap — may make: half of the 39 656 it made before the compile path went
/// dense.
const LAP_BOUND: u64 = 19_828;

/// Allocation counts per layer (indexed like [`LAYERS`]).
#[derive(Default)]
struct Tally([u64; LAYERS.len()]);

impl Tally {
    /// Runs `f`, charging its allocations to `layer`.
    fn count<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let slot = LAYERS
            .iter()
            .position(|&(name, _)| name == layer)
            .expect("a known layer");
        let before = ALLOCATIONS.with(Cell::get);
        let out = f();
        self.0[slot] += ALLOCATIONS.with(Cell::get) - before;
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    O2,
    Probes,
    Annotated,
}

/// `run_pipeline` pass by pass, each pass charged to its own layer.
fn optimise(module: &mut Module, config: &OptConfig, tally: &mut Tally) {
    use csspgo::opt::*;
    for block in module.functions.iter_mut().flat_map(|f| &mut f.blocks) {
        block.provenance = None;
    }
    tally.count("simplify", || simplify::run(module));
    tally.count("tail_dup", || tail_dup::run(module, config));
    tally.count("simplify", || simplify::run(module));
    tally.count("licm", || licm::run(module, config));
    tally.count("sink", || sink::run(module, config));
    tally.count("inliner", || inliner::run_bottom_up(module, config));
    tally.count("simplify", || simplify::run(module));
    tally.count("unroll", || unroll::run(module));
    tally.count("simplify", || simplify::run(module));
    tally.count("tailmerge", || tailmerge::run(module));
    tally.count("ifconvert", || ifconvert::run(module, config));
    tally.count("simplify", || simplify::run(module));
    tally.count("layout", || layout::run(module));
}

fn build(w: &Workload, source: &str, mode: Mode, profile: &Profile, tally: &mut Tally) {
    let module = tally.count("lang", || csspgo::lang::compile(source, &w.name));
    let mut module = module.expect("workload compiles");
    tally.count("prepare", || {
        csspgo::opt::discriminators::run(&mut module);
        if mode != Mode::O2 {
            csspgo::opt::probes::run(&mut module);
        }
    });
    if mode == Mode::Annotated {
        tally.count("annotate", || {
            csspgo_annotate(
                &mut module,
                &profile.probe,
                Some(&InlinePlan),
                &profile.annotate,
            )
        });
    }
    let opt = if mode == Mode::Annotated {
        &profile.opt_annotated
    } else {
        &profile.config.opt
    };
    let mut replayed = module.clone();
    csspgo::opt::run_pipeline(&mut module, opt);
    optimise(&mut replayed, opt, tally);
    assert!(
        format!("{replayed:?}") == format!("{module:?}"),
        "the replay is `run_pipeline`"
    );
    if mode != Mode::Probes {
        if let Some(root) = module.find_function(&w.entry) {
            tally.count("strip", || csspgo::opt::strip::run(&mut module, &[root]));
        }
    }
    let binary = tally.count("codegen", || {
        lower_module(&module, &CodegenConfig::default())
    });
    assert!(!binary.is_empty());
}

/// What the annotated builds of one lineage share.
struct Profile {
    config: PipelineConfig,
    probe: csspgo::core::profile::ProbeProfile,
    annotate: AnnotateConfig,
    opt_annotated: OptConfig,
}

#[test]
fn every_compile_layer_stays_under_its_allocation_bound() {
    let mut workloads = csspgo::workloads::server_workloads();
    workloads.push(csspgo::workloads::client_compiler());
    let mut tally = Tally::default();
    // `ad_retriever`'s lineage alone: the benchmark's compile lap.
    let mut lap = Tally::default();
    for w in &workloads {
        let config = PipelineConfig::default();
        let probe = common::collect_probe_profile(&w.scaled(SCALE), &config);
        let mut opt_annotated = config.opt.clone();
        opt_annotated.inline_hot_size = opt_annotated.inline_small_size;
        let profile = Profile {
            annotate: AnnotateConfig {
                stale_matching: StaleMatching::Recover,
                inference: InferenceMode::Mcf,
                ..config.annotate
            },
            config,
            probe,
            opt_annotated,
        };
        let mut sources = vec![w.source.clone()];
        sources.extend(
            drift::release_chain(&w.source, 5, &[w.entry.as_str()])
                .into_iter()
                .map(|(_, s)| s),
        );
        let mut mine = Tally::default();
        for source in &sources {
            for mode in [Mode::O2, Mode::Probes, Mode::Annotated] {
                build(w, source, mode, &profile, &mut mine);
            }
        }
        for (all, n) in tally.0.iter_mut().zip(mine.0) {
            *all += n;
        }
        if w.name == "ad_retriever" {
            lap = mine;
        }
    }
    for t in [&mut tally, &mut lap] {
        let total = t.0.iter().sum::<u64>();
        *t.0.last_mut().expect("a total row") = total;
    }
    eprintln!("allocations per layer (6 programs x 6 sources x 3 modes; the lap):");
    for ((name, bound), (n, l)) in LAYERS.iter().zip(tally.0.into_iter().zip(lap.0)) {
        eprintln!("  {name:<10} {n:>8} {l:>7}  (bound {bound})");
    }
    for ((name, bound), n) in LAYERS.iter().zip(tally.0) {
        assert!(
            n <= *bound,
            "{name} made {n} allocations, past its bound of {bound}"
        );
    }
    let lap = *lap.0.last().expect("a total row");
    assert!(
        lap <= LAP_BOUND,
        "the lap made {lap} allocations, past its bound of {LAP_BOUND}"
    );
}
