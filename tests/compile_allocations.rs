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

use common::Lineage;
use csspgo::codegen::{lower_module, CodegenConfig};
use csspgo::core::annotate::csspgo_annotate;
use csspgo::ir::InlinePlan;
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

/// The layers, in pipeline order (the passes by the names
/// `opt::run_passes` gives them), with the most allocations each may make
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
    /// Charges `n` allocations to `layer`.
    fn charge(&mut self, layer: &str, n: u64) {
        let slot = LAYERS
            .iter()
            .position(|&(name, _)| name == layer)
            .expect("a known layer");
        self.0[slot] += n;
    }

    /// Runs `f`, charging its allocations to `layer`.
    fn count<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let before = ALLOCATIONS.with(Cell::get);
        let out = f();
        self.charge(layer, ALLOCATIONS.with(Cell::get) - before);
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    O2,
    Probes,
    Annotated,
}

fn build(lineage: &Lineage, source: &str, mode: Mode, tally: &mut Tally) {
    let w = &lineage.workload;
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
                &lineage.probe,
                Some(&InlinePlan),
                &lineage.annotate,
            )
        });
    }
    let opt = if mode == Mode::Annotated {
        &lineage.opt_annotated
    } else {
        &lineage.opt
    };
    // Each entry is charged what was allocated since the walk last called.
    let mut last = 0;
    csspgo::opt::run_passes(&mut module, opt, |_, pass| {
        let now = ALLOCATIONS.with(Cell::get);
        if pass != "input" {
            tally.charge(pass, now - last);
        }
        last = now;
    });
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

#[test]
fn every_compile_layer_stays_under_its_allocation_bound() {
    let mut tally = Tally::default();
    // `ad_retriever`'s lineage alone: the benchmark's compile lap.
    let mut lap = Tally::default();
    for lineage in &common::lineages() {
        let mut mine = Tally::default();
        for source in &lineage.sources {
            for mode in [Mode::O2, Mode::Probes, Mode::Annotated] {
                build(lineage, source, mode, &mut mine);
            }
        }
        for (all, n) in tally.0.iter_mut().zip(mine.0) {
            *all += n;
        }
        if lineage.workload.name == "ad_retriever" {
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
