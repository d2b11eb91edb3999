//! Cost-model behaviour tests: the simulator must reward exactly the levers
//! the paper's optimizations pull.

use csspgo_codegen::{lower_module, CodegenConfig};
use csspgo_sim::{Machine, SimConfig};

fn build(src: &str) -> csspgo_codegen::Binary {
    let m = csspgo_lang::compile(src, "t").unwrap();
    lower_module(&m, &CodegenConfig::default())
}

#[test]
fn call_overhead_scales_with_call_count() {
    let src = r#"
fn leaf(x) { return x + 1; }
fn with_calls(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = leaf(s); i = i + 1; }
    return s;
}
fn without_calls(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = s + 1; i = i + 1; }
    return s;
}
"#;
    let b = build(src);
    let mut m1 = Machine::new(&b, SimConfig::default());
    m1.call("with_calls", &[1000]).unwrap();
    let c1 = m1.stats().cycles;
    let mut m2 = Machine::new(&b, SimConfig::default());
    m2.call("without_calls", &[1000]).unwrap();
    let c2 = m2.stats().cycles;
    assert!(
        c1 > c2 + 1000 * 5,
        "1000 call/ret pairs must cost >5 cycles each: {c1} vs {c2}"
    );
}

#[test]
fn predictable_branches_beat_random_ones() {
    let src = r#"
global noise[1024];
fn steady(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        if (i >= 0) { s = s + 1; } else { s = s - 1; }
        i = i + 1;
    }
    return s;
}
fn noisy(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        if (noise[i % 1024] == 1) { s = s + 1; } else { s = s - 1; }
        i = i + 1;
    }
    return s;
}
"#;
    let m = csspgo_lang::compile(src, "t").unwrap();
    // NB: no optimization — keep both branches as real branches.
    let b = lower_module(&m, &CodegenConfig::default());
    // Pseudo-random 0/1 noise.
    let noise: Vec<i64> = (0..1024).map(|i: i64| (i * 2654435761) >> 13 & 1).collect();
    let mut m1 = Machine::new(&b, SimConfig::default());
    m1.set_global("noise", &noise);
    m1.call("steady", &[4000]).unwrap();
    let steady_mis = m1.stats().mispredicts;
    let mut m2 = Machine::new(&b, SimConfig::default());
    m2.set_global("noise", &noise);
    m2.call("noisy", &[4000]).unwrap();
    let noisy_mis = m2.stats().mispredicts;
    assert!(
        noisy_mis > steady_mis * 10,
        "random branch must mispredict: {noisy_mis} vs {steady_mis}"
    );
}

#[test]
fn icache_punishes_scattered_execution() {
    // Two functions ping-ponging across a large gap (one is placed in the
    // cold section) should miss more than a tight loop.
    let src = r#"
fn a(x) { return x * 3 + 1; }
fn b(x) { return x * 5 + 2; }
fn pingpong(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = a(s) + b(s); i = i + 1; }
    return s;
}
"#;
    let b = build(src);
    let mut m = Machine::new(&b, SimConfig::default());
    m.call("pingpong", &[2000]).unwrap();
    // The whole program is tiny: after warm-up everything fits; misses must
    // be bounded by the number of distinct lines, not the iteration count.
    assert!(
        m.stats().icache_misses < 64,
        "tiny program must fit in the i-cache: {}",
        m.stats().icache_misses
    );
}

#[test]
fn jump_table_dispatch_is_predicted_by_last_target() {
    let src = r#"
fn dispatch(op) {
    switch (op) {
        case 0 { return 10; }
        case 1 { return 20; }
        case 2 { return 30; }
        default { return 0; }
    }
}
fn steady(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = s + dispatch(1); i = i + 1; }
    return s;
}
fn rotating(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = s + dispatch(i % 3); i = i + 1; }
    return s;
}
"#;
    let b = build(src);
    let mut m1 = Machine::new(&b, SimConfig::default());
    m1.call("steady", &[3000]).unwrap();
    let mut m2 = Machine::new(&b, SimConfig::default());
    m2.call("rotating", &[3000]).unwrap();
    assert!(
        m2.stats().mispredicts > m1.stats().mispredicts + 1000,
        "rotating dispatch targets must mispredict: {} vs {}",
        m2.stats().mispredicts,
        m1.stats().mispredicts
    );
}

#[test]
fn globals_are_readable_after_runs() {
    let src = r#"
global out[4];
fn write_it(v) { out[2] = v * 2; return v; }
"#;
    let b = build(src);
    let mut m = Machine::new(&b, SimConfig::default());
    m.call("write_it", &[21]).unwrap();
    assert_eq!(m.global("out").unwrap()[2], 42);
    assert!(m.global("nonexistent").is_none());
}

#[test]
fn lbr_capacity_32_is_respected() {
    let src = r#"
fn f(n) {
    let i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
"#;
    let b = build(src);
    let cfg = SimConfig {
        lbr_size: 32,
        sample_period: 50,
        ..SimConfig::default()
    };
    let mut m = Machine::new(&b, cfg);
    m.call("f", &[5000]).unwrap();
    let samples = m.take_samples();
    assert!(!samples.is_empty());
    assert!(samples.iter().all(|s| s.lbr.len() <= 32));
    assert!(
        samples.iter().any(|s| s.lbr.len() > 16),
        "deep LBR must actually fill past 16"
    );
}

#[test]
fn sample_pc_points_into_the_binary() {
    let src = "fn f(n) { let i = 0; while (i < n) { i = i + 1; } return i; }";
    let b = build(src);
    let cfg = SimConfig {
        sample_period: 31,
        ..SimConfig::default()
    };
    let mut m = Machine::new(&b, cfg);
    m.call("f", &[4000]).unwrap();
    for s in m.take_samples() {
        assert!(b.index_of_addr(s.pc).is_some(), "pc {:#x} unmapped", s.pc);
    }
}

/// Regression: an LBR of capacity 0 used to grow by one entry per taken
/// branch (its "full" test only ever held before the first push) and copy
/// all of them into every sample. A fixed ring records at most its capacity.
#[test]
fn lbr_never_holds_more_than_its_capacity_down_to_zero() {
    let src = "fn f(n) { let i = 0; while (i < n) { i = i + 1; } return i; }";
    let b = build(src);
    for lbr_size in [0, 1, 3] {
        let cfg = SimConfig {
            lbr_size,
            sample_period: 31,
            ..SimConfig::default()
        };
        let mut m = Machine::new(&b, cfg);
        m.call("f", &[4000]).unwrap();
        let samples = m.take_samples();
        assert!(samples.len() > 100, "sampling is on");
        assert!(
            samples.iter().all(|s| s.lbr.len() <= lbr_size),
            "lbr_size {lbr_size}: a sample carries {} entries",
            samples.iter().map(|s| s.lbr.len()).max().unwrap()
        );
        assert!(
            samples.last().unwrap().lbr.len() == lbr_size,
            "lbr_size {lbr_size}: a warm LBR is full"
        );
    }
}
