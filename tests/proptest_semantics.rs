//! Property tests: randomly generated MiniLang programs must behave
//! identically through every build configuration — plain, fully optimized,
//! probed, and instrumented. This is the whole-toolchain semantics
//! invariant the PGO pipelines rely on.

use csspgo::sim::{Machine, SimConfig};
use proptest::prelude::*;

#[path = "common/program_gen.rs"]
mod program_gen;
use program_gen::{build, program_strategy, render_program};

/// Runs `src` under a build configuration, returning outputs for several
/// inputs (or None if the machine hit its budget).
fn run_config(src: &str, probes: bool, instrument: bool, optimize: bool) -> Vec<i64> {
    let b = build(src, probes, instrument, optimize);
    let cfg = SimConfig {
        max_steps: 20_000_000,
        ..SimConfig::default()
    };
    let mut machine = Machine::new(&b, cfg);
    let inputs = [(0, 0), (1, 2), (-7, 13), (100, -100), (12345, 678)];
    inputs
        .iter()
        .map(|&(a, b)| machine.call("main", &[a, b]).expect("terminates"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_build_configuration_is_semantics_preserving(
        program in program_strategy()
    ) {
        let src = render_program(&program);
        let reference = run_config(&src, false, false, false);
        prop_assert_eq!(&run_config(&src, false, false, true), &reference, "plain -O2");
        prop_assert_eq!(&run_config(&src, true, false, true), &reference, "probed -O2");
        prop_assert_eq!(&run_config(&src, false, true, true), &reference, "instrumented -O2");
    }
}
