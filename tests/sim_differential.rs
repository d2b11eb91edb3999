//! Differential property test: the pre-decoded [`Machine`] against the
//! per-step-decoding interpreter it replaced (kept verbatim in
//! `tests/common/reference_sim.rs`). On generated programs, through every
//! build configuration and PMU setting, everything a caller can observe —
//! each call's result or error, the [`RunStats`](csspgo::sim::RunStats)
//! after every call, the sample stream in batches, the counters and the
//! data memory — must be equal, including across a step limit hit in the
//! middle of a request.

use csspgo::codegen::Binary;
use csspgo::sim::{Machine, RunStats, SimConfig};
use proptest::prelude::*;

#[path = "common/program_gen.rs"]
mod program_gen;
#[path = "common/reference_sim.rs"]
mod reference_sim;
use program_gen::{build, render_program, stmt_strategy};
use reference_sim::ReferenceMachine;

/// What the generator's `main` never produces on its own: a jump table, a
/// tail call whose second argument is the register its first one lands in,
/// immediates as call arguments, a dropped call result.
const DRIVER: &str = r#"
fn dispatch(op, x) {
    switch (op % 5) {
        case 0 { return x + 1; }
        case 1 { return helper0(x); }
        case 3 { return x * 3; }
        default { return 0 - x; }
    }
}
fn chain(x, y, z) {
    return dispatch(y + z, x);
}
fn driver(a, b) {
    let r = main(a, b);
    let i = 0;
    while (i < 25) {
        r = r + chain(r, i + a, 7);
        helper1(i);
        i = i + 1;
    }
    return r;
}
"#;

const REQUESTS: [(&str, &[i64]); 6] = [
    ("driver", &[0, 0]),
    ("driver", &[1, 2]),
    ("main", &[-7, 13]),
    ("no_such_function", &[]),
    // More arguments than the callee has parameters.
    ("helper0", &[9, 8, 7, 6, 5, 4, 3, 2, 1]),
    ("driver", &[12345, 678]),
];

/// Drives both machines through [`REQUESTS`] and compares every
/// observable after every step. Returns the production machine's final
/// statistics.
fn run_both(binary: &Binary, config: &SimConfig) -> Result<RunStats, TestCaseError> {
    let mut machine = Machine::new(binary, config.clone());
    let mut reference = ReferenceMachine::new(binary, config.clone());
    let staged: Vec<i64> = (0..70).map(|i| i * 37 % 101 - 50).collect();
    machine.set_global("mem", &staged);
    reference.set_global("mem", &staged);

    for (i, (entry, args)) in REQUESTS.iter().enumerate() {
        prop_assert_eq!(
            machine.call(entry, args),
            reference.call(entry, args),
            "result of request {} under {:?}",
            i,
            config
        );
        prop_assert_eq!(
            machine.stats(),
            reference.stats(),
            "stats after request {} under {:?}",
            i,
            config
        );
        if i % 2 == 1 {
            prop_assert_eq!(machine.pending_samples(), reference.pending_samples());
            prop_assert_eq!(
                machine.take_sample_batch(3),
                reference.take_sample_batch(3),
                "sample batch after request {} under {:?}",
                i,
                config
            );
        }
    }
    prop_assert_eq!(
        machine.take_samples(),
        reference.take_samples(),
        "samples under {:?}",
        config
    );
    prop_assert_eq!(machine.counters(), reference.counters());
    prop_assert_eq!(machine.global("mem"), reference.global("mem"));
    prop_assert_eq!(machine.global("nope"), reference.global("nope"));
    Ok(*machine.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn machine_is_bit_identical_to_the_reference_interpreter(
        stmts in prop::collection::vec(stmt_strategy(), 1..6),
        seed in any::<u64>(),
    ) {
        let src = render_program(&stmts) + DRIVER;
        // Plain, optimised, probed and instrumented builds.
        for (probes, instrument, optimize) in [
            (false, false, false),
            (false, false, true),
            (true, false, true),
            (false, true, true),
        ] {
            let binary = build(&src, probes, instrument, optimize);
            let unlimited = SimConfig { seed, max_steps: 20_000_000, ..SimConfig::default() };
            let retired = run_both(&binary, &unlimited)?.instructions;
            for sample_period in [0, 23, 199] {
                for pebs in [true, false] {
                    for lbr_size in [1, 4, 16] {
                        // Once to completion, once into the step limit in
                        // the middle of a request (and on every request
                        // after it).
                        for max_steps in [20_000_000, retired * 3 / 5] {
                            let config = SimConfig {
                                lbr_size,
                                pebs,
                                sample_period,
                                seed,
                                max_steps,
                                ..SimConfig::default()
                            };
                            let stats = run_both(&binary, &config)?;
                            // The test tests what it says it does.
                            prop_assert_eq!(stats.instructions, max_steps.min(retired));
                            prop_assert_eq!(stats.samples > 0, sample_period > 0);
                        }
                    }
                }
            }
        }
    }
}
