//! Profile persistence: generate a real AutoFDO-style text profile and a
//! CSSPGO context profile from one simulated production run, print both, and
//! round-trip them through their parsers.
//!
//! ```sh
//! cargo run --release --example profile_formats
//! ```

use csspgo::codegen::{lower_module, CodegenConfig};
use csspgo::core::pipeline::{autofdo_profile, context_profile, prepared_module};
use csspgo::core::textprof;
use csspgo::sim::{Machine, SimConfig};

const SRC: &str = r#"
fn weigh(x) {
    if (x % 5 == 0) { return x * 2; }
    return x;
}
fn serve(q, n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weigh(q + i);
        i = i + 1;
    }
    return s;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Profiling build (probes + full pipeline) and a production run.
    let mut module = prepared_module(SRC, "svc", true)?;
    csspgo::opt::run_pipeline(&mut module, &csspgo::opt::OptConfig::default());
    let binary = lower_module(&module, &CodegenConfig::default());

    let mut machine = Machine::new(
        &binary,
        SimConfig {
            sample_period: 97,
            ..SimConfig::default()
        },
    );
    for q in 0..40 {
        machine.call("serve", &[q, 300])?;
    }
    let samples = machine.take_samples();

    // --- AutoFDO-style flat text profile ---
    let flat = autofdo_profile(&binary, &samples, 0);
    let flat_text = textprof::write_flat(&flat);
    println!("--- flat (AutoFDO-style) profile ---\n{flat_text}");
    let parsed = textprof::parse_flat(&flat_text)?;
    assert_eq!(parsed.funcs, flat.funcs, "flat round-trip");

    // --- CSSPGO context profile ---
    let mut ctx = context_profile(&binary, &samples, 0).profile;
    for f in &binary.funcs {
        ctx.names.insert(f.guid, f.name.clone());
    }
    let ctx_text = textprof::write_context(&ctx);
    println!("--- context (CSSPGO) profile ---\n{ctx_text}");
    let parsed = textprof::parse_context(&ctx_text)?;
    assert_eq!(parsed.total(), ctx.total(), "context round-trip");

    println!("both formats round-tripped losslessly ✓");
    Ok(())
}
