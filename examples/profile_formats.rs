//! Profile persistence: generate a real AutoFDO-style profile and a CSSPGO
//! context profile from one simulated production run, round-trip both
//! through the binprof wire format, and print them as text.
//!
//! ```sh
//! cargo run --release --example profile_formats
//! ```

use csspgo::codegen::{lower_module, CodegenConfig};
use csspgo::core::pipeline::{autofdo_profile, context_profile, prepared_module};
use csspgo::core::{binprof, textprof};
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

    // --- AutoFDO-style flat profile ---
    let flat = autofdo_profile(&binary, &samples, 0);
    let bytes = binprof::encode_flat(&flat);
    let parsed = binprof::decode_flat(&bytes)?;
    assert_eq!(parsed, flat, "flat round-trip");
    println!(
        "--- flat (AutoFDO-style) profile, {} bytes ---\n{}",
        bytes.len(),
        textprof::write_profile(&parsed)
    );

    // --- CSSPGO context profile ---
    let mut ctx = context_profile(&binary, &samples, 0).profile;
    for f in &binary.funcs {
        ctx.names.insert(f.guid, f.name.clone());
    }
    let bytes = binprof::encode_context(&ctx);
    let parsed = binprof::decode_context(&bytes)?;
    assert_eq!(parsed, ctx, "context round-trip");
    println!(
        "--- context (CSSPGO) profile, {} bytes ---\n{}",
        bytes.len(),
        textprof::write_context(&parsed)
    );

    println!("both formats round-tripped losslessly ✓");
    Ok(())
}
