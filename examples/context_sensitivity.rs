//! The paper's Fig. 3/4 example, end to end: a shared helper (`scalar_op`)
//! whose behaviour depends on the caller. Shows the context-sensitive
//! profile trie the synchronized LBR+stack unwinder reconstructs, and the
//! pre-inliner's specialization decisions.
//!
//! ```sh
//! cargo run --release --example context_sensitivity
//! ```

use csspgo::codegen::{lower_module, CodegenConfig};
use csspgo::core::context::ContextProfile;
use csspgo::core::pipeline::{context_profile, prepared_module};
use csspgo::core::preinline::{run_preinliner, PreInlineConfig};
use csspgo::core::profile::FuncProfile;
use csspgo::sim::{Machine, SimConfig};

const SRC: &str = r#"
fn scalar_add(a, b) { return a + b; }
fn scalar_sub(a, b) { return a - b; }
fn scalar_op(a, b, is_add) {
    if (is_add == 1) { return scalar_add(a, b); }
    return scalar_sub(a, b);
}
fn add_vector_head(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = scalar_op(s, i, 1); i = i + 1; }
    return s;
}
fn sub_vector_head(n) {
    let i = 0;
    let s = 0;
    while (i < n) { s = scalar_op(s, i, 0); i = i + 1; }
    return s;
}
fn main(n) {
    return add_vector_head(n) + sub_vector_head(n);
}
"#;

fn print_node(profile: &ContextProfile, guid: u64, node: &FuncProfile<u32>, indent: usize) {
    let name = |g: u64| {
        profile
            .names
            .get(&g)
            .cloned()
            .unwrap_or_else(|| format!("{g:#x}"))
    };
    println!(
        "{:indent$}{} (samples: {}, inlined: {})",
        "",
        name(guid),
        node.total(),
        node.inlined,
        indent = indent
    );
    for (&(probe, callee), child) in &node.callsites {
        println!(
            "{:indent$}@ call-site probe {probe}:",
            "",
            indent = indent + 2
        );
        print_node(profile, callee, child, indent + 4);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a probed binary and profile it with synchronized LBR + stack
    // sampling.
    let mut module = prepared_module(SRC, "fig3", true)?;
    csspgo::opt::run_pipeline(&mut module, &csspgo::opt::OptConfig::default());
    let binary = lower_module(&module, &CodegenConfig::default());

    let mut machine = Machine::new(
        &binary,
        SimConfig {
            sample_period: 97,
            ..SimConfig::default()
        },
    );
    machine.call("main", &[30_000])?;
    let samples = machine.take_samples();
    println!(
        "collected {} synchronized LBR+stack samples\n",
        samples.len()
    );

    // Algorithm 1: reconstruct calling contexts.
    let mut profile = context_profile(&binary, &samples, 0).profile;
    for f in &binary.funcs {
        profile.names.insert(f.guid, f.name.clone());
    }

    // Algorithm 2 + 3: the pre-inliner specializes per context.
    let result = run_preinliner(&mut profile, &binary, &PreInlineConfig::default());

    println!("context trie (paper Fig. 3b — scalar_op has a distinct profile per caller):");
    for (&guid, root) in &profile.roots {
        print_node(&profile, guid, root, 2);
    }
    println!(
        "\npre-inliner: considered {} contexts, inlined {}",
        result.considered, result.inlined
    );
    println!("note how scalar_add appears only under add_vector_head's context and");
    println!("scalar_sub only under sub_vector_head's — a context-insensitive profile");
    println!("would merge them 50/50 (paper Fig. 3a).");
    Ok(())
}
