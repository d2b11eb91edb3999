//! **Fig. 9**: size of the pseudo-probe metadata section, as a percentage
//! of total binary size (text + debug info under `-g2`), compared with the
//! debug-info section itself.
//!
//! Paper shape: probe metadata averages ~25% of the binary; debug info is
//! of comparable magnitude. The metadata is self-contained and never loaded
//! at run time.

use csspgo_bench::{experiment_config, traffic_scale};
use csspgo_codegen::lower_module;
use csspgo_core::pipeline::prepared_module;

fn main() {
    let cfg = experiment_config();
    let scale = traffic_scale();
    let _ = scale;
    println!("# Fig. 9 — metadata size as % of total binary size");
    println!(
        "| workload | text | debug info | probe metadata | probe % of total | debug % of total |"
    );
    println!("|---|---|---|---|---|---|");
    let mut probe_pcts = Vec::new();
    for w in csspgo_workloads::server_workloads() {
        let mut m = prepared_module(&w.source, &w.name, true).expect("compiles");
        csspgo_opt::run_pipeline(&mut m, &cfg.opt);
        let b = lower_module(&m, &cfg.codegen);
        let s = b.sections;
        let total = s.total() as f64;
        let probe_pct = s.pseudo_probe as f64 / total * 100.0;
        let debug_pct = s.debug_line as f64 / total * 100.0;
        probe_pcts.push(probe_pct);
        println!(
            "| {} | {} | {} | {} | {probe_pct:.1}% | {debug_pct:.1}% |",
            w.name, s.text, s.debug_line, s.pseudo_probe
        );
    }
    let avg = probe_pcts.iter().sum::<f64>() / probe_pcts.len() as f64;
    println!("\naverage probe-metadata share: {avg:.1}% (paper: ~25%)");
}
