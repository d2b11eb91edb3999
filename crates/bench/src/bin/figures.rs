//! `figures [NAME…] [--out DIR] [--list]` — regenerates the paper's tables
//! and figures from `csspgo_bench::figures::REGISTRY`.
//!
//! With no `NAME` every experiment runs. Text goes to stdout, or with
//! `--out DIR` to `DIR/<name>.txt`: `figures --out results` rewrites the
//! committed `results/`, which CI holds with `git diff --exit-code`.
//! `--list` prints the registry names. `CSSPGO_SCALE` scales the traffic.

use csspgo_bench::figures::{render, Ctx, REGISTRY};
use csspgo_bench::{par_map, traffic_scale};
use std::path::Path;

fn usage(problem: &str) -> ! {
    eprintln!("figures: {problem}\nusage: figures [NAME…] [--out DIR] [--list]");
    std::process::exit(2)
}

fn main() {
    let (mut names, mut out) = (Vec::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => return REGISTRY.iter().for_each(|(name, _)| println!("{name}")),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage("--out needs DIR"))),
            name if REGISTRY.iter().any(|(known, _)| *known == name) => names.push(arg),
            _ => usage(&format!("no figure or flag {arg:?} (--list names them)")),
        }
    }
    let wanted = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
    let selected = REGISTRY.iter().filter(|(name, _)| wanted(name)).collect();

    // Figures run side by side and share the context's outcome matrix;
    // texts come back in registry order.
    let ctx = Ctx::new(traffic_scale());
    let texts = par_map(selected, |(name, figure)| (name, render(&figure(&ctx))));
    for (i, (name, text)) in texts.iter().enumerate() {
        match &out {
            None => print!("{}{text}", if i > 0 { "\n" } else { "" }),
            Some(dir) => {
                let path = Path::new(dir).join(format!("{name}.txt"));
                let written = std::fs::write(&path, text);
                written.unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            }
        }
    }
}
