//! The experiment harness: [`figures`] holds one function per table or
//! figure of the paper's evaluation, each returning [`Table`]s; the
//! `figures` bin renders them and `tests/paper_claims.rs` asserts on them.
//!
//! PGO cycles are independent per (workload, variant) pair, so the harness
//! fans them out across a thread pool ([`run_variants`], [`par_map`]) and
//! reduces outcomes deterministically: results come back in input order,
//! so completion order never changes what gets compared or printed.

pub mod figures;
mod table;

pub use table::{Cell, Table};

use csspgo_core::pipeline::{run_pgo_cycle, PgoOutcome, PgoVariant, PipelineConfig};
use csspgo_core::Workload;
use rayon::prelude::*;
use std::collections::HashMap;

/// What each variant of one workload produced under one configuration.
pub type Outcomes = HashMap<PgoVariant, PgoOutcome>;

/// Scale factor applied to workload traffic; override with the
/// `CSSPGO_SCALE` environment variable (e.g. `0.1` for a quick pass).
/// An unparsable value warns on stderr and falls back to `1.0`.
pub fn traffic_scale() -> f64 {
    let Ok(raw) = std::env::var("CSSPGO_SCALE") else {
        return 1.0;
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("warning: CSSPGO_SCALE={raw:?} is not a number; using scale 1.0");
        1.0
    })
}

/// Fans `f` out over `items` on the thread pool, returning results in input
/// order so printed reports stay deterministic. Thread count follows
/// `RAYON_NUM_THREADS`.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    items.into_par_iter().map(f).collect()
}

/// Runs every requested variant for a workload concurrently, asserting
/// behavioural equivalence across variants (same eval-result hash).
///
/// Outcomes come back in the order of `variants` whichever cycle finishes
/// first, so a divergence is always reported against the first of them.
pub fn run_variants(
    workload: &Workload,
    variants: &[PgoVariant],
    config: &PipelineConfig,
) -> Outcomes {
    let cycle = |v| match run_pgo_cycle(workload, v, config) {
        Ok(outcome) => (v, outcome),
        Err(e) => panic!("{} / {v}: {e}", workload.name),
    };
    let outcomes: Vec<(PgoVariant, PgoOutcome)> = par_map(variants.to_vec(), cycle);
    for (v, o) in &outcomes {
        let same = o.eval_result_hash == outcomes[0].1.eval_result_hash;
        assert!(
            same,
            "{} variant {v} changed program behaviour",
            workload.name
        );
    }
    outcomes.into_iter().collect()
}

/// Percentage improvement of `new` over `base` (positive = faster).
/// A zero baseline yields `0.0` rather than a NaN/∞ that would poison
/// downstream aggregation.
pub fn improvement_pct(base_cycles: u64, new_cycles: u64) -> f64 {
    if base_cycles == 0 {
        return 0.0;
    }
    (base_cycles as f64 - new_cycles as f64) / base_cycles as f64 * 100.0
}

/// Percentage size delta of `new` vs `base` (negative = smaller). A zero
/// baseline yields `0.0` (see [`improvement_pct`]).
pub fn size_delta_pct(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) / base as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100, 95), 5.0);
        assert_eq!(improvement_pct(100, 105), -5.0);
        assert_eq!(size_delta_pct(100, 95), -5.0);
    }

    #[test]
    fn zero_baselines_do_not_divide() {
        assert_eq!(improvement_pct(0, 50), 0.0);
        assert_eq!(size_delta_pct(0, 50), 0.0);
        assert!(improvement_pct(0, 0).is_finite());
    }

    #[test]
    fn par_map_preserves_input_order() {
        let squares = par_map((0..64u64).collect(), |x| x * x);
        assert_eq!(squares, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_run_variants_matches_sequential_hashes() {
        let src = r#"
fn work(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + i * 3;
        i = i + 1;
    }
    return s;
}
"#;
        let w = Workload::new("mini", src, "work", vec![vec![400]; 2], vec![vec![401]; 2]);
        let cfg = PipelineConfig {
            sample_period: 61,
            ..PipelineConfig::default()
        };
        cfg.validate().expect("valid test config");
        let out = run_variants(&w, &PgoVariant::ALL, &cfg);
        assert_eq!(out.len(), PgoVariant::ALL.len());
        let first = out[&PgoVariant::O2].eval_result_hash;
        for v in PgoVariant::ALL {
            assert_eq!(out[&v].eval_result_hash, first);
        }
        // Sequential reference: same hashes, same outcome fields that matter.
        for v in [PgoVariant::AutoFdo, PgoVariant::CsspgoFull] {
            let seq = run_pgo_cycle(&w, v, &cfg).unwrap();
            assert_eq!(seq.eval_result_hash, out[&v].eval_result_hash);
            assert_eq!(seq.eval.cycles, out[&v].eval.cycles);
            assert_eq!(seq.sections.text, out[&v].sections.text);
        }
    }
}
