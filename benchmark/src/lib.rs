//! `csspgo-benchmark`: six serialised workloads, twelve end-to-end metrics
//! and an outside-in layer trace. See `benchmark/README.md`.

pub mod inputs;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
