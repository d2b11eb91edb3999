//! A simulated CPU with a performance-monitoring unit.
//!
//! The simulator interprets a [`csspgo_codegen::Binary`] with a cycle cost
//! model (branch predictor, i-cache, call overhead, memory ops) and exposes
//! the profiling hardware the paper relies on:
//!
//! * a **Last Branch Record** ring of the most recent *taken* branches
//!   (including calls and returns) with source/target addresses;
//! * **synchronized stack sampling**: on each PMU sample the frame-pointer
//!   chain is walked at the same instant the LBR is snapshotted (paper
//!   §III.B, Fig. 5);
//! * **PEBS on/off**: without PEBS the stack sample can lag the LBR by one
//!   frame (sampling skid), which is the paper's motivation for
//!   `:upp`-precision events;
//! * **tail-call frames**: tail calls replace their caller's frame, so the
//!   sampled stack genuinely misses frames — food for the paper's
//!   missing-frame inferrer;
//! * **instrumentation counters** for ground-truth block counts.

mod decode;
pub mod machine;
pub mod pmu;
pub mod rng;

pub use machine::{Machine, RunStats, SimError};
pub use pmu::Sample;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// LBR capacity (the paper: "16 or 32 pairs").
    pub lbr_size: usize,
    /// Precise event-based sampling: when false, stack samples may lag the
    /// LBR by one frame (skid).
    pub pebs: bool,
    /// Cycles between PMU samples (0 disables sampling).
    pub sample_period: u64,
    /// RNG seed (sampling jitter, skid).
    pub seed: u64,
    /// Hard step limit; exceeded means a runaway program.
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            lbr_size: 16,
            pebs: true,
            sample_period: 0,
            seed: 0x5eed,
            max_steps: 2_000_000_000,
        }
    }
}
