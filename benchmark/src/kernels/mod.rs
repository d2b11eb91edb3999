//! The six workload kernels. Each one is set up from a seed, then asked for
//! fixed-work rounds; the runner owns the clock.

pub mod compile;
pub mod pgo;
pub mod profgen;
pub mod sim;
pub mod stream;

use crate::inputs::Scale;
use crate::trace::Tracer;

/// Operations attempted and failed, with the first few failure messages.
/// An operation is one request, one profile product, one epoch, one PGO
/// cycle, one compile, or one correctness check.
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Ops {
    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation, failed with `why`.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(why());
        }
    }

    /// Counts one check; it fails with `why` unless `holds`.
    pub fn check(&mut self, holds: bool, why: impl FnOnce() -> String) {
        if holds {
            self.ok(1);
        } else {
            self.fail(why);
        }
    }
}

/// What one round did.
#[derive(Clone, Copy, Debug)]
pub struct RoundOut {
    /// Units of the kernel's rate metric done in the round.
    pub work: u64,
    /// Hash of every exact output of the round; fixed-work rounds must
    /// repeat it.
    pub fingerprint: u64,
    /// Time the round spent in traced-only probes that the untraced pass
    /// does not run; the runner takes it off the round's wall time.
    pub probe_ns: u64,
}

/// A set-up kernel of any type: what the runner's round loop needs.
pub trait AnyKernel {
    fn name(&self) -> &'static str;
    fn rate_name(&self) -> &'static str;
    fn digest(&self) -> u64;
    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut;
    fn rate(&self, work: u64, secs: f64) -> f64;
    fn verify(&mut self, ops: &mut Ops);
    fn exact(&self) -> Vec<(&'static str, f64)>;
}

impl<K: Kernel> AnyKernel for K {
    fn name(&self) -> &'static str {
        K::NAME
    }
    fn rate_name(&self) -> &'static str {
        K::RATE
    }
    fn digest(&self) -> u64 {
        Kernel::digest(self)
    }
    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut {
        Kernel::round(self, t, ops)
    }
    fn rate(&self, work: u64, secs: f64) -> f64 {
        K::rate(work, secs)
    }
    fn verify(&mut self, ops: &mut Ops) {
        Kernel::verify(self, ops)
    }
    fn exact(&self) -> Vec<(&'static str, f64)> {
        Kernel::exact(self)
    }
}

/// A workload kernel.
pub trait Kernel: Sized + 'static {
    /// The workload name.
    const NAME: &'static str;
    /// The end-to-end rate metric the kernel's rounds are timed for.
    const RATE: &'static str;
    /// About how long one full-scale round takes on the reference box; the
    /// runner turns `--seconds` into a fixed round count with it.
    const ROUND_SECS: f64;

    /// Builds binaries, request streams and sample sets. Deterministic in
    /// `(seed, scale)`. Marks a segment on `t` after each program.
    fn setup(seed: u64, scale: Scale, t: &mut Tracer) -> Result<Self, String>;

    /// Hash of the set-up artefacts (two set-ups of one seed must agree).
    fn digest(&self) -> u64;

    /// One fixed-work round. Marks a segment on `t` after each small piece
    /// of work (a request batch, a layer call, an epoch, a cycle, a compile).
    fn round(&mut self, t: &mut Tracer, ops: &mut Ops) -> RoundOut;

    /// The rate metric's value for a round of `work` units in `secs`.
    fn rate(work: u64, secs: f64) -> f64;

    /// Checks too heavy for a timed round, run once after the rounds.
    fn verify(&mut self, ops: &mut Ops);

    /// Exact (count-derived) end-to-end metrics, valid after one round.
    fn exact(&self) -> Vec<(&'static str, f64)>;
}
