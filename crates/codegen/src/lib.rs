//! Code generation: IR → a flat machine-code [`Binary`] with byte
//! addresses, DWARF-like line/inline metadata, and the pseudo-probe
//! metadata section.
//!
//! What the paper's machinery needs from a binary, this crate provides:
//!
//! * **addresses** — every machine instruction has a byte address; block
//!   layout and hot/cold splitting decide placement, so i-cache behaviour
//!   and branch distances respond to profile quality;
//! * **debug-line metadata** — per-instruction `(scope, line, discriminator,
//!   inline stack)`, the AutoFDO correlation anchor, with its encoded size
//!   measured for Fig. 9;
//! * **pseudo-probe metadata** — probes materialize "as metadata against the
//!   location of the physical instruction next to" them (paper §III.A); the
//!   encoded section size is Fig. 9's headline number;
//! * **tail-call elimination** — calls in return position become jumps,
//!   breaking frame-pointer chains exactly the way the paper's
//!   missing-frame inferrer expects;
//! * **a register-pressure spill model** — believed-cold registers spill
//!   first, so a *wrong* profile puts spill code on the real hot path (the
//!   paper's "sub-optimal spill placement").

pub mod binary;
pub mod liveness;
pub mod lower;
pub mod minst;
pub mod spill;

pub use binary::{AddrIndex, BinFunc, Binary, SectionSizes};
pub use lower::lower_module;
pub use minst::{MInst, MInstKind, ProbeNote};

/// The parameter type of [`lower_module`]. It has no fields: lowering has
/// one configuration. Its register count is a constant beside the code that
/// reads it ([`spill::plan_spills`]), and every call in return position
/// becomes a tail jump.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodegenConfig {}
