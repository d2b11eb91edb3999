//! Compiler IR for the CSSPGO reproduction.
//!
//! The IR is a conventional control-flow-graph IR over virtual registers
//! (non-SSA, three-address style). Its distinguishing features — the ones the
//! paper's contribution hangs off — are:
//!
//! * every instruction carries a [`DebugLoc`] (line, discriminator, inline
//!   stack), the correlation anchor used by AutoFDO-style sampling PGO;
//! * a [`InstKind::PseudoProbe`] intrinsic, the paper's *pseudo-instrumentation*
//!   anchor: it survives optimization like an instruction but lowers to
//!   metadata rather than machine code;
//! * a [`InstKind::CounterIncr`] intrinsic modelling traditional
//!   instrumentation (lowers to real load/add/store machine code);
//! * per-function CFG checksums ([`probe::cfg_checksum`]) for the paper's
//!   source-drift detection;
//! * the pre-inliner's plan ([`annot`]), which carries inline decisions
//!   into the optimizer.
//!
//! # Example
//!
//! ```
//! use csspgo_ir::builder::ModuleBuilder;
//! use csspgo_ir::inst::Operand;
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let f = mb.declare_function("main", 0);
//! {
//!     let mut fb = mb.function_builder(f);
//!     let entry = fb.entry_block();
//!     fb.switch_to(entry);
//!     fb.ret(Some(Operand::Imm(42)));
//! }
//! let module = mb.finish();
//! assert!(csspgo_ir::verify::verify_module(&module).is_empty());
//! ```

pub mod annot;
pub mod builder;
pub mod cfg;
pub mod debuginfo;
pub mod dom;
pub mod flow;
pub mod function;
pub mod ids;
pub mod inst;
pub mod loops;
pub mod module;
pub mod printer;
pub mod probe;
pub mod probe_verify;
pub mod verify;

pub use annot::InlinePlan;
pub use debuginfo::{DebugLoc, InlineSite};
pub use function::{BasicBlock, EdgeCounts, Function, Provenance, ProvenanceMap};
pub use ids::{BlockId, FuncId, GlobalId, VReg};
pub use inst::{BinOp, CmpPred, Inst, InstKind, Operand};
pub use module::{Global, Module};
pub use probe::{ProbeConfig, ProbeKind, ProbeSite};
