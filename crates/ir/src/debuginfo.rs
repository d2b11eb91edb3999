//! Debug locations: the correlation anchor used by AutoFDO-style PGO.
//!
//! A [`DebugLoc`] records the *source line* an instruction came from, a
//! *discriminator* distinguishing duplicated copies of the same line (the
//! DWARF discriminator mechanism discussed in the paper §III.A), and the
//! *inline stack* describing the chain of call sites through which the
//! instruction was inlined.
//!
//! AutoFDO correlates binary samples back to `(line offset from function
//! start, discriminator)` pairs; the quality of that correlation — and how it
//! decays under optimization — is one of the central measurements of the
//! paper.

use crate::ids::FuncId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One frame of an inline stack: the call site (within `func`) through which
/// the instruction was inlined.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct InlineSite {
    /// The function containing the call site.
    pub func: FuncId,
    /// Source line of the call site (absolute, within the original source).
    pub line: u32,
    /// Discriminator of the call site.
    pub discriminator: u32,
}

impl fmt::Display for InlineSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}.{}", self.func, self.line, self.discriminator)
    }
}

/// A source location attached to an instruction.
///
/// `line == 0` means "no location" (compiler-synthesized code); AutoFDO-style
/// correlation simply cannot attribute samples landing on such instructions,
/// which is one of the decay mechanisms pseudo-instrumentation avoids.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct DebugLoc {
    /// Absolute source line, or 0 when unknown.
    pub line: u32,
    /// Discriminator distinguishing duplicated copies of one source line.
    pub discriminator: u32,
    /// The function whose source `line` belongs to (the *leaf* scope after
    /// inlining). [`FuncId::INVALID`] when unknown.
    pub scope: FuncId,
    /// Inline stack, outermost call site first. Empty when not inlined.
    pub inline_stack: Vec<InlineSite>,
}

impl Default for DebugLoc {
    fn default() -> Self {
        DebugLoc {
            line: 0,
            discriminator: 0,
            scope: FuncId::INVALID,
            inline_stack: Vec::new(),
        }
    }
}

impl DebugLoc {
    /// A location on `line` with no discriminator and no inline stack.
    pub fn line(line: u32) -> Self {
        DebugLoc {
            line,
            discriminator: 0,
            scope: FuncId::INVALID,
            inline_stack: Vec::new(),
        }
    }

    /// A location on `line` inside function `scope`.
    pub fn line_in(line: u32, scope: FuncId) -> Self {
        DebugLoc {
            line,
            discriminator: 0,
            scope,
            inline_stack: Vec::new(),
        }
    }

    /// The unknown location.
    pub fn none() -> Self {
        DebugLoc::default()
    }

    /// Whether this location carries no source information.
    pub fn is_none(&self) -> bool {
        self.line == 0 && self.inline_stack.is_empty()
    }

    /// Returns a copy with `site` pushed as the *outermost missing* frame,
    /// i.e. what inlining a callee into `site` does to each callee
    /// instruction: the callee's own frames stay innermost.
    pub fn inlined_at(&self, site: InlineSite) -> Self {
        let mut stack = Vec::with_capacity(self.inline_stack.len() + 1);
        stack.push(site);
        stack.extend(self.inline_stack.iter().copied());
        DebugLoc {
            line: self.line,
            discriminator: self.discriminator,
            scope: self.scope,
            inline_stack: stack,
        }
    }
}

impl fmt::Display for DebugLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "!none");
        }
        write!(f, "!{}", self.line)?;
        if self.discriminator != 0 {
            write!(f, ".{}", self.discriminator)?;
        }
        for site in &self.inline_stack {
            write!(f, " @{site}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(DebugLoc::none().is_none());
        assert!(!DebugLoc::line(3).is_none());
    }

    #[test]
    fn inlined_at_prepends_site() {
        let inner = DebugLoc::line(10);
        let site_a = InlineSite {
            func: FuncId(1),
            line: 5,
            discriminator: 0,
        };
        let site_b = InlineSite {
            func: FuncId(2),
            line: 7,
            discriminator: 0,
        };
        // Inline f (line 10) into g at site_a, then g into h at site_b:
        // outermost frame must be site_b.
        let once = inner.inlined_at(site_a);
        let twice = once.inlined_at(site_b);
        assert_eq!(twice.inline_stack, vec![site_b, site_a]);
        assert_eq!(twice.line, 10);
    }

    #[test]
    fn display_forms() {
        assert_eq!(DebugLoc::none().to_string(), "!none");
        assert_eq!(DebugLoc::line(4).to_string(), "!4");
        let loc = DebugLoc {
            discriminator: 2,
            ..DebugLoc::line(4)
        };
        assert_eq!(loc.to_string(), "!4.2");
    }
}
