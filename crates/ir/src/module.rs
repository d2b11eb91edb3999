//! Modules and globals.

use crate::function::Function;
use crate::ids::{FuncId, GlobalId};
use serde::{Deserialize, Serialize};

/// The most data cells a program may declare, over all its globals: 8 MiB
/// of memory, 127× the 8 256 cells of the largest shipped workload. The
/// front end refuses a program past it and the simulator a binary past it,
/// so no source text or binary file can make a machine allocate without
/// bound.
pub const MAX_GLOBAL_CELLS: usize = 1 << 20;

/// A global array of 64-bit cells. Workload state lives here (locals are
/// virtual registers and cannot be address-taken).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Global {
    /// Source-level name.
    pub name: String,
    /// Number of cells.
    pub size: usize,
    /// Initial values; shorter than `size` means zero-filled tail.
    pub init: Vec<i64>,
}

/// A whole program: functions plus globals.
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name (used for diagnostics only).
    pub name: String,
    /// Functions, indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// Number of instrumentation counters allocated (instrumented builds).
    pub num_counters: u32,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
            num_counters: 0,
        }
    }

    /// Shared access to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Looks a function up by name.
    pub fn find_function(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().find(|f| f.name == name).map(|f| f.id)
    }

    /// Looks a function up by GUID.
    pub fn find_function_by_guid(&self, guid: u64) -> Option<FuncId> {
        self.functions.iter().find(|f| f.guid == guid).map(|f| f.id)
    }

    /// Adds a global array, returning its id.
    pub fn add_global(&mut self, name: impl Into<String>, size: usize, init: Vec<i64>) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(Global {
            name: name.into(),
            size,
            init,
        });
        id
    }

    /// Allocates a fresh instrumentation counter.
    pub fn alloc_counter(&mut self) -> u32 {
        let c = self.num_counters;
        self.num_counters += 1;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_and_guid() {
        let mut m = Module::new("m");
        let f = Function::new(FuncId(0), "alpha", 0);
        let guid = f.guid;
        m.functions.push(f);
        assert_eq!(m.find_function("alpha"), Some(FuncId(0)));
        assert_eq!(m.find_function("beta"), None);
        assert_eq!(m.find_function_by_guid(guid), Some(FuncId(0)));
    }

    #[test]
    fn globals_and_counters() {
        let mut m = Module::new("m");
        let g = m.add_global("table", 16, vec![1, 2, 3]);
        assert_eq!(m.globals[g.index()].size, 16);
        assert_eq!(m.alloc_counter(), 0);
        assert_eq!(m.alloc_counter(), 1);
        assert_eq!(m.num_counters, 2);
    }
}
