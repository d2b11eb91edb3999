//! DWARF-style discriminator assignment (LLVM's `AddDiscriminators`).
//!
//! When several basic blocks contain instructions attributed to the same
//! source line (short-circuit operators, `for`-style one-liners), line-based
//! profile correlation cannot tell the blocks apart. This pass assigns each
//! *block* a distinct discriminator per duplicated line, exactly like LLVM
//! does before AutoFDO profile use.
//!
//! Note what this pass does **not** do: it runs once on fresh IR, so code
//! duplication performed by *later* passes (tail duplication, unrolling)
//! produces copies sharing one discriminator. That is the paper's §III.A
//! point — "inserting annotation for all possible code duplication in
//! compiler is not practical" — and is where probe-based correlation wins.

use csspgo_ir::Module;

/// No block yet.
const NONE: u32 = u32::MAX;

/// Runs discriminator assignment on every function.
///
/// The tables are dense over the function's line range and kept for the
/// next function: per line the first block using it, the last
/// discriminator handed out, and the block and discriminator it was last
/// given in.
pub fn run(module: &mut Module) {
    let mut first_block: Vec<u32> = Vec::new();
    let mut next_disc: Vec<u32> = Vec::new();
    let mut local: Vec<(u32, u32)> = Vec::new();
    for func in &mut module.functions {
        let lines = func
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .flat_map(|b| &b.insts)
            .map(|i| i.loc.line)
            .filter(|&l| l != 0);
        let lo = lines.clone().min().unwrap_or(1);
        let span = lines.max().map_or(0, |hi| (hi - lo) as usize + 1);
        // line -> (first block that used it). Blocks after the first get
        // fresh discriminators for that line.
        first_block.clear();
        first_block.resize(span, NONE);
        next_disc.clear();
        next_disc.resize(span, 0);
        // line -> (block, discriminator): assigned lazily per block, shared
        // by all insts of that line in the block.
        local.clear();
        local.resize(span, (NONE, 0));
        for (b, block) in func.blocks.iter_mut().enumerate() {
            if block.dead {
                continue;
            }
            let b = b as u32;
            for inst in &mut block.insts {
                let line = inst.loc.line;
                if line == 0 {
                    continue;
                }
                let k = (line - lo) as usize;
                let disc = if local[k].0 == b {
                    local[k].1
                } else {
                    let d = if first_block[k] == NONE {
                        first_block[k] = b;
                        0
                    } else if first_block[k] == b {
                        0
                    } else {
                        next_disc[k] += 1;
                        next_disc[k]
                    };
                    local[k] = (b, d);
                    d
                };
                if disc != 0 {
                    inst.loc.discriminator = disc;
                }
            }
        }
        debug_assert!(
            csspgo_ir::probe_verify::check_discriminators(func).is_empty(),
            "discriminator assignment broke its own discipline in `{}`",
            func.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn blocks_sharing_a_line_get_distinct_discriminators() {
        // `a && b` lowers to several blocks on the same line.
        let mut m = csspgo_lang::compile("fn f(a, b) { return a && b; }", "t").unwrap();
        run(&mut m);
        let f = &m.functions[0];
        // Collect (block, discriminator) per line-1 instruction.
        let mut per_block: Vec<(usize, u32)> = Vec::new();
        for (bid, b) in f.iter_blocks() {
            for i in &b.insts {
                if i.loc.line == 1 {
                    per_block.push((bid.index(), i.loc.discriminator));
                }
            }
        }
        let blocks: HashSet<usize> = per_block.iter().map(|&(b, _)| b).collect();
        assert!(blocks.len() >= 3, "short-circuit should span blocks");
        // Distinct blocks must not all share discriminator 0.
        let discs: HashSet<u32> = per_block.iter().map(|&(_, d)| d).collect();
        assert!(
            discs.len() >= 2,
            "expected distinct discriminators, got {discs:?}"
        );
        // Within one block, one line has one discriminator.
        let mut seen: HashMap<(usize, u32), u32> = HashMap::new();
        for &(b, d) in &per_block {
            if let Some(&prev) = seen.get(&(b, 1)) {
                assert_eq!(prev, d);
            }
            seen.insert((b, 1), d);
        }
    }

    #[test]
    fn single_block_functions_keep_discriminator_zero() {
        let mut m = csspgo_lang::compile("fn f(a) { return a + 1; }", "t").unwrap();
        run(&mut m);
        for (_, b) in m.functions[0].iter_blocks() {
            for i in &b.insts {
                assert_eq!(i.loc.discriminator, 0);
            }
        }
    }

    use std::collections::HashMap;
}
