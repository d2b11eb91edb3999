//! The one generator of hostile sample streams over one small probed
//! binary — garbage addresses, truncated LBRs, broken stacks — shared by
//! `crates/core/tests/{proptest_kernel,proptest_shard,stream_epochs}.rs`
//! (included through `#[path]`, so dependencies are named by crate).

use csspgo_codegen::{lower_module, Binary, CodegenConfig};
use csspgo_sim::Sample;
use proptest::prelude::*;

const SRC: &str = r#"
fn leaf(x) {
    if (x % 5 == 0) { return x * 3; }
    return x - 1;
}
fn mid(x) {
    return leaf(x) + leaf(x + 1);
}
fn main(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + mid(i);
        i = i + 1;
    }
    return s;
}
"#;

/// The unoptimised probed build of [`SRC`].
pub fn probed_binary() -> Binary {
    let mut m = csspgo_lang::compile(SRC, "samplegen").unwrap();
    csspgo_opt::discriminators::run(&mut m);
    csspgo_opt::probes::run(&mut m);
    lower_module(&m, &CodegenConfig::default())
}

/// A strategy for raw addresses: mostly instruction starts (encoded as a
/// flat index, see [`resolve`]), sometimes arbitrary garbage the lookup
/// must reject.
pub fn addr_strategy(n_insts: usize) -> BoxedStrategy<u64> {
    let n = n_insts as u64;
    prop_oneof![
        8 => (0..n).prop_map(|i| i),
        1 => any::<u64>(),
    ]
    .boxed()
}

/// Resolves the strategy's encoded value: small values are instruction
/// indices, everything else is taken verbatim.
fn resolve(binary: &Binary, raw: u64) -> u64 {
    if (raw as usize) < binary.len() {
        binary.addrs[raw as usize]
    } else {
        raw
    }
}

/// An unresolved sample: `(pc, lbr pairs, stack)`, all in the encoded
/// address form of [`addr_strategy`].
pub type RawSample = (u64, Vec<(u64, u64)>, Vec<u64>);

/// Sample streams of high entropy: every sample drawn afresh, so hardly any
/// two are equal.
pub fn sample_stream_strategy(n_insts: usize) -> BoxedStrategy<Vec<RawSample>> {
    let addr = || addr_strategy(n_insts);
    let lbr = proptest::collection::vec((addr(), addr()), 0..8);
    let stack = proptest::collection::vec(addr(), 0..6);
    proptest::collection::vec((addr(), lbr, stack), 0..120).boxed()
}

pub fn to_samples(binary: &Binary, raw: &[RawSample]) -> Vec<Sample> {
    raw.iter()
        .enumerate()
        .map(|(i, (pc, lbr, stack))| Sample {
            cycle: i as u64 * 17,
            pc: resolve(binary, *pc),
            lbr: lbr
                .iter()
                .map(|&(f, t)| (resolve(binary, f), resolve(binary, t)))
                .collect(),
            stack: stack.iter().map(|&a| resolve(binary, a)).collect(),
        })
        .collect()
}
