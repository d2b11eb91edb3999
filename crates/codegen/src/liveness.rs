//! Backward block-level liveness over virtual registers, as dense bitsets.

use csspgo_ir::{cfg, BlockId, Function, VReg};

/// Per-block liveness sets: one bit per register, `words` 64-bit words per
/// block, the blocks' sets back to back and indexed by block id. The
/// working sets of the computation stay with it, so recomputing for the
/// next function reuses every buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct Liveness {
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    gen_: Vec<u64>,
    defs: Vec<u64>,
    out: Vec<u64>,
}

/// Whether `r` is in `set`.
pub(crate) fn contains(set: &[u64], r: VReg) -> bool {
    set[r.index() / 64] & (1 << (r.index() % 64)) != 0
}

/// Adds `r` to `set`.
pub(crate) fn insert(set: &mut [u64], r: VReg) {
    set[r.index() / 64] |= 1 << (r.index() % 64);
}

/// The registers in `set`, in increasing order.
pub(crate) fn members(set: &[u64]) -> impl Iterator<Item = VReg> + '_ {
    set.iter().enumerate().flat_map(|(w, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                VReg::from_index(w * 64 + bit)
            })
        })
    })
}

impl Liveness {
    /// Computes block-level liveness for `func`. Blocks the entry cannot
    /// reach keep empty sets.
    #[cfg(test)]
    pub(crate) fn compute(func: &Function) -> Self {
        let mut lv = Liveness::default();
        lv.recompute(func);
        lv
    }

    /// Computes block-level liveness for `func` in this value's buffers.
    /// Blocks the entry cannot reach keep empty sets.
    pub(crate) fn recompute(&mut self, func: &Function) {
        let words = func.num_vregs().div_ceil(64);
        let n = func.blocks.len();
        let Liveness {
            live_in,
            live_out,
            gen_,
            defs,
            out,
            ..
        } = self;
        self.words = words;
        for set in [&mut *gen_, &mut *defs, &mut *live_in, &mut *live_out] {
            set.clear();
            set.resize(n * words, 0);
        }
        out.clear();
        out.resize(words, 0);
        for (bid, block) in func.iter_blocks() {
            let at = bid.index() * words..(bid.index() + 1) * words;
            let (g, d) = (&mut gen_[at.clone()], &mut defs[at]);
            for inst in &block.insts {
                inst.kind.for_each_use(|r| {
                    if !contains(d, r) {
                        insert(g, r);
                    }
                });
                if let Some(r) = inst.kind.def() {
                    insert(d, r);
                }
            }
        }

        // Iterate to fixpoint (reverse order helps convergence).
        let mut order = cfg::reverse_post_order(func);
        order.reverse();
        loop {
            let mut changed = false;
            for &b in &order {
                out.fill(0);
                for s in func.block(b).targets() {
                    let succ_in = &live_in[s.index() * words..(s.index() + 1) * words];
                    for (o, i) in out.iter_mut().zip(succ_in) {
                        *o |= i;
                    }
                }
                let at = b.index() * words;
                for (w, &o) in out.iter().enumerate() {
                    let inn = gen_[at + w] | (o & !defs[at + w]);
                    if o != live_out[at + w] || inn != live_in[at + w] {
                        live_out[at + w] = o;
                        live_in[at + w] = inn;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Words per block set.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Registers live on entry to `b`.
    pub(crate) fn live_in(&self, b: BlockId) -> &[u64] {
        &self.live_in[b.index() * self.words..(b.index() + 1) * self.words]
    }

    /// Registers live on exit from `b`.
    pub(crate) fn live_out(&self, b: BlockId) -> &[u64] {
        &self.live_out[b.index() * self.words..(b.index() + 1) * self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_variable_is_live_through_loop() {
        let src = r#"
fn f(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"#;
        let m = csspgo_lang::compile(src, "t").unwrap();
        let f = &m.functions[0];
        let lv = Liveness::compute(f);
        // The loop header (block with condbr) must have i, s, n live in.
        let header = f
            .iter_blocks()
            .find(|(_, b)| {
                matches!(
                    b.terminator().map(|t| &t.kind),
                    Some(csspgo_ir::inst::InstKind::CondBr { .. })
                )
            })
            .map(|(b, _)| b)
            .unwrap();
        let live: Vec<VReg> = members(lv.live_in(header)).collect();
        assert!(live.len() >= 3, "{live:?}");
    }

    #[test]
    fn dead_values_are_not_live() {
        let src = "fn f(a) { let x = a + 1; return a; }";
        let m = csspgo_lang::compile(src, "t").unwrap();
        let f = &m.functions[0];
        let lv = Liveness::compute(f);
        // x (%1... defined but unused) must not be live out of any block.
        for (bid, _) in f.iter_blocks() {
            for r in members(lv.live_out(bid)) {
                assert_eq!(r, VReg(0), "only the param flows");
            }
        }
    }

    #[test]
    fn bitset_members_round_trip() {
        let mut set = vec![0u64; 3];
        for r in [0, 5, 63, 64, 130] {
            insert(&mut set, VReg(r));
        }
        assert!(contains(&set, VReg(64)) && !contains(&set, VReg(65)));
        let got: Vec<u32> = members(&set).map(|r| r.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 130]);
    }
}
