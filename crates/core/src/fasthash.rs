//! A fast, non-cryptographic hasher for the correlation kernel's internal
//! maps (the Fx/rustc multiply-rotate construction).
//!
//! The kernel's hot maps — sample dedup keys, context interners, range
//! memos, trie edges — are keyed by integers and small integer tuples, and
//! SipHash cost a large slice of correlate time (it showed up as the single
//! hottest symbol when profiling the unwind). Most of those keys are
//! derived inside the process (instruction indices, interned ids, GUIDs of
//! the profiled binary). Four are not: the whole-sample dedup key and the
//! `(stack, pc)` initial-context memo of [`crate::unwind`], and the raw
//! `(previous to, from, to)` triple table of [`crate::ranges`] with the
//! open-addressed front before it, are keyed by raw sample addresses, which
//! reach them through the public
//! [`crate::stream::StreamAggregator::push_batch`], so a hostile sample
//! stream can craft collisions there. (The triple table and its front live
//! for one batch and hold at most one entry per LBR entry of it; the front
//! hashes with its own multiply chain, not this hasher.) That is an
//! accepted, recorded gap (ROADMAP item 6, hostile inputs), not a property
//! of this hasher. Wire formats and user-facing maps keep the std default.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: one rotate + xor + multiply per 8-byte word
/// (per word and lane, for byte strings).
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = step(self.hash, word);
    }
}

#[inline]
fn step(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// The same construction over a long word sequence, in four independent
/// multiply chains — word *i* feeds chain *i* mod 4 — joined at the end.
/// One chain over every word of a sample (≈35 words for a 16-entry LBR) is
/// a serial dependency of that many multiplies; four chains let the CPU
/// overlap them. Used for the keys that are whole samples or stacks.
#[derive(Clone, Copy, Default)]
pub(crate) struct Lanes([u64; 4]);

impl Lanes {
    #[inline]
    pub(crate) fn block(&mut self, words: [u64; 4]) {
        let [a, b, c, d] = self.0;
        self.0 = [
            step(a, words[0]),
            step(b, words[1]),
            step(c, words[2]),
            step(d, words[3]),
        ];
    }

    /// Feeds `words`, zero-padded to a multiple of four.
    #[inline]
    pub(crate) fn words(&mut self, words: &[u64]) {
        let mut blocks = words.chunks_exact(4);
        for b in &mut blocks {
            self.block([b[0], b[1], b[2], b[3]]);
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut tail = [0; 4];
            tail[..rest.len()].copy_from_slice(rest);
            self.block(tail);
        }
    }

    /// Feeds `pairs` as their words, zero-padded to a multiple of four.
    #[inline]
    pub(crate) fn pairs(&mut self, pairs: &[(u64, u64)]) {
        let mut blocks = pairs.chunks_exact(2);
        for b in &mut blocks {
            self.block([b[0].0, b[0].1, b[1].0, b[1].1]);
        }
        if let [(x, y)] = blocks.remainder() {
            self.block([*x, *y, 0, 0]);
        }
    }

    #[inline]
    pub(crate) fn finish(self) -> u64 {
        let [a, b, c, d] = self.0;
        step(step(step(a, b), c), d)
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Byte strings — in the kernel, the `(stack, pc)` memo key — go
    /// through four independent chains, eight bytes a word.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut lanes = Lanes::default();
        for block in bytes.chunks(32) {
            let mut words = [0; 4];
            for (word, b) in words.iter_mut().zip(block.chunks(8)) {
                let mut le = [0u8; 8];
                le[..b.len()].copy_from_slice(b);
                *word = u64::from_le_bytes(le);
            }
            lanes.block(words);
        }
        self.add(lanes.finish());
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal() {
        let a = (7u64, vec![(1u64, 2u64)], vec![3u64]);
        let b = (7u64, vec![(1u64, 2u64)], vec![3u64]);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn distinct_small_keys_spread() {
        let hashes: FastSet<u64> = (0u64..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000, "trivial collisions on dense keys");
    }

    #[test]
    fn word_strings_of_every_length_spread() {
        let keys: Vec<Vec<u64>> = (0..12u64)
            .flat_map(|len| (0..50u64).map(move |k| (0..len).map(|i| k * 31 + i).collect()))
            .collect();
        let hashes: FastSet<u64> = keys.iter().map(hash_of).collect();
        let distinct: FastSet<&Vec<u64>> = keys.iter().collect();
        assert_eq!(hashes.len(), distinct.len());
    }

    #[test]
    fn maps_work_end_to_end() {
        let mut m: FastMap<(u32, u64), u64> = FastMap::default();
        for i in 0..1000u64 {
            *m.entry((i as u32 % 17, i)).or_insert(0) += i;
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(0, 17)], 17);
    }
}
