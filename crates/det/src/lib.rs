//! The determinism floor of the workspace: fixed-seed hash containers,
//! the one seeded generator ([`rng`]), the exact record codec ([`codec`]),
//! the one JSON reader/writer ([`json`]) and the filesystem seam ([`vfs`]).
//! Nothing here — and nothing anywhere in the workspace — depends on a
//! crate outside the repository.
//!
//! MinoanER's core guarantee is that the non-iterative matcher is
//! deterministic given a blocking graph: the same input must produce
//! bit-identical weights, rankings and clusters across runs *and* worker
//! counts. `std::collections::HashMap`/`HashSet` default to `RandomState`,
//! whose per-process seed makes iteration order — and any `f64` summation
//! driven by it — vary run to run. That was a real bug in the γ pass of the
//! blocking-graph kernel (see DESIGN.md §11 and §12).
//!
//! This crate is the single shared home of the fixed-seed replacements.
//! Every workspace crate imports [`DetHashMap`]/[`DetHashSet`] from here;
//! `minoaner-lint` rule R1 (and the `clippy::disallowed_types` wall)
//! enforces that the `std` defaults never reappear. The two hash functions
//! that are not SipHash — [`hash_bytes`] for the string interner and
//! [`checksum`] for every durable byte — live here too and are as seed-free
//! as the rest.
//!
//! The hasher is `SipHash-1-3` with a zero key (`DefaultHasher::new()`),
//! i.e. the same algorithm as `std` minus the per-process random seed.
//! Iteration order is therefore *arbitrary but reproducible*: stable across
//! runs, processes and worker counts for the same insertion sequence.
//! Code that feeds floating-point accumulation from map iteration must
//! still sort first (lint rule R2), because the arbitrary order changes
//! whenever keys or capacity change.

// The wrapper is the one place std's hash containers may be named: the
// aliases below replace RandomState with a fixed-key hasher. Mirrors the
// blanket R1 entry for this file in lint-allow.toml.
#![allow(clippy::disallowed_types)]

pub mod codec;
pub mod json;
pub mod rng;
pub mod vfs;

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fixed-seed build hasher: `std`'s SipHash with the zero key instead of
/// `RandomState`'s per-process random key.
pub type DetHasher = BuildHasherDefault<DefaultHasher>;

/// A deterministic `HashMap` — the only hash map allowed in workspace
/// library code (lint rule R1).
///
/// Construct with `DetHashMap::default()` (there is no `new()` for maps
/// with a non-default hasher) or [`map_with_capacity`].
pub type DetHashMap<K, V> = HashMap<K, V, DetHasher>;

/// A deterministic `HashSet`, the companion of [`DetHashMap`].
///
/// Construct with `DetHashSet::default()` or [`set_with_capacity`].
pub type DetHashSet<K> = HashSet<K, DetHasher>;

/// A [`DetHashMap`] pre-sized for `n` entries.
pub fn map_with_capacity<K, V>(n: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(n, DetHasher::default())
}

/// A [`DetHashSet`] pre-sized for `n` entries.
pub fn set_with_capacity<K>(n: usize) -> DetHashSet<K> {
    DetHashSet::with_capacity_and_hasher(n, DetHasher::default())
}

/// Locks `mutex` whether or not a thread panicked while holding it. For
/// state that every update leaves valid at every step (a counter, an
/// append-only log, a slot written once), which is all the workspace keeps
/// behind a mutex: a panic elsewhere must not turn every later reader into
/// a second panic.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hashes one value with the deterministic hasher — the primitive behind
/// reproducible shuffle partitioning in `minoaner-dataflow`.
pub fn det_hash<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The content checksum of every durable artifact in the workspace —
/// `.mkb` sections, spill buckets, checkpoint parts and manifests — and of
/// the run fingerprint. Its constants and its definition are part of those
/// on-disk formats (DESIGN.md §16):
///
/// * the bytes are read as little-endian `u64` words, the last one
///   zero-padded; word `i` of every whole 32-byte block goes to lane
///   `i mod 4`, a lane absorbing a word as `h ← rotl((h ⊕ word) · K, 29)` —
///   four multiply chains that do not wait for one another, which is what
///   lets it run at memory speed where a byte-serial FNV-1a runs at one
///   multiply per byte;
/// * the lanes are absorbed, in order, into one state the same way, then
///   the up to four words left over, then the length.
///
/// Every step is a bijection of the state it updates *and* of the word it
/// absorbs (xor, multiplication by an odd constant and rotation all are),
/// so two inputs of one length that differ inside a single 8-byte word
/// never collide: the guarantee FNV-1a gives for one byte. Anything wider
/// collides with probability about 2⁻⁶⁴. Not keyed and not cryptographic:
/// it detects rot and torn writes, a forger just reseals.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    const SEEDS: [u64; 4] =
        [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];
    let absorb = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, eight) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut word = [0u8; 8];
            word.copy_from_slice(eight);
            *lane = absorb(*lane, u64::from_le_bytes(word));
        }
    }
    let mut h = lanes.into_iter().fold(K, absorb);
    for rest in blocks.remainder().chunks(8) {
        let mut word = [0u8; 8];
        word.iter_mut().zip(rest).for_each(|(to, &from)| *to = from);
        h = absorb(h, u64::from_le_bytes(word));
    }
    fold_down(absorb(h, bytes.len() as u64))
}

/// Multiplication only carries upward: folds the high half of `h` back down
/// (a bijection), so the low bits depend on everything the high bits do.
fn fold_down(mut h: u64) -> u64 {
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
}

/// Hashes a byte string eight bytes at a time with fixed constants — the
/// key function of the `minoaner-kb` interner. Seed-free like everything
/// here: no entropy and no per-process state, and words are read
/// little-endian, so a string hashes to the same value on every run and
/// host. It only places strings in a table; no id depends on it.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let le64 = |eight: &[u8]| {
        let mut word = [0u8; 8];
        word.copy_from_slice(eight);
        u64::from_le_bytes(word)
    };
    let le32 = |four: &[u8]| {
        let mut word = [0u8; 4];
        word.copy_from_slice(four);
        u64::from(u32::from_le_bytes(word))
    };
    let mut h = bytes.len() as u64;
    // Every length reads whole words only; where the length is not a
    // multiple of the word, the last word overlaps the one before it.
    if let (Some(last), Some((_, but_one))) = (bytes.rchunks_exact(8).next(), bytes.split_last()) {
        for eight in but_one.chunks_exact(8) {
            h = step(h, le64(eight));
        }
        h = step(h, le64(last));
    } else if let (Some(first), Some(last)) = (bytes.chunks_exact(4).next(), bytes.rchunks_exact(4).next()) {
        h = step(h, le32(first) | le32(last) << 32);
    } else if let (Some(&first), Some(&middle), Some(&last)) = (bytes.first(), bytes.get(bytes.len() / 2), bytes.last()) {
        h = step(h, u64::from(first) | u64::from(middle) << 8 | u64::from(last) << 16);
    }
    // The low bits, which index the table, must depend on every input byte.
    fold_down(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_bytes_is_fixed_and_length_aware() {
        assert_eq!(hash_bytes(b"minoaner"), hash_bytes(b"minoaner"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        // Every byte counts at every length, also where the last word
        // overlaps the one before it.
        for len in 1..=40 {
            let base = vec![b'x'; len];
            for at in 0..len {
                let mut other = base.clone();
                other[at] = b'y';
                assert_ne!(hash_bytes(&base), hash_bytes(&other), "length {len}, byte {at}");
            }
        }
        let distinct: DetHashSet<u32> =
            (0..10_000u32).map(|i| hash_bytes(format!("http://e/{i}").as_bytes()) as u32 & 0xFFFF).collect();
        // 10 000 keys into 65 536 buckets: a uniform hash leaves ~9 270 distinct.
        assert!(distinct.len() > 9_000, "low 16 bits are poorly mixed: {}", distinct.len());
    }

    /// A buffer of `len` seeded bytes.
    fn seeded(rng: &mut rng::Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..256usize) as u8).collect()
    }

    /// The constants are part of three on-disk formats (`.mkb` version 2,
    /// spill runs, checkpoint manifests and the `…-v4` run fingerprint): a
    /// change here is a format change.
    #[test]
    fn checksum_is_pinned() {
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(checksum(b""), 0xb408_3133_4c0a_500c);
        assert_eq!(checksum(b"a"), 0x46c4_f256_ac05_aa8f);
        assert_eq!(checksum(b"minoaner"), 0x1904_9fd5_1315_49b3);
        assert_eq!(checksum(&ramp[..31]), 0xa6fa_eef6_64e0_84d8);
        assert_eq!(checksum(&ramp[..32]), 0x41b6_4789_64ff_8f16);
        assert_eq!(checksum(&ramp[..100]), 0x51bb_1eb7_ac40_5eaa);
        assert_eq!(checksum(&ramp), 0x2fef_a812_e883_2f72);
    }

    #[test]
    fn checksum_sees_every_bit_and_the_length() {
        rng::for_each_seed(3, |rng| {
            for len in 0..=96 {
                let base = seeded(rng, len);
                let sum = checksum(&base);
                for bit in 0..len * 8 {
                    let mut other = base.clone();
                    other[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(checksum(&other), sum, "length {len}, bit {bit}");
                }
                let mut longer = base.clone();
                longer.push(0);
                assert_ne!(checksum(&longer), sum, "length {len} plus a zero byte");
            }
        });
    }

    /// The definition, one word at a time: word `i` of the whole 32-byte
    /// blocks goes to lane `i mod 4`; the lanes, the words left over (the
    /// last zero-padded) and the length go to one state.
    #[test]
    fn checksum_lanes_agree_with_the_word_at_a_time_definition() {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let absorb = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
        let reference = |bytes: &[u8]| {
            let words: Vec<u64> = bytes
                .chunks(8)
                .map(|chunk| chunk.iter().rev().fold(0u64, |word, &byte| word << 8 | u64::from(byte)))
                .collect();
            let in_blocks = bytes.len() / 32 * 4;
            let mut lanes: [u64; 4] =
                [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];
            for (i, &word) in words.iter().take(in_blocks).enumerate() {
                lanes[i % 4] = absorb(lanes[i % 4], word);
            }
            let mut h = lanes.into_iter().fold(K, absorb);
            h = words.iter().skip(in_blocks).fold(h, |h, &word| absorb(h, word));
            h = absorb(h, bytes.len() as u64);
            h ^= h >> 32;
            h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            h ^ (h >> 32)
        };
        rng::for_each_seed(4, |rng| {
            for len in (0..=130).chain([1000, 4096, 4099]) {
                let bytes = seeded(rng, len);
                assert_eq!(checksum(&bytes), reference(&bytes), "length {len}");
            }
        });
    }

    #[test]
    fn iteration_order_is_reproducible_for_same_insertions() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000 {
                m.insert(i * 2654435761 % 4096, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "same insertions must iterate identically");
    }

    #[test]
    fn set_order_is_reproducible() {
        let build = || {
            let mut s: DetHashSet<String> = DetHashSet::default();
            for i in 0..500 {
                s.insert(format!("token-{i}"));
            }
            s.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn det_hash_is_stable_within_a_process() {
        assert_eq!(det_hash(&"minoaner"), det_hash(&"minoaner"));
        assert_ne!(det_hash(&1u64), det_hash(&2u64));
    }

    #[test]
    fn with_capacity_helpers_behave_like_default() {
        let mut m = map_with_capacity::<u32, u32>(64);
        assert!(m.capacity() >= 64);
        m.insert(1, 2);
        assert_eq!(m.get(&1), Some(&2));
        let mut s = set_with_capacity::<u32>(16);
        assert!(s.capacity() >= 16);
        s.insert(9);
        assert!(s.contains(&9));
    }
}
