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
//! enforces that the `std` defaults never reappear. The one hash function
//! that is not SipHash, [`hash_bytes`] for the string interner, lives here
//! too and is as seed-free as the rest.
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

/// 64-bit FNV-1a over a byte slice — the content checksum of every durable
/// artifact in the workspace (checkpoint parts and manifests, spill
/// buckets, `.mkb` sections) and of the run fingerprint. The constants are
/// part of those on-disk formats.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
    // Multiplication only carries upward: fold the high half back down so
    // the low bits, which index the table, depend on every input byte.
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
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

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
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
