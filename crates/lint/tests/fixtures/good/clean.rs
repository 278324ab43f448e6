//! Good fixture: deterministic idioms for everything the bad fixtures do
//! wrong. Expected: 0 violations. (Mentions of `.values().sum()` in
//! comments and "HashMap" in strings are not code.)

use minoaner_det::{DetHashMap, DetHashSet};
use std::collections::BTreeMap;

pub struct BlockIndex {
    by_token: DetHashMap<u64, Vec<u32>>,
    seen: DetHashSet<u64>,
    ordered: BTreeMap<u64, f64>,
}

pub fn gamma_total(weights: &DetHashMap<u32, f64>) -> f64 {
    let mut keys: Vec<u32> = weights.keys().copied().collect();
    keys.sort_unstable();
    keys.iter().map(|k| weights[k]).sum::<f64>()
}

pub fn parse_port(s: &str) -> Result<u16, std::num::ParseIntError> {
    // The string "HashMap" and `.unwrap()` in this comment are not code.
    s.parse()
}

pub fn label() -> &'static str {
    "not a HashMap, just a string"
}

pub fn first_byte(bytes: &[u8]) -> Option<u8> {
    let p = bytes.first()?;
    // Comments may precede the justification without breaking the block.
    // SAFETY: `p` comes from `bytes.first()`, so it is valid for reads.
    Some(unsafe { std::ptr::read(p) })
}
