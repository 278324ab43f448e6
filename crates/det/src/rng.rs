//! The workspace's one seeded pseudo-random generator.
//!
//! Synthetic datasets (`minoaner-datagen`), seeded fault plans and every
//! seeded test loop draw from [`Rng`]: xorshift64* seeded through one
//! SplitMix64 step. No entropy source is ever consulted, so a seed names
//! one stream on every run and host (the property tests, [`for_each_seed`],
//! number their cases by it). That stream is part of the
//! repository's fixed point — the generated datasets, and so the pinned
//! `graph_digest`s, follow from it — and `tests::stream_is_pinned` holds
//! its first outputs.

use std::ops::Range;

/// A seeded xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The generator for `seed`. The SplitMix64 step keeps small seeds
    /// from yielding tiny states.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self { state: (z ^ (z >> 31)).max(1) }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The high half of the next output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A float in `[0, 1)` from 53 bits of the next output.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An integer in `range` (the next output reduced modulo its span).
    /// Panics on an empty range.
    pub fn gen_range<T: RangeInt>(&mut self, range: Range<T>) -> T {
        let (start, end) = (range.start.to_u64(), range.end.to_u64());
        assert!(start < end, "empty range");
        T::from_u64(start + self.next_u64() % (end - start))
    }

    /// Fisher–Yates from the back.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The workspace's property-test loop: runs `case` once per seed in
/// `0..cases`, each time with the generator for that seed, and names the
/// seed of a case that panics before the panic propagates.
pub fn for_each_seed(cases: u64, mut case: impl FnMut(&mut Rng)) {
    struct NameSeed(u64);
    impl Drop for NameSeed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("the failing case is seed {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _named_on_panic = NameSeed(seed);
        case(&mut Rng::seed_from_u64(seed));
    }
}

/// The unsigned integer types [`Rng::gen_range`] draws.
pub trait RangeInt: Copy {
    /// Widens to `u64`.
    fn to_u64(self) -> u64;
    /// Narrows a value known to lie inside a range of `Self`.
    fn from_u64(v: u64) -> Self;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }

            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

range_int!(u8, u16, u32, u64, usize);

/// Poisson-distributed counts by Knuth's product-of-uniforms method —
/// linear in the mean, which is small in every dataset profile.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// `None` unless `lambda` is finite and positive.
    pub fn new(lambda: f64) -> Option<Self> {
        (lambda.is_finite() && lambda > 0.0).then_some(Self { lambda })
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let threshold = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.next_f64();
            if p <= threshold {
                return k as f64;
            }
            k += 1;
            if k > 10_000 {
                // `exp(-lambda)` underflows for a huge mean: stop there.
                return self.lambda;
            }
        }
    }
}

/// Zipf over `1..=n` with exponent `s`, sampled by inverse CDF over the
/// precomputed normalizer (`n` is small in every dataset profile).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// `None` unless `n > 0` and `s` is finite and non-negative.
    pub fn new(n: u64, s: f64) -> Option<Self> {
        if n == 0 || !s.is_finite() || s < 0.0 {
            return None;
        }
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Some(Self { cdf })
    }

    /// One draw, as the rank `1.0..=n`.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.next_f64();
        let i = self.cdf.partition_point(|&p| p < u);
        (i.min(self.cdf.len() - 1) + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden values were taken from the generator the datasets and
    /// digests of EXPERIMENTS.md were produced with; a change here moves
    /// every one of them.
    #[test]
    fn stream_is_pinned() {
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(first, GOLDEN_U64);

        let mut rng = Rng::seed_from_u64(0);
        let ranged: Vec<u32> = (0..6).map(|_| rng.gen_range(10..1_000u32)).collect();
        assert_eq!(ranged, GOLDEN_RANGE);
        assert_eq!(rng.next_u32(), GOLDEN_U32);
        assert_eq!(rng.next_f64().to_bits(), GOLDEN_F64_BITS);

        let mut rng = Rng::seed_from_u64(7);
        let zipf = Zipf::new(50, 1.0).expect("valid parameters");
        let ranks: Vec<u32> = (0..8).map(|_| zipf.sample(&mut rng) as u32).collect();
        assert_eq!(ranks, GOLDEN_ZIPF);
        let poisson = Poisson::new(3.5).expect("valid mean");
        let counts: Vec<u32> = (0..8).map(|_| poisson.sample(&mut rng) as u32).collect();
        assert_eq!(counts, GOLDEN_POISSON);

        let mut items: Vec<u32> = (0..10).collect();
        Rng::seed_from_u64(42).shuffle(&mut items);
        assert_eq!(items, GOLDEN_SHUFFLE);
    }

    const GOLDEN_U64: [u64; 4] =
        [3539015186919385252, 17771758460396574387, 1575729364637153999, 16156935505447088308];
    const GOLDEN_RANGE: [u32; 6] = [122, 907, 129, 98, 78, 471];
    const GOLDEN_U32: u32 = 3362315643;
    const GOLDEN_F64_BITS: u64 = 4597051236781168228;
    const GOLDEN_ZIPF: [u32; 8] = [13, 3, 49, 3, 1, 3, 3, 5];
    const GOLDEN_POISSON: [u32; 8] = [3, 3, 1, 5, 3, 2, 0, 2];
    const GOLDEN_SHUFFLE: [u32; 10] = [9, 5, 6, 1, 3, 7, 0, 2, 8, 4];

    #[test]
    fn draws_stay_in_range_and_distributions_reject_bad_parameters() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..1_000 {
            assert!((3..9usize).contains(&rng.gen_range(3..9usize)));
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
        assert!(Poisson::new(0.0).is_none() && Poisson::new(f64::NAN).is_none());
        assert!(Zipf::new(0, 1.0).is_none() && Zipf::new(5, -1.0).is_none());
        let zipf = Zipf::new(5, 1.2).expect("valid parameters");
        for _ in 0..1_000 {
            assert!((1.0..=5.0).contains(&zipf.sample(&mut rng)));
        }
    }
}
