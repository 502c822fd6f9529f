//! Dependency-free deterministic random streams.
//!
//! Every statistical experiment in the workspace must be a pure function
//! of its seed so that results are reproducible — and, crucially, so that
//! trial `N` of a Monte Carlo run can be computed without first drawing
//! trials `0..N-1`. This crate provides the two building blocks:
//!
//! * [`stream_seed`] — a SplitMix64-style mix of `(seed, index)` that
//!   derives an independent substream key per trial, lane, or cell, and
//! * [`Xoshiro256pp`] — a small, fast, seedable generator (xoshiro256++)
//!   producing the actual `u64`/`f64` variates.
//!
//! Together they make `rng_for(seed, trial)` a counter-based derivation:
//! adjacent indices yield decorrelated streams, identical `(seed, index)`
//! pairs yield identical streams, and no shared mutable state links one
//! trial to the next — exactly what a deterministic parallel fan-out
//! needs.
//!
//! # Examples
//!
//! ```
//! use srlr_rng::Xoshiro256pp;
//!
//! let a: Vec<u64> = Xoshiro256pp::for_stream(42, 7).take(4).collect();
//! let b: Vec<u64> = Xoshiro256pp::for_stream(42, 7).take(4).collect();
//! let c: Vec<u64> = Xoshiro256pp::for_stream(42, 8).take(4).collect();
//! assert_eq!(a, b);
//! assert_ne!(a, c);
//! ```

#![forbid(unsafe_code)]

/// The golden-ratio increment of SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances a SplitMix64 state and returns the next output.
///
/// This is the reference algorithm of Steele, Lea and Flood (the
/// `splittable` mix used by `java.util.SplittableRandom`): a Weyl
/// sequence on the golden-ratio gamma followed by a 64-bit finalizer
/// with full avalanche.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the key of substream `index` of the master `seed`.
///
/// The derivation is counter-based — a SplitMix64 finalizer over a
/// combination of `seed` and `index` — so any substream key is computed
/// in O(1), independent of every other index. Equal inputs give equal
/// keys; changing either input by one bit flips about half the output
/// bits.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    // Spread the index over the whole state space before folding in the
    // seed, so that (seed, index) and (seed + 1, index - 1) style
    // collisions cannot occur along the Weyl line.
    let mut state = seed ^ index.wrapping_add(1).wrapping_mul(0x6A09_E667_F3BC_C909);
    let a = splitmix64(&mut state);
    let b = splitmix64(&mut state);
    a ^ b.rotate_left(32)
}

/// A xoshiro256++ generator (Blackman & Vigna, 2019): 256 bits of state,
/// a 1-cycle output mix, and equidistribution in 4 dimensions — more
/// than enough for the circuit Monte Carlo while staying a handful of
/// ALU operations per draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from `seed` via SplitMix64, the
    /// seeding procedure the xoshiro authors recommend.
    pub fn new(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut state);
        }
        // The all-zero state is a fixed point; SplitMix64 cannot emit
        // four consecutive zeros, but keep the guard for clarity.
        if s == [0; 4] {
            s[0] = GOLDEN_GAMMA;
        }
        Self { s }
    }

    /// The generator for substream `index` of `seed` — shorthand for
    /// `Xoshiro256pp::new(stream_seed(seed, index))`.
    pub fn for_stream(seed: u64, index: u64) -> Self {
        Self::new(stream_seed(seed, index))
    }

    /// Draws the next `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draws a uniform `f64` in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform index in `0..n` (fixed-point multiply; the bias
    /// of at most `n / 2^64` is far below anything observable).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the high word of u64 * n is below n, so it fits usize"
    )]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

impl Iterator for Xoshiro256pp {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0, from the reference C implementation.
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut state), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn streams_are_deterministic() {
        let a: Vec<u64> = Xoshiro256pp::for_stream(1, 2).take(16).collect();
        let b: Vec<u64> = Xoshiro256pp::for_stream(1, 2).take(16).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn adjacent_streams_decorrelate() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for index in [0u64, 1, 999, u64::MAX - 1] {
                assert_ne!(
                    stream_seed(seed, index),
                    stream_seed(seed, index + 1),
                    "collision at seed {seed}, index {index}"
                );
            }
        }
    }

    #[test]
    fn stream_seed_avalanches() {
        // One-bit input changes should flip roughly half the output bits.
        let base = stream_seed(42, 42);
        for bit in 0..64 {
            let flipped = stream_seed(42 ^ (1 << bit), 42);
            let distance = (base ^ flipped).count_ones();
            assert!((8..=56).contains(&distance), "weak avalanche: {distance}");
        }
    }

    #[test]
    fn f64_is_unit_interval_uniform() {
        let mut rng = Xoshiro256pp::new(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut rng = Xoshiro256pp::new(3);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.index(8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "bucket {i} saw {c}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_range_rejected() {
        let _ = Xoshiro256pp::new(0).index(0);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            Xoshiro256pp::new(1).next_u64(),
            Xoshiro256pp::new(2).next_u64()
        );
    }
}
