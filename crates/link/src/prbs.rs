//! Linear-feedback shift-register PRBS generators.
//!
//! The test chip generates its stimulus on-chip from a PRBS generator;
//! these are the standard ITU-T fibonacci LFSRs (PRBS-7: x^7 + x^6 + 1,
//! PRBS-15: x^15 + x^14 + 1, PRBS-31: x^31 + x^28 + 1), producing maximal
//! sequences of length `2^n − 1`.

/// A Fibonacci LFSR PRBS generator.
///
/// # Examples
///
/// ```
/// use srlr_link::Prbs;
///
/// let mut gen = Prbs::prbs7();
/// let first: Vec<bool> = gen.by_ref().take(127).collect();
/// // A maximal PRBS-7 sequence repeats after 127 bits.
/// let second: Vec<bool> = gen.take(127).collect();
/// assert_eq!(first, second);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Prbs {
    state: u32,
    /// Register length n.
    order: u32,
    /// Bit positions (1-based from the LSB end) XORed for feedback.
    taps: (u32, u32),
}

impl Prbs {
    /// PRBS-7 (`x^7 + x^6 + 1`), period 127.
    pub fn prbs7() -> Self {
        Self::with_seed_internal(7, (7, 6), 0x7F)
    }

    /// PRBS-15 (`x^15 + x^14 + 1`), period 32 767.
    pub fn prbs15() -> Self {
        Self::with_seed_internal(15, (15, 14), 0x7FFF)
    }

    /// PRBS-31 (`x^31 + x^28 + 1`), period 2 147 483 647.
    pub fn prbs31() -> Self {
        Self::with_seed_internal(31, (31, 28), 0x7FFF_FFFF)
    }

    /// A PRBS-7 generator with an explicit non-zero seed (for independent
    /// lanes).
    ///
    /// # Panics
    ///
    /// Panics if the seed is zero after masking to 7 bits (the all-zero
    /// LFSR state is absorbing).
    pub fn prbs7_with_seed(seed: u32) -> Self {
        Self::with_seed_internal(7, (7, 6), seed)
    }

    /// A PRBS-15 generator with an explicit non-zero seed.
    ///
    /// # Panics
    ///
    /// Panics if the seed is zero after masking to 15 bits (the all-zero
    /// LFSR state is absorbing).
    pub fn prbs15_with_seed(seed: u32) -> Self {
        Self::with_seed_internal(15, (15, 14), seed)
    }

    /// A PRBS-15 generator for stream `index` of an experiment keyed by
    /// `seed`: each index gets an independent, reproducible register state
    /// regardless of which other indices were (or weren't) generated.
    ///
    /// The experiment seed is salted so the PRBS streams are decorrelated
    /// from any Gaussian mismatch streams derived from the same seed.
    pub fn prbs15_for_stream(seed: u64, index: u64) -> Self {
        const PRBS_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;
        let raw = srlr_rng::stream_seed(seed ^ PRBS_SALT, index);
        // Fold to 15 bits; the all-zero state is remapped to the default
        // full register so every index yields a valid maximal sequence.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "intentional truncation: the fold keeps only the low 15 bits via the mask"
        )]
        let mut state = (raw ^ (raw >> 15) ^ (raw >> 30) ^ (raw >> 45)) as u32 & 0x7FFF;
        if state == 0 {
            state = 0x7FFF;
        }
        Self::prbs15_with_seed(state)
    }

    fn with_seed_internal(order: u32, taps: (u32, u32), seed: u32) -> Self {
        let mask = (1u32 << order) - 1;
        let state = seed & mask;
        assert!(state != 0, "LFSR seed must be non-zero within the register");
        Self { state, order, taps }
    }

    /// The sequence period, `2^order − 1`.
    pub fn period(&self) -> u64 {
        (1u64 << self.order) - 1
    }

    /// Generates the next bit and advances the register.
    pub fn next_bit(&mut self) -> bool {
        let (a, b) = self.taps;
        let bit = ((self.state >> (a - 1)) ^ (self.state >> (b - 1))) & 1;
        let mask = (1u32 << self.order) - 1;
        self.state = ((self.state << 1) | bit) & mask;
        bit == 1
    }

    /// Collects `n` bits into a vector.
    pub fn take_bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

impl Iterator for Prbs {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        Some(self.next_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn prbs7_is_maximal() {
        // Every non-zero 7-bit state must be visited exactly once.
        let mut gen = Prbs::prbs7();
        let mut states = BTreeSet::new();
        for _ in 0..127 {
            assert!(states.insert(gen.state), "state revisited early");
            gen.next_bit();
        }
        assert_eq!(states.len(), 127);
    }

    #[test]
    fn prbs7_ones_density_is_half() {
        let mut gen = Prbs::prbs7();
        let ones = gen.take_bits(127).iter().filter(|&&b| b).count();
        // A maximal sequence has 2^(n-1) ones: 64 of 127.
        assert_eq!(ones, 64);
    }

    #[test]
    fn prbs15_period_declared() {
        assert_eq!(Prbs::prbs15().period(), 32_767);
        assert_eq!(Prbs::prbs31().period(), 2_147_483_647);
    }

    #[test]
    fn prbs15_does_not_repeat_within_4096() {
        let mut gen = Prbs::prbs15();
        let a = gen.take_bits(2048);
        let b = gen.take_bits(2048);
        assert_ne!(a, b);
    }

    #[test]
    fn seeded_lanes_differ() {
        let mut a = Prbs::prbs7_with_seed(0x11);
        let mut b = Prbs::prbs7_with_seed(0x55);
        assert_ne!(a.take_bits(64), b.take_bits(64));
    }

    #[test]
    fn seeded_generator_is_deterministic() {
        let mut a = Prbs::prbs7_with_seed(0x2A);
        let mut b = Prbs::prbs7_with_seed(0x2A);
        assert_eq!(a.take_bits(256), b.take_bits(256));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_rejected() {
        let _ = Prbs::prbs7_with_seed(0);
    }

    #[test]
    fn stream_prbs_is_deterministic_per_index() {
        let mut a = Prbs::prbs15_for_stream(2013, 17);
        let mut b = Prbs::prbs15_for_stream(2013, 17);
        assert_eq!(a.take_bits(512), b.take_bits(512));
    }

    #[test]
    fn stream_prbs_indices_are_independent() {
        let mut states = BTreeSet::new();
        for index in 0..64 {
            let gen = Prbs::prbs15_for_stream(2013, index);
            states.insert(gen.state);
        }
        // 64 indices should land on (nearly) 64 distinct register states;
        // collisions of the 15-bit fold are possible but must be rare.
        assert!(states.len() >= 60, "only {} distinct states", states.len());
    }

    #[test]
    fn iterator_interface() {
        let gen = Prbs::prbs7();
        let bits: Vec<bool> = gen.take(10).collect();
        assert_eq!(bits.len(), 10);
    }

    #[test]
    fn contains_runs_of_ones_and_zeros() {
        // The '11110'-style worst case must occur naturally in PRBS-7:
        // a maximal LFSR of order 7 contains a run of 7 ones and 6 zeros.
        let mut gen = Prbs::prbs7();
        let bits = gen.take_bits(127);
        let mut max_ones = 0usize;
        let mut max_zeros = 0usize;
        let mut run = 0usize;
        let mut last = None;
        for &b in &bits {
            if Some(b) == last {
                run += 1;
            } else {
                run = 1;
                last = Some(b);
            }
            if b {
                max_ones = max_ones.max(run);
            } else {
                max_zeros = max_zeros.max(run);
            }
        }
        assert_eq!(max_ones, 7);
        assert_eq!(max_zeros, 6);
    }
}
