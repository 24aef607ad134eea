//! Seeded randomness for workload generation: splitmix64 and the two
//! draws the workloads need. No external crate — the same seed must give
//! byte-identical request sequences on every host and toolchain.

/// Splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, passes BigCrush; more than enough to shuffle request blocks.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Splits `slots` among ranks `1..=ranks` in proportion to the Zipf
/// weights `1/rank` by the largest-remainder method, so the counts sum to
/// `slots` exactly. A deterministic multiset rather than independent
/// draws: every run sees the same popularity mix and only the order is
/// seeded, which keeps throughput comparable across seeds.
pub fn zipf_counts(ranks: usize, slots: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=ranks)
        .map(|r| slots as f64 / (r as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    // Largest fractional part first; ties go to the more popular rank.
    order.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a].fract(), exact[b].fract());
        fb.partial_cmp(&fa).expect("finite weights").then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &rank in order.iter().take(slots - assigned) {
        counts[rank] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_counts_sum_and_decrease() {
        let counts = zipf_counts(20, 61);
        assert_eq!(counts.iter().sum::<usize>(), 61);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert_eq!(counts[0], 17, "head share is 1/H(20)");
        assert!(counts[19] >= 1, "every rank is searched");
    }
}
