//! The benchmark's own PRNG: splitmix64 seeding a xoshiro256** stream.
//!
//! Inputs must be a pure function of `--seed` for as long as the
//! benchmark exists, so the generator lives here and not in
//! `crates/compat/rand`, whose stream may change.

/// One splitmix64 step: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman & Vigna), seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A stream for `seed`; `stream` separates the independent streams
    /// one seed feeds (corpus, deltas, requests), so changing how many
    /// numbers one of them draws never shifts the others.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut state);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[-half_width, half_width)`.
    pub fn symmetric(&mut self, half_width: f64) -> f64 {
        (self.unit() * 2.0 - 1.0) * half_width
    }

    /// Uniform in `0..n` (`n > 0`). The multiply-shift is biased by at
    /// most `n / 2^64`, far below anything the workloads can see.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank whose CDF interval contains `u` (`u` in `[0, 1)`).
    pub fn rank_of(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_of(rng.unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // first outputs for state 0, from the reference implementation
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_or_stream_differs() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::new(3, 0);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
            assert!(r.symmetric(0.4).abs() <= 0.4);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..100).collect();
        Rng::new(1, 0).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_rank_boundaries_and_head_mass() {
        let z = Zipf::new(4, 1.0);
        // H_4 = 25/12: rank 0 owns [0, 12/25), rank 1 up to 18/25, ...
        assert_eq!(z.rank_of(0.0), 0);
        assert_eq!(z.rank_of(0.47), 0);
        assert_eq!(z.rank_of(0.49), 1);
        assert_eq!(z.rank_of(0.73), 2);
        assert_eq!(z.rank_of(0.999_999), 3);
        let z = Zipf::new(1000, 1.0);
        let mut r = Rng::new(11, 0);
        let n = 100_000;
        let head = (0..n).filter(|_| z.sample(&mut r) == 0).count();
        // P(rank 0) = 1 / H_1000 = 0.1336
        let share = head as f64 / n as f64;
        assert!((share - 0.1336).abs() < 0.005, "head share {share}");
    }
}
