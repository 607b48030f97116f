//! Seeded input generation. Everything the program receives — program
//! order, arrival streams, send schedules — comes from here, so one
//! seed always yields the same inputs and the generator cannot drift
//! when the repository's own helpers change.

/// SplitMix64: tiny, seedable, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same
    /// seed by `purpose` (so reordering one input never shifts another).
    pub fn new(seed: u64, purpose: &str) -> Self {
        let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Self(seed ^ tag)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `length` draws over ranks `0..pool`, rank `r` weighted `1/(r+1)^s`:
/// the low ranks are the hot set that real compilation traffic repeats.
pub fn zipf_stream(rng: &mut Rng, pool: usize, length: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    (0..length)
        .map(|_| {
            let mut x = rng.unit() * total;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    return i;
                }
                x -= w;
            }
            pool - 1
        })
        .collect()
}

/// Send offsets (seconds from the phase start) of `n` Poisson arrivals
/// at `rate` per second — the open loop of independent users.
pub fn poisson_offsets(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, "stream");
            (
                zipf_stream(&mut rng, 13, 200, 1.1),
                poisson_offsets(&mut rng, 50.0, 100),
            )
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        assert_ne!(draw(7).1, draw(8).1);
    }

    #[test]
    fn purposes_are_independent_streams() {
        let a = Rng::new(1, "order").next_u64();
        let b = Rng::new(1, "arrivals").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_dependent() {
        let shuffled = |seed| {
            let mut v: Vec<usize> = (0..10).collect();
            Rng::new(seed, "order").shuffle(&mut v);
            v
        };
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(shuffled(3), shuffled(3));
        assert_ne!(shuffled(3), shuffled(4));
    }

    #[test]
    fn zipf_keeps_the_head_hot_and_stays_in_range() {
        let mut rng = Rng::new(11, "zipf");
        let stream = zipf_stream(&mut rng, 5, 2000, 1.1);
        assert!(stream.iter().all(|&i| i < 5));
        let count = |r| stream.iter().filter(|&&i| i == r).count();
        assert!(count(0) > count(4) * 3, "{} vs {}", count(0), count(4));
    }

    #[test]
    fn poisson_offsets_increase_at_about_the_rate() {
        let mut rng = Rng::new(5, "sched");
        let offsets = poisson_offsets(&mut rng, 100.0, 2000);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        let rate = offsets.len() as f64 / offsets[offsets.len() - 1];
        assert!((rate - 100.0).abs() < 10.0, "rate {rate}");
    }
}
