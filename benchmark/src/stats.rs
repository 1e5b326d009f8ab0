//! Seeded randomness, sample statistics and operation accounting.

/// SplitMix64: every input, order and schedule of a run derives from the
/// `--seed` through this generator, so a seed names one exact workload.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets in seconds of a Poisson process at `rate` per second
/// over `[0, seconds)`: exponential gaps drawn from `rng`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0..=100) of unsorted samples; NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads `agree` prints match the ones the noise protocol is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The tail level to report for `n` samples: the highest of the usual
/// percentiles with at least ten samples beyond it, in hundredths of a
/// percent (9900 = p99). `None` below 20 samples, where even the median
/// has fewer than ten beyond it.
pub fn tail_level(n: usize) -> Option<u32> {
    const LEVELS: [u32; 7] = [9999, 9990, 9900, 9500, 9000, 7500, 5000];
    LEVELS.into_iter().find(|&l| n as u64 * (10_000 - l as u64) >= 100_000)
}

/// Median, reported tail and sample count of one timing series.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(level in hundredths of a percent, value)` per [`tail_level`].
    pub tail: Option<(u32, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail: tail_level(samples.len()).map(|l| (l, percentile(samples, l as f64 / 100.0))),
    }
}

/// Operations attempted and failed in a run. Every checked operation is
/// counted exactly once, so `attempted == ok + failed` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(5000));
        assert_eq!(tail_level(39), Some(5000));
        assert_eq!(tail_level(40), Some(7500));
        assert_eq!(tail_level(99), Some(7500));
        assert_eq!(tail_level(100), Some(9000));
        assert_eq!(tail_level(199), Some(9000));
        assert_eq!(tail_level(200), Some(9500));
        assert_eq!(tail_level(999), Some(9500));
        assert_eq!(tail_level(1000), Some(9900));
        assert_eq!(tail_level(10_000), Some(9990));
        assert_eq!(tail_level(100_000), Some(9999));
        for n in [20usize, 57, 100, 431, 1000, 25_000, 100_000] {
            let l = tail_level(n).unwrap() as f64 / 100.0;
            let beyond = n - (l / 100.0 * n as f64).ceil() as usize;
            assert!(beyond >= 10, "n={n}: p{l} leaves {beyond}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
        let s = summarize(&v);
        assert_eq!((s.n, s.p50, s.tail), (100, 50.5, Some((9000, 90.0))));
        assert_eq!(summarize(&v[..19]).tail, None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn poisson_schedules_are_deterministic_per_seed() {
        let a = poisson_arrivals(&mut Rng::new(7), 1000.0, 2.0);
        let b = poisson_arrivals(&mut Rng::new(7), 1000.0, 2.0);
        let c = poisson_arrivals(&mut Rng::new(8), 1000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // ~2000 arrivals; the count of a Poisson(2000) is within ±5σ.
        assert!((1776..=2224).contains(&a.len()), "{}", a.len());
        let mean_gap = a.last().unwrap() / a.len() as f64;
        assert!((mean_gap - 1e-3).abs() < 1e-4, "{mean_gap}");
    }

    #[test]
    fn tally_accounts_every_operation_once() {
        let mut t = Tally::default();
        let outcomes = [true, false, true, true, false];
        for ok in outcomes {
            t.record(ok);
        }
        assert_eq!(t.attempted, t.ok() + t.failed);
        assert_eq!((t.attempted, t.failed), (5, 2));
    }

    #[test]
    fn rng_shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..7).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..7).collect::<Vec<_>>());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(3) < 3));
    }
}
