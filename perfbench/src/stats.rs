//! Sample arithmetic: percentiles, the tail choice, spreads, and the
//! attempted/failed tally every workload's checks feed.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`
/// (ascending): the smallest sample with at least `p`% of the samples at
/// or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (any order): the mean of the two middle
/// samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `samples` sorted ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The reported tail of a latency sample: the highest whole percentile
/// that still has at least [`TAIL_BEYOND`] samples strictly beyond its
/// rank, with its value. `None` when there are too few samples for any
/// percentile above the median to qualify.
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    (50..=99u32)
        .rev()
        .find(|&p| {
            let rank = ((p as f64 / 100.0) * n as f64).ceil() as usize;
            rank >= 1 && n - rank >= TAIL_BEYOND
        })
        .map(|p| (p, percentile(sorted, p as f64)))
}

/// Operations attempted and failed. A failed op is an error, a refusal
/// or a wrong output; the run is correct when none failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ops over attempted ops (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `got` is bit for bit the distance sequence `want`.
pub fn same_dists(want: &[f64], got: impl ExactSizeIterator<Item = f64>) -> bool {
    got.len() == want.len() && got.zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 51.0), 6.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // Fewer than 11 samples leave no room for ten beyond any rank.
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 20 samples: p50 has rank 10 and exactly 10 beyond; p51 has 9.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50, 10.0)));
        // 100 samples: p90 is rank 90 with 10 beyond.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99, 990.0)));
        // 57 samples: p82 has rank 47 (10 beyond), p83 rank 48 (9).
        let odd: Vec<f64> = (1..=57).map(f64::from).collect();
        assert_eq!(tail(&odd), Some((82, 47.0)));
    }

    #[test]
    fn a_wrong_output_raises_failed_frac() {
        let want = [0.0, 0.5, 1.25];
        let mut t = Tally::default();
        t.record(same_dists(&want, want.iter().copied()));
        assert_eq!(t.failed_frac(), 0.0);
        // One ulp off is wrong: the check is bit for bit.
        let off = [0.0, 0.5, f64::from_bits(1.25f64.to_bits() + 1)];
        t.record(same_dists(&want, off.iter().copied()));
        // A short stream is wrong too.
        t.record(same_dists(&want, want[..2].iter().copied()));
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        assert!((t.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }
}
