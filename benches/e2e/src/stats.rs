//! Order statistics, the tail-percentile picker, and counter arithmetic.
//! Pure functions: nothing here touches the system under test.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between the two nearest ranks. Panics on an empty slice: every caller
/// reports a metric, and a metric with no samples is a benchmark bug.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The percentiles a tail may be reported at, ascending.
pub const TAIL_LADDER: [f64; 5] = [0.75, 0.90, 0.95, 0.99, 0.999];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten of `n`
/// samples beyond it, or `None` when even p75 has fewer (n < 40): a
/// percentile with a handful of samples above it is set by one or two slow
/// runs, not by the system.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Median, quartiles and range of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// Summarises `values` (at least one).
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        Spread {
            median: quantile_sorted(&v, 0.5),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// `(max − min) / median`, the repeat-mode stability figure; 0 when the
    /// median is 0 (a counter that stayed at zero is perfectly stable).
    pub fn range_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// Consecutive runs of operations a window is cut into before anything is
/// summarised (see [`least_disturbed`]).
pub const CHUNKS: usize = 20;

/// Cuts `samples` (in the order they were taken) into at most [`CHUNKS`]
/// consecutive runs of equal count and summarises each with `f`.
pub fn per_chunk(samples: &[f64], f: impl Fn(&mut [f64]) -> f64) -> Vec<f64> {
    let n = samples.len();
    let chunks = CHUNKS.min(n);
    (0..chunks)
        .map(|c| f(&mut samples[c * n / chunks..(c + 1) * n / chunks].to_vec()))
        .collect()
}

/// Operations per second of each run of a closed-loop client's operations:
/// `marks` are the start times of its consecutive operations plus the end of
/// the last one.
pub fn chunk_rates(marks: &[f64]) -> Vec<f64> {
    let ops = marks.len().saturating_sub(1);
    let chunks = CHUNKS.min(ops);
    (0..chunks)
        .map(|c| {
            let (lo, hi) = (c * ops / chunks, (c + 1) * ops / chunks);
            (hi - lo) as f64 / (marks[hi] - marks[lo])
        })
        .collect()
}

/// The decile of per-run figures least touched by outside interference: the
/// 10th percentile when lower is better, the 90th when higher is.
///
/// On a shared host a noisy neighbour only ever slows a run down, for
/// seconds at a time and for up to half of a window (steal of 25% was seen
/// while this was written). A window-wide median moves with that; the best
/// decile of twenty consecutive runs does not, unless nine in ten are
/// disturbed. What the system itself does in every run — a read-index
/// rebuild after every write — is in every run's figure, and so in this one.
pub fn least_disturbed(per_run: &mut [f64], lower_is_better: bool) -> f64 {
    quantile(per_run, if lower_is_better { 0.10 } else { 0.90 })
}

/// `after − before` for a monotone counter. A counter that went backwards
/// means the two snapshots came from different deployments — a benchmark
/// bug worth a loud failure, not a wrapped 2⁶⁴.
pub fn delta(before: u64, after: u64) -> u64 {
    after
        .checked_sub(before)
        .unwrap_or_else(|| panic!("counter went backwards: {before} -> {after}"))
}

/// `num / den` as a float, 0 when nothing was counted in the denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Exact mean seconds per call from a `(count, total_ns)` counter pair's
/// deltas; 0 when no call completed in the interval.
pub fn mean_secs(count: u64, total_ns: u64) -> f64 {
    ratio(total_ns, count) * 1e-9
}

/// Deterministic 64-bit generator (SplitMix64) for request mixes and frame
/// choices: the benchmark's inputs must depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything the benchmark could resolve.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(40), Some(0.75));
        assert_eq!(highest_supported_tail(48), Some(0.75));
        assert_eq!(highest_supported_tail(99), Some(0.75));
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(999), Some(0.95));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn spread_reports_range_over_median() {
        let s = Spread::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!(s.median, 11.0);
        assert_eq!((s.q1, s.q3), (10.0, 12.0));
        assert!((s.range_share() - 4.0 / 11.0).abs() < 1e-12);
        assert_eq!(Spread::of(&[0.0, 0.0]).range_share(), 0.0);
    }

    #[test]
    fn the_least_disturbed_decile_ignores_a_burst_but_not_a_steady_cost() {
        let rate = |marks: &[f64]| least_disturbed(&mut chunk_rates(marks), false);
        // 100 operations of 10 ms: 100 ops/s.
        let steady: Vec<f64> = (0..=100).map(|i| i as f64 * 0.01).collect();
        assert!((rate(&steady) - 100.0).abs() < 1e-9);
        // The same with a 2 s outside stall in the middle: the plain rate
        // drops to a third, this one does not move.
        let burst: Vec<f64> = (0..=100)
            .map(|i| i as f64 * 0.01 + if i > 50 { 2.0 } else { 0.0 })
            .collect();
        assert!((100.0 / burst[100] - 33.3).abs() < 0.1);
        assert!((rate(&burst) - 100.0).abs() < 1e-9);
        // A 10 ms stall after every fifth operation is the system's own:
        // every run of operations carries it, and the rate shows it.
        let stalls: Vec<f64> = (0..=100)
            .map(|i| i as f64 * 0.01 + (i / 5) as f64 * 0.01)
            .collect();
        assert!((rate(&stalls) - 100.0 / 1.2).abs() < 1e-6);
        // Fewer operations than chunks: one chunk per operation.
        assert_eq!(chunk_rates(&[0.0, 0.5, 1.0]), [2.0, 2.0]);
    }

    #[test]
    fn latencies_are_summarised_per_run_of_operations() {
        // 40 samples: 20 chunks of 2; a slow stretch covers chunks 5..15.
        let samples: Vec<f64> = (0..40)
            .map(|i| if (10..30).contains(&i) { 3.0 } else { 1.0 })
            .collect();
        let mut p50s = per_chunk(&samples, median);
        assert_eq!(p50s.len(), CHUNKS);
        assert_eq!(least_disturbed(&mut p50s, true), 1.0);
        assert_eq!(median(&mut samples.clone()), 2.0);
        // Fewer samples than chunks.
        assert_eq!(per_chunk(&[5.0, 7.0], median), [5.0, 7.0]);
    }

    #[test]
    fn counter_deltas_and_means() {
        assert_eq!(delta(5, 12), 7);
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(3, 4), 0.75);
        // 4 calls totalling 2 ms → 0.5 ms each.
        assert!((mean_secs(4, 2_000_000) - 5e-4).abs() < 1e-15);
        assert_eq!(mean_secs(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "counter went backwards")]
    fn a_counter_that_shrinks_is_a_bug() {
        delta(9, 3);
    }

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c = SplitMix64::new(43).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert!(SplitMix64::new(1).below(7) < 7);
    }
}
