//! Sample statistics of the benchmark: percentile picking under the
//! "ten samples beyond" rule, per-block statistics and their medians,
//! quartile spreads for `--repeat`, and process counters from `/proc`.

/// Samples that must lie beyond a reported percentile in each block
/// (choosing-metrics §1), so a tail figure is never a single outlier.
pub const MIN_BEYOND: usize = 10;

/// The percentile at rank `q` (0..=1) of `sorted` by linear interpolation
/// between the two nearest ranks, so the result carries every digit of
/// the samples instead of snapping to one of them.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (interpolated between the middle pair).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

/// Median of `values` and how many there are; `(0, 0)` for none.
pub fn median_and_count(values: &[f64]) -> (f64, u64) {
    if values.is_empty() {
        (0.0, 0)
    } else {
        (median(values), values.len() as u64)
    }
}

/// Whether percentile `q` of a block of `n` samples leaves at least
/// [`MIN_BEYOND`] samples above it.
pub fn percentile_allowed(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() as usize >= MIN_BEYOND
}

/// Sub-buckets per power of two of the latency histogram: bucket width
/// is at most 1/64 of the value, and percentiles interpolate inside a
/// bucket, so the histogram costs well under 1 % of accuracy.
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Powers of two covered above the exact range (up to 2^46 ns ≈ 19 h).
const OCTAVES: usize = 40;

/// Latencies of one block of operations: a log-linear histogram of
/// nanoseconds (fixed size however many operations the block holds),
/// their count and their sum.
#[derive(Clone, Debug)]
pub struct Block {
    buckets: Vec<u32>,
    n: u64,
    busy_ns: u64,
}

impl Default for Block {
    fn default() -> Self {
        Block {
            buckets: vec![0; (OCTAVES + 1) * SUB_BUCKETS as usize],
            n: 0,
            busy_ns: 0,
        }
    }
}

impl Block {
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        let shift = (63 - ns.leading_zeros()) - SUB_BITS;
        if shift as usize >= OCTAVES {
            return (OCTAVES + 1) * SUB_BUCKETS as usize - 1;
        }
        let sub = (ns >> shift) - SUB_BUCKETS;
        (shift as usize + 1) * SUB_BUCKETS as usize + sub as usize
    }

    /// The `[low, high)` nanosecond range of bucket `i`.
    fn bucket_range(i: usize) -> (f64, f64) {
        let (octave, sub) = (i / SUB_BUCKETS as usize, (i % SUB_BUCKETS as usize) as u64);
        if octave == 0 {
            return (sub as f64, sub as f64 + 1.0);
        }
        let shift = octave as u32 - 1;
        let low = (SUB_BUCKETS + sub) << shift;
        (low as f64, (low + (1 << shift)) as f64)
    }

    /// Adds one operation's latency.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.n += 1;
        self.busy_ns += ns;
    }

    /// Adds every operation of `other`.
    pub fn merge(&mut self, other: &Block) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.n += other.n;
        self.busy_ns += other.busy_ns;
    }

    /// Operations in the block.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sum of the block's latencies, seconds: the time its client spent
    /// inside calls.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Closed-loop completion rate of the block's client, 1/s.
    pub fn rate(&self) -> f64 {
        self.n as f64 / self.busy_s()
    }

    /// Percentile `q` in microseconds, interpolated inside its bucket;
    /// `None` unless the block leaves [`MIN_BEYOND`] samples beyond it.
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        percentile_allowed(self.n as usize, q).then(|| self.percentile_us_unchecked(q))
    }

    /// Percentile `q` in microseconds whatever the block's size.
    pub fn percentile_us_unchecked(&self, q: f64) -> f64 {
        assert!(self.n > 0, "percentile of an empty block");
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            let count = u64::from(count);
            if count > 0 && rank < (before + count) as f64 {
                let (low, high) = Self::bucket_range(i);
                let into = (rank - before as f64 + 0.5) / count as f64;
                return (low + (high - low) * into) * 1e-3;
            }
            before += count;
        }
        unreachable!("rank {rank} lies within the {} recorded samples", self.n)
    }
}

/// Time slices a client's run is cut into; they regroup into blocks once
/// the run's operation count is known.
pub const SLICES: usize = 60;
/// Blocks a statistic is the median of, when the samples allow it.
pub const MAX_BLOCKS: usize = 5;

/// Regroups a client's slices (in time order) into the largest number of
/// equal blocks (at most [`MAX_BLOCKS`]) that leaves [`MIN_BEYOND`]
/// samples beyond percentile `q` in a block of average size; one block
/// holding everything when even that is too few.
pub fn regroup(slices: &[Block], q: f64) -> Vec<Block> {
    let total: u64 = slices.iter().map(Block::n).sum();
    if total == 0 {
        return Vec::new();
    }
    let blocks = (1..=MAX_BLOCKS.min(slices.len()))
        .rev()
        .find(|&b| percentile_allowed((total / b as u64) as usize, q))
        .unwrap_or(1);
    slices
        .chunks(slices.len().div_ceil(blocks))
        .map(|chunk| {
            let mut block = Block::default();
            chunk.iter().for_each(|s| block.merge(s));
            block
        })
        .filter(|block| block.n() > 0)
        .collect()
}

/// Median over blocks of a per-block statistic; `None` when no block
/// reports it (the percentile was not allowed at that block size).
pub fn block_median(blocks: &[Block], stat: impl Fn(&Block) -> Option<f64>) -> Option<f64> {
    let values: Vec<f64> = blocks.iter().filter_map(stat).collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Spread of repeated measurements of one metric (`--repeat`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First quartile (`statistics.quantiles(n=4)` convention).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(max − min) / median`.
    pub range_frac: f64,
}

impl Spread {
    /// `(q3 − q1) / median`, the figure the driver compares to `bound`.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (exclusive method), plus the full range.
pub fn spread(values: &[f64]) -> Spread {
    assert!(values.len() >= 2, "spread needs two runs");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        // Exclusive method: position i·(n+1)/4 on a 1-based scale.
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = percentile_sorted(&v, 0.5);
    Spread {
        median: med,
        q1: quartile(1),
        q3: quartile(3),
        range_frac: if med == 0.0 {
            0.0
        } else {
            (v[n - 1] - v[0]) / med.abs()
        },
    }
}

/// Process counters read from `/proc/self`, for deltas over a timed
/// section. All zero where `/proc` is unavailable.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcCounters {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
    /// Involuntary context switches.
    pub invol_ctx_switches: f64,
}

impl ProcCounters {
    /// Reads the current counters.
    pub fn now() -> ProcCounters {
        let mut c = ProcCounters::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15, minflt field 10 (1-based).
            if let Some(rest) = stat.rsplit_once(") ").map(|(_, r)| r) {
                let f: Vec<&str> = rest.split_ascii_whitespace().collect();
                let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
                // `rest` starts at field 3, so field N is index N − 3.
                // Linux reports CPU time in USER_HZ ticks, 100 per second
                // on every supported architecture.
                c.minor_faults = num(7);
                c.user_s = num(11) / 100.0;
                c.sys_s = num(12) / 100.0;
            }
        }
        // Context switches are per thread: sum over the threads alive now
        // (the serving stack's workers and the calling client; threads
        // that have already exited are not counted).
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            c.invol_ctx_switches = tasks
                .flatten()
                .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
                .filter_map(|status| field(&status, "nonvoluntary_ctxt_switches"))
                .sum();
        }
        c
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcCounters) -> ProcCounters {
        ProcCounters {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }
}

/// The number after `key:` in a `/proc/<pid>/status` text.
fn field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| field(&status, "VmHWM"))
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_honours_ten_samples_beyond() {
        // The highest percentile a block of n samples may report.
        let highest = |n: usize| {
            [0.99, 0.95, 0.5]
                .into_iter()
                .find(|&q| percentile_allowed(n, q))
        };
        assert_eq!(highest(19), None);
        assert_eq!(highest(20), Some(0.5));
        assert_eq!(highest(199), Some(0.5));
        assert_eq!(highest(200), Some(0.95));
        assert_eq!(highest(999), Some(0.95));
        assert_eq!(highest(1_000), Some(0.99));
        let block = |n: u64| {
            let mut b = Block::default();
            (1..=n).for_each(|ns| b.record(ns * 1_000));
            b
        };
        assert!(block(199).percentile_us(0.95).is_none());
        let cold = block(200);
        assert!(cold.percentile_us(0.95).is_some() && cold.percentile_us(0.99).is_none());
        assert!(block(1_000).percentile_us(0.99).is_some());
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket_of_the_sample() {
        let mut b = Block::default();
        let samples: Vec<u64> = (0..10_000u64)
            .map(|i| 500 + i * i % 7_919 * 1_000)
            .collect();
        samples.iter().for_each(|&ns| b.record(ns));
        let mut sorted: Vec<f64> = samples.iter().map(|&ns| ns as f64 * 1e-3).collect();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let (exact, got) = (percentile_sorted(&sorted, q), b.percentile_us_unchecked(q));
            assert!(
                (got - exact).abs() <= exact / 64.0 + 1e-3,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(b.n(), 10_000);
        assert!((b.busy_s() - samples.iter().sum::<u64>() as f64 * 1e-9).abs() < 1e-12);
        // Small values are exact, huge ones land in the last bucket.
        assert_eq!(Block::bucket_range(Block::bucket_of(37)), (37.0, 38.0));
        assert_eq!(
            Block::bucket_of(u64::MAX),
            (OCTAVES + 1) * SUB_BUCKETS as usize - 1
        );
        for ns in [64u64, 65, 127, 128, 1_000, 123_456_789] {
            let (low, high) = Block::bucket_range(Block::bucket_of(ns));
            assert!(low <= ns as f64 && (ns as f64) < high && high - low <= low / 64.0 + 1.0);
        }
    }

    fn slice_of(n: u64, ns: u64) -> Block {
        let mut block = Block::default();
        (0..n).for_each(|_| block.record(ns));
        block
    }

    #[test]
    fn slices_regroup_into_equal_blocks_and_their_median() {
        // 60 slices of 40 samples: five blocks of 480 for p50 and p95,
        // two blocks of 1 200 for p99. Slices 0..12 (the first of five
        // blocks) are ten times slower.
        let slices: Vec<Block> = (0..SLICES)
            .map(|s| slice_of(40, if s < 12 { 10_000 } else { 1_000 }))
            .collect();
        let five = regroup(&slices, 0.95);
        assert_eq!(five.len(), 5);
        assert!(five.iter().all(|b| b.n() == 480));
        let two = regroup(&slices, 0.99);
        assert_eq!((two.len(), two[0].n()), (2, 1_200));
        // The median over blocks ignores the one slow block; pooling
        // everything would not (20 % of samples are slow).
        let p95 = block_median(&five, |b| b.percentile_us(0.95)).unwrap();
        assert!((p95 - 1.0).abs() < 0.02, "block-median p95 {p95}");
        assert!(two[0].percentile_us_unchecked(0.95) > 9.0);
        assert_eq!(block_median(&five, |b| b.percentile_us(0.999)), None);
        // Too few samples for any split: one block holding everything.
        let few: Vec<Block> = (0..SLICES).map(|_| slice_of(1, 5_000)).collect();
        let one = regroup(&few, 0.95);
        assert_eq!((one.len(), one[0].n()), (1, 60));
        assert!((five[0].rate() - 1.0 / 10e-6).abs() < 1e-3);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        // Empty slices make no block.
        let mut sparse = vec![Block::default(); SLICES];
        sparse[40] = slice_of(30, 1_000);
        assert_eq!(regroup(&sparse, 0.5).len(), 1);
        assert!(regroup(&[], 0.5).is_empty());
        assert!(regroup(&vec![Block::default(); SLICES], 0.5).is_empty());
    }

    #[test]
    fn quartiles_follow_the_python_convention() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert!((s.q1 - 2.75).abs() < 1e-12 && (s.q3 - 8.25).abs() < 1e-12);
        assert_eq!(s.median, 5.5);
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12);
        assert!((s.range_frac - 9.0 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn proc_counters_move_forward() {
        let a = ProcCounters::now();
        let mut v = vec![0u8; 8 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(&v);
        let d = ProcCounters::now().since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0 && d.minor_faults >= 0.0);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss_peak_mb() > 0.0);
        }
    }
}
