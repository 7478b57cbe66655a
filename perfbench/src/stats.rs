//! Latency summaries and error accounting.

/// Percentile levels a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (in percent) among `n` samples.
/// The epsilon keeps decimal levels such as 99.9 from rounding one rank up.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` (in percent) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

/// The highest level in [`TAIL_LEVELS`] with at least [`BEYOND`] samples
/// beyond its nearest rank, or `None` when even the median has fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS.into_iter().find(|&q| n.saturating_sub(rank(q, n)) >= BEYOND)
}

/// A latency distribution as reported: median and tail with sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The level the tail is reported at (50 when too few samples for any
    /// higher level to have ten beyond it).
    pub tail_level: f64,
    /// The tail value.
    pub tail: f64,
}

impl Summary {
    /// Summarise `samples` (failed requests enter as `f64::INFINITY`, so
    /// they count as missing any latency limit). `None` without samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let level = tail_level(sorted.len()).unwrap_or(50.0);
        Some(Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_level: level,
            tail: percentile(&sorted, level),
        })
    }

    /// Human-readable line: `p50 X ms, p99 Y ms (n samples)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} ({} samples, tail has >= {} beyond{})",
            self.p50,
            self.tail_level,
            self.tail,
            self.count,
            if self.tail_level > 50.0 { BEYOND } else { self.count / 2 },
            if self.tail_level > 50.0 { "" } else { "; too few samples for a higher percentile" },
        )
    }
}

/// Closed-loop figures taken per time window, each the median over the
/// windows: on a shared host other guests slow the process down, or leave
/// it a faster clock, for seconds at a time, and the median over windows
/// holds while such spells cover fewer than half of them. A change to the
/// program moves every window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Full windows the figures are taken over.
    pub windows: usize,
    /// Median of the windows' completions per second.
    pub rate: f64,
    /// Median of the windows' median latencies.
    pub p50: f64,
    /// Lowest tail level any window reported at.
    pub tail_level: f64,
    /// Median of the windows' tail latencies.
    pub tail: f64,
}

/// One loop's reads, `(completion time s, latency ms)`, and its wall time.
pub type Segment = (Vec<(f64, f64)>, f64);

/// Split `samples` (`(completion time s, latency ms)`) into consecutive
/// windows of `window_s` seconds, dropping a last partial window; with no
/// full window, all samples form one window of length `wall_s`. Returns
/// each window's rate and latency summary.
fn windows(samples: &[(f64, f64)], wall_s: f64, window_s: f64) -> Vec<(f64, Summary)> {
    let full = (wall_s / window_s).floor() as usize;
    let (count, len) = if full == 0 { (1, wall_s) } else { (full, window_s) };
    let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); count];
    for &(at, ms) in samples {
        let k = (at / len) as usize;
        if k < count {
            buckets[k].push((at, ms));
        }
    }
    // A window's rate is measured between its first and last answer,
    // so it keeps its digits instead of counting whole answers.
    let rate = |b: &[(f64, f64)]| {
        let (first, last) =
            b.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(at, _)| (lo.min(at), hi.max(at)));
        if b.len() >= 2 && last > first {
            (b.len() - 1) as f64 / (last - first)
        } else {
            b.len() as f64 / len
        }
    };
    buckets
        .iter()
        .filter_map(|b| {
            let ms: Vec<f64> = b.iter().map(|&(_, ms)| ms).collect();
            Summary::of(&ms).map(|s| (rate(b), s))
        })
        .collect()
}

impl Windowed {
    /// The figures of one loop's windows (see [`windows`]).
    pub fn of(samples: &[(f64, f64)], wall_s: f64, window_s: f64) -> Option<Windowed> {
        Self::from_windows(windows(samples, wall_s, window_s))
    }

    /// The figures of consecutive loops, each windowed from its own start.
    pub fn of_segments(segments: &[Segment], window_s: f64) -> Option<Windowed> {
        Self::from_windows(
            segments
                .iter()
                .flat_map(|(samples, wall_s)| windows(samples, *wall_s, window_s))
                .collect(),
        )
    }

    fn from_windows(summaries: Vec<(f64, Summary)>) -> Option<Windowed> {
        if summaries.is_empty() {
            return None;
        }
        let pick = |f: &dyn Fn(&(f64, Summary)) -> f64| summaries.iter().map(f).collect::<Vec<_>>();
        Some(Windowed {
            windows: summaries.len(),
            rate: median(&pick(&|(r, _)| *r)),
            p50: median(&pick(&|(_, s)| s.p50)),
            tail_level: summaries.iter().map(|(_, s)| s.tail_level).fold(100.0, f64::min),
            tail: median(&pick(&|(_, s)| s.tail)),
        })
    }
}

/// Nearest-rank median of a non-empty, unsorted slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Outcome counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Submissions and output checks attempted.
    pub attempted: u64,
    /// Submissions that returned an error other than shedding.
    pub failed: u64,
    /// Submissions refused by admission control.
    pub shed: u64,
    /// Output checks that did not hold.
    pub check_failed: u64,
}

impl Tally {
    /// Record one output check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.check_failed += 1;
        }
    }

    /// Everything that went wrong.
    pub fn errors(&self) -> u64 {
        self.failed + self.shed + self.check_failed
    }

    /// `(failed + shed + check-failed) / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.errors() as f64 / self.attempted as f64
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.check_failed += other.check_failed;
    }
}

/// Whether one open-loop rung met the latency limit: the median over
/// windows of the windows' tails (failures and sheds counted as
/// infinitely late) is within `limit_ms`, and the schedule had not fallen
/// behind by more than the limit at the end (no growing backlog).
pub fn rung_passes(
    samples: &[(f64, f64)],
    wall_s: f64,
    window_s: f64,
    final_lag_ms: f64,
    limit_ms: f64,
) -> bool {
    match Windowed::of(samples, wall_s, window_s) {
        Some(w) => w.tail <= limit_ms && final_lag_ms <= limit_ms,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond rank 990.
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(999), Some(98.0));
        // p99.9 needs 10 000.
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(19), None);
        for n in [20usize, 57, 100, 333, 1000, 4321, 10_000, 123_456] {
            let q = tail_level(n).unwrap();
            assert!(n - rank(q, n) >= BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn summary_reports_median_and_qualified_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!((s.count, s.p50, s.tail_level, s.tail), (1000, 500.0, 99.0, 990.0));
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.p50, few.tail_level, few.tail), (2.0, 50.0, 2.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn windowed_figures_ignore_a_minority_of_disturbed_windows() {
        // Ten 1 s windows of 100 reads at 2 ms; window 3 is disturbed:
        // 10 reads at 50 ms.
        let mut samples = Vec::new();
        for w in 0..10 {
            let (n, ms) = if w == 3 { (10, 50.0) } else { (100, 2.0) };
            for i in 0..n {
                samples.push((w as f64 + (i as f64 + 0.5) / n as f64, ms));
            }
        }
        let all = Windowed::of(&samples, 10.2, 1.0).unwrap();
        assert_eq!(all.windows, 10);
        assert!((all.rate - 100.0).abs() < 1e-9, "rate {}", all.rate);
        assert_eq!((all.p50, all.tail), (2.0, 2.0));
        // Shorter than one window: one window over the whole run.
        let short = Windowed::of(&samples[..50], 0.5, 1.0).unwrap();
        assert_eq!(short.windows, 1);
        assert!((short.rate - 100.0).abs() < 1e-9, "rate {}", short.rate);
        assert!(Windowed::of(&[], 3.0, 1.0).is_none());
    }

    #[test]
    fn windowed_figures_hold_while_fewer_than_half_the_windows_are_slowed() {
        // Twenty 1 s windows; windows 4..13 (nine of them) are slowed
        // from 100 reads at 2 ms to 50 reads at 4 ms.
        let mut samples = Vec::new();
        for w in 0..20 {
            let (n, ms) = if (4..13).contains(&w) { (50, 4.0) } else { (100, 2.0) };
            for i in 0..n {
                samples.push((w as f64 + (i as f64 + 0.5) / n as f64, ms));
            }
        }
        let all = Windowed::of(&samples, 20.0, 1.0).unwrap();
        assert!((all.rate - 100.0).abs() < 1e-9, "rate {}", all.rate);
        assert_eq!(all.p50, 2.0);
        // The tail is the median over windows, as the rung rule reads it.
        assert_eq!(all.tail, 2.0);
        // Segments are windowed from their own starts: two loops of 2.5 s
        // give two full windows each.
        let seg =
            |ms: f64| -> Segment { ((0..250).map(|i| (i as f64 / 100.0, ms)).collect(), 2.5) };
        let two = Windowed::of_segments(&[seg(1.0), seg(1.0), seg(3.0)], 1.0).unwrap();
        assert_eq!((two.windows, two.p50), (6, 1.0));
    }

    #[test]
    fn shed_and_failed_count_as_attempted_and_as_missing_the_limit() {
        let mut t = Tally { attempted: 100, failed: 2, shed: 3, ..Tally::default() };
        t.check(true);
        t.check(false);
        assert_eq!(t.attempted, 102);
        assert_eq!(t.errors(), 6);
        assert!((t.error_rate() - 6.0 / 102.0).abs() < 1e-15);

        // 200 fast answers in one second pass a 10 ms limit; the same rung
        // with 11 shed requests (recorded as infinitely late) does not,
        // because they land beyond the reported p95.
        let mut lat: Vec<(f64, f64)> = (0..200).map(|i| (i as f64 / 200.0, 1.0)).collect();
        assert!(rung_passes(&lat, 1.0, 1.0, 0.0, 10.0));
        lat.extend((0..11).map(|i| (0.5 + i as f64 / 100.0, f64::INFINITY)));
        assert!(!rung_passes(&lat, 1.0, 1.0, 0.0, 10.0));
        // A schedule that fell behind fails even with fast answers.
        assert!(!rung_passes(&lat[..200], 1.0, 1.0, 25.0, 10.0));
        assert!(!rung_passes(&[], 1.0, 1.0, 0.0, 10.0));
    }
}
