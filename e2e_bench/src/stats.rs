//! The benchmark's own arithmetic: percentile selection, failure tallies
//! and the exact-repeat check on deterministic work counts.

use std::collections::BTreeMap;

/// A percentile report needs at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank value at percentile `p` (0–100] of ascending `sorted`
/// samples: `sorted[ceil(p/100 · n) − 1]`. 0 when there are no samples.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).saturating_sub(1)]
}

/// `ceil(p/100 · n)`, the 1-based nearest rank, in exact integer
/// arithmetic.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
#[must_use]
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest whole percentile at or below `wanted` with at least
/// [`MIN_BEYOND`] samples above it. When even the median lacks that
/// many (fewer than 20 samples), the median is reported.
#[must_use]
pub fn tail_percentile(n: usize, wanted: u32) -> u32 {
    (50..=wanted)
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// One reported percentile: which one, its value and its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile actually reported (may be below the one asked for).
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// The median and the highest percentile up to `wanted_tail` that has
/// [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn median_and_tail(samples: &[f64], wanted_tail: u32) -> (Quantile, Quantile) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = tail_percentile(n, wanted_tail);
    (
        Quantile {
            percentile: 50,
            value: nearest_rank(&sorted, 50),
            samples: n,
        },
        Quantile {
            percentile: tail,
            value: nearest_rank(&sorted, tail),
            samples: n,
        },
    )
}

/// The largest of `samples`, reported as percentile 100; 0 when empty.
#[must_use]
pub fn slowest(samples: &[f64]) -> Quantile {
    Quantile {
        percentile: 100,
        value: samples.iter().copied().fold(0.0, f64::max),
        samples: samples.len(),
    }
}

/// Median of `samples` (nearest rank); 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    median_and_tail(samples, 50).0.value
}

/// Each column's median over the rows: `rows` holds one row per pass,
/// and column `j` is the same operation (or instance) in every pass, as
/// every pass repeats the same work. The result keeps one steady value
/// per operation, so a burst of machine noise in one pass moves nothing.
///
/// # Panics
///
/// Panics if the rows differ in length.
#[must_use]
pub fn column_medians(rows: &[&[f64]]) -> Vec<f64> {
    let width = rows.first().map_or(0, |r| r.len());
    assert!(
        rows.iter().all(|r| r.len() == width),
        "every pass repeats the same operations"
    );
    (0..width)
        .map(|j| median(&rows.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .collect()
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `attempted` operations of which `failed` failed.
    ///
    /// # Panics
    ///
    /// Panics if more failed than were attempted.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        assert!(
            failed <= attempted,
            "{failed} failed of {attempted} attempted"
        );
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sum of two tallies.
    #[must_use]
    pub fn merged(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
        }
    }
}

/// Deterministic work counts of one pass, by name.
pub type WorkCounts = BTreeMap<String, u64>;

/// The first count that differs between two passes, as
/// `(name, first, second)` with a missing count read as `None`.
#[must_use]
pub fn first_mismatch(
    first: &WorkCounts,
    second: &WorkCounts,
) -> Option<(String, Option<u64>, Option<u64>)> {
    first
        .keys()
        .chain(second.keys())
        .find(|k| first.get(*k) != second.get(*k))
        .map(|k| (k.clone(), first.get(k).copied(), second.get(k).copied()))
}

/// `name=value` lines, one per count, in name order.
#[must_use]
pub fn encode_counts(counts: &WorkCounts) -> String {
    counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// Parses [`encode_counts`] output; `None` on any malformed line.
#[must_use]
pub fn decode_counts(text: &str) -> Option<WorkCounts> {
    text.lines()
        .map(|line| {
            let (k, v) = line.split_once('=')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect()
}

/// `numerator / denominator`, or 0 when the denominator is 0 (the ratio
/// is printed next to its base, so a 0/0 stays readable as such).
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s = ascending(10);
        assert_eq!(nearest_rank(&s, 50), 5.0);
        assert_eq!(nearest_rank(&s, 90), 9.0);
        assert_eq!(nearest_rank(&s, 91), 10.0);
        assert_eq!(nearest_rank(&s, 100), 10.0);
        assert_eq!(nearest_rank(&[7.0], 99), 7.0);
        assert_eq!(nearest_rank(&[], 50), 0.0);
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(tail_percentile(5000, 99), 99);
    }

    #[test]
    fn tail_drops_to_the_highest_percentile_with_ten_beyond() {
        // 500 samples: p99 leaves 5 beyond, p98 leaves 10.
        assert_eq!(beyond(500, 99), 5);
        assert_eq!(tail_percentile(500, 99), 98);
        // 40 samples: p75 leaves exactly 10, p76 leaves 9.
        assert_eq!(beyond(40, 76), 9);
        assert_eq!(tail_percentile(40, 99), 75);
        // 999 samples: p99 rounds its rank up and leaves only 9.
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(tail_percentile(999, 99), 98);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        assert_eq!(tail_percentile(19, 99), 50);
        assert_eq!(tail_percentile(5, 99), 50);
        assert_eq!(tail_percentile(0, 99), 50);
        assert_eq!(tail_percentile(20, 99), 50);
        assert_eq!(tail_percentile(21, 99), 52);
    }

    #[test]
    fn median_and_tail_sort_and_report_sample_counts() {
        let mut samples = ascending(200);
        samples.reverse();
        let (p50, tail) = median_and_tail(&samples, 99);
        assert_eq!(p50.percentile, 50);
        assert_eq!(p50.value, 100.0);
        assert_eq!(p50.samples, 200);
        assert_eq!(tail.percentile, 95);
        assert_eq!(tail.value, 190.0);
        assert_eq!(tail.samples, 200);
    }

    #[test]
    fn slowest_is_the_maximum_at_percentile_100() {
        let q = slowest(&[3.0, 9.0, 1.0]);
        assert_eq!((q.percentile, q.value, q.samples), (100, 9.0, 3));
        assert_eq!(slowest(&[]).value, 0.0);
    }

    #[test]
    fn a_burst_in_one_pass_moves_no_column() {
        let steady = [1.0, 2.0, 3.0];
        let burst = [1.0, 9.0, 30.0];
        assert_eq!(
            column_medians(&[&steady, &burst, &steady]),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(column_medians(&[&steady]), vec![1.0, 2.0, 3.0]);
        assert!(column_medians(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "same operations")]
    fn passes_of_different_work_are_a_bug() {
        let _ = column_medians(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        t.add(400, 7);
        assert_eq!(t.attempted, 403);
        assert_eq!(t.failed, 8);
        let sum = t.merged(Tally {
            attempted: 10,
            failed: 0,
        });
        assert_eq!((sum.attempted, sum.failed), (413, 8));
    }

    #[test]
    #[should_panic(expected = "failed of")]
    fn more_failures_than_attempts_is_a_bug() {
        Tally::default().add(1, 2);
    }

    fn counts(pairs: &[(&str, u64)]) -> WorkCounts {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn identical_counts_repeat() {
        let a = counts(&[("core.scenarios_planned", 35), ("flow.probes", 2415)]);
        assert_eq!(first_mismatch(&a, &a.clone()), None);
    }

    #[test]
    fn a_changed_count_is_named() {
        let a = counts(&[("flow.probes", 2415), ("model.index_seeks", 9)]);
        let b = counts(&[("flow.probes", 2416), ("model.index_seeks", 9)]);
        assert_eq!(
            first_mismatch(&a, &b),
            Some(("flow.probes".to_owned(), Some(2415), Some(2416)))
        );
    }

    #[test]
    fn a_missing_count_is_a_mismatch_either_way() {
        let a = counts(&[("flow.probes", 1)]);
        let b = counts(&[("flow.probes", 1), ("model.index_seeks", 0)]);
        assert_eq!(
            first_mismatch(&a, &b),
            Some(("model.index_seeks".to_owned(), None, Some(0)))
        );
        assert_eq!(
            first_mismatch(&b, &a),
            Some(("model.index_seeks".to_owned(), Some(0), None))
        );
    }

    #[test]
    fn counts_round_trip_through_their_text_form() {
        let a = counts(&[("a.b", 0), ("fingerprint", u64::MAX), ("z", 17)]);
        assert_eq!(decode_counts(&encode_counts(&a)), Some(a));
        assert_eq!(decode_counts("a=1\nbroken\n"), None);
        assert_eq!(decode_counts("a=x\n"), None);
    }

    #[test]
    fn ratios_of_nothing_read_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
