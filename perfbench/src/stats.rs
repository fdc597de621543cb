//! Percentiles, medians and span self time — the arithmetic every reported
//! number goes through, kept apart so it can be tested on its own.

/// The `q`-quantile (`0 < q <= 1`) of `values` by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it.  `None`
/// for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median: the middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The mean without the lowest and the highest sample (the plain mean of
/// fewer than three).  One server instance that drew a bad CPU placement or
/// a stall of the host moves it by a fraction of what it moves the mean.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The `q`-quantile taken in each `window` of the timeline separately, then
/// the median across windows.  `samples` are `(time, value)` pairs; windows
/// with fewer than `min_samples` are skipped.  A short stall of the machine
/// spoils one window's tail instead of the whole run's, so this tail repeats
/// from run to run where a single run-wide p99 follows the luck of the stalls.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    window: u64,
    q: f64,
    min_samples: usize,
) -> Option<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        windows.entry(t / window.max(1)).or_default().push(v);
    }
    let tails: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= min_samples)
        .filter_map(|w| percentile(w, q))
        .collect();
    median(&tails)
}

/// Throughput as the median over the full `window`s of `[0, span)` of each
/// window's total per second.  `events` are `(time, amount)` pairs; like
/// [`windowed_percentile`], a stall costs one window, not the run.
pub fn windowed_rate(events: &[(u64, f64)], window: u64, span: u64) -> Option<f64> {
    let windows = (span / window.max(1)) as usize;
    let mut totals = vec![0.0; windows];
    for &(t, amount) in events {
        if let Some(total) = totals.get_mut((t / window.max(1)) as usize) {
            *total += amount;
        }
    }
    let per_second = 1e9 / window as f64;
    let rates: Vec<f64> = totals.iter().map(|t| t * per_second).collect();
    median(&rates)
}

/// One recorded span: a named interval with an optional parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within one trace.
    pub id: u64,
    /// The span that caused this one (`None` for a request's root span).
    pub parent: Option<u64>,
    /// The request this span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `proto.decode`.
    pub name: &'static str,
    /// Start, in nanoseconds on the trace clock.
    pub start: u64,
    /// End, in nanoseconds on the trace clock.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its children cover.  Overlapping children (parallel
/// work) are counted once, and a child's time outside its parent is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = match children.get(&span.id) {
                Some(intervals) => covered_within(intervals, span.start, span.end),
                None => 0,
            };
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(50.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&values, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Input order does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        assert_eq!(trimmed_mean(&[100.0, 2.0, 1.0, 3.0]), Some(2.5));
        assert_eq!(trimmed_mean(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(trimmed_mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(trimmed_mean(&[4.0]), Some(4.0));
        assert_eq!(trimmed_mean(&[]), None);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three windows of 100 samples; the middle one holds a stall.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                let stalled = w == 1 && i >= 50;
                let value = if stalled { 5_000.0 } else { (i + 1) as f64 };
                samples.push((w * 1_000 + i, value));
            }
        }
        assert_eq!(windowed_percentile(&samples, 1_000, 0.99, 10), Some(99.0));
        // The run-wide p99 is the stall.
        let values: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&values, 0.99), Some(5_000.0));
        // Windows below the sample floor are skipped.
        assert_eq!(windowed_percentile(&samples, 1_000, 0.99, 101), None);
    }

    #[test]
    fn windowed_rate_is_the_median_window_rate() {
        // 1 s windows over 3 s; the middle one stalls.
        let events = vec![
            (100, 10.0),
            (900, 10.0),
            (1_500, 1.0),
            (2_100, 30.0),
            (3_500, 99.0),
        ];
        assert_eq!(windowed_rate(&events, 1_000, 3_000), Some(20.0 * 1e6));
        assert_eq!(windowed_rate(&events, 1_000, 500), None);
    }

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 70),
            span(4, Some(3), 45, 55),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span(1, None, 100, 200),
            // Two parallel children overlapping on [130, 150).
            span(2, Some(1), 120, 150),
            span(3, Some(1), 130, 170),
            // A child that outlives its parent only covers the overlap.
            span(4, Some(1), 190, 260),
        ];
        // Covered: [120, 170) = 50 plus [190, 200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = vec![
            span(1, None, 0, 1_000),
            span(2, Some(1), 0, 400),
            span(3, Some(2), 100, 300),
            span(4, Some(1), 500, 900),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1_000);
    }
}
