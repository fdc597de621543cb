//! Lock-striped, per-[`SpecKey`] report accumulators.
//!
//! The collector mirrors the sharding of the serve side's `DesignCache`: keys
//! hash onto a fixed set of mutex-striped shards, and each key owns an
//! [`Arc`]'d block of per-output [`AtomicU64`] counters.  A batch takes its
//! shard lock exactly once (to resolve the key's accumulator), then counts
//! lock-free with relaxed atomic adds — which is what lets a single core
//! ingest millions of reports per second while other threads ingest, merge,
//! or snapshot concurrently.
//!
//! Counters are `u64` and merges saturate, so the accumulator cannot wrap or
//! poison on any input — at 10 M reports/sec a single counter takes ~58,000
//! years to saturate, at which point the estimate is clamped rather than
//! corrupted.
//!
//! Memory is bounded against untrusted report streams on two axes: a key's
//! group size may not exceed [`wire::REPORT_MAX_N`] (capping one counter block
//! at ~512 KiB instead of letting a hostile `n` demand gigabytes), and the
//! collector holds at most `max_keys` distinct accumulators
//! ([`DEFAULT_MAX_KEYS`] unless configured via
//! [`ReportCollector::with_limits`]).  Since α is keyed by raw `f64` bits, a
//! client could otherwise mint an unlimited number of distinct keys and grow
//! the map without bound.  Reports violating either bound are counted as
//! rejected, never allocated for.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cpm_core::SpecKey;

use crate::wire::{self, Report};

/// Default shard count, matching the design cache's stripe width.
pub const DEFAULT_SHARDS: usize = 16;

/// Default cap on distinct keys holding live accumulators.
///
/// Unlike the design cache, the collector never evicts — evicting would
/// silently drop counts and bias every later estimate — so beyond the cap new
/// keys are *rejected* (their reports count as rejected) rather than displacing
/// old ones.  At the default, worst-case resident memory is
/// `DEFAULT_MAX_KEYS × (REPORT_MAX_N + 1) × 8` bytes only if every key uses the
/// maximal group size; realistic mixes sit orders of magnitude lower.
pub const DEFAULT_MAX_KEYS: usize = 4096;

/// Per-key counter block: one atomic counter per output index `0..=n`.
#[derive(Debug)]
struct KeyAccumulator {
    counts: Vec<AtomicU64>,
}

impl KeyAccumulator {
    fn new(dim: usize) -> Self {
        KeyAccumulator {
            counts: (0..dim).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn snapshot(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Outcome of one ingest call: how many reports landed and how many were
/// rejected (out-of-range output for their key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestSummary {
    /// Reports counted into an accumulator.
    pub accepted: u64,
    /// Reports dropped for an out-of-range output.
    pub rejected: u64,
}

impl IngestSummary {
    fn absorb(&mut self, other: IngestSummary) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
    }
}

/// Lifetime totals for a collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorStats {
    /// Reports accepted since construction.
    pub ingested: u64,
    /// Reports rejected since construction.
    pub rejected: u64,
    /// Ingest calls (batches) served.
    pub batches: u64,
    /// Distinct keys holding live accumulators.
    pub keys: usize,
}

/// The sharded report collector.
///
/// Cheap to construct (empty stripes, no per-key state until the first report
/// for that key arrives) and safe to share behind an [`Arc`] between the
/// serve engine, wire front end, and estimator snapshots.
#[derive(Debug)]
pub struct ReportCollector {
    shards: Vec<Mutex<HashMap<SpecKey, Arc<KeyAccumulator>>>>,
    max_keys: usize,
    key_count: AtomicUsize,
    ingested: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
}

impl Default for ReportCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportCollector {
    /// A collector with [`DEFAULT_SHARDS`] stripes and [`DEFAULT_MAX_KEYS`].
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A collector with an explicit stripe count (minimum 1) and the default
    /// key cap.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_limits(shards, DEFAULT_MAX_KEYS)
    }

    /// A collector with explicit stripe count and distinct-key cap (both
    /// clamped to a minimum of 1).  Reports for keys beyond the cap are
    /// rejected, never allocated for.
    pub fn with_limits(shards: usize, max_keys: usize) -> Self {
        let shards = shards.max(1);
        ReportCollector {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            max_keys: max_keys.max(1),
            key_count: AtomicUsize::new(0),
            ingested: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// The distinct-key cap this collector enforces.
    pub fn max_keys(&self) -> usize {
        self.max_keys
    }

    fn shard_of(&self, key: &SpecKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Resolve (creating on first sight) the counter block for `key`.  One
    /// shard-lock acquisition; the returned handle counts lock-free.
    ///
    /// `None` when the key is inadmissible: its group size exceeds
    /// [`wire::REPORT_MAX_N`] (the counter block would be attacker-sized), or
    /// it is unseen and the collector already holds `max_keys` accumulators.
    fn accumulator(&self, key: &SpecKey) -> Option<Arc<KeyAccumulator>> {
        if key.n == 0 || key.n > wire::REPORT_MAX_N {
            return None;
        }
        let mut shard = self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(existing) = shard.get(key) {
            return Some(Arc::clone(existing));
        }
        // Claim a key slot before allocating; the atomic keeps the cap exact
        // across shards (keys are never removed, so a claimed slot is final).
        if self
            .key_count
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |count| {
                (count < self.max_keys).then_some(count + 1)
            })
            .is_err()
        {
            return None;
        }
        let created = Arc::new(KeyAccumulator::new(key.n + 1));
        shard.insert(*key, Arc::clone(&created));
        drop(shard);
        if cpm_obs::enabled() {
            cpm_obs::gauge!("cpm_collect_keys").add(1);
        }
        Some(created)
    }

    /// Ingest one report.  Returns whether it was accepted.
    pub fn ingest(&self, key: &SpecKey, output: usize) -> bool {
        self.ingest_batch(key, std::iter::once(output)).accepted == 1
    }

    /// Ingest a batch of outputs for a single key — the line-rate path.
    ///
    /// The shard lock is taken once.  A batch of at least `n + 1` reports (by
    /// its iterator's lower size bound) is summed into a local histogram and
    /// applied with one relaxed atomic add per non-zero output — increments
    /// commute, so the final counts are the same; a shorter batch adds each
    /// report directly and allocates nothing.  Out-of-range outputs — and
    /// whole batches for inadmissible keys (group size beyond
    /// [`wire::REPORT_MAX_N`], or a new key past the `max_keys` cap) — are
    /// counted as rejected, never panicked on.
    pub fn ingest_batch(
        &self,
        key: &SpecKey,
        outputs: impl IntoIterator<Item = usize>,
    ) -> IngestSummary {
        let start = cpm_obs::enabled().then(cpm_obs::now_nanos);
        let accumulator = self.accumulator(key);
        let mut summary = IngestSummary::default();
        match accumulator {
            Some(accumulator) => {
                let counts = &accumulator.counts;
                let dim = counts.len();
                let outputs = outputs.into_iter();
                if outputs.size_hint().0 >= dim {
                    let mut local = vec![0u64; dim];
                    for output in outputs {
                        match local.get_mut(output) {
                            Some(count) => *count += 1,
                            None => summary.rejected += 1,
                        }
                    }
                    for (counter, &count) in counts.iter().zip(&local) {
                        if count > 0 {
                            counter.fetch_add(count, Ordering::Relaxed);
                            summary.accepted += count;
                        }
                    }
                } else {
                    for output in outputs {
                        match counts.get(output) {
                            Some(counter) => {
                                counter.fetch_add(1, Ordering::Relaxed);
                                summary.accepted += 1;
                            }
                            None => summary.rejected += 1,
                        }
                    }
                }
            }
            None => summary.rejected = outputs.into_iter().count() as u64,
        }
        self.ingested.fetch_add(summary.accepted, Ordering::Relaxed);
        self.rejected.fetch_add(summary.rejected, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(start) = start {
            cpm_obs::counter!("cpm_collect_reports_total").add(summary.accepted);
            if summary.rejected > 0 {
                cpm_obs::counter!("cpm_collect_rejected_total").add(summary.rejected);
            }
            cpm_obs::counter!("cpm_collect_batches_total").inc();
            cpm_obs::histogram!("cpm_collect_ingest_nanos")
                .record(cpm_obs::now_nanos().saturating_sub(start));
        }
        summary
    }

    /// Ingest decoded wire reports, which may mix keys: consecutive runs of
    /// the same key share one accumulator resolution.
    pub fn ingest_reports(&self, reports: &[Report]) -> IngestSummary {
        let mut summary = IngestSummary::default();
        let mut start = 0;
        while start < reports.len() {
            let key = reports[start].key;
            let mut end = start + 1;
            while end < reports.len() && reports[end].key == key {
                end += 1;
            }
            summary.absorb(
                self.ingest_batch(&key, reports[start..end].iter().map(|r| r.output as usize)),
            );
            start = end;
        }
        summary
    }

    /// The observed output histogram for `key` (`counts[i]` = reports of
    /// output `i`), or `None` if no report for the key ever arrived.
    pub fn observed(&self, key: &SpecKey) -> Option<Vec<u64>> {
        let shard = self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        shard.get(key).map(|acc| acc.snapshot())
    }

    /// Total reports observed for `key`.
    pub fn total(&self, key: &SpecKey) -> u64 {
        self.observed(key)
            .map(|counts| counts.iter().sum())
            .unwrap_or(0)
    }

    /// Every key with a live accumulator, sorted for deterministic snapshots.
    pub fn keys(&self) -> Vec<SpecKey> {
        let mut keys: Vec<SpecKey> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort();
        keys
    }

    /// Number of distinct keys with live accumulators.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .len()
            })
            .sum()
    }

    /// Whether no key has reported yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold another collector's counts into this one, key by key, with
    /// saturating adds (the overflow-safe merge for fan-in topologies where
    /// per-thread or per-process collectors drain into one).
    pub fn merge_from(&self, other: &ReportCollector) {
        for key in other.keys() {
            let Some(counts) = other.observed(&key) else {
                continue;
            };
            let Some(accumulator) = self.accumulator(&key) else {
                // Key inadmissible here (over this collector's key cap): its
                // counts stay behind in `other` rather than vanish silently.
                self.rejected
                    .fetch_add(counts.iter().sum(), Ordering::Relaxed);
                continue;
            };
            let mut accepted = 0u64;
            for (output, &count) in counts.iter().enumerate() {
                if count == 0 || output >= accumulator.counts.len() {
                    continue;
                }
                let slot = &accumulator.counts[output];
                // Saturating compare-exchange loop: never wraps past u64::MAX.
                let mut current = slot.load(Ordering::Relaxed);
                loop {
                    let next = current.saturating_add(count);
                    match slot.compare_exchange_weak(
                        current,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => current = seen,
                    }
                }
                accepted = accepted.saturating_add(count);
            }
            self.ingested.fetch_add(accepted, Ordering::Relaxed);
        }
    }

    /// Lifetime totals.
    pub fn stats(&self) -> CollectorStats {
        CollectorStats {
            ingested: self.ingested.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            keys: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{Alpha, PropertySet};

    fn key(n: usize, alpha: f64) -> SpecKey {
        SpecKey::new(n, Alpha::new(alpha).unwrap(), PropertySet::empty())
    }

    #[test]
    fn ingest_counts_land_on_the_right_outputs() {
        let collector = ReportCollector::new();
        let k = key(4, 0.9);
        let summary = collector.ingest_batch(&k, [0, 1, 1, 4, 4, 4]);
        assert_eq!(
            summary,
            IngestSummary {
                accepted: 6,
                rejected: 0
            }
        );
        assert_eq!(collector.observed(&k).unwrap(), vec![1, 2, 0, 0, 3]);
        assert_eq!(collector.total(&k), 6);
        assert!(collector.observed(&key(5, 0.9)).is_none());
    }

    #[test]
    fn out_of_range_outputs_are_rejected_not_panicked() {
        let collector = ReportCollector::new();
        let k = key(2, 0.5);
        let summary = collector.ingest_batch(&k, [0, 3, 99]);
        assert_eq!(
            summary,
            IngestSummary {
                accepted: 1,
                rejected: 2
            }
        );
        let stats = collector.stats();
        assert_eq!((stats.ingested, stats.rejected), (1, 2));
    }

    #[test]
    fn keys_are_isolated_and_sorted() {
        let collector = ReportCollector::with_shards(4);
        let (a, b) = (key(3, 0.5), key(8, 0.9));
        collector.ingest(&b, 7);
        collector.ingest(&a, 1);
        assert_eq!(collector.keys(), {
            let mut expected = vec![a, b];
            expected.sort();
            expected
        });
        assert_eq!(collector.observed(&a).unwrap()[1], 1);
        assert_eq!(collector.observed(&b).unwrap()[7], 1);
        assert_eq!(collector.len(), 2);
    }

    #[test]
    fn concurrent_ingest_loses_nothing() {
        let collector = Arc::new(ReportCollector::new());
        let k = key(8, 0.9);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let collector = Arc::clone(&collector);
                std::thread::spawn(move || {
                    collector.ingest_batch(&k, (0..10_000).map(move |i| (i + t) % 9));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(collector.total(&k), 80_000);
    }

    #[test]
    fn merge_adds_counts_across_collectors() {
        let a = ReportCollector::new();
        let b = ReportCollector::new();
        let k = key(2, 0.5);
        a.ingest_batch(&k, [0, 1, 1]);
        b.ingest_batch(&k, [1, 2]);
        a.merge_from(&b);
        assert_eq!(a.observed(&k).unwrap(), vec![1, 3, 1]);
    }

    #[test]
    fn merge_saturates_at_u64_max() {
        let k = key(2, 0.5);
        let target = ReportCollector::new();
        target.ingest_batch(&k, [0, 0, 0]);
        let huge = ReportCollector::new();
        huge.accumulator(&k).unwrap().counts[0].store(u64::MAX - 1, Ordering::Relaxed);
        target.merge_from(&huge);
        assert_eq!(
            target.observed(&k).unwrap()[0],
            u64::MAX,
            "clamped, not wrapped"
        );
    }

    #[test]
    fn oversized_group_sizes_never_allocate() {
        let collector = ReportCollector::new();
        // A key claiming n = u32::MAX - 1 would demand a ~34 GB counter block;
        // it must bounce as rejected without touching the shard maps.
        let hostile = key(u32::MAX as usize - 1, 0.9);
        let summary = collector.ingest_batch(&hostile, [0, 1, 2]);
        assert_eq!(
            summary,
            IngestSummary {
                accepted: 0,
                rejected: 3
            }
        );
        assert!(collector.is_empty());
        assert!(collector.observed(&hostile).is_none());
        // The bound is wire::REPORT_MAX_N exactly.
        assert!(collector.ingest(&key(wire::REPORT_MAX_N, 0.9), 0));
        assert!(!collector.ingest(&key(wire::REPORT_MAX_N + 1, 0.9), 0));
    }

    #[test]
    fn key_cap_rejects_new_keys_but_keeps_serving_old_ones() {
        let collector = ReportCollector::with_limits(4, 2);
        assert_eq!(collector.max_keys(), 2);
        let (a, b, c) = (key(2, 0.5), key(3, 0.5), key(4, 0.5));
        assert!(collector.ingest(&a, 0));
        assert!(collector.ingest(&b, 0));
        // Third distinct key is over the cap: rejected, not evicting.
        assert!(!collector.ingest(&c, 0));
        assert_eq!(collector.len(), 2);
        // Existing keys keep accumulating.
        assert!(collector.ingest(&a, 1));
        assert_eq!(collector.observed(&a).unwrap(), vec![1, 1, 0]);
        assert!(collector.observed(&c).is_none());
        let stats = collector.stats();
        assert_eq!((stats.ingested, stats.rejected, stats.keys), (3, 1, 2));
    }

    #[test]
    fn merge_into_capped_collector_counts_overflow_as_rejected() {
        let source = ReportCollector::new();
        let (a, b) = (key(2, 0.5), key(3, 0.5));
        source.ingest_batch(&a, [0, 1]);
        source.ingest_batch(&b, [2, 2, 2]);
        let target = ReportCollector::with_limits(4, 1);
        target.merge_from(&source);
        // Exactly one key fits; the other key's counts are tallied as rejected
        // (and remain intact in the source).
        assert_eq!(target.len(), 1);
        let stats = target.stats();
        assert_eq!(stats.ingested + stats.rejected, 5);
        assert!(stats.rejected > 0);
        assert_eq!(source.total(&a) + source.total(&b), 5);
    }

    #[test]
    fn summed_ingest_equals_per_report_ingest() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let keys = [key(2, 0.5), key(6, 0.5), key(6, 0.9), key(32, 0.9)];
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Three keys fit: the fourth distinct key is past max_keys.
            let summed = ReportCollector::with_limits(4, 3);
            let single = ReportCollector::with_limits(4, 3);
            for _ in 0..16 {
                let k = keys[rng.gen_range(0..keys.len())];
                // Runs both shorter and longer than n + 1, with a few
                // out-of-range outputs mixed in.
                let length = rng.gen_range(0..3 * (k.n + 1));
                let outputs: Vec<usize> = (0..length).map(|_| rng.gen_range(0..k.n + 3)).collect();
                // A filtered iterator has no lower size bound, so the
                // reference always takes the per-report path.
                let expected = single.ingest_batch(&k, outputs.iter().copied().filter(|_| true));
                assert_eq!(summed.ingest_batch(&k, outputs), expected, "seed {seed}");
            }
            for k in keys {
                assert_eq!(summed.observed(&k), single.observed(&k), "seed {seed}");
            }
            let (a, b) = (summed.stats(), single.stats());
            assert_eq!(
                (a.ingested, a.rejected, a.keys),
                (b.ingested, b.rejected, b.keys)
            );
        }
    }

    #[test]
    fn mixed_key_report_streams_group_runs() {
        use crate::wire::Report;
        let collector = ReportCollector::new();
        let (a, b) = (key(3, 0.5), key(8, 0.9));
        let reports = vec![
            Report::new(a, 0).unwrap(),
            Report::new(a, 1).unwrap(),
            Report::new(b, 8).unwrap(),
            Report::new(a, 1).unwrap(),
        ];
        let summary = collector.ingest_reports(&reports);
        assert_eq!(summary.accepted, 4);
        assert_eq!(collector.observed(&a).unwrap(), vec![1, 2, 0, 0]);
        assert_eq!(collector.observed(&b).unwrap()[8], 1);
    }
}
