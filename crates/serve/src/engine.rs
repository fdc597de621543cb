//! The privatization engine: resolve the design, cut into chunks, draw.
//!
//! Every privatize path ends in one per-key sampling core.  For one key it
//! validates the inputs, resolves the design with one cache peek (designing
//! on a miss), cuts the inputs into `min_chunk` chunks, and lets chunk `s`
//! draw from its own RNG stream `s` straight into its disjoint slice of the
//! output vector; more than one chunk fans out across the [`cpm_eval::par`]
//! pool.  Streams are seeded from `(engine seed, batch id, stream ordinal)`,
//! so a batch's outputs are a pure function of its contents and seeds —
//! reproducible regardless of how the OS schedules the workers — while
//! distinct chunks draw from decorrelated streams.
//!
//! * [`Engine::privatize_key`] is the core itself: the wire `privatize` op
//!   (one key, a slice of inputs) calls it directly.
//! * [`Engine::privatize_batch`] takes a mixed batch of [`Request`]s, groups
//!   them by key in order of first appearance, resolves every distinct key
//!   (cold keys design concurrently and coalesce via single flight), and cuts
//!   each group with the same chunk kernel, the stream ordinal running on
//!   across groups.  A single-key batch therefore draws exactly what
//!   [`Engine::privatize_key`] draws for the same inputs and seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use cpm_collect::ReportCollector;
use cpm_core::{AliasSampler, DesignedMechanism, SpecKey};

use crate::cache::{CacheStats, DesignCache, Lookup};
use crate::error::ServeError;

/// One privatization request: draw one output from the design for `key`,
/// conditioned on the true count `input`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Which mechanism design to draw from.
    pub key: SpecKey,
    /// The true count to privatise (`0..=key.n`).
    pub input: usize,
}

impl Request {
    /// Build a request.
    pub fn new(key: SpecKey, input: usize) -> Self {
        Request { key, input }
    }
}

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum resident designs in the cache.
    pub cache_capacity: usize,
    /// Lock stripes in the cache.
    pub cache_shards: usize,
    /// Base seed; every batch derives its RNG streams from this (and the batch
    /// ordinal), so two engines with the same seed replay identically.
    pub seed: u64,
    /// Minimum draws per sampling shard — below this, fan-out overhead beats the
    /// parallel speedup and the batch stays on fewer workers.
    pub min_chunk: usize,
    /// Whether privatize batches auto-feed their `(key, output)` pairs into
    /// the engine's [`ReportCollector`] (loopback collection; real LDP
    /// deployments leave this off and let clients send reports explicitly).
    pub collect_outputs: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 256,
            cache_shards: DesignCache::DEFAULT_SHARDS,
            seed: 0x5EED_CAFE,
            min_chunk: 4096,
            collect_outputs: false,
        }
    }
}

impl EngineConfig {
    /// Read overrides from the environment: `CPM_SERVE_CAPACITY`,
    /// `CPM_SERVE_SHARDS`, `CPM_SERVE_SEED`, `CPM_SERVE_MIN_CHUNK`, and
    /// `CPM_COLLECT_OUTPUTS` (`1`/`on`/`true` turns loopback collection on;
    /// each optional, falling back to the defaults).
    pub fn from_env() -> Self {
        fn env_u64(name: &str) -> Option<u64> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        }
        let defaults = EngineConfig::default();
        EngineConfig {
            cache_capacity: env_u64("CPM_SERVE_CAPACITY")
                .map(|v| v as usize)
                .unwrap_or(defaults.cache_capacity),
            cache_shards: env_u64("CPM_SERVE_SHARDS")
                .map(|v| v as usize)
                .unwrap_or(defaults.cache_shards),
            seed: env_u64("CPM_SERVE_SEED").unwrap_or(defaults.seed),
            min_chunk: env_u64("CPM_SERVE_MIN_CHUNK")
                .map(|v| v as usize)
                .unwrap_or(defaults.min_chunk),
            collect_outputs: std::env::var("CPM_COLLECT_OUTPUTS")
                .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "on" | "true"))
                .unwrap_or(defaults.collect_outputs),
        }
    }
}

/// Per-batch accounting returned alongside the outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: usize,
    /// Distinct mechanism keys in the batch.
    pub unique_keys: usize,
    /// Keys satisfied by a resident design.
    pub cache_hits: u64,
    /// Keys that waited on a design another thread was already running.
    pub coalesced: u64,
    /// Keys this batch had to design (cold misses).
    pub cache_misses: u64,
    /// The subset of misses whose design ran the simplex (closed forms excluded).
    pub lp_solves: u64,
    /// Wall-clock time of the design phase (cache lookups + any solves).
    pub design_time: Duration,
    /// Wall-clock time of the sampling phase (all draws, fan-out included).
    pub sample_time: Duration,
    /// Sampling shards the batch was split into.
    pub sample_chunks: usize,
}

impl BatchStats {
    /// Tally how one distinct key's design was found.
    fn count_lookup(&mut self, design: &DesignedMechanism, lookup: Lookup) {
        match lookup {
            Lookup::Hit => self.cache_hits += 1,
            Lookup::Coalesced => self.coalesced += 1,
            Lookup::Designed => {
                self.cache_misses += 1;
                if design.used_lp() {
                    self.lp_solves += 1;
                }
            }
        }
    }

    /// Draws per second achieved by the sampling phase (0 when empty/instant).
    pub fn draws_per_sec(&self) -> f64 {
        let secs = self.sample_time.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }
}

/// The result of privatising one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One privatised output per request, in request order.
    pub outputs: Vec<usize>,
    /// What it cost.
    pub stats: BatchStats,
}

/// The mechanism-serving engine: a [`DesignCache`] plus the batched sampling
/// fan-out.  Cheap to share (`&Engine` is `Sync`); one engine serves any number
/// of connections or threads.
#[derive(Debug)]
pub struct Engine {
    cache: DesignCache,
    seed: u64,
    min_chunk: usize,
    batches: AtomicU64,
    collector: Arc<ReportCollector>,
    collect_outputs: AtomicBool,
}

impl Engine {
    /// Build an engine from a config.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cache: DesignCache::with_shards(config.cache_capacity, config.cache_shards),
            seed: config.seed,
            min_chunk: config.min_chunk.max(1),
            batches: AtomicU64::new(0),
            collector: Arc::new(ReportCollector::new()),
            collect_outputs: AtomicBool::new(config.collect_outputs),
        }
    }

    /// An engine with the default configuration.
    pub fn with_defaults() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// The underlying design cache.
    pub fn cache(&self) -> &DesignCache {
        &self.cache
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine's report collector.  Always present (and cheap while
    /// empty): the wire `report` op feeds it whether or not loopback
    /// collection is on.
    pub fn collector(&self) -> &Arc<ReportCollector> {
        &self.collector
    }

    /// Whether privatize batches loop their outputs back into the collector.
    pub fn is_collecting(&self) -> bool {
        self.collect_outputs.load(Ordering::Relaxed)
    }

    /// Flip loopback collection at runtime (also settable at construction via
    /// [`EngineConfig::collect_outputs`] / `CPM_COLLECT_OUTPUTS=1`).
    pub fn set_collecting(&self, on: bool) {
        self.collect_outputs.store(on, Ordering::Relaxed);
    }

    /// Resolve one design through the cache (designing on a cold miss).
    pub fn design(&self, key: &SpecKey) -> Result<Arc<DesignedMechanism>, ServeError> {
        self.cache.get(key)
    }

    /// Precompute the designs for a declared key set (see [`DesignCache::warm`]).
    pub fn warm(&self, keys: &[SpecKey]) -> Result<(), ServeError> {
        self.cache.warm(keys).map(|_| ())
    }

    /// Persist every resident design to `path` (see
    /// [`DesignCache::save_snapshot`]).  Returns the number of designs written.
    pub fn save_snapshot<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<usize> {
        self.cache.save_snapshot_file(path)
    }

    /// Restore designs from a snapshot file written by
    /// [`Engine::save_snapshot`].  Returns the number of designs inserted;
    /// restored keys serve their first request with zero LP solves.
    pub fn load_snapshot<P: AsRef<std::path::Path>>(&self, path: P) -> Result<usize, ServeError> {
        self.cache.load_snapshot_file(path)
    }

    /// Privatise a batch, deriving this batch's RNG streams from the engine seed
    /// and a monotone batch ordinal (two *consecutive* identical batches draw
    /// from different streams; use [`Engine::privatize_batch_seeded`] to replay).
    pub fn privatize_batch(&self, requests: &[Request]) -> Result<BatchOutcome, ServeError> {
        self.privatize_batch_seeded(requests, self.next_batch_seed())
    }

    /// Privatise a batch with an explicit stream seed: the outputs are a pure
    /// function of `(requests, batch_seed, min_chunk)` — independent of worker
    /// count and scheduling — the reproducibility contract used by the tests and
    /// by replayable deployments.
    ///
    /// Keys are grouped in order of first appearance and each group is cut
    /// into chunks by [`Engine::privatize_key_seeded`]'s chunk kernel, the
    /// stream ordinal running on across groups; all chunks of all groups then
    /// draw in one fan-out.
    pub fn privatize_batch_seeded(
        &self,
        requests: &[Request],
        batch_seed: u64,
    ) -> Result<BatchOutcome, ServeError> {
        if requests.is_empty() {
            return Ok(BatchOutcome {
                outputs: Vec::new(),
                stats: BatchStats::default(),
            });
        }
        let batch_span = cpm_obs::span!("engine", "privatize_batch");
        for (index, request) in requests.iter().enumerate() {
            check_input(&request.key, index, request.input)?;
        }

        let groups = group_by_key(requests);

        // Design phase: a serial peek sweep satisfies resident keys without
        // touching the worker pool (a warm batch is pure lock-and-look); only
        // keys that are cold — or must wait on an in-flight solve — fan out.
        let design_start = Instant::now();
        let mut resolved: Vec<Option<(Arc<DesignedMechanism>, Lookup)>> = groups
            .iter()
            .map(|(key, _)| self.cache.peek(key).map(|design| (design, Lookup::Hit)))
            .collect();
        let cold: Vec<(usize, SpecKey)> = resolved
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.is_none())
            .map(|(slot, _)| (slot, groups[slot].0))
            .collect();
        if !cold.is_empty() {
            let outcomes = cpm_eval::par::try_parallel_map(
                cold.iter().map(|&(_, key)| key).collect(),
                |key| self.cache.get_with_outcome(&key),
            )?;
            for ((slot, _), outcome) in cold.into_iter().zip(outcomes) {
                resolved[slot] = Some(outcome);
            }
        }
        let resolved: Vec<(Arc<DesignedMechanism>, Lookup)> = resolved
            .into_iter()
            .map(|entry| entry.expect("every distinct key is resolved by peek or get"))
            .collect();

        let mut stats = BatchStats {
            requests: requests.len(),
            unique_keys: groups.len(),
            design_time: design_start.elapsed(),
            ..BatchStats::default()
        };
        for (design, lookup) in &resolved {
            stats.count_lookup(design, *lookup);
        }

        // Sampling phase: gather the inputs group by group, cut every group
        // into chunks with the per-key kernel (stream ordinals carried across
        // groups), draw all chunks in one fan-out, and put each output back in
        // request order.
        let mut inputs: Vec<usize> = Vec::with_capacity(requests.len());
        for (_, indices) in &groups {
            inputs.extend(indices.iter().map(|&index| requests[index as usize].input));
        }
        let mut drawn = vec![0usize; requests.len()];
        let mut chunks: Vec<Chunk<'_>> = Vec::new();
        let (mut rest_in, mut rest_out) = (inputs.as_slice(), drawn.as_mut_slice());
        for ((_, indices), (design, _)) in groups.iter().zip(&resolved) {
            let (group_in, next_in) = rest_in.split_at(indices.len());
            let (group_out, next_out) = rest_out.split_at_mut(indices.len());
            self.cut_chunks(design.alias_sampler(), group_in, group_out, &mut chunks);
            (rest_in, rest_out) = (next_in, next_out);
        }
        stats.sample_chunks = chunks.len();
        stats.sample_time = draw_chunks(batch_seed, chunks);
        let mut outputs = vec![0usize; requests.len()];
        let group_major = groups.iter().flat_map(|(_, indices)| indices);
        for (&index, output) in group_major.zip(drawn) {
            outputs[index as usize] = output;
        }

        // Loopback collection: feed (key, output) runs into the collector so
        // an estimate can be served without a client-side report round trip.
        if self.is_collecting() {
            let mut start = 0;
            while start < requests.len() {
                let key = requests[start].key;
                let mut end = start + 1;
                while end < requests.len() && requests[end].key == key {
                    end += 1;
                }
                self.collector
                    .ingest_batch(&key, outputs[start..end].iter().copied());
                start = end;
            }
        }

        record_batch(&batch_span, &stats);
        Ok(BatchOutcome { outputs, stats })
    }

    /// Privatise `inputs` for one key — the wire `privatize` op.  Streams are
    /// derived like [`Engine::privatize_batch`]'s, from the same batch
    /// ordinal, so a single-key batch draws the same outputs either way.
    pub fn privatize_key(
        &self,
        key: &SpecKey,
        inputs: &[usize],
    ) -> Result<BatchOutcome, ServeError> {
        self.privatize_key_seeded(key, inputs, self.next_batch_seed())
    }

    /// The one per-key sampling core: validate the inputs, resolve the design
    /// with one cache peek (designing on a miss), cut the inputs into
    /// `min_chunk` chunks, and let chunk `s` draw from stream `s` straight
    /// into its own slice of the output vector.  The outputs equal
    /// [`Engine::privatize_batch_seeded`]'s for the same single-key batch.
    pub fn privatize_key_seeded(
        &self,
        key: &SpecKey,
        inputs: &[usize],
        batch_seed: u64,
    ) -> Result<BatchOutcome, ServeError> {
        if inputs.is_empty() {
            return Ok(BatchOutcome {
                outputs: Vec::new(),
                stats: BatchStats::default(),
            });
        }
        let batch_span = cpm_obs::span!("engine", "privatize_batch");
        for (index, &input) in inputs.iter().enumerate() {
            check_input(key, index, input)?;
        }

        let design_start = Instant::now();
        let (design, lookup) = match self.cache.peek(key) {
            Some(design) => (design, Lookup::Hit),
            None => self.cache.get_with_outcome(key)?,
        };
        let mut stats = BatchStats {
            requests: inputs.len(),
            unique_keys: 1,
            design_time: design_start.elapsed(),
            ..BatchStats::default()
        };
        stats.count_lookup(&design, lookup);

        let mut outputs = vec![0usize; inputs.len()];
        let mut chunks = Vec::new();
        self.cut_chunks(design.alias_sampler(), inputs, &mut outputs, &mut chunks);
        stats.sample_chunks = chunks.len();
        stats.sample_time = draw_chunks(batch_seed, chunks);

        if self.is_collecting() {
            self.collector.ingest_batch(key, outputs.iter().copied());
        }
        record_batch(&batch_span, &stats);
        Ok(BatchOutcome { outputs, stats })
    }

    /// The stream seed of the next unseeded batch.
    fn next_batch_seed(&self) -> u64 {
        let batch = self.batches.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ splitmix64(batch))
    }

    /// The chunk kernel: cut one key's inputs (and the matching output slice)
    /// into `min_chunk` chunks, numbering their streams on from the chunks
    /// already in `chunks`.  The layout depends only on the inputs and
    /// `min_chunk` — NOT on the worker count — so outputs are identical
    /// whether the pool has 1 thread or 64.
    fn cut_chunks<'a>(
        &self,
        sampler: &'a AliasSampler,
        inputs: &'a [usize],
        outputs: &'a mut [usize],
        chunks: &mut Vec<Chunk<'a>>,
    ) {
        for (inputs, outputs) in inputs
            .chunks(self.min_chunk)
            .zip(outputs.chunks_mut(self.min_chunk))
        {
            let stream = chunks.len() as u64;
            chunks.push(Chunk {
                sampler,
                stream,
                inputs,
                outputs,
            });
        }
    }
}

/// One sampling shard: `inputs` drawn from `sampler` on RNG stream `stream`,
/// written to the disjoint `outputs` slice of the same length.
struct Chunk<'a> {
    sampler: &'a AliasSampler,
    stream: u64,
    inputs: &'a [usize],
    outputs: &'a mut [usize],
}

/// Draw every chunk, fanning out across the pool when there is more than one,
/// and return the wall time the draws took.
fn draw_chunks(batch_seed: u64, chunks: Vec<Chunk<'_>>) -> Duration {
    let sample_start = Instant::now();
    cpm_eval::par::parallel_map(chunks, |chunk| {
        // Per-chunk timing is what the thread-scaling probe reads: each chunk
        // runs on one worker, so the chunk-latency histogram is the
        // per-thread view of the sampling phase.
        let chunk_start = Instant::now();
        let mut rng = StdRng::seed_from_u64(splitmix64(
            batch_seed ^ (chunk.stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        for (output, &input) in chunk.outputs.iter_mut().zip(chunk.inputs) {
            *output = chunk.sampler.sample(input, &mut rng);
        }
        cpm_obs::histogram!("cpm_engine_chunk_nanos").record_duration(chunk_start.elapsed());
    });
    sample_start.elapsed()
}

/// Refuse an input outside `0..=key.n`.
fn check_input(key: &SpecKey, index: usize, input: usize) -> Result<(), ServeError> {
    if input > key.n {
        return Err(ServeError::InvalidInput {
            index,
            input,
            n: key.n,
        });
    }
    Ok(())
}

/// The per-batch engine metrics.
fn record_batch(batch_span: &cpm_obs::SpanGuard, stats: &BatchStats) {
    cpm_obs::counter!("cpm_engine_batches_total").inc();
    cpm_obs::counter!("cpm_engine_draws_total").add(stats.requests as u64);
    cpm_obs::histogram!("cpm_engine_batch_nanos").record(batch_span.elapsed_nanos());
    cpm_obs::histogram!("cpm_engine_draws_per_sec").record(stats.draws_per_sec() as u64);
}

/// Group request indices by key in one pass, in order of each key's first
/// appearance: the chunk layout, and with it every RNG stream, follows this
/// order.  A request with the same key as the one before it joins that group
/// without a lookup, so a single-key batch (every wire privatize op) hashes
/// its key once rather than once per input.
fn group_by_key(requests: &[Request]) -> Vec<(SpecKey, Vec<u32>)> {
    let mut slot_of: HashMap<SpecKey, usize> = HashMap::new();
    let mut groups: Vec<(SpecKey, Vec<u32>)> = Vec::new();
    let mut current = 0;
    for (index, request) in requests.iter().enumerate() {
        if groups
            .get(current)
            .is_none_or(|(run_key, _)| *run_key != request.key)
        {
            current = *slot_of.entry(request.key).or_insert_with(|| {
                groups.push((request.key, Vec::new()));
                groups.len() - 1
            });
        }
        groups[current].1.push(index as u32);
    }
    groups
}

/// SplitMix64: decorrelate nearby seeds before they reach xoshiro's SplitMix
/// initialisation (two mixing rounds keep consecutive batch ordinals from
/// producing overlapping streams).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{Alpha, Property, PropertySet};

    fn key(n: usize, alpha: f64) -> SpecKey {
        SpecKey::new(n, Alpha::new(alpha).unwrap(), PropertySet::empty())
    }

    #[test]
    fn batches_are_reproducible_given_a_seed() {
        let engine = Engine::with_defaults();
        let requests: Vec<Request> = (0..1000)
            .map(|i| Request::new(key(8, 0.5), i % 9))
            .collect();
        let first = engine.privatize_batch_seeded(&requests, 42).unwrap();
        let second = engine.privatize_batch_seeded(&requests, 42).unwrap();
        assert_eq!(first.outputs, second.outputs);
        let different = engine.privatize_batch_seeded(&requests, 43).unwrap();
        assert_ne!(first.outputs, different.outputs);
        assert!(first.outputs.iter().all(|&o| o <= 8));
    }

    #[test]
    fn mixed_key_batches_group_and_report_stats() {
        let engine = Engine::with_defaults();
        let hot = key(6, 0.5);
        let cold = SpecKey::new(
            6,
            Alpha::new(0.9).unwrap(),
            PropertySet::empty().with(Property::WeakHonesty),
        );
        engine.warm(&[hot]).unwrap();
        let requests: Vec<Request> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    Request::new(hot, i % 7)
                } else {
                    Request::new(cold, i % 7)
                }
            })
            .collect();
        let outcome = engine.privatize_batch(&requests).unwrap();
        assert_eq!(outcome.outputs.len(), 200);
        assert_eq!(outcome.stats.unique_keys, 2);
        assert_eq!(outcome.stats.cache_hits, 1, "warmed key is a hit");
        assert_eq!(outcome.stats.cache_misses, 1, "cold key designs once");
        assert_eq!(outcome.stats.lp_solves, 1, "WH at n=6, alpha=0.9 is an LP");
        // Second batch: both keys resident now.
        let outcome = engine.privatize_batch(&requests).unwrap();
        assert_eq!(outcome.stats.cache_hits, 2);
        assert_eq!(outcome.stats.cache_misses, 0);
    }

    #[test]
    fn run_detected_grouping_matches_per_input_hash_grouping() {
        // Reference: the obvious hash-map grouping in first-appearance order.
        fn reference(requests: &[Request]) -> Vec<(SpecKey, Vec<u32>)> {
            let mut slot_of: HashMap<SpecKey, usize> = HashMap::new();
            let mut groups: Vec<(SpecKey, Vec<u32>)> = Vec::new();
            for (index, request) in requests.iter().enumerate() {
                let slot = *slot_of.entry(request.key).or_insert_with(|| {
                    groups.push((request.key, Vec::new()));
                    groups.len() - 1
                });
                groups[slot].1.push(index as u32);
            }
            groups
        }
        for distinct in [1, 2, 16, 48] {
            // Runs of varying length over keys revisited out of order.
            let requests: Vec<Request> = (0..2000)
                .map(|i| Request::new(key(2 + (i * 7 / 5 + i / 13) % distinct, 0.5), 0))
                .collect();
            assert_eq!(
                group_by_key(&requests),
                reference(&requests),
                "{distinct} keys"
            );
        }
    }

    #[test]
    fn out_of_range_inputs_are_rejected_up_front() {
        let engine = Engine::with_defaults();
        let requests = vec![Request::new(key(4, 0.5), 5)];
        let error = engine.privatize_batch(&requests).unwrap_err();
        assert_eq!(
            error,
            ServeError::InvalidInput {
                index: 0,
                input: 5,
                n: 4
            }
        );
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let engine = Engine::with_defaults();
        let outcome = engine.privatize_batch(&[]).unwrap();
        assert!(outcome.outputs.is_empty());
        assert_eq!(outcome.stats.requests, 0);
    }

    #[test]
    fn loopback_collection_is_off_by_default_and_exact_when_on() {
        let engine = Engine::with_defaults();
        let hot = key(4, 0.5);
        let cold = key(6, 0.9);
        let requests: Vec<Request> = (0..1000)
            .map(|i| {
                if i % 3 == 0 {
                    Request::new(cold, i % 7)
                } else {
                    Request::new(hot, i % 5)
                }
            })
            .collect();
        engine.privatize_batch_seeded(&requests, 9).unwrap();
        assert!(engine.collector().is_empty(), "collection must be opt-in");

        engine.set_collecting(true);
        assert!(engine.is_collecting());
        let outcome = engine.privatize_batch_seeded(&requests, 9).unwrap();
        // The collector's histograms must equal the batch outputs exactly.
        for k in [hot, cold] {
            let mut expected = vec![0u64; k.n + 1];
            for (request, &output) in requests.iter().zip(&outcome.outputs) {
                if request.key == k {
                    expected[output] += 1;
                }
            }
            assert_eq!(engine.collector().observed(&k).unwrap(), expected);
        }
        assert_eq!(engine.collector().stats().ingested, requests.len() as u64);
    }

    #[test]
    fn batch_outputs_follow_the_mechanism_distribution() {
        // The engine must sample from the actual design: empirical frequencies over
        // a large hot-key batch match the GM column.
        let engine = Engine::with_defaults();
        let k = key(4, 0.5);
        let design = engine.design(&k).unwrap();
        let input = 2usize;
        let requests = vec![Request::new(k, input); 200_000];
        let outcome = engine.privatize_batch_seeded(&requests, 7).unwrap();
        let mut counts = [0usize; 5];
        for &o in &outcome.outputs {
            counts[o] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let empirical = count as f64 / requests.len() as f64;
            let expected = design.mechanism().prob(i, input);
            assert!(
                (empirical - expected).abs() < 0.01,
                "output {i}: {empirical} vs {expected}"
            );
        }
    }
}
