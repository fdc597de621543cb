//! Golden pin for the engine's seeded stream layout.
//!
//! A seeded batch's outputs are a pure function of `(requests, batch_seed,
//! min_chunk)`: requests are grouped by key in first-appearance order, each
//! group is cut into `min_chunk` shards, and shard `s` draws from RNG stream
//! `s`.  This test hashes the outputs of one fixed interleaved, multi-chunk
//! batch and compares the hash against a constant recorded before the key
//! grouping and the `par` pool were rewritten, so any change to the grouping
//! order, the chunk layout or the stream seeding fails here.  It also checks
//! that the hash does not depend on the worker count (`CPM_THREADS`).
//!
//! The whole test is one function because it sets `CPM_THREADS`, which is
//! process-wide.

use cpm_core::{Alpha, Property, PropertySet};
use cpm_serve::prelude::*;

/// FNV-1a over the outputs (as little-endian u64s) of [`golden_batch`]
/// privatised with seed [`BATCH_SEED`] and `min_chunk` = [`MIN_CHUNK`].
const GOLDEN_HASH: u64 = 0xCBBB_E84F_075B_7620;
const BATCH_SEED: u64 = 0xC0FF_EE15_600D;
const MIN_CHUNK: usize = 64;

fn key(n: usize, alpha: f64, properties: PropertySet) -> SpecKey {
    SpecKey::new(n, Alpha::new(alpha).unwrap(), properties)
}

/// 1 000 requests over three keys: an interleaved A, B, A, C
/// prefix (so groups are not contiguous), then a long run of C and a run of
/// B.  A gets 300 draws (5 shards), B 250 (4), C 450 (8).
fn golden_batch() -> Vec<Request> {
    let a = key(8, 0.5, PropertySet::empty());
    let b = key(12, 0.9, PropertySet::empty());
    let c = key(16, 0.9, PropertySet::empty().with(Property::Fairness));
    let mut requests = Vec::new();
    for i in 0..600 {
        let request = match i % 4 {
            0 | 2 => Request::new(a, i % (a.n + 1)),
            1 => Request::new(b, i % (b.n + 1)),
            _ => Request::new(c, i % (c.n + 1)),
        };
        requests.push(request);
    }
    requests.extend((0..300).map(|i| Request::new(c, (i * 7) % (c.n + 1))));
    requests.extend((0..100).map(|i| Request::new(b, (i * 5) % (b.n + 1))));
    requests
}

fn fnv1a(outputs: &[usize]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &output in outputs {
        for byte in (output as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

fn golden_hash() -> u64 {
    let engine = Engine::new(EngineConfig {
        min_chunk: MIN_CHUNK,
        ..EngineConfig::default()
    });
    let requests = golden_batch();
    let outcome = engine
        .privatize_batch_seeded(&requests, BATCH_SEED)
        .unwrap();
    assert_eq!(outcome.outputs.len(), requests.len());
    assert_eq!(outcome.stats.unique_keys, 3);
    assert_eq!(outcome.stats.sample_chunks, 5 + 4 + 8);
    for (request, &output) in requests.iter().zip(&outcome.outputs) {
        assert!(output <= request.key.n);
    }
    fnv1a(&outcome.outputs)
}

#[test]
fn seeded_batch_outputs_match_the_golden_hash_at_every_thread_count() {
    std::env::set_var("CPM_THREADS", "1");
    let serial = golden_hash();
    std::env::remove_var("CPM_THREADS");
    let default = golden_hash();
    std::env::set_var("CPM_THREADS", "4");
    let four = golden_hash();
    std::env::remove_var("CPM_THREADS");

    assert_eq!(serial, GOLDEN_HASH, "CPM_THREADS=1: {serial:#018x}");
    assert_eq!(default, GOLDEN_HASH, "default threads: {default:#018x}");
    assert_eq!(four, GOLDEN_HASH, "CPM_THREADS=4: {four:#018x}");
}
