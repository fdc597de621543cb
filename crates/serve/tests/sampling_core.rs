//! Equivalence of the two privatize entry points over the one sampling core.
//!
//! The wire `privatize` op calls [`Engine::privatize_key`] directly, while
//! [`Engine::privatize_batch`] groups mixed-key requests and cuts each group
//! with the same chunk kernel.  On a single-key batch both must draw exactly
//! the same outputs: the same chunk layout, the same stream per chunk.  The
//! lengths straddle the chunk boundary (1, `min_chunk − 1`, `min_chunk`,
//! `2·min_chunk + 1`), at a small and at the default `min_chunk`, with
//! `CPM_THREADS` set to 1 and unset.
//!
//! The file holds one test function because it sets `CPM_THREADS`, which is
//! process-wide.

use cpm_core::{Alpha, PropertySet};
use cpm_serve::prelude::*;
use cpm_serve::proto::{self, Op, ProtoConfig, ProtoConnection};

const SEED: u64 = 0x00DD_BA11;

fn key() -> SpecKey {
    SpecKey::new(32, Alpha::new(0.9).unwrap(), PropertySet::empty())
}

fn warm_engine(min_chunk: usize) -> Engine {
    let engine = Engine::new(EngineConfig {
        min_chunk,
        ..EngineConfig::default()
    });
    engine.warm(&[key()]).unwrap();
    engine
}

fn inputs(len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + i / 5) % (key().n + 1)).collect()
}

/// The outputs of one `CPMF` privatize frame through a fresh connection.
fn through_the_wire(engine: &Engine, inputs: &[usize]) -> Vec<usize> {
    let payload = proto::encode_request(&Op::Privatize {
        key: key(),
        inputs: inputs.to_vec(),
    })
    .unwrap();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    conn.ingest(engine, &frame).unwrap();
    let (_, response) = proto::decode_response(&conn.pending_output()[4..]).unwrap();
    assert!(response.ok, "{}", response.error);
    response.outputs
}

fn check_every_length() {
    for min_chunk in [64, EngineConfig::default().min_chunk] {
        for len in [1, min_chunk - 1, min_chunk, 2 * min_chunk + 1] {
            let inputs = inputs(len);
            let requests: Vec<Request> = inputs.iter().map(|&i| Request::new(key(), i)).collect();
            let engine = warm_engine(min_chunk);

            // Seeded: the per-key core against the grouping batch path.
            let core = engine.privatize_key_seeded(&key(), &inputs, SEED).unwrap();
            let batch = engine.privatize_batch_seeded(&requests, SEED).unwrap();
            assert_eq!(core.outputs, batch.outputs, "len {len}, chunk {min_chunk}");
            assert_eq!(core.stats.sample_chunks, batch.stats.sample_chunks);
            assert_eq!(core.stats.sample_chunks, len.div_ceil(min_chunk));
            assert!(core.outputs.iter().all(|&o| o <= key().n));

            // Unseeded: two engines with one seed hand their first batch the
            // same ordinal, so the wire op and privatize_batch agree too.
            let wire = through_the_wire(&warm_engine(min_chunk), &inputs);
            let batch = warm_engine(min_chunk).privatize_batch(&requests).unwrap();
            assert_eq!(wire, batch.outputs, "wire, len {len}, chunk {min_chunk}");
        }
    }
}

#[test]
fn the_wire_core_and_privatize_batch_draw_identical_outputs() {
    std::env::set_var("CPM_THREADS", "1");
    check_every_length();
    std::env::remove_var("CPM_THREADS");
    check_every_length();

    // Validation names the first bad input; an empty batch draws nothing.
    let engine = warm_engine(64);
    let error = engine
        .privatize_key_seeded(&key(), &[0, 3, 33, 1], SEED)
        .unwrap_err();
    assert_eq!(
        error,
        ServeError::InvalidInput {
            index: 2,
            input: 33,
            n: 32
        }
    );
    assert!(engine
        .privatize_key_seeded(&key(), &[], SEED)
        .unwrap()
        .outputs
        .is_empty());
}
