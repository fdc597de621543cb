//! Release-mode smoke test for the bulk path, from wire bytes to draws and
//! counters: through a [`ProtoConnection`], on one thread (`CPM_THREADS=1`),
//!
//! * the median 8 192-input `CPMF` privatize on a resident n = 32 key must
//!   stay under [`PRIVATIZE_CEILING_US`], and
//! * the median 1 024-record single-key `CPMR` report frame must stay under
//!   [`REPORT_CEILING_US`].
//!
//! With one sampling thread the wall time of a call is its CPU time plus
//! whatever preemption it suffered; the median drops the preempted calls.
//! Each ceiling is about 3x the median measured on a 2-vCPU x86-64 Linux
//! container (release build).  A per-record key decode, a per-report atomic
//! add, a per-frame buffer copy or a per-draw call into the sampler would
//! each show here.
//!
//! `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI runs it
//! with `cargo test --release -p cpm-serve --test bulk_path_smoke --
//! --ignored`.  The file holds one test function because it sets
//! `CPM_THREADS`, which is process-wide.

use std::time::Instant;

use cpm_collect::wire::{encode_batch, Report};
use cpm_core::{Alpha, PropertySet};
use cpm_serve::prelude::*;
use cpm_serve::proto::{self, Op, ProtoConfig, ProtoConnection};
use cpm_serve::WireResponse;

/// Median ceiling for one 8 192-draw privatize frame, in µs: ~3x the
/// measured median of ~85 µs (~400 µs when each draw was an out-of-line
/// call with a mispredicted branch and the wire op went through a
/// per-input request vector).
const PRIVATIZE_CEILING_US: f64 = 250.0;

/// Median ceiling for one 1 024-record report frame, in µs: ~3x the measured
/// median of ~9.5 µs (~55 µs when every record's key was decoded and every
/// report added to its counter one by one).
const REPORT_CEILING_US: f64 = 28.0;

const SAMPLES: usize = 400;

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// The median wall time of `SAMPLES` calls of `call`, after a warm-up.
fn median_us(mut call: impl FnMut()) -> f64 {
    for _ in 0..SAMPLES / 4 {
        call();
    }
    let mut micros: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            call();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    micros.sort_by(f64::total_cmp);
    micros[SAMPLES / 2]
}

#[test]
#[ignore = "release-mode bulk-path smoke test; run explicitly (see CI workflow)"]
fn bulk_privatize_and_report_frames_stay_under_their_ceilings() {
    std::env::set_var("CPM_THREADS", "1");
    let engine = Engine::with_defaults();
    let key = SpecKey::new(32, Alpha::new(0.9).unwrap(), PropertySet::empty());
    engine.warm(&[key]).expect("GM warms instantly");
    let mut conn = ProtoConnection::new(ProtoConfig::default());

    let inputs: Vec<usize> = (0..8_192).map(|i| (i * 7) % (key.n + 1)).collect();
    let privatize = framed(&proto::encode_request(&Op::Privatize { key, inputs }).unwrap());
    conn.ingest(&engine, &privatize).unwrap();
    let (_, response) = proto::decode_response(&conn.pending_output()[4..]).unwrap();
    assert!(response.ok, "{}", response.error);
    assert_eq!(response.outputs.len(), 8_192);
    let pending = conn.pending_output().len();
    conn.advance_output(pending);

    let reports: Vec<Report> = (0..1_024u32)
        .map(|i| Report::new(key, i % (key.n as u32 + 1)).unwrap())
        .collect();
    let report = framed(&encode_batch(&reports).unwrap());
    conn.ingest(&engine, &report).unwrap();
    let ack: WireResponse =
        serde_json::from_str(std::str::from_utf8(&conn.pending_output()[4..]).unwrap()).unwrap();
    assert!(ack.ok, "{}", ack.error);
    assert_eq!((ack.ingested, ack.rejected), (1_024, 0));
    let pending = conn.pending_output().len();
    conn.advance_output(pending);

    let mut round_trip = |frame: &[u8]| {
        conn.ingest(&engine, frame).expect("a well-formed frame");
        let produced = conn.pending_output().len();
        assert!(produced > 4, "one response frame per request");
        conn.advance_output(produced);
    };
    let privatize_us = median_us(|| round_trip(&privatize));
    let report_us = median_us(|| round_trip(&report));
    std::env::remove_var("CPM_THREADS");
    println!(
        "8192-input CPMF privatize: median {privatize_us:.1} µs (ceiling {PRIVATIZE_CEILING_US}); \
         1024-record CPMR frame: median {report_us:.1} µs (ceiling {REPORT_CEILING_US})"
    );
    let over: Vec<String> = [
        ("8192-input privatize", privatize_us, PRIVATIZE_CEILING_US),
        ("1024-record report frame", report_us, REPORT_CEILING_US),
    ]
    .iter()
    .filter(|(_, median, ceiling)| median > ceiling)
    .map(|(what, median, ceiling)| format!("{what} median {median:.1} µs exceeds {ceiling} µs"))
    .collect();
    assert!(over.is_empty(), "{}", over.join("; "));
}
