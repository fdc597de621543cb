//! The traced run's per-layer numbers.
//!
//! Three sources, all from the benchmark's own files through public APIs:
//!
//! * **Client spans** of the live run — one root per request (scheduled send
//!   to response) with its generator wait and server time as children —
//!   written to `.bench_out/spans_<label>.jsonl`.
//! * **Layer replay**: the run's own generated requests replayed in-process
//!   through each layer's public functions, every call a child span of its
//!   request, so each layer's self time and share can be read off.  The
//!   engine step is the real `Engine::privatize_batch`; its seams come from
//!   the `BatchStats` it returns (see [`replay_privatize`]).  The metric
//!   calls around it follow `cpm_serve::proto::dispatch_op`'s pattern.
//! * **Micro-benchmarks** of single calls, each the median over blocks.
//!
//! The live server's counters (`srv.*`, `cache.*`, `net.*`) come from the
//! run itself (see `workloads`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use cpm_collect::wire::{decode_batch, encode_batch};
use cpm_collect::{estimate_from_design, Report, ReportCollector};
use cpm_core::{Alpha, ObjectiveKey, Property, PropertySet, SpecKey};
use cpm_serve::frontend::{WireRequest, WireResponse};
use cpm_serve::proto::{decode_request, encode_response, op_from_request};
use cpm_serve::{DesignCache, Engine, EngineConfig, Op, ProtoConfig, ProtoConnection, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use crate::client;
use crate::schedule;
use crate::stats::{median, self_times, Span};
use crate::workloads::{self, Ctx, Outcome};

/// Layers in share order; a span's layer is its name up to the first dot,
/// and a request's root span (dispatch glue) belongs to `proto`.
const LAYERS: &[&str] = &[
    "proto", "obs", "engine", "cache", "par", "sampling", "wire", "collect", "design",
];

/// Layer metrics measured on the live server, with units.  Every traced run
/// reports all of them; a workload that does not drive one reports 0 (the
/// `wl.*` numbers are each workload's own headline figures, which not every
/// workload drives — see the README).
const LIVE: &[(&str, &str)] = &[
    ("net.rtt_stats_us", "us"),
    ("net.b1_rtt_us", "us"),
    ("net.queue_wait_us", "us"),
    ("net.gen_late_p50_us", "us"),
    ("net.gen_late_p99_us", "us"),
    ("net.privatize_samples", "count"),
    ("net.search_steps", "count"),
    ("net.search_client_bound_steps", "count"),
    ("srv.frames", "count"),
    ("srv.decode_errors", "count"),
    ("srv.reports_rejected", "count"),
    ("srv.lp_solves", "count"),
    ("srv.coalesced", "count"),
    ("srv.crash_seeded", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.warm_seeded_ratio", "ratio"),
    ("collect.estimate_samples", "count"),
    ("collect.reported_share", "ratio"),
    ("collect.rmse_ratio", "ratio"),
    ("wl.privatize_p99_us", "us"),
    ("wl.privatize_max_rps", "req/s"),
    ("wl.reports_per_s", "reports/s"),
    ("wl.estimate_p50_us", "us"),
    ("wl.design_p50_ms", "ms"),
    ("wl.design_total_s", "s"),
];

/// Privatize requests replayed per open-loop workload.
const REPLAY_REQUESTS: usize = 4_000;

/// Which end-to-end metric each layer metric should move, and where.
const LAYER_MAP: &[(&str, &str, &str)] = &[
    ("net", "privatize_p50_us", "hot_small, cold_storm"),
    (
        "proto",
        "privatize_p50_us; draws_per_s",
        "hot_small; ldp_round",
    ),
    ("wire", "reports_per_s", "ldp_round"),
    ("obs", "privatize_p50_us", "hot_small"),
    (
        "engine",
        "privatize_p50_us; draws_per_s",
        "hot_small; ldp_round",
    ),
    (
        "par",
        "privatize_p50_us; draws_per_s",
        "hot_small; ldp_round",
    ),
    ("sampling", "draws_per_s", "ldp_round"),
    (
        "cache",
        "privatize_p50_us; setup_s; design_total_s",
        "hot_small; hot_small; cold_storm",
    ),
    (
        "design",
        "design_p50_ms, design_total_s; setup_s",
        "cold_storm; ldp_round",
    ),
    ("collect", "reports_per_s, estimate_p50_us", "ldp_round"),
    (
        "srv",
        "work and failure counts behind all of the above",
        "all",
    ),
];

/// The layer → end-to-end metric → workload map, for the result file.
pub fn layer_map() -> Value {
    Value::Array(
        LAYER_MAP
            .iter()
            .map(|&(layer, metric, workload)| {
                Value::Object(vec![
                    ("layer".into(), Value::String(layer.into())),
                    ("moves".into(), Value::String(metric.into())),
                    ("on".into(), Value::String(workload.into())),
                ])
            })
            .collect(),
    )
}

/// Records spans against one clock.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    on: bool,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            on,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` gets the span id to parent children on.
    fn span<T>(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> T {
        if !self.on {
            return f(self, 0);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        let result = f(self, id);
        let end = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        result
    }

    /// Record an already-measured interval; returns its span id.
    fn record(
        &mut self,
        request: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            request,
            name,
            start,
            end,
        });
        id
    }
}

/// How the engine splits a batch's draws: chunks of `chunk` inputs, run on
/// up to `lanes` worker threads at once.
#[derive(Clone, Copy)]
struct Fanout {
    chunk: usize,
    lanes: usize,
}

impl Fanout {
    /// The replay engine's: `EngineConfig::default()`'s `min_chunk` (the
    /// server's default too) on every CPU of this machine.
    fn of_replay_engine() -> Fanout {
        Fanout {
            chunk: EngineConfig::default().min_chunk.max(1),
            lanes: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
}

/// The time, in nanoseconds, of the draws of each chunk `fanout` cuts
/// `inputs` into, drawn again from the resident design of `key` (empty when
/// the key is not resident: a replay must not warm the cache it measures).
fn chunk_draw_times(engine: &Engine, key: &SpecKey, inputs: &[usize], fanout: Fanout) -> Vec<u64> {
    let Some(design) = engine.cache().peek(key) else {
        return Vec::new();
    };
    let sampler = design.alias_sampler();
    let mut rng = StdRng::seed_from_u64(inputs.len() as u64);
    inputs
        .chunks(fanout.chunk)
        .map(|chunk| {
            let began = Instant::now();
            for &input in chunk {
                black_box(sampler.sample(input, &mut rng));
            }
            began.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Intervals for tasks of the given `durations` starting at `from`, dealt
/// round-robin onto `lanes` that each run their tasks back to back.
fn lay_out(from: u64, durations: &[u64], lanes: usize) -> Vec<(u64, u64)> {
    let mut ends = vec![from; lanes.max(1)];
    let count = ends.len();
    durations
        .iter()
        .enumerate()
        .map(|(i, &took)| {
            let lane = &mut ends[i % count];
            let start = *lane;
            *lane += took;
            (start, *lane)
        })
        .collect()
}

/// Replay one privatize request: decode → count → the real
/// `Engine::privatize_batch` → time → encode; returns its outputs.
///
/// The engine call shows no seams, so its children come from the
/// `BatchStats` it returns, laid end to end from the call's start: the
/// design phase (`design_time`: `cache.peek`, or `design` when a key was
/// cold) and the sampling phase (`sample_time`: the `par` fan-out with every
/// draw).  The draws inside that phase are timed again beforehand (so the
/// timing stays out of every span), chunk by chunk as the engine cuts them
/// and side by side on `fanout.lanes`; what the phase took beyond them is
/// `par`'s self time — the worker count, thread spawn and join, per-chunk
/// seeding.  The engine's self time is the rest of the call: input checks,
/// key grouping, output scatter and its own metrics.
fn replay_privatize(
    t: &mut Tracer,
    engine: &Engine,
    request: u64,
    payload: &[u8],
    fanout: Fanout,
) -> Result<Vec<usize>, String> {
    let Op::Privatize { key, inputs } = decode_request(payload)? else {
        return Err("replayed a non-privatize frame".to_string());
    };
    let draws = if t.on {
        chunk_draw_times(engine, &key, &inputs, fanout)
    } else {
        Vec::new()
    };
    t.span(request, None, "request", |t, root| {
        let op = t.span(request, Some(root), "proto.decode", |_, _| {
            decode_request(payload)
        })?;
        let Op::Privatize { key, inputs } = op else {
            return Err("replayed a non-privatize frame".to_string());
        };
        t.span(request, Some(root), "obs.counter", |_, _| {
            cpm_obs::registry()
                .counter(&format!(
                    "cpm_wire_requests_total{{op=\"{}\"}}",
                    "privatize"
                ))
                .inc()
        });
        let started = Instant::now();
        let batch: Vec<Request> = inputs.iter().map(|&i| Request::new(key, i)).collect();
        let outcome = t.span(request, Some(root), "engine", |t, eng| {
            let at = t.now();
            let outcome = engine.privatize_batch(&batch).map_err(|e| e.to_string())?;
            let stats = &outcome.stats;
            let designed = at + stats.design_time.as_nanos() as u64;
            let lookup = if stats.cache_misses + stats.coalesced > 0 {
                "design"
            } else {
                "cache.peek"
            };
            t.record(request, eng, lookup, at, designed);
            let sampled = designed + stats.sample_time.as_nanos() as u64;
            let par = t.record(request, eng, "par", designed, sampled);
            for (start, end) in lay_out(designed, &draws, fanout.lanes) {
                t.record(request, par, "sampling", start, end);
            }
            Ok::<_, String>(outcome)
        })?;
        t.span(request, Some(root), "obs.histogram", |_, _| {
            cpm_obs::registry()
                .histogram(&format!("cpm_wire_op_nanos{{op=\"{}\"}}", "privatize"))
                .record_duration(started.elapsed())
        });
        let response = WireResponse {
            ok: true,
            outputs: outcome.outputs,
            ..WireResponse::default()
        };
        let bytes = t.span(request, Some(root), "proto.encode", |_, _| {
            encode_response(0, &response)
        });
        black_box(bytes);
        Ok(response.outputs)
    })
}

/// Replay one `CPMR` batch: count → decode → ingest → time → JSON ack.
fn replay_report(
    t: &mut Tracer,
    collector: &ReportCollector,
    request: u64,
    payload: &[u8],
) -> Result<(), String> {
    t.span(request, None, "request", |t, root| {
        t.span(request, Some(root), "obs.counter", |_, _| {
            cpm_obs::registry()
                .counter("cpm_wire_requests_total{op=\"report\"}")
                .inc()
        });
        let started = Instant::now();
        let reports = t
            .span(request, Some(root), "wire.decode", |_, _| {
                decode_batch(payload)
            })
            .map_err(|e| e.to_string())?;
        let summary = t.span(request, Some(root), "collect.ingest", |_, _| {
            collector.ingest_reports(&reports)
        });
        t.span(request, Some(root), "obs.histogram", |_, _| {
            cpm_obs::registry()
                .histogram("cpm_wire_op_nanos{op=\"report\"}")
                .record_duration(started.elapsed())
        });
        let ack = WireResponse {
            ok: true,
            ingested: summary.accepted,
            rejected: summary.rejected,
            ..WireResponse::default()
        };
        t.span(request, Some(root), "proto.encode", |_, _| {
            black_box(serde_json::to_string(&ack).expect("acks serialize"))
        });
        Ok(())
    })
}

/// Replay one `estimate`: decode → observed counts → design → invert → encode.
fn replay_estimate(
    t: &mut Tracer,
    engine: &Engine,
    collector: &ReportCollector,
    request: u64,
    key: SpecKey,
) -> Result<(), String> {
    let payload = client::cpmf(&Op::Estimate { key });
    t.span(request, None, "request", |t, root| {
        t.span(request, Some(root), "proto.decode", |_, _| {
            decode_request(&payload)
        })?;
        let observed = t
            .span(request, Some(root), "collect.observed", |_, _| {
                collector.observed(&key)
            })
            .ok_or("no reports for the estimated key")?;
        let design = t.span(request, Some(root), "cache.peek", |_, _| {
            engine.design(&key)
        });
        let design = design.map_err(|e| e.to_string())?;
        let freq = t
            .span(request, Some(root), "collect.estimate", |_, _| {
                estimate_from_design(&design, &observed)
            })
            .map_err(|e| e.to_string())?;
        let response = WireResponse {
            ok: true,
            reports: freq.total_reports,
            estimates: freq.estimates,
            variances: freq.variances,
            ..WireResponse::default()
        };
        t.span(request, Some(root), "proto.encode", |_, _| {
            black_box(encode_response(5, &response))
        });
        Ok(())
    })
}

/// Replay one `warm` of a cold key: decode → cache miss → design → encode.
fn replay_warm(
    t: &mut Tracer,
    cache: &DesignCache,
    request: u64,
    key: SpecKey,
) -> Result<(), String> {
    let payload = client::cpmf(&Op::Warm { key });
    t.span(request, None, "request", |t, root| {
        t.span(request, Some(root), "proto.decode", |_, _| {
            decode_request(&payload)
        })?;
        t.span(request, Some(root), "cache.peek", |t, peek| {
            match cache.peek(&key) {
                Some(_) => Ok(()),
                None => t
                    .span(request, Some(peek), "design", |_, _| cache.get(&key))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            }
        })?;
        let response = WireResponse {
            ok: true,
            entries: cache.len() as u64,
            ..WireResponse::default()
        };
        t.span(request, Some(root), "proto.encode", |_, _| {
            black_box(encode_response(1, &response))
        });
        Ok(())
    })
}

/// Replay the workload's own requests — at most `limit` privatize requests
/// (batches, for the round), then, when `full`, the round's reports and
/// estimates and the storm's warms.  Returns the tracer with every span.
fn replay_workload(
    outcome: &Outcome,
    engine: &Engine,
    trace_on: bool,
    limit: usize,
    full: bool,
) -> Result<Tracer, String> {
    let mut t = Tracer::new(trace_on);
    let fanout = Fanout::of_replay_engine();
    let mut request = 0u64;
    // Privatize traffic: the open-loop streams, or the round's batches.
    let mut privatized: Vec<(SpecKey, Vec<usize>)> = Vec::new();
    if let Some(round) = &outcome.round {
        for (key, inputs) in round.sample.iter().take(limit) {
            let key = round.keys[*key];
            let payload = client::cpmf(&client::privatize_op(key, inputs));
            request += 1;
            let outputs = replay_privatize(&mut t, engine, request, &payload, fanout)?;
            privatized.push((key, outputs));
        }
    } else {
        let per_stream = limit / outcome.streams.len().max(1);
        for (keys, plan, _) in &outcome.streams {
            for planned in plan.iter().take(per_stream) {
                let payload =
                    client::cpmf(&client::privatize_op(keys[planned.key], &planned.inputs));
                request += 1;
                replay_privatize(&mut t, engine, request, &payload, fanout)?;
            }
        }
    }
    // Reports and estimates: the round's outputs sent back in CPMR batches.
    if full && !privatized.is_empty() {
        let collector = ReportCollector::new();
        let reports: Vec<Report> = privatized
            .iter()
            .flat_map(|(key, outputs)| outputs.iter().map(move |&o| Report::new(*key, o as u32)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for chunk in reports.chunks(workloads::REPORT_BATCH) {
            let payload = encode_batch(chunk).map_err(|e| e.to_string())?;
            request += 1;
            replay_report(&mut t, &collector, request, &payload)?;
        }
        let keys: Vec<SpecKey> = collector.keys();
        for _ in 0..8 {
            for &key in &keys {
                request += 1;
                replay_estimate(&mut t, engine, &collector, request, key)?;
            }
        }
    }
    // The storm: every cold key, in the order the server got them.
    if full && !outcome.storm.is_empty() {
        let cache = DesignCache::new(outcome.storm.len() + 1);
        for &key in &outcome.storm {
            request += 1;
            replay_warm(&mut t, &cache, request, key)?;
        }
    }
    Ok(t)
}

/// Median nanoseconds per call of `f`, over `blocks` blocks of `calls`.
fn per_call(blocks: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..blocks)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples).expect("at least one block")
}

fn key(n: usize, properties: &[Property], objective: ObjectiveKey) -> SpecKey {
    let set = properties
        .iter()
        .fold(PropertySet::empty(), |s, &p| s.with(p));
    SpecKey::with_objective(n, Alpha::new(0.9).expect("valid α"), set, objective)
}

/// Single-call timings of every layer.
fn micro(
    ctx: &Ctx,
    engine: &Engine,
    m: &mut BTreeMap<String, (f64, String)>,
) -> Result<(), String> {
    let mut put = |name: &str, value: f64, unit: &str| {
        m.insert(name.to_string(), (value, unit.to_string()));
    };
    let hot = schedule::hot_keys()[0];
    let n = hot.n;

    // proto: codecs and the whole connection state machine.
    let b1 = client::cpmf(&client::privatize_op(hot, &[3]));
    let decode = per_call(15, 2_000, || {
        black_box(decode_request(black_box(&b1)).expect("valid frame"));
    });
    put("proto.decode_cpmf_ns.b1", decode, "ns");
    let json = format!(r#"{{"op":"privatize","n":{n},"alpha":0.9,"inputs":[3]}}"#);
    put(
        "proto.decode_json_ns.b1",
        per_call(15, 2_000, || {
            let request: WireRequest = serde_json::from_str(black_box(&json)).expect("valid");
            black_box(op_from_request(&request).expect("valid op"));
        }),
        "ns",
    );
    let response = WireResponse {
        ok: true,
        outputs: vec![3],
        ..WireResponse::default()
    };
    let encode = per_call(15, 2_000, || {
        black_box(encode_response(0, black_box(&response)));
    });
    put("proto.encode_cpmf_ns.b1", encode, "ns");
    let conn_us = |inputs: Vec<u32>, blocks: usize, calls: usize| {
        let payload = client::cpmf(&client::privatize_op(hot, &inputs));
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        per_call(blocks, calls, || {
            conn.ingest(engine, &framed).expect("well-formed frame");
            let pending = conn.pending_output().len();
            conn.advance_output(pending);
        }) / 1e3
    };
    let conn_b1 = conn_us(vec![3], 15, 400);
    put("proto.conn_us.b1", conn_b1, "us");
    put("proto.conn_us.b4096", conn_us(vec![3; 4_096], 15, 20), "us");

    // engine: the real batch call at three sizes.
    let batch_us = |size: usize, blocks: usize, calls: usize| {
        let requests: Vec<Request> = (0..size).map(|i| Request::new(hot, i % (n + 1))).collect();
        per_call(blocks, calls, || {
            black_box(engine.privatize_batch(&requests).expect("resident key"));
        }) / 1e3
    };
    let engine_b1 = batch_us(1, 15, 400);
    put("engine.batch_us.b1", engine_b1, "us");
    put("engine.batch_us.b16", batch_us(16, 15, 400), "us");
    put("engine.batch_us.b16384", batch_us(16_384, 15, 5), "us");
    put(
        "proto.dispatch_self_us.b1",
        conn_b1 - engine_b1 - (decode + encode) / 1e3,
        "us",
    );

    // wire + collect.
    let design = engine.design(&hot).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let ldp = schedule::ldp_keys();
    let reports: Vec<Report> = (0..4_096)
        .map(|i| {
            let key = ldp[(i / 16) % ldp.len()];
            Report::new(key, (i % (key.n + 1)) as u32).expect("in range")
        })
        .collect();
    let batch = encode_batch(&reports[..1_024]).map_err(|e| e.to_string())?;
    put(
        "wire.cpmr_decode_ns_per_record",
        per_call(15, 20, || {
            black_box(decode_batch(black_box(&batch)).expect("valid batch"));
        }) / 1_024.0,
        "ns",
    );
    let collector = ReportCollector::new();
    put(
        "collect.ingest_ns_per_report",
        per_call(15, 20, || {
            black_box(collector.ingest_reports(black_box(&reports)));
        }) / reports.len() as f64,
        "ns",
    );
    let observed: Vec<u64> = (0..=n as u64).map(|i| 1_000 + i).collect();
    let cold: Vec<f64> = (0..7)
        .map(|_| {
            let fresh = hot.spec().design().expect("GM design");
            let t = Instant::now();
            black_box(estimate_from_design(&fresh, &observed).expect("invertible"));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    put(
        "collect.estimate_cold_us.n32",
        median(&cold).expect("samples"),
        "us",
    );
    put(
        "collect.estimate_steady_us.n32",
        per_call(15, 200, || {
            black_box(estimate_from_design(&design, &observed).expect("invertible"));
        }) / 1e3,
        "us",
    );

    // obs: the by-name pattern dispatch uses, and a resolved histogram.
    let label = black_box("privatize");
    put(
        "obs.counter_by_name_ns",
        per_call(15, 2_000, || {
            cpm_obs::registry()
                .counter(&format!("cpm_wire_requests_total{{op=\"{label}\"}}"))
                .inc();
        }),
        "ns",
    );
    let histogram = cpm_obs::registry().histogram("cpm_perfbench_probe_nanos");
    put(
        "obs.histogram_record_ns",
        per_call(15, 20_000, || histogram.record(black_box(1_234))),
        "ns",
    );

    // par and sampling.
    put(
        "par.worker_count_us",
        per_call(15, 200, || {
            black_box(cpm_eval::par::worker_count(black_box(4)));
        }) / 1e3,
        "us",
    );
    put(
        "par.map_us.t4",
        per_call(15, 50, || {
            black_box(cpm_eval::par::parallel_map(vec![1u64, 2, 3, 4], |x| x + 1));
        }) / 1e3,
        "us",
    );
    let sampler = design.alias_sampler();
    let mut input = 0;
    put(
        "sampling.alias_draw_ns",
        per_call(15, 20_000, || {
            input = (input + 7) % (n + 1);
            black_box(sampler.sample(input, &mut rng));
        }),
        "ns",
    );

    // cache.
    put(
        "cache.peek_ns",
        per_call(15, 20_000, || {
            black_box(engine.cache().peek(black_box(&hot)));
        }),
        "ns",
    );
    let loads: Vec<f64> = (0..5)
        .map(|_| {
            let cache = DesignCache::new(64);
            let t = Instant::now();
            cache
                .load_snapshot_file(&ctx.hot_snapshot)
                .expect("benchmark snapshot loads");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put(
        "cache.snapshot_load_ms",
        median(&loads).expect("samples"),
        "ms",
    );

    // design: four cold LP keys and one closed form.
    let wh_cm = [Property::WeakHonesty, Property::ColumnMonotonicity];
    for (name, key) in [
        ("wh_cm_n32", key(32, &wh_cm, ObjectiveKey::L0)),
        ("wh_cm_n48", key(48, &wh_cm, ObjectiveKey::L0)),
        ("l1_n64", key(64, &[], ObjectiveKey::L1)),
        ("l1_n128", key(128, &[], ObjectiveKey::L1)),
    ] {
        let t = Instant::now();
        let designed = key.spec().design().map_err(|e| e.to_string())?;
        put(
            &format!("design.ms.{name}"),
            t.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
        let stats = designed
            .solver_stats()
            .ok_or("an LP key designed without the LP")?;
        put(
            &format!("design.pivots.{name}"),
            (stats.phase1_iterations + stats.phase2_iterations + stats.dual_iterations) as f64,
            "count",
        );
        put(
            &format!("design.factorizations.{name}"),
            stats.refactorizations as f64,
            "count",
        );
    }
    let closed: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            black_box(hot.spec().design().expect("GM design"));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    put(
        "design.closed_form_us.n32",
        median(&closed).expect("samples"),
        "us",
    );
    Ok(())
}

/// Every per-layer metric of a traced run, by name, with its unit.
pub fn traced(
    ctx: &Ctx,
    workload: &str,
    outcome: &Outcome,
    out_dir: &Path,
    label: &str,
) -> Result<BTreeMap<String, (f64, String)>, String> {
    let mut m: BTreeMap<String, (f64, String)> = BTreeMap::new();
    let engine = Engine::new(EngineConfig::default());
    // The designs the workload's server held: its boot snapshot, or its
    // boot-time designs.  The micro-benchmarks use hot key 0 either way.
    engine
        .load_snapshot(&ctx.hot_snapshot)
        .map_err(|e| e.to_string())?;
    if workload == "ldp_round" {
        engine
            .warm(&schedule::ldp_keys())
            .map_err(|e| e.to_string())?;
    }

    // The tracing overhead: the same replay with span recording off and on,
    // alternated, compared at the median.
    let mut off = Vec::new();
    let mut on = Vec::new();
    for round in 0..6 {
        let trace_on = round % 2 == 1;
        let t = Instant::now();
        replay_workload(outcome, &engine, trace_on, 500, false)?;
        let elapsed = t.elapsed().as_secs_f64();
        if trace_on {
            on.push(elapsed)
        } else {
            off.push(elapsed)
        }
    }
    let (off, on) = (median(&off).unwrap_or(1.0), median(&on).unwrap_or(1.0));
    m.insert(
        "trace.overhead_pct".into(),
        ((on - off) / off * 100.0, "%".into()),
    );

    let tracer = replay_workload(outcome, &engine, true, REPLAY_REQUESTS, true)?;
    let selfs = self_times(&tracer.spans);
    let mut by_layer: BTreeMap<&str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for (span, &own) in tracer.spans.iter().zip(&selfs) {
        let layer = match span.name.split('.').next() {
            Some("request") | None => "proto",
            Some(layer) => layer,
        };
        *by_layer.entry(layer).or_insert(0) += own;
    }
    let total: u64 = by_layer.values().sum();
    for (layer, own) in &by_layer {
        m.insert(
            format!("share.{layer}_pct"),
            (*own as f64 * 100.0 / total.max(1) as f64, "%".into()),
        );
    }
    // The blocking path of a privatize request: its end-to-end replay time
    // and the self time of the `par` step on it (the worker-count call).
    let mut request_us = Vec::new();
    let mut par_us = Vec::new();
    let privatize_roots: std::collections::HashSet<u64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "par")
        .map(|s| s.request)
        .collect();
    for (span, &own) in tracer.spans.iter().zip(&selfs) {
        if span.name == "par" {
            par_us.push(own as f64 / 1e3);
        } else if span.name == "request" && privatize_roots.contains(&span.request) {
            request_us.push(span.duration() as f64 / 1e3);
        }
    }
    m.insert(
        "path.request_us".into(),
        (median(&request_us).unwrap_or(0.0), "us".into()),
    );
    m.insert(
        "path.par_self_us".into(),
        (median(&par_us).unwrap_or(0.0), "us".into()),
    );
    write_spans(
        outcome,
        &tracer,
        &out_dir.join(format!("spans_{label}.jsonl")),
    )?;

    micro(ctx, &engine, &mut m)?;

    for &(name, unit) in LIVE {
        let value = outcome.live.get(name).copied().unwrap_or(0.0);
        m.insert(name.to_string(), (value, unit.to_string()));
    }
    m.insert(
        "fail_ratio".into(),
        (
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio".into(),
        ),
    );
    Ok(m)
}

/// Client requests written per stream (the first ones); enough to inspect a
/// run without writing tens of megabytes per traced run.
const CLIENT_SPANS_WRITTEN: usize = 20_000;

/// Client spans of the live run, then the replay's spans, one JSON object
/// per line: `{"src", "req", "id", "parent", "name", "start", "end"}` (ns).
fn write_spans(outcome: &Outcome, tracer: &Tracer, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut id = 0u64;
    let line = |out: &mut std::io::BufWriter<std::fs::File>,
                src: &str,
                req: u64,
                id: u64,
                parent: Option<u64>,
                name: &str,
                start: u64,
                end: u64| {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"src":"{src}","req":{req},"id":{id},"parent":{parent},"name":"{name}","start":{start},"end":{end}}}"#
        )
    };
    for (stream, (_, _, stats)) in outcome.streams.iter().enumerate() {
        for &(index, due, sent, recv) in stats.spans.iter().take(CLIENT_SPANS_WRITTEN) {
            let req = ((stream as u64) << 32) | index as u64;
            id += 3;
            let root = id - 2;
            let write = line(
                &mut out,
                "client",
                req,
                root,
                None,
                "client.request",
                due,
                recv,
            )
            .and_then(|_| {
                line(
                    &mut out,
                    "client",
                    req,
                    id - 1,
                    Some(root),
                    "client.gen_wait",
                    due,
                    sent,
                )
            })
            .and_then(|_| {
                line(
                    &mut out,
                    "client",
                    req,
                    id,
                    Some(root),
                    "client.server",
                    sent,
                    recv,
                )
            });
            write.map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    for span in &tracer.spans {
        line(
            &mut out,
            "replay",
            span.request,
            span.id,
            span.parent,
            span.name,
            span.start,
            span.end,
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_are_dealt_onto_lanes_back_to_back() {
        assert_eq!(
            lay_out(100, &[10, 20, 30], 2),
            vec![(100, 110), (100, 120), (110, 140)]
        );
        assert_eq!(lay_out(5, &[1, 2], 1), vec![(5, 6), (6, 8)]);
        // No lanes reads as one lane.
        assert_eq!(lay_out(0, &[3], 0), vec![(0, 3)]);
        assert!(lay_out(0, &[], 4).is_empty());
    }

    #[test]
    fn parallel_chunks_leave_the_fan_out_its_own_time() {
        // A sampling phase of 100 ns on two lanes, two chunks of 60 ns and
        // 70 ns: `par` keeps the 30 ns the longer lane leaves.
        let mut spans = vec![Span {
            id: 1,
            parent: None,
            request: 1,
            name: "par",
            start: 0,
            end: 100,
        }];
        for (i, (start, end)) in lay_out(0, &[60, 70], 2).into_iter().enumerate() {
            spans.push(Span {
                id: 2 + i as u64,
                parent: Some(1),
                request: 1,
                name: "sampling",
                start,
                end,
            });
        }
        assert_eq!(self_times(&spans), vec![30, 60, 70]);
    }
}
