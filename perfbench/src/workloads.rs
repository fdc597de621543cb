//! The three traffic mixes, and the phases they are built from.
//!
//! Every workload runs on fresh `serve_tcp` processes and reports the four
//! end-to-end metrics every mix drives; its own figures (`wl.*`: p99, the
//! max rate, report throughput, estimate and design latency) go to the live
//! layer metrics.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_collect::wire::encode_batch;
use cpm_collect::Report;
use cpm_core::{DesignedMechanism, SpecKey};
use cpm_serve::{DesignCache, Op};

use crate::client::{self, Frame, LoopStats};
use crate::schedule::{self, Population};
use crate::server::{self, Server};
use crate::stats::{median, percentile, trimmed_mean, windowed_rate};

/// The latency limit of `privatize_max_rps`, in nanoseconds.
pub const LATENCY_LIMIT_NS: f64 = 1e6;

/// A run is invalid — client-bound, not slow — when the open-loop generator's
/// median lateness exceeds this share of the latency limit (see
/// `check_lateness`); a max-rate search step whose generator is this late at
/// p99 counts as failed.
pub const GEN_LATE_SHARE: f64 = 0.25;

/// `hot_small`'s offered rate, total over its two streams: about a third of
/// the parent commit's `privatize_max_rps` on the 2-CPU reference box.
pub const HOT_RATE: f64 = 4_000.0;

/// `cold_storm`'s privatize rate on connection 1.
pub const STORM_HOT_RATE: f64 = 2_000.0;

/// `ldp_round` privatize batch size: two engine chunks at the server's
/// default `min_chunk` of 4096, so every batch takes the `par` fan-out.
pub const LDP_BATCH: usize = 8_192;

/// Records per `CPMR` report batch.
pub const REPORT_BATCH: usize = 1_024;

/// Server instances `hot_small` and `ldp_round` measure in turn, each for an
/// equal share of the run (see [`run`]).  `hot_small`'s figures move mostly
/// from instance to instance (which CPU each thread lands on), so it takes
/// more; `ldp_round`'s move mostly with the host, which more instances do
/// not average out.
const HOT_INSTANCES: usize = 8;
const LDP_INSTANCES: usize = 5;

/// Server instances `cold_storm` repeats its storm on.
const STORM_INSTANCES: usize = 3;

/// Servers spawned (and their set-up timed) per instance, the last of which
/// is measured.  `ldp_round` designs four keys at boot, a set-up long and
/// CPU-bound enough to move with the host, so it takes more samples.
const SPAWNS_HOT: usize = 1;
const SPAWNS_LDP: usize = 3;
const SPAWNS_STORM: usize = 2;

/// `hot_small`'s capacity phase: requests in flight per connection, its
/// untimed warm-up, and its share of each instance's measured time (the
/// open loop has the rest).
const CAPACITY_WINDOW: usize = 4;
const CAPACITY_WARMUP: Duration = Duration::from_millis(250);
const CAPACITY_SHARE: f64 = 0.25;

/// Warm-up of each `hot_small` instance.
const SEGMENT_WARMUP: Duration = Duration::from_millis(500);

/// Everything one run needs to know.
pub struct Ctx {
    pub server_bin: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// The 16-key snapshot `hot_small` and `cold_storm` boot from.
    pub hot_snapshot: PathBuf,
}

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Layer metrics measured on the live server (`net.*`, `srv.*`, `cache.*`).
    pub live: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry fails the run.
    pub errors: Vec<String>,
    /// Reasons the run cannot be trusted as a measurement of the server.
    pub invalid: Vec<String>,
    /// Open-loop privatize streams of the main phase (client spans, replay).
    pub streams: Vec<(Vec<SpecKey>, Vec<schedule::Planned>, LoopStats)>,
    /// The storm's keys in the order sent.
    pub storm: Vec<SpecKey>,
    /// The report round's key list and sample of its privatize batches.
    pub round: Option<RoundStats>,
    /// Each instance's `(privatize p50 in µs, draws per second)`.
    pub instances: Vec<(f64, f64)>,
    /// Per key: squared error of its final estimate cells against the truth,
    /// summed over instances, and the closed-form expectation of that sum.
    estimate_sse: BTreeMap<SpecKey, (f64, f64)>,
}

impl Outcome {
    fn absorb_loop(&mut self, stats: &LoopStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        if let Some(message) = &stats.error {
            self.errors.push(format!("privatize: {message}"));
        }
        if stats.timed_out > 0 {
            self.errors
                .push(format!("{} privatize requests timed out", stats.timed_out));
        }
    }
}

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// What one server instance's main phase measured.
struct Phase {
    p50_ns: f64,
    draws_per_s: f64,
}

/// Run `workload` end to end.
///
/// Each workload runs on several server instances in turn and reports the
/// trimmed mean of their figures (lowest and highest dropped): on a 2-CPU
/// VM, the CPUs an instance's threads land on move its median by up to ~20%,
/// and a stall of the host can spoil one instance; averaging instances keeps
/// that luck out of a regression verdict.  `hot_small` and `ldp_round` give each
/// instance an equal share of the run; `cold_storm` repeats its whole storm
/// on each.  Every set-up is timed; `setup_s` is their median.  On
/// `hot_small`, whose open loop offers a fixed rate, `draws_per_s` comes from
/// a closed-loop capacity phase after each instance's open loop.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (env, resident) = match workload {
        "hot_small" | "cold_storm" => (
            vec![("CPM_WARM_FILE", ctx.hot_snapshot.display().to_string())],
            schedule::hot_keys(),
        ),
        "ldp_round" => {
            let keys = schedule::ldp_keys();
            (vec![("CPM_SERVE_WARM", schedule::warm_spec(&keys))], keys)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let (instances, spawns, seconds) = match workload {
        "cold_storm" => (STORM_INSTANCES, SPAWNS_STORM, ctx.seconds),
        "ldp_round" => (
            LDP_INSTANCES,
            SPAWNS_LDP,
            ctx.seconds / LDP_INSTANCES as f64,
        ),
        _ => (
            HOT_INSTANCES,
            SPAWNS_HOT,
            ctx.seconds / HOT_INSTANCES as f64,
        ),
    };
    // The estimate bound needs the matrices the server designed at boot.
    let designs = match workload {
        "ldp_round" => design_all(&resident)?,
        _ => Vec::new(),
    };
    let storm_keys = match workload {
        "cold_storm" => schedule::storm_keys(ctx.seed),
        _ => Vec::new(),
    };
    let mut setups = Vec::new();
    let mut phases = Vec::new();
    let mut wl: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut late = Vec::new();
    let mut rss: f64 = 0.0;
    let mut counters = Counters::default();
    for instance in 0..instances {
        let dir = ctx.dir.join(format!("instance-{instance}"));
        std::fs::create_dir_all(&dir).map_err(|e| io_err("log directory", e))?;
        let (server, times) = server::spawn_several(&ctx.server_bin, &env, &dir, spawns)
            .map_err(|e| io_err("spawning serve_tcp", e))?;
        setups.extend(times);
        let before = server::scrape(server.addr).map_err(|e| io_err("scrape", e))?;
        let mut sent = 0u64;
        let (rtt_stats, rtt_b1) = unloaded_rtts(server.addr, resident[0], &mut sent)?;
        if instance == 0 {
            out.live.insert("net.rtt_stats_us".into(), rtt_stats / 1e3);
            out.live.insert("net.b1_rtt_us".into(), rtt_b1 / 1e3);
        }
        let id = instance as u64;
        let phase = match workload {
            "hot_small" => {
                let open = seconds * (1.0 - CAPACITY_SHARE);
                let (p50_ns, p99) = hot_main(
                    ctx, &server, &resident, id, open, &mut late, &mut out, &mut sent,
                )?;
                wl.entry("wl.privatize_p99_us").or_default().push(p99 / 1e3);
                let draws_per_s = capacity(
                    ctx,
                    server.addr,
                    &resident,
                    id,
                    seconds - open,
                    &mut out,
                    &mut sent,
                )?;
                Phase {
                    p50_ns,
                    draws_per_s,
                }
            }
            "ldp_round" => {
                let round = ldp_round(
                    ctx,
                    server.addr,
                    &resident,
                    &designs,
                    id,
                    seconds,
                    &mut sent,
                )?;
                let phase = record_round(&round, &mut wl, &mut out);
                if out.round.is_none() {
                    out.round = Some(round);
                }
                phase
            }
            _ => {
                let (phase, storm) = storm_main(
                    ctx,
                    &server,
                    &resident,
                    &storm_keys,
                    &mut late,
                    &mut wl,
                    &mut out,
                    &mut sent,
                )?;
                out.attempted += storm.latency_ms.len() as u64;
                let p50 = median(&storm.latency_ms).unwrap_or(f64::INFINITY);
                wl.entry("wl.design_p50_ms").or_default().push(p50);
                wl.entry("wl.design_total_s")
                    .or_default()
                    .push(storm.total_s);
                phase
            }
        };
        rss = rss.max(server.peak_rss_mb().map_err(|e| io_err("VmHWM", e))?);
        if workload == "hot_small" && instance + 1 == instances {
            // After the RSS reading: past the knee the server buffers answers
            // faster than they are read, and how far past it a search goes
            // is luck.
            max_rate_search(ctx, &server, &resident, &mut out, &mut sent)?;
        }
        let after = server::scrape(server.addr).map_err(|e| io_err("scrape", e))?;
        counters.add(&before, &after, sent, &mut out);
        out.instances.push((phase.p50_ns / 1e3, phase.draws_per_s));
        phases.push(phase);
    }
    out.storm = storm_keys;
    counters.record(&mut out);
    if workload == "ldp_round" {
        // The paper's Section V bound on the final estimates: each key's RMSE
        // within 2× its closed-form expectation.  A key's squared errors are
        // summed over the run's instances before the ratio is taken: one
        // realisation of an ill-conditioned key (CM at n = 32, whose error
        // is carried by one or two directions) exceeds 2× its own
        // expectation a few percent of the time, and the sum of five does
        // not.  `collect.rmse_ratio` is the worst key's ratio.
        if out.estimate_sse.is_empty() {
            out.errors.push("no final estimates to check".into());
        }
        let mut worst: f64 = 0.0;
        for (key, &(sse, expected)) in &out.estimate_sse {
            let ratio = (sse / expected).sqrt();
            worst = worst.max(ratio);
            if ratio.is_nan() || ratio > 2.0 {
                out.errors.push(format!(
                    "final estimates of {key}: RMSE is {ratio:.2}× the closed-form expectation (limit 2×)"
                ));
            }
        }
        out.live.insert("collect.rmse_ratio".into(), worst);
    } else {
        check_lateness(&late, &mut out);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let across = |figure: fn(&Phase) -> f64| {
        trimmed_mean(&phases.iter().map(figure).collect::<Vec<_>>()).expect("several instances")
    };
    let p50 = across(|p| p.p50_ns);
    let draws = across(|p| p.draws_per_s);
    out.e2e
        .insert("setup_s", median(&setups).expect("several spawns"));
    out.e2e.insert("privatize_p50_us", p50 / 1e3);
    out.e2e.insert("draws_per_s", draws);
    out.e2e.insert("server_rss_mb", rss);
    for (name, values) in wl {
        out.live.insert(name.into(), mean(&values));
    }
    let b1 = out.live["net.b1_rtt_us"];
    out.live.insert("net.queue_wait_us".into(), p50 / 1e3 - b1);
    Ok(out)
}

/// Design `keys` in-process (the estimate error bound needs the matrices).
pub fn design_all(keys: &[SpecKey]) -> Result<Vec<Arc<DesignedMechanism>>, String> {
    let cache = DesignCache::new(keys.len().max(1));
    cache.warm(keys).map_err(|e| io_err("in-process design", e))
}

/// Median unloaded round trips: `stats`, then batch-1 privatize of `key`.
fn unloaded_rtts(addr: SocketAddr, key: SpecKey, sent: &mut u64) -> Result<(f64, f64), String> {
    let mut stream = client::connect(addr).map_err(|e| io_err("connect", e))?;
    let stats = client::cpmf(&Op::Stats);
    let b1 = client::cpmf(&client::privatize_op(key, &[key.n as u32 / 2]));
    let mut time = |payload: &[u8], privatize: bool| -> Result<f64, String> {
        let mut samples = Vec::with_capacity(300);
        for _ in 0..300 {
            let t = Instant::now();
            let response = client::rpc(&mut stream, payload).map_err(|e| io_err("rtt", e))?;
            samples.push(t.elapsed().as_nanos() as f64);
            if privatize {
                client::check_privatize(&response, 1, key.n)?;
            } else {
                client::ok_response(&response)?;
            }
        }
        Ok(median(&samples).expect("300 samples"))
    };
    let result = (time(&stats, false)?, time(&b1, true)?);
    *sent += 600;
    Ok(result)
}

/// Requests due in the first `WARMUP` of an open-loop phase are sent and
/// checked but not timed: connections, caches and the scheduler settle first.
const WARMUP: Duration = Duration::from_secs(1);

/// Two open-loop privatize streams of `keys` at `rate` in total, one per
/// connection, both driven by this thread, for `warmup + seconds`.
#[allow(clippy::too_many_arguments)]
fn two_streams(
    conns: &mut [TcpStream],
    seed: u64,
    stream_base: u64,
    keys: &[SpecKey],
    rate: f64,
    warmup: Duration,
    seconds: f64,
) -> Result<Vec<(Vec<schedule::Planned>, LoopStats)>, String> {
    let total = warmup.as_secs_f64() + seconds;
    let plans: Vec<Vec<schedule::Planned>> = (0..conns.len() as u64)
        .map(|s| {
            let phase = s as f64 / conns.len() as f64;
            let rate = rate / conns.len() as f64;
            schedule::privatize_stream(seed, stream_base + s, keys, rate, total, phase)
        })
        .collect();
    let frames: Vec<Vec<Frame>> = plans
        .iter()
        .map(|plan| {
            plan.iter()
                .map(|p| Frame::privatize(p.due_ns, keys[p.key], &p.inputs))
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    // A thread of its own: the generator raises its scheduling priority, which
    // must not leak into later phases or into servers spawned afterwards.
    let stats = std::thread::scope(|scope| {
        scope
            .spawn(|| client::open_loop(conns, &frames, start, Duration::from_secs(5)))
            .join()
            .expect("generator thread panicked")
    })
    .map_err(|e| io_err("open loop", e))?;
    Ok(plans.into_iter().zip(stats).collect())
}

/// `(due, latency)` of every timed request: completed after the warm-up.
fn timed(streams: &[&LoopStats], warmup: Duration) -> Vec<(u64, f64)> {
    let from = warmup.as_nanos() as u64;
    streams
        .iter()
        .flat_map(|s| s.spans.iter())
        .filter(|&&(_, due, _, _)| due >= from)
        .map(|&(_, due, _, recv)| (due, (recv - due) as f64))
        .collect()
}

fn p50(samples: &[(u64, f64)]) -> f64 {
    let values: Vec<f64> = samples.iter().map(|s| s.1).collect();
    percentile(&values, 0.5).unwrap_or(f64::INFINITY)
}

/// The run's p99: the median over `window`s of each window's p99, from
/// windows of at least 1 000 samples (ten beyond the percentile).
fn windowed_p99(samples: &[(u64, f64)], window: Duration) -> f64 {
    crate::stats::windowed_percentile(samples, window.as_nanos() as u64, 0.99, 1_000)
        .unwrap_or(f64::INFINITY)
}

/// How late the generator sent each timed request, in nanoseconds.
fn lateness(streams: &[&LoopStats], warmup: Duration) -> Vec<f64> {
    let from = warmup.as_nanos() as u64;
    streams
        .iter()
        .flat_map(|s| s.spans.iter())
        .filter(|&&(_, due, _, _)| due >= from)
        .map(|&(_, due, sent, _)| (sent - due) as f64)
        .collect()
}

/// Record the generator's lateness and mark the run invalid when its median
/// exceeds `GEN_LATE_SHARE` of the latency limit: the gated latency is a
/// median, and a generator late at the median can no longer keep the
/// schedule — the run measured the client.  Short stalls of the whole box
/// (an LP solve holding both CPUs) show in the p99 lateness, which is
/// reported, and are charged to the server by timing from the schedule.
fn check_lateness(late: &[f64], out: &mut Outcome) {
    let p50 = percentile(late, 0.5).unwrap_or(0.0);
    out.live.insert("net.gen_late_p50_us".into(), p50 / 1e3);
    out.live.insert(
        "net.gen_late_p99_us".into(),
        percentile(late, 0.99).unwrap_or(0.0) / 1e3,
    );
    if p50 > GEN_LATE_SHARE * LATENCY_LIMIT_NS {
        out.invalid.push(format!(
            "generator median lateness {:.0} µs exceeds {:.0} µs",
            p50 / 1e3,
            GEN_LATE_SHARE * LATENCY_LIMIT_NS / 1e3
        ));
    }
}

/// One `hot_small` instance on `server`: two open-loop streams at `HOT_RATE`
/// for the warm-up plus `seconds`.  Returns its p50 and windowed p99 (ns)
/// and adds how late each timed request was sent to `late`.
#[allow(clippy::too_many_arguments)]
fn hot_main(
    ctx: &Ctx,
    server: &Server,
    keys: &[SpecKey],
    instance: u64,
    seconds: f64,
    late: &mut Vec<f64>,
    out: &mut Outcome,
    sent: &mut u64,
) -> Result<(f64, f64), String> {
    let mut conns = connect_n(server.addr, 2)?;
    let streams = two_streams(
        &mut conns,
        ctx.seed,
        2 * instance,
        keys,
        HOT_RATE,
        SEGMENT_WARMUP,
        seconds,
    )?;
    let refs: Vec<&LoopStats> = streams.iter().map(|(_, s)| s).collect();
    let samples = timed(&refs, SEGMENT_WARMUP);
    late.extend(lateness(&refs, SEGMENT_WARMUP));
    *out.live
        .entry("net.privatize_samples".into())
        .or_insert(0.0) += samples.len() as f64;
    for (_, stats) in &streams {
        out.absorb_loop(stats);
        *sent += stats.attempted;
    }
    let p99 = windowed_p99(&samples, Duration::from_millis(500));
    let p50 = p50(&samples);
    if out.streams.is_empty() {
        out.streams = streams
            .into_iter()
            .map(|(plan, stats)| (keys.to_vec(), plan, stats))
            .collect();
    }
    Ok((p50, p99))
}

/// The draws per second the server sustains on `hot_small`'s request mix:
/// `CAPACITY_WINDOW` requests kept in flight on each of two connections (a
/// closed loop, driven from this thread) for `CAPACITY_WARMUP` plus
/// `seconds`; draws answered after the warm-up count.  The open
/// loop offers a fixed rate, so its own draw count is the schedule's; this
/// one the server sets.
fn capacity(
    ctx: &Ctx,
    addr: SocketAddr,
    keys: &[SpecKey],
    instance: u64,
    seconds: f64,
    out: &mut Outcome,
    sent: &mut u64,
) -> Result<f64, String> {
    let mut conns = connect_n(addr, 2)?;
    let plans: Vec<Vec<Frame>> = (0..conns.len() as u64)
        .map(|s| {
            schedule::privatize_stream(ctx.seed, 3_000 + 2 * instance + s, keys, 4_096.0, 1.0, 0.0)
                .iter()
                .map(|p| Frame::privatize(0, keys[p.key], &p.inputs))
                .collect()
        })
        .collect();
    let stop = CAPACITY_WARMUP + Duration::from_secs_f64(seconds);
    let start = Instant::now() + Duration::from_millis(2);
    let sides = client::closed_loop(
        &mut conns,
        &plans,
        CAPACITY_WINDOW,
        start,
        stop,
        Duration::from_secs(5),
    )
    .map_err(|e| io_err("capacity", e))?;
    let timed = CAPACITY_WARMUP.as_nanos() as u64..stop.as_nanos() as u64;
    let mut draws = 0;
    for (plan, stats) in plans.iter().zip(&sides) {
        out.absorb_loop(stats);
        *sent += stats.attempted;
        draws += stats
            .spans
            .iter()
            .filter(|span| timed.contains(&span.3))
            .map(|span| plan[span.0 as usize].inputs)
            .sum::<usize>();
    }
    Ok(draws as f64 / seconds)
}

fn connect_n(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| client::connect(addr).map_err(|e| io_err("connect", e)))
        .collect()
}

/// One step of the max-rate search: does `rate` meet the latency limit with
/// no growing backlog?  `None` when the generator itself fell behind.
#[allow(clippy::too_many_arguments)]
fn rate_step(
    ctx: &Ctx,
    conns: &mut [TcpStream],
    keys: &[SpecKey],
    rate: f64,
    step: u64,
    out: &mut Outcome,
    sent: &mut u64,
) -> Result<Option<bool>, String> {
    const STEP_WARMUP: Duration = Duration::from_millis(200);
    const STEP_SECONDS: f64 = 1.0;
    let streams = two_streams(
        conns,
        ctx.seed,
        1_000 + 2 * step,
        keys,
        rate,
        STEP_WARMUP,
        STEP_SECONDS,
    )?;
    let refs: Vec<&LoopStats> = streams.iter().map(|(_, s)| s).collect();
    let mut timed_out = 0;
    for stats in &refs {
        out.attempted += stats.attempted;
        *sent += stats.attempted;
        timed_out += stats.timed_out;
        out.failed += stats.failed;
        if let Some(message) = &stats.error {
            out.errors.push(format!("privatize: {message}"));
        }
    }
    if timed_out > 0 {
        // Late answers would arrive on these connections during the next
        // step; start it on fresh ones.
        let addr = conns[0]
            .peer_addr()
            .map_err(|e| io_err("peer address", e))?;
        for (conn, fresh) in conns.iter_mut().zip(connect_n(addr, 2)?) {
            *conn = fresh;
        }
    }
    let late_p99 = percentile(&lateness(&refs, STEP_WARMUP), 0.99).unwrap_or(0.0);
    if late_p99 > GEN_LATE_SHARE * LATENCY_LIMIT_NS {
        return Ok(None);
    }
    let samples = timed(&refs, STEP_WARMUP);
    let p99 = windowed_p99(&samples, Duration::from_millis(250));
    // Backlog: the last tenth of the step must still be answered within the
    // limit at the median.
    let cutoff = (STEP_WARMUP.as_secs_f64() + 0.9 * STEP_SECONDS) * 1e9;
    let tail: Vec<f64> = samples
        .iter()
        .filter(|s| s.0 as f64 >= cutoff)
        .map(|s| s.1)
        .collect();
    let backlog_ok = timed_out == 0 && median(&tail).is_some_and(|m| m <= LATENCY_LIMIT_NS);
    Ok(Some(p99 <= LATENCY_LIMIT_NS && backlog_ok))
}

/// `privatize_max_rps`: bracket by ×1.25 steps from `HOT_RATE`, then bisect
/// (geometrically) until the bracket is within 2%.
fn max_rate_search(
    ctx: &Ctx,
    server: &Server,
    keys: &[SpecKey],
    out: &mut Outcome,
    sent: &mut u64,
) -> Result<(), String> {
    let mut lo: f64 = 0.0;
    let mut hi = f64::INFINITY;
    let mut rate = HOT_RATE;
    let mut step = 0;
    let mut client_bound = 0;
    let mut conns = connect_n(server.addr, 2)?;
    while hi / lo.max(1.0) > 1.02 && step < 16 {
        match rate_step(ctx, &mut conns, keys, rate, step, out, sent)? {
            Some(true) => lo = rate,
            Some(false) => hi = rate,
            None => {
                client_bound += 1;
                hi = rate;
            }
        }
        step += 1;
        rate = if hi.is_finite() {
            (lo.max(HOT_RATE / 4.0) * hi).sqrt()
        } else {
            rate * 1.25
        };
        std::thread::sleep(Duration::from_millis(20));
    }
    // Near the knee the server takes both CPUs and the generator falls
    // behind too: such a step fails (the box is saturated at that rate) and
    // is counted, but it does not make the run invalid.
    out.live
        .insert("net.search_client_bound_steps".into(), client_bound as f64);
    out.live.insert("wl.privatize_max_rps".into(), lo);
    out.live.insert("net.search_steps".into(), step as f64);
    Ok(())
}

/// What a report round measured.
pub struct RoundStats {
    pub keys: Vec<SpecKey>,
    pub draws: u64,
    pub reports: u64,
    /// Median over 1 s windows of the run.
    pub draws_per_s: f64,
    /// Median over 1 s windows of the run.
    pub reports_per_s: f64,
    pub privatize_p50_ns: f64,
    pub privatize_p99_ns: f64,
    pub privatize_samples: usize,
    pub estimate_ns: Vec<f64>,
    /// Per reported key: `(key, empirical RMSE, closed-form expected RMSE)`.
    pub rmse: Vec<(SpecKey, f64, f64)>,
    /// Every request sent: privatize batches, report batches, estimates.
    pub requests: u64,
    /// The first privatize batches, for the in-process replay.
    pub sample: Vec<(usize, Vec<u32>)>,
}

/// The closed-loop LDP round: connection 1 privatizes batches from the seeded
/// population (two in flight); connection 2 reports every output back in
/// `CPMR` batches (four in flight) and reads an `estimate` for each reported
/// key every 100 ms.  At the end every output is reported and each key's
/// final estimate must be within 2× the closed-form expected RMSE.
#[allow(clippy::too_many_arguments)]
fn ldp_round(
    ctx: &Ctx,
    addr: SocketAddr,
    keys: &[SpecKey],
    designs: &[Arc<DesignedMechanism>],
    instance: u64,
    seconds: f64,
    sent: &mut u64,
) -> Result<RoundStats, String> {
    let batch = LDP_BATCH;
    const PRIVATIZE_WINDOW: usize = 2;
    const REPORT_WINDOW: usize = 4;
    const ESTIMATE_EVERY: Duration = Duration::from_millis(100);
    const SAMPLE: usize = 64;
    // Records connection 2 may hold unsent.  Draws outpace reports, so a
    // privatize batch arriving while this many wait is not reported: which
    // batches are reported depends only on timing, never on the outputs, so
    // the estimate bound holds on the reported subset.
    const REPORT_BACKLOG: usize = 8 * REPORT_BATCH;

    let mut c1 = client::connect(addr).map_err(|e| io_err("connect", e))?;
    let mut c2 = client::connect(addr).map_err(|e| io_err("connect", e))?;
    let (tx, rx) = mpsc::channel::<(usize, Vec<u32>, Vec<usize>)>();
    let start = Instant::now();
    let seed = ctx.seed ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15);

    type Side1 = Result<(u64, u64, Vec<f64>, Vec<(usize, Vec<u32>)>, Vec<(u64, f64)>), String>;
    type Side2 = Result<
        (
            u64,
            u64,
            Vec<f64>,
            Vec<Vec<f64>>,
            Vec<Vec<f64>>,
            Vec<(u64, f64)>,
            u64,
        ),
        String,
    >;
    let (side1, side2): (Side1, Side2) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || -> Side1 {
            let mut population = Population::new(seed, keys, batch);
            let mut inflight: std::collections::VecDeque<(usize, Vec<u32>, Instant)> =
                Default::default();
            let (mut draws, mut requests) = (0u64, 0u64);
            let mut lat = Vec::new();
            let mut sample = Vec::new();
            let mut done_at: Vec<(u64, f64)> = Vec::new();
            loop {
                let open = start.elapsed().as_secs_f64() < seconds;
                if open && inflight.len() < PRIVATIZE_WINDOW {
                    let (key, inputs) = population.next_batch();
                    let payload = client::cpmf(&client::privatize_op(keys[key], &inputs));
                    cpm_serve::frontend::write_frame(&mut c1, &payload)
                        .map_err(|e| io_err("privatize send", e))?;
                    requests += 1;
                    if sample.len() < SAMPLE {
                        sample.push((key, inputs.clone()));
                    }
                    inflight.push_back((key, inputs, Instant::now()));
                    continue;
                }
                let Some((key, inputs, t)) = inflight.pop_front() else {
                    break;
                };
                let payload = cpm_serve::frontend::read_frame(&mut c1)
                    .map_err(|e| io_err("privatize receive", e))?
                    .ok_or("server closed the privatize connection")?;
                lat.push(t.elapsed().as_nanos() as f64);
                let outputs = client::check_privatize(&payload, inputs.len(), keys[key].n)?;
                draws += outputs.len() as u64;
                done_at.push((start.elapsed().as_nanos() as u64, outputs.len() as f64));
                if tx.send((key, inputs, outputs)).is_err() {
                    return Err("report side stopped".into());
                }
            }
            drop(tx);
            Ok((draws, requests, lat, sample, done_at))
        });
        let reporter = scope.spawn(move || -> Side2 {
            let mut truth: Vec<Vec<f64>> = keys.iter().map(|k| vec![0.0; k.n + 1]).collect();
            let mut acked = vec![0u64; keys.len()];
            let mut finals: Vec<Vec<f64>> = vec![Vec::new(); keys.len()];
            let mut pending: Vec<(usize, Report, u32)> = Vec::new();
            let mut inflight: std::collections::VecDeque<Vec<(usize, u32)>> = Default::default();
            let mut est_lat = Vec::new();
            let (mut reports, mut requests) = (0u64, 0u64);
            let mut next_estimate = start + ESTIMATE_EVERY;
            let mut skipped = 0u64;
            let mut producing = true;
            let mut acks: Vec<(u64, f64)> = Vec::new();
            let read_ack = |c2: &mut TcpStream,
                            sent_batch: Vec<(usize, u32)>,
                            truth: &mut Vec<Vec<f64>>,
                            acked: &mut Vec<u64>|
             -> Result<u64, String> {
                let payload = cpm_serve::frontend::read_frame(c2)
                    .map_err(|e| io_err("report ack", e))?
                    .ok_or("server closed the report connection")?;
                let ack = client::ok_json_response(&payload)?;
                if ack.ingested != sent_batch.len() as u64 || ack.rejected != 0 {
                    return Err(format!(
                        "CPMR ack counts {} ingested / {} rejected for {} records",
                        ack.ingested,
                        ack.rejected,
                        sent_batch.len()
                    ));
                }
                for (key, input) in sent_batch.iter().copied() {
                    truth[key][input as usize] += 1.0;
                    acked[key] += 1;
                }
                Ok(ack.ingested)
            };
            loop {
                // Take whatever the producer has delivered.
                loop {
                    let received = if producing && pending.len() < REPORT_BATCH {
                        rx.recv_timeout(Duration::from_millis(2))
                    } else {
                        rx.try_recv().map_err(|e| match e {
                            mpsc::TryRecvError::Empty => mpsc::RecvTimeoutError::Timeout,
                            mpsc::TryRecvError::Disconnected => {
                                mpsc::RecvTimeoutError::Disconnected
                            }
                        })
                    };
                    match received {
                        Ok((_, inputs, _)) if pending.len() >= REPORT_BACKLOG => {
                            skipped += inputs.len() as u64;
                        }
                        Ok((key, inputs, outputs)) => {
                            for (input, output) in inputs.into_iter().zip(outputs) {
                                let report = Report::new(keys[key], output as u32)
                                    .map_err(|e| io_err("report", e))?;
                                pending.push((key, report, input));
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => break,
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            producing = false;
                            break;
                        }
                    }
                }
                // Send full batches (and, at the end, the remainder).
                while (pending.len() >= REPORT_BATCH || (!producing && !pending.is_empty()))
                    && inflight.len() < REPORT_WINDOW
                {
                    let take = pending.len().min(REPORT_BATCH);
                    let chunk: Vec<(usize, Report, u32)> = pending.drain(..take).collect();
                    let records: Vec<Report> = chunk.iter().map(|c| c.1).collect();
                    let payload = encode_batch(&records).map_err(|e| io_err("encode", e))?;
                    cpm_serve::frontend::write_frame(&mut c2, &payload)
                        .map_err(|e| io_err("report send", e))?;
                    requests += 1;
                    inflight.push_back(chunk.iter().map(|c| (c.0, c.2)).collect());
                }
                if inflight.len() >= REPORT_WINDOW
                    || (!producing && pending.is_empty() && !inflight.is_empty())
                {
                    let batch = inflight.pop_front().expect("window is non-empty");
                    let n = read_ack(&mut c2, batch, &mut truth, &mut acked)?;
                    reports += n;
                    acks.push((start.elapsed().as_nanos() as u64, n as f64));
                }
                let done = !producing && pending.is_empty() && inflight.is_empty();
                if Instant::now() >= next_estimate || done {
                    // Reads: drain the writes in flight, then one estimate
                    // per key that has reports.
                    while let Some(batch) = inflight.pop_front() {
                        let n = read_ack(&mut c2, batch, &mut truth, &mut acked)?;
                        reports += n;
                        acks.push((start.elapsed().as_nanos() as u64, n as f64));
                    }
                    for (k, key) in keys.iter().enumerate() {
                        if acked[k] == 0 {
                            continue;
                        }
                        let payload = client::cpmf(&Op::Estimate { key: *key });
                        let t = Instant::now();
                        let response =
                            client::rpc(&mut c2, &payload).map_err(|e| io_err("estimate", e))?;
                        if !done {
                            est_lat.push(t.elapsed().as_nanos() as f64);
                        }
                        requests += 1;
                        let response = client::ok_response(&response)?;
                        if response.estimates.len() != key.n + 1 || response.reports != acked[k] {
                            return Err(format!(
                                "estimate for {key} covers {} reports in {} cells; {} were acked",
                                response.reports,
                                response.estimates.len(),
                                acked[k]
                            ));
                        }
                        if done {
                            finals[k] = response.estimates;
                        }
                    }
                    next_estimate = Instant::now() + ESTIMATE_EVERY;
                }
                if done {
                    break;
                }
            }
            Ok((reports, requests, est_lat, truth, finals, acks, skipped))
        });
        (
            producer.join().expect("producer thread panicked"),
            reporter.join().expect("reporter thread panicked"),
        )
    });
    let (draws, privatize_requests, lat, sample, done_at) = side1?;
    let (reports, report_requests, estimate_ns, truth, finals, acks, skipped) = side2?;
    let window = 500_000_000;
    let span = (seconds * 1e9) as u64;
    *sent += privatize_requests + report_requests;
    if reports + skipped != draws {
        return Err(format!(
            "{draws} draws but {reports} reports acknowledged and {skipped} skipped"
        ));
    }
    let mut rmse = Vec::new();
    for (k, (counts, estimates)) in truth.iter().zip(&finals).enumerate() {
        if estimates.is_empty() {
            continue;
        }
        let squares: f64 = estimates
            .iter()
            .zip(counts)
            .map(|(e, t)| (e - t) * (e - t))
            .sum();
        let measured = (squares / counts.len() as f64).sqrt();
        let expected = cpm_collect::expected_rmse(designs[k].mechanism(), counts)
            .map_err(|e| io_err("expected RMSE", e))?;
        rmse.push((keys[k], measured, expected));
    }
    Ok(RoundStats {
        keys: keys.to_vec(),
        draws,
        reports,
        draws_per_s: windowed_rate(&done_at, window, span).unwrap_or(0.0),
        reports_per_s: windowed_rate(&acks, window, span).unwrap_or(0.0),
        privatize_p50_ns: percentile(&lat, 0.5).unwrap_or(f64::INFINITY),
        privatize_p99_ns: percentile(&lat, 0.99).unwrap_or(f64::INFINITY),
        privatize_samples: lat.len(),
        estimate_ns,
        rmse,
        requests: privatize_requests + report_requests,
        sample,
    })
}

/// Check a round's estimates and file its figures; returns its phase.
fn record_round(
    round: &RoundStats,
    wl: &mut BTreeMap<&'static str, Vec<f64>>,
    out: &mut Outcome,
) -> Phase {
    out.attempted += round.requests;
    let figures = [
        ("wl.privatize_p99_us", round.privatize_p99_ns / 1e3),
        ("wl.reports_per_s", round.reports_per_s),
        (
            "wl.estimate_p50_us",
            median(&round.estimate_ns).unwrap_or(f64::INFINITY) / 1e3,
        ),
        (
            "collect.reported_share",
            round.reports as f64 / round.draws.max(1) as f64,
        ),
    ];
    for (name, value) in figures {
        wl.entry(name).or_default().push(value);
    }
    *out.live
        .entry("net.privatize_samples".into())
        .or_insert(0.0) += round.privatize_samples as f64;
    *out.live
        .entry("collect.estimate_samples".into())
        .or_insert(0.0) += round.estimate_ns.len() as f64;
    for &(key, measured, expected) in &round.rmse {
        let cells = (key.n + 1) as f64;
        let sums = out.estimate_sse.entry(key).or_insert((0.0, 0.0));
        sums.0 += measured * measured * cells;
        sums.1 += expected * expected * cells;
    }
    Phase {
        p50_ns: round.privatize_p50_ns,
        draws_per_s: round.draws_per_s,
    }
}

/// What a design storm measured.
pub struct StormStats {
    pub latency_ms: Vec<f64>,
    pub total_s: f64,
}

/// `warm` every key in order on one connection, one at a time.
fn storm(addr: SocketAddr, keys: &[SpecKey], sent: &mut u64) -> Result<StormStats, String> {
    let mut stream = client::connect(addr).map_err(|e| io_err("connect", e))?;
    let start = Instant::now();
    let mut latency_ms = Vec::with_capacity(keys.len());
    for key in keys {
        let t = Instant::now();
        let response = client::rpc(&mut stream, &client::cpmf(&Op::Warm { key: *key }))
            .map_err(|e| io_err("warm", e))?;
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        client::ok_response(&response).map_err(|e| format!("warm {key}: {e}"))?;
    }
    *sent += keys.len() as u64;
    Ok(StormStats {
        latency_ms,
        total_s: start.elapsed().as_secs_f64(),
    })
}

/// `cold_storm`'s main phase: connection 1 streams hot privatize traffic for
/// the run while connection 2 warms the storm keys one by one, starting when
/// the warm-up ends.
#[allow(clippy::too_many_arguments)]
fn storm_main(
    ctx: &Ctx,
    server: &Server,
    resident: &[SpecKey],
    keys: &[SpecKey],
    late: &mut Vec<f64>,
    wl: &mut BTreeMap<&'static str, Vec<f64>>,
    out: &mut Outcome,
    sent: &mut u64,
) -> Result<(Phase, StormStats), String> {
    let total = WARMUP.as_secs_f64() + ctx.seconds;
    let plan = schedule::privatize_stream(ctx.seed, 0, resident, STORM_HOT_RATE, total, 0.0);
    let frames = vec![plan
        .iter()
        .map(|p| Frame::privatize(p.due_ns, resident[p.key], &p.inputs))
        .collect::<Vec<Frame>>()];
    let mut hot = connect_n(server.addr, 1)?;
    let addr = server.addr;
    let start = Instant::now() + Duration::from_millis(2);
    let (hot_stats, storm_stats) = std::thread::scope(|scope| {
        let hot_side =
            scope.spawn(|| client::open_loop(&mut hot, &frames, start, Duration::from_secs(5)));
        let storm_side = scope.spawn(|| {
            let mut storm_sent = 0;
            std::thread::sleep((start + WARMUP).saturating_duration_since(Instant::now()));
            storm(addr, keys, &mut storm_sent)
        });
        (
            hot_side.join().expect("generator thread panicked"),
            storm_side.join().expect("storm thread panicked"),
        )
    });
    let hot_stats = hot_stats
        .map_err(|e| io_err("open loop", e))?
        .pop()
        .expect("one stream");
    let storm_stats = storm_stats?;
    *sent += keys.len() as u64 + hot_stats.attempted;
    out.absorb_loop(&hot_stats);
    let samples = timed(&[&hot_stats], WARMUP);
    late.extend(lateness(&[&hot_stats], WARMUP));
    *out.live
        .entry("net.privatize_samples".into())
        .or_insert(0.0) += samples.len() as f64;
    wl.entry("wl.privatize_p99_us")
        .or_default()
        .push(windowed_p99(&samples, Duration::from_secs(1)) / 1e3);
    let phase = Phase {
        p50_ns: p50(&samples),
        draws_per_s: hot_stats.draws as f64 / total,
    };
    if out.streams.is_empty() {
        out.streams = vec![(resident.to_vec(), plan, hot_stats)];
    }
    Ok((phase, storm_stats))
}

/// Deltas of the server's own counters across a run.
#[derive(Default)]
struct Counters {
    frames: f64,
    decode_errors: f64,
    rejected: f64,
    lp_solves: f64,
    coalesced: f64,
    crash_seeded: f64,
    hits: f64,
    misses: f64,
    warm_seeded: f64,
}

impl Counters {
    /// Add the deltas between two scrapes, checking the frame count against
    /// the requests the client sent in between.
    fn add(
        &mut self,
        before: &BTreeMap<String, f64>,
        after: &BTreeMap<String, f64>,
        sent: u64,
        out: &mut Outcome,
    ) {
        let d = |prefix: &str| server::delta(before, after, prefix);
        let frames = d("cpm_wire_requests_total");
        if frames as u64 != sent {
            out.errors.push(format!(
                "server counted {frames} frames; the client sent {sent} requests"
            ));
        }
        self.frames += frames;
        self.decode_errors += d("cpm_net_frame_decode_errors_total");
        self.rejected += d("cpm_collect_rejected_total")
            + d("cpm_report_oversized_total")
            + d("cpm_report_rate_limited_total");
        self.lp_solves += d("cpm_lp_solves_total");
        self.coalesced += d("cpm_cache_coalesced_total");
        self.crash_seeded += d("cpm_lp_crash_seeded_total");
        self.hits += d("cpm_cache_hits_total");
        self.misses += d("cpm_cache_misses_total");
        self.warm_seeded += d("cpm_cache_warm_seeded_total");
    }

    /// The `srv.*` and `cache.*` layer metrics.
    fn record(&self, out: &mut Outcome) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        for (name, value) in [
            ("srv.frames", self.frames),
            ("srv.decode_errors", self.decode_errors),
            ("srv.reports_rejected", self.rejected),
            ("srv.lp_solves", self.lp_solves),
            ("srv.coalesced", self.coalesced),
            ("srv.crash_seeded", self.crash_seeded),
            ("cache.hit_ratio", ratio(self.hits, self.hits + self.misses)),
            (
                "cache.warm_seeded_ratio",
                ratio(self.warm_seeded, self.lp_solves),
            ),
        ] {
            out.live.insert(name.into(), value);
        }
    }
}

/// A snapshot file of the 16 hot designs for `CPM_WARM_FILE`, written once
/// per checkout (outside every timed part) and reused.
pub fn hot_snapshot(dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join("hot16.snapshot");
    let keys = schedule::hot_keys();
    let cache = DesignCache::new(64);
    if path.exists() && cache.load_snapshot_file(&path).is_ok() && cache.len() == keys.len() {
        return Ok(path);
    }
    let designs = design_all(&keys)?;
    let tmp = dir.join("hot16.snapshot.tmp");
    cpm_serve::snapshot::write_file(&tmp, &designs).map_err(|e| io_err("writing snapshot", e))?;
    std::fs::rename(&tmp, &path).map_err(|e| io_err("renaming snapshot", e))?;
    Ok(path)
}
