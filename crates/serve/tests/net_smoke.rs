//! Release-mode reactor smoke tests.
//!
//! These are `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI
//! runs them explicitly with
//! `cargo test --release -p cpm-serve --test net_smoke -- --ignored`.
//!
//! Covered:
//!
//! * ≥1k concurrent connections served in-process by a reactor sized to
//!   exactly two worker threads (the thread census proves concurrency is
//!   bounded by file descriptors, not threads).  The census reads only the
//!   threads that appeared after its baseline, by name, so the other test's
//!   threads and libtest's own do not disturb it when both share a process;
//! * 10k idle connections held open against a real `serve_tcp` process that
//!   stays responsive and keeps a flat thread count — the ISSUE's 10k-idle
//!   acceptance demo.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_serve::net::NetConfig;
use cpm_serve::prelude::*;
use cpm_serve::proto::{self, Op, ProtoConfig};

/// Threads currently alive in process `pid` (`/proc/<pid>/status`).
fn thread_count_of(pid: &str) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("procfs status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// `(task id, comm)` of every thread alive in this process
/// (`/proc/self/task/*/comm`).  A thread that exits mid-scan is skipped.
fn threads_of_self() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task list")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            let tid = entry.file_name().to_string_lossy().into_owned();
            Some((tid, comm.trim_end().to_string()))
        })
        .collect()
}

/// The names of the threads that appeared since `baseline`, after checking
/// that none of them is left with an unnamed thread's comm.  Linux copies a
/// new thread's comm from the thread that spawned it, so an unnamed spawn
/// shows up as the process's main comm or the spawning test thread's comm.
/// A named thread sets its own comm once it starts running, so the census
/// gives fresh threads a moment to do that before calling one unnamed.
fn new_thread_names(baseline: &HashSet<String>) -> Vec<String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .expect("procfs comm")
            .trim_end()
            .to_string()
    };
    let unnamed = [read("/proc/self/comm"), read("/proc/thread-self/comm")];
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let names: Vec<String> = threads_of_self()
            .into_iter()
            .filter(|(tid, _)| !baseline.contains(tid))
            .map(|(_, comm)| comm)
            .collect();
        if !names.iter().any(|name| unnamed.contains(name)) {
            return names;
        }
        assert!(
            Instant::now() < deadline,
            "a new thread is left with the unnamed comm of {unnamed:?}: {names:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Of the threads new since `baseline`, the ones the server crates started
/// (every server thread is named `cpm-*`).  Named threads of other tests and
/// of libtest are ignored; unnamed ones fail the census.
fn new_server_threads(baseline: &HashSet<String>) -> Vec<String> {
    let mut names: Vec<String> = new_thread_names(baseline)
        .into_iter()
        .filter(|name| name.starts_with("cpm-"))
        .collect();
    names.sort();
    names
}

/// Length-prefix one payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One framed binary stats round-trip over an established stream.
fn stats_roundtrip(stream: &mut TcpStream) {
    let payload = proto::encode_request(&Op::Stats).expect("stats encodes");
    stream.write_all(&frame(&payload)).expect("request writes");
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("response body");
    let (_, response) = proto::decode_response(&body).expect("stats response decodes");
    assert!(response.ok, "stats failed: {}", response.error);
}

fn connect_with_retry(addr: std::net::SocketAddr) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                return stream;
            }
            Err(err) if Instant::now() < deadline => {
                // Transient backlog overflow while the reactor drains accepts.
                let _ = err;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(err) => panic!("connect to {addr} failed past deadline: {err}"),
        }
    }
}

#[test]
#[ignore = "release-mode network smoke test; run explicitly (see CI workflow)"]
fn a_thousand_concurrent_connections_ride_two_worker_threads() {
    const CONNS: usize = 1_000;
    const WORKERS: usize = 2;

    let baseline: HashSet<String> = threads_of_self().into_iter().map(|(tid, _)| tid).collect();
    let engine = Arc::new(Engine::with_defaults());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let config = NetConfig {
        workers: WORKERS,
        max_connections: 16_384,
        idle_timeout: None,
        proto: ProtoConfig::default(),
    };
    let server = Server::tcp_with(engine, listener, config).expect("server spawns");
    let addr = server.local_addr().expect("tcp addr");

    let expected: Vec<String> = (0..WORKERS).map(|id| format!("cpm-net-{id}")).collect();
    assert_eq!(
        new_server_threads(&baseline),
        expected,
        "the reactor serves from exactly the configured worker set"
    );

    // Establish every connection before the first round-trip, so all 1k are
    // concurrently open while being served.
    let started = Instant::now();
    let mut streams: Vec<TcpStream> = (0..CONNS).map(|_| connect_with_retry(addr)).collect();
    for stream in &mut streams {
        stats_roundtrip(stream);
    }
    let elapsed = started.elapsed();

    assert_eq!(
        new_server_threads(&baseline),
        expected,
        "serving {CONNS} concurrent connections must not spawn extra threads"
    );

    drop(streams);
    let summary = server.stop();
    assert_eq!(summary.connections, CONNS as u64);
    assert_eq!(summary.frames, CONNS as u64);
    println!(
        "net_smoke: {CONNS} concurrent connections on {WORKERS} threads, \
         established+served in {:.2}s",
        elapsed.as_secs_f64()
    );
}

/// A `serve_tcp` child that is killed even when the test panics.
struct ServerProcess {
    child: Child,
    addr: std::net::SocketAddr,
}

impl ServerProcess {
    fn spawn(env: &[(&str, &str)]) -> ServerProcess {
        let mut command = Command::new(env!("CARGO_BIN_EXE_serve_tcp"));
        command
            .env_remove("CPM_SERVE_WARM")
            .env_remove("CPM_WARM_FILE")
            .env_remove("CPM_COLLECT_FLUSH_SECS")
            .env("CPM_SERVE_ADDR", "127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, value) in env {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("serve_tcp spawns");

        // The binary prints "cpm-serve: listening on 127.0.0.1:PORT" once the
        // listener is bound; parse the ephemeral port from that line.
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve_tcp announces its listener")
                .expect("stderr line");
            if let Some(rest) = line.strip_prefix("cpm-serve: listening on ") {
                break rest.trim().parse().expect("listen address parses");
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.  The
        // thread is named so the in-process thread census can tell it from
        // an unnamed spawn when both tests share a process.
        std::thread::Builder::new()
            .name("net-smoke-drain".to_string())
            .spawn(move || for _ in lines {})
            .expect("stderr drain spawns");
        ServerProcess { child, addr }
    }

    fn threads(&self) -> usize {
        thread_count_of(&self.child.id().to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
#[ignore = "release-mode network smoke test; run explicitly (see CI workflow)"]
fn ten_thousand_idle_connections_stay_responsive_on_a_flat_thread_count() {
    const IDLE: usize = 10_000;
    const WORKERS: usize = 2;

    let server = ServerProcess::spawn(&[
        ("CPM_NET_WORKERS", "2"),
        ("CPM_NET_MAX_CONNS", "16000"),
        ("CPM_IDLE_TIMEOUT_SECS", "600"),
    ]);

    let started = Instant::now();
    let mut idle: Vec<TcpStream> = (0..IDLE).map(|_| connect_with_retry(server.addr)).collect();
    let established = started.elapsed();

    // Every connection is open and idle; the server must still answer new
    // work promptly and without growing its thread count.
    let threads_under_load = server.threads();
    assert!(
        threads_under_load <= WORKERS + 6,
        "expected a flat thread count under {IDLE} idle connections, got {threads_under_load}"
    );

    let probe_started = Instant::now();
    for stream in idle.iter_mut().step_by(1_000) {
        stats_roundtrip(stream);
    }
    let probe_elapsed = probe_started.elapsed();
    assert!(
        probe_elapsed < Duration::from_secs(5),
        "stats probes under {IDLE} idle connections took {probe_elapsed:?}"
    );

    println!(
        "net_smoke: {IDLE} idle connections established in {:.2}s; \
         {} server threads; {} probes served in {:.1}ms",
        established.as_secs_f64(),
        threads_under_load,
        idle.len().div_ceil(1_000),
        probe_elapsed.as_secs_f64() * 1e3
    );
}
