//! Socket front ends: a readiness-driven poll reactor serving the protocol
//! state machine of [`crate::proto`] over TCP or unix-domain sockets.
//!
//! One [`Engine`] serves any number of connections on a **fixed-size worker
//! set** (no thread per connection): each worker owns a slice of the
//! connections outright and drives them with `poll(2)` over nonblocking
//! sockets (the workspace's only unsafe OS surface, wrapped by `cpm-sys`).
//! Worker 0 additionally owns the nonblocking listener; accepted sockets are
//! handed round-robin to the workers through per-worker injection queues,
//! each paired with a wake pipe so a sleeping worker picks its new
//! connections up immediately.
//!
//! Per connection the worker keeps a [`ProtoConnection`] — the same pull-based
//! state machine the blocking stdio front end drives — plus read/write
//! buffers, so ten thousand idle connections cost ten thousand file
//! descriptors and a few kilobytes each, not ten thousand OS threads.
//! Connections idle past [`NetConfig::idle_timeout`] are reaped.  A `shutdown`
//! op closes *that connection only* (after its acknowledgement flushes); the
//! listener keeps accepting.  [`Server::stop`] signals every worker through
//! its wake pipe and drains gracefully: pending responses are flushed
//! best-effort, every socket is closed, and the workers are joined.
//! [`Server::wait`] parks the caller on the worker set forever (the
//! `serve_tcp` binary's main thread does this).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cpm_sys::{poll_ready, PollFd, POLLIN, POLLOUT};

use crate::engine::Engine;
use crate::proto::{ProtoConfig, ProtoConnection};

/// Cumulative totals across every connection a [`Server`] has finished serving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted and completed.
    pub connections: u64,
    /// Frames processed across all connections.
    pub frames: u64,
    /// Privatised draws returned across all connections.
    pub draws: u64,
}

#[derive(Default)]
struct Totals {
    connections: AtomicU64,
    frames: AtomicU64,
    draws: AtomicU64,
}

impl Totals {
    fn summary(&self) -> ServerSummary {
        ServerSummary {
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            draws: self.draws.load(Ordering::Relaxed),
        }
    }
}

/// Reactor sizing and lifecycle knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Reactor worker threads (each owns its connections outright); at least 1.
    pub workers: usize,
    /// Ceiling on concurrently open connections across all workers;
    /// connections beyond it are closed at accept time.
    pub max_connections: usize,
    /// Close connections with no traffic for this long (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Per-connection protocol configuration (report rate limit, HTTP sniff).
    pub proto: ProtoConfig,
}

/// Default idle reap horizon: generous enough for interactive clients, finite
/// so leaked connections cannot pin file descriptors forever.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

/// Back-off window after an accept failure (e.g. fd exhaustion) or a
/// rejection burst at the connection ceiling, so the reactor does not spin on
/// a listener whose backlog it cannot drain productively.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Minimum interval between "connection limit reached" log lines; rejections
/// themselves are not limited, only the stderr noise they generate.
const CEILING_LOG_INTERVAL: Duration = Duration::from_secs(1);

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

impl Default for NetConfig {
    /// Defaults, each overridable from the environment: `CPM_NET_WORKERS`
    /// (default: available parallelism capped at 4), `CPM_NET_MAX_CONNS`
    /// (default 16384), `CPM_IDLE_TIMEOUT_SECS` (default 600; `0` disables),
    /// plus everything [`ProtoConfig::from_env`] reads.
    fn default() -> Self {
        let workers = env_usize("CPM_NET_WORKERS")
            .filter(|&w| w > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
                    .min(4)
            });
        let max_connections = env_usize("CPM_NET_MAX_CONNS")
            .filter(|&m| m > 0)
            .unwrap_or(16_384);
        let idle_timeout = match env_usize("CPM_IDLE_TIMEOUT_SECS") {
            Some(0) => None,
            Some(secs) => Some(Duration::from_secs(secs as u64)),
            None => Some(DEFAULT_IDLE_TIMEOUT),
        };
        NetConfig {
            workers,
            max_connections,
            idle_timeout,
            proto: ProtoConfig::from_env(),
        }
    }
}

/// A listener the generic reactor can drive: TCP or unix-domain.
trait Acceptor: Send + 'static {
    type Conn: io::Read + io::Write + AsRawFd + Send + 'static;
    fn accept_conn(&self) -> io::Result<Self::Conn>;
    fn shutdown_conn(conn: &Self::Conn);
    fn set_listener_nonblocking(&self) -> io::Result<()>;
    /// Make an accepted connection nonblocking (plus any per-socket options).
    fn configure_conn(conn: &Self::Conn) -> io::Result<()>;
    fn listener_fd(&self) -> RawFd;
}

impl Acceptor for TcpListener {
    type Conn = TcpStream;

    fn accept_conn(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }

    fn shutdown_conn(conn: &TcpStream) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }

    fn set_listener_nonblocking(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    /// Accepted sockets also get `TCP_NODELAY`: every response is one small
    /// write, and with Nagle on, a connection can fall into lockstep with the
    /// peer's delayed ACK, which adds a delayed-ACK timeout to each response.
    fn configure_conn(conn: &TcpStream) -> io::Result<()> {
        conn.set_nonblocking(true)?;
        conn.set_nodelay(true)
    }

    fn listener_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

impl Acceptor for std::os::unix::net::UnixListener {
    type Conn = UnixStream;

    fn accept_conn(&self) -> io::Result<Self::Conn> {
        self.accept().map(|(stream, _)| stream)
    }

    fn shutdown_conn(conn: &Self::Conn) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }

    fn set_listener_nonblocking(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn configure_conn(conn: &Self::Conn) -> io::Result<()> {
        conn.set_nonblocking(true)
    }

    fn listener_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// A running socket server: one engine, a fixed set of reactor workers.
pub struct Server {
    workers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    wakers: Vec<UnixStream>,
    totals: Arc<Totals>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Serve the engine over a bound TCP listener with default sizing.  Bind
    /// to port 0 to let the OS pick (the chosen address is
    /// [`Server::local_addr`]).
    pub fn tcp(engine: Arc<Engine>, listener: TcpListener) -> io::Result<Server> {
        Server::tcp_with(engine, listener, NetConfig::default())
    }

    /// Serve over TCP with explicit reactor sizing.
    pub fn tcp_with(
        engine: Arc<Engine>,
        listener: TcpListener,
        config: NetConfig,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        Server::spawn(engine, listener, Some(addr), config)
    }

    /// Serve the engine over a bound unix-domain listener with default sizing.
    pub fn unix(
        engine: Arc<Engine>,
        listener: std::os::unix::net::UnixListener,
    ) -> io::Result<Server> {
        Server::unix_with(engine, listener, NetConfig::default())
    }

    /// Serve over a unix-domain socket with explicit reactor sizing.
    pub fn unix_with(
        engine: Arc<Engine>,
        listener: std::os::unix::net::UnixListener,
        config: NetConfig,
    ) -> io::Result<Server> {
        Server::spawn(engine, listener, None, config)
    }

    fn spawn<A: Acceptor>(
        engine: Arc<Engine>,
        listener: A,
        tcp_addr: Option<SocketAddr>,
        config: NetConfig,
    ) -> io::Result<Server> {
        listener.set_listener_nonblocking()?;
        let worker_count = config.workers.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let totals = Arc::new(Totals::default());
        let active = Arc::new(AtomicUsize::new(0));

        let mut wake_readers = Vec::with_capacity(worker_count);
        let mut wakers = Vec::with_capacity(worker_count);
        let mut injectors: Vec<Arc<Mutex<VecDeque<A::Conn>>>> = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            wake_readers.push(rx);
            wakers.push(tx);
            injectors.push(Arc::new(Mutex::new(VecDeque::new())));
        }
        let lanes: Vec<Lane<A::Conn>> = injectors
            .iter()
            .zip(&wakers)
            .map(|(injector, waker)| {
                Ok(Lane {
                    injector: Arc::clone(injector),
                    waker: waker.try_clone()?,
                })
            })
            .collect::<io::Result<_>>()?;
        cpm_obs::gauge!("cpm_net_workers").set(worker_count as i64);

        let mut workers = Vec::with_capacity(worker_count);
        let mut listener = Some(listener);
        let mut lanes = Some(lanes);
        for (id, wake_rx) in wake_readers.into_iter().enumerate() {
            let acceptor = if id == 0 {
                Some(AcceptState {
                    listener: listener.take().expect("worker 0 takes the listener"),
                    lanes: lanes.take().expect("worker 0 takes the lanes"),
                    rr: 0,
                    last_ceiling_log: None,
                    backoff_until: None,
                })
            } else {
                None
            };
            let reactor = Reactor::<A> {
                engine: Arc::clone(&engine),
                wake_rx,
                injector: Arc::clone(&injectors[id]),
                acceptor,
                stop: Arc::clone(&stop),
                totals: Arc::clone(&totals),
                active: Arc::clone(&active),
                config,
                conns: HashMap::new(),
                next_token: 0,
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cpm-net-{id}"))
                    .spawn(move || reactor.run())?,
            );
        }
        Ok(Server {
            workers,
            stop,
            wakers,
            totals,
            tcp_addr,
        })
    }

    /// The TCP address the server is listening on (`None` for unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Totals so far (connections still in flight are not counted).
    pub fn summary(&self) -> ServerSummary {
        self.totals.summary()
    }

    /// Stop accepting, drain and close every connection, join the workers, and
    /// return the totals.
    pub fn stop(mut self) -> ServerSummary {
        self.shutdown();
        self.totals.summary()
    }

    /// Park the caller on the worker set until the process dies — the main
    /// thread of a server binary ends up here.
    pub fn wait(mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Each worker observes the flag at its next wake-up; the pipe write
        // forces that wake-up immediately (a full pipe means the worker has
        // wake-ups pending anyway).
        for waker in &self.wakers {
            let _ = (&*waker).write(&[1]);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's handle to another worker: its injection queue and wake pipe.
struct Lane<C> {
    injector: Arc<Mutex<VecDeque<C>>>,
    waker: UnixStream,
}

/// Worker 0's accept-side state.
struct AcceptState<A: Acceptor> {
    listener: A,
    lanes: Vec<Lane<A::Conn>>,
    rr: usize,
    last_ceiling_log: Option<Instant>,
    backoff_until: Option<Instant>,
}

/// One connection as a reactor worker sees it.
struct Conn<C> {
    stream: C,
    proto: ProtoConnection,
    last_activity: Instant,
    peer_eof: bool,
}

enum CloseKind {
    /// Peer finished cleanly (or drain/shutdown closed an intact connection):
    /// counted into the server totals.
    Clean,
    /// Reaped by the idle timeout; counted like a clean close.
    Idle,
    /// Protocol or I/O failure; counted in `cpm_net_conn_errors_total` only.
    Error(String),
}

enum Outcome {
    Keep,
    Close(CloseKind),
}

struct Reactor<A: Acceptor> {
    engine: Arc<Engine>,
    wake_rx: UnixStream,
    injector: Arc<Mutex<VecDeque<A::Conn>>>,
    acceptor: Option<AcceptState<A>>,
    stop: Arc<AtomicBool>,
    totals: Arc<Totals>,
    active: Arc<AtomicUsize>,
    config: NetConfig,
    conns: HashMap<u64, Conn<A::Conn>>,
    next_token: u64,
}

impl<A: Acceptor> Reactor<A> {
    fn run(mut self) {
        let mut read_buf = vec![0u8; 64 * 1024];
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<u64> = Vec::new();
        // The wake pipe is read, and the injector locked, only when poll
        // reports a wake-up (and once before the first poll): on a plain I/O
        // wake both would be a read returning EAGAIN and an empty queue.
        let mut woken = true;
        loop {
            if woken {
                self.drain_wake();
                self.pull_injected();
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }

            pollfds.clear();
            tokens.clear();
            pollfds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let mut listener_slot = None;
            if let Some(accept) = &self.acceptor {
                let backing_off = accept
                    .backoff_until
                    .is_some_and(|until| Instant::now() < until);
                if !backing_off {
                    listener_slot = Some(pollfds.len());
                    pollfds.push(PollFd::new(accept.listener.listener_fd(), POLLIN));
                }
            }
            let conn_base = pollfds.len();
            let mut eager_close: Vec<u64> = Vec::new();
            for (&token, conn) in &self.conns {
                let mut events = 0i16;
                // After peer EOF only the unflushed output matters; EOF keeps
                // the socket permanently readable, so re-arming POLLIN would
                // spin the worker until the peer drains its side.  A closing
                // connection stops reading too: the state machine discards
                // post-close bytes anyway, and a peer that keeps writing must
                // not keep refreshing the idle clock while refusing to read
                // the response that would let the connection close.
                if !conn.peer_eof && !conn.proto.closing() {
                    events |= POLLIN;
                }
                if !conn.proto.pending_output().is_empty() {
                    events |= POLLOUT;
                }
                if events == 0 {
                    eager_close.push(token);
                    continue;
                }
                pollfds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(token);
            }
            for token in eager_close {
                self.close(token, CloseKind::Clean);
            }

            match poll_ready(&mut pollfds, self.poll_timeout_ms()) {
                Ok(_) => woken = pollfds[0].readable(),
                Err(error) => {
                    eprintln!("cpm-serve: poll failed: {error}");
                    std::thread::sleep(Duration::from_millis(10));
                    woken = true;
                    continue;
                }
            }

            if let Some(slot) = listener_slot {
                if pollfds[slot].readable() {
                    self.accept_ready();
                }
            }
            for (i, &token) in tokens.iter().enumerate() {
                let slot = &pollfds[conn_base + i];
                let readable = slot.readable();
                let writable = slot.writable();
                if readable || writable {
                    self.service(token, readable, writable, &mut read_buf);
                }
            }
            self.sweep_idle();
        }
        self.drain();
    }

    /// Consume queued wake-up bytes so the pipe does not stay readable (a
    /// short read has emptied it).
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(n) if n == buf.len() => continue,
                Ok(_) => return,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Register connections the acceptor queued for this worker.
    fn pull_injected(&mut self) {
        loop {
            let stream = self.injector.lock().expect("injector poisoned").pop_front();
            let Some(stream) = stream else { return };
            cpm_obs::counter!("cpm_net_connections_total").inc();
            cpm_obs::gauge!("cpm_net_active_connections").add(1);
            let token = self.next_token;
            self.next_token += 1;
            self.conns.insert(
                token,
                Conn {
                    stream,
                    proto: ProtoConnection::new(self.config.proto),
                    last_activity: Instant::now(),
                    peer_eof: false,
                },
            );
        }
    }

    fn poll_timeout_ms(&self) -> i32 {
        let mut timeout = Duration::from_millis(1000);
        if let Some(accept) = &self.acceptor {
            if let Some(until) = accept.backoff_until {
                let remaining = until.saturating_duration_since(Instant::now());
                timeout = timeout.min(remaining.max(Duration::from_millis(1)));
            }
        }
        timeout.as_millis() as i32
    }

    /// Accept until the backlog is dry, assigning connections round-robin.
    fn accept_ready(&mut self) {
        let Some(accept) = self.acceptor.as_mut() else {
            return;
        };
        loop {
            let conn = match accept.listener.accept_conn() {
                Ok(conn) => conn,
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    accept.backoff_until = None;
                    return;
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => {
                    // Persistent failures (e.g. fd exhaustion under load)
                    // would otherwise re-arm the listener instantly and spin.
                    eprintln!("cpm-serve: accept failed: {error}");
                    accept.backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            };
            if self.active.load(Ordering::Relaxed) >= self.config.max_connections {
                // Close immediately (the client sees EOF and can retry)
                // instead of queueing unboundedly, then back off: at the
                // ceiling the next accept would almost certainly be rejected
                // too.
                let now = Instant::now();
                if accept
                    .last_ceiling_log
                    .is_none_or(|last| now - last >= CEILING_LOG_INTERVAL)
                {
                    let limit = self.config.max_connections;
                    eprintln!("cpm-serve: at the {limit}-connection limit; rejecting");
                    accept.last_ceiling_log = Some(now);
                }
                cpm_obs::counter!("cpm_net_rejections_total").inc();
                A::shutdown_conn(&conn);
                accept.backoff_until = Some(now + ACCEPT_BACKOFF);
                return;
            }
            if let Err(error) = A::configure_conn(&conn) {
                eprintln!("cpm-serve: configuring connection failed: {error}");
                continue;
            }
            self.active.fetch_add(1, Ordering::Relaxed);
            let lane = &accept.lanes[accept.rr % accept.lanes.len()];
            accept.rr += 1;
            lane.injector
                .lock()
                .expect("injector poisoned")
                .push_back(conn);
            // A full wake pipe already guarantees a pending wake-up.
            let _ = (&lane.waker).write(&[1]);
        }
    }

    /// Drive one ready connection: flush, read + ingest, flush again, close
    /// if the protocol or the peer is done.
    fn service(&mut self, token: u64, readable: bool, writable: bool, buf: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut outcome = Outcome::Keep;
        if writable {
            outcome = flush(conn);
        }
        if matches!(outcome, Outcome::Keep) && readable {
            outcome = fill(&self.engine, conn, buf);
        }
        if matches!(outcome, Outcome::Keep) {
            outcome = flush(conn);
        }
        if matches!(outcome, Outcome::Keep)
            && (conn.proto.wants_close()
                || (conn.peer_eof && conn.proto.pending_output().is_empty()))
        {
            outcome = Outcome::Close(CloseKind::Clean);
        }
        if let Outcome::Close(kind) = outcome {
            self.close(token, kind);
        }
    }

    /// Reap connections idle past the configured horizon.
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| now.duration_since(conn.last_activity) > timeout)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            cpm_obs::counter!("cpm_net_idle_closed_total").inc();
            self.close(token, CloseKind::Idle);
        }
    }

    /// Graceful drain on stop: flush what can be flushed without blocking,
    /// classify each connection (clean unless it died mid-frame), close all.
    fn drain(&mut self) {
        self.pull_injected();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let kind = match self
                .conns
                .get_mut(&token)
                .expect("token collected from the live map")
                .proto
                .finish()
            {
                Ok(()) => CloseKind::Clean,
                Err(error) => CloseKind::Error(error.to_string()),
            };
            self.close(token, kind);
        }
    }

    fn close(&mut self, token: u64, kind: CloseKind) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        // Best-effort final flush — a drained `shutdown` ack or error response
        // should reach a reading peer.
        let _ = flush(&mut conn);
        self.active.fetch_sub(1, Ordering::Relaxed);
        cpm_obs::gauge!("cpm_net_active_connections").add(-1);
        match kind {
            CloseKind::Clean | CloseKind::Idle => {
                let summary = conn.proto.summary();
                self.totals.connections.fetch_add(1, Ordering::Relaxed);
                self.totals
                    .frames
                    .fetch_add(summary.frames, Ordering::Relaxed);
                self.totals
                    .draws
                    .fetch_add(summary.draws, Ordering::Relaxed);
            }
            CloseKind::Error(message) => {
                eprintln!("cpm-serve: connection failed: {message}");
                cpm_obs::counter!("cpm_net_conn_errors_total").inc();
                cpm_obs::error("net", format!("connection failed: {message}"));
                cpm_obs::flight::dump("frontend connection error");
            }
        }
    }
}

/// Read what the socket has, feeding the state machine.  A read that does
/// not fill `buf` drained the socket, so reading stops there instead of
/// paying for a read that returns `EAGAIN`: poll is level-triggered and
/// reports anything that arrives later, EOF included.
fn fill<C: io::Read + io::Write>(engine: &Engine, conn: &mut Conn<C>, buf: &mut [u8]) -> Outcome {
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                conn.peer_eof = true;
                return match conn.proto.finish() {
                    // The caller closes once pending output is flushed.
                    Ok(()) => Outcome::Keep,
                    Err(error) => Outcome::Close(CloseKind::Error(error.to_string())),
                };
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                cpm_obs::counter!("cpm_net_bytes_in_total").add(n as u64);
                if let Err(error) = conn.proto.ingest(engine, &buf[..n]) {
                    return Outcome::Close(CloseKind::Error(error.to_string()));
                }
                if conn.proto.closing() || n < buf.len() {
                    // Post-shutdown bytes are never processed; stop reading.
                    // A short read left nothing behind.
                    return Outcome::Keep;
                }
            }
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => return Outcome::Keep,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            Err(error) => return Outcome::Close(CloseKind::Error(error.to_string())),
        }
    }
}

/// Write as much pending output as the socket accepts.
fn flush<C: io::Read + io::Write>(conn: &mut Conn<C>) -> Outcome {
    loop {
        let pending = conn.proto.pending_output();
        if pending.is_empty() {
            return Outcome::Keep;
        }
        match conn.stream.write(pending) {
            Ok(0) => {
                return Outcome::Close(CloseKind::Error(
                    "connection refused response bytes".to_string(),
                ))
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                cpm_obs::counter!("cpm_net_bytes_out_total").add(n as u64);
                conn.proto.advance_output(n);
            }
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => return Outcome::Keep,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            Err(error) => return Outcome::Close(CloseKind::Error(error.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::frontend::{read_frame, write_frame, WireResponse};
    use std::io::{Read, Write};

    fn roundtrip<S: Read + Write>(stream: &mut S, request: &str) -> WireResponse {
        write_frame(stream, request.as_bytes()).unwrap();
        let payload = read_frame(stream).unwrap().expect("a response frame");
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    #[test]
    fn tcp_server_serves_and_stops() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::tcp(Arc::clone(&engine), listener).unwrap();
        let addr = server.local_addr().unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        let response = roundtrip(
            &mut stream,
            r#"{"op": "privatize", "n": 6, "alpha": 0.5, "inputs": [0, 3, 6]}"#,
        );
        assert!(response.ok, "error: {}", response.error);
        assert_eq!(response.outputs.len(), 3);
        roundtrip(&mut stream, r#"{"op": "shutdown"}"#);
        drop(stream);

        let summary = server.stop();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.frames, 2);
        assert_eq!(summary.draws, 3);
    }

    #[test]
    fn unix_server_serves_over_a_socket_file() {
        use std::os::unix::net::{UnixListener, UnixStream};
        let path = std::env::temp_dir().join(format!("cpm-serve-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let listener = UnixListener::bind(&path).unwrap();
        let server = Server::unix(Arc::clone(&engine), listener).unwrap();

        let mut stream = UnixStream::connect(&path).unwrap();
        let response = roundtrip(
            &mut stream,
            r#"{"op": "privatize", "n": 4, "alpha": 0.5, "inputs": [2]}"#,
        );
        assert!(response.ok, "error: {}", response.error);
        assert_eq!(response.outputs.len(), 1);
        drop(stream);

        let summary = server.stop();
        assert_eq!(summary.connections, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn http_metrics_scrape_rides_the_reactor() {
        cpm_obs::counter!("cpm_net_connections_total").inc();
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::tcp(Arc::clone(&engine), listener).unwrap();
        let addr = server.local_addr().unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
        assert!(body.contains("cpm_net_connections_total"), "{body}");
        server.stop();
    }

    #[test]
    fn reactor_uses_the_configured_worker_count() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = NetConfig {
            workers: 3,
            ..NetConfig::default()
        };
        let server = Server::tcp_with(Arc::clone(&engine), listener, config).unwrap();
        assert_eq!(server.workers.len(), 3);
        let addr = server.local_addr().unwrap();
        // Several concurrent connections all get served despite the fixed
        // worker set.
        let mut streams: Vec<TcpStream> =
            (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for stream in &mut streams {
            let response = roundtrip(stream, r#"{"op": "stats"}"#);
            assert!(response.ok, "error: {}", response.error);
        }
        drop(streams);
        let summary = server.stop();
        assert_eq!(summary.connections, 6);
        assert_eq!(summary.frames, 6);
    }
}
