//! The client side of the wire protocol: framed blocking round trips, the
//! open-loop generator, the closed loop of the capacity phase, and the checks
//! every response must pass.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use cpm_core::SpecKey;
use cpm_serve::frontend::{read_frame, write_frame, WireResponse};
use cpm_serve::proto::{decode_response, encode_request};
use cpm_serve::Op;

use crate::sys;

/// Connect with Nagle off (every request is one small write).
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One blocking request/response round trip.
pub fn rpc(stream: &mut TcpStream, payload: &[u8]) -> io::Result<Vec<u8>> {
    write_frame(stream, payload)?;
    read_frame(stream)?.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))
}

/// A `CPMF` request payload for `op` (the benchmark only builds valid ops).
pub fn cpmf(op: &Op) -> Vec<u8> {
    encode_request(op).expect("benchmark ops are encodable")
}

pub fn privatize_op(key: SpecKey, inputs: &[u32]) -> Op {
    Op::Privatize {
        key,
        inputs: inputs.iter().map(|&i| i as usize).collect(),
    }
}

/// Decode a `CPMF` response and require `ok`.
pub fn ok_response(payload: &[u8]) -> Result<WireResponse, String> {
    let (_, response) = decode_response(payload)?;
    if !response.ok {
        return Err(format!("server refused: {}", response.error));
    }
    Ok(response)
}

/// Decode a JSON response (the `CPMR` acknowledgement) and require `ok`.
pub fn ok_json_response(payload: &[u8]) -> Result<WireResponse, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let response: WireResponse = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if !response.ok {
        return Err(format!("server refused: {}", response.error));
    }
    Ok(response)
}

/// The privatize check: exactly one output per input, each in `0..=n`.
pub fn check_privatize(payload: &[u8], inputs: usize, n: usize) -> Result<Vec<usize>, String> {
    let response = ok_response(payload)?;
    if response.outputs.len() != inputs {
        return Err(format!(
            "{} outputs for {inputs} inputs",
            response.outputs.len()
        ));
    }
    if let Some(bad) = response.outputs.iter().find(|&&o| o > n) {
        return Err(format!("output {bad} outside 0..={n}"));
    }
    Ok(response.outputs)
}

/// One request of an open-loop stream, encoded before the clock starts.
pub struct Frame {
    /// Due time after the stream starts.
    pub due: Duration,
    /// The length-prefixed frame bytes.
    pub bytes: Vec<u8>,
    /// Inputs in the request (outputs expected back).
    pub inputs: usize,
    /// Group size of its key.
    pub n: usize,
}

impl Frame {
    pub fn privatize(due_ns: u64, key: SpecKey, inputs: &[u32]) -> Frame {
        let payload = cpmf(&privatize_op(key, inputs));
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        Frame {
            due: Duration::from_nanos(due_ns),
            bytes,
            inputs: inputs.len(),
            n: key.n,
        }
    }
}

/// What one open-loop stream measured.  Times are nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct LoopStats {
    /// Per completed request: `(index, due, sent, received)`, as offsets from
    /// the stream start.  Latency is `received - due` (timed from the
    /// *scheduled* send); generator lateness is `sent - due`.
    pub spans: Vec<(u32, u64, u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub draws: u64,
    /// Requests still unanswered when the drain deadline passed (also
    /// counted in `failed`).
    pub timed_out: u64,
    /// The first check that failed, if any.
    pub error: Option<String>,
}

/// One connection's side of an open loop.
struct Side<'a> {
    stream: &'a mut TcpStream,
    plan: &'a [Frame],
    next: usize,
    inflight: VecDeque<(usize, Instant)>,
    outbuf: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    stats: LoopStats,
}

impl<'a> Side<'a> {
    /// One side per stream, each switched to nonblocking I/O.
    fn all(streams: &'a mut [TcpStream], plans: &'a [Vec<Frame>]) -> io::Result<Vec<Self>> {
        let mut sides = Vec::with_capacity(plans.len());
        for (stream, plan) in streams.iter_mut().zip(plans) {
            stream.set_nonblocking(true)?;
            sides.push(Side {
                stream,
                plan,
                next: 0,
                inflight: VecDeque::new(),
                outbuf: Vec::new(),
                out_pos: 0,
                inbuf: Vec::new(),
                stats: LoopStats {
                    spans: Vec::with_capacity(plan.len()),
                    ..LoopStats::default()
                },
            });
        }
        Ok(sides)
    }

    /// Put request `index` of the plan in the output buffer.
    fn enqueue(&mut self, index: usize, now: Instant) {
        self.outbuf.extend_from_slice(&self.plan[index].bytes);
        self.inflight.push_back((index, now));
        self.stats.attempted += 1;
    }

    fn send_due(&mut self, start: Instant, now: Instant) {
        while self.next < self.plan.len() && start + self.plan[self.next].due <= now {
            self.enqueue(self.next, now);
            self.next += 1;
        }
    }

    /// Poll interest: readable, and writable while output is buffered.
    fn poll_fd(&self) -> (i32, i16) {
        let events = if self.outbuf.is_empty() {
            sys::POLLIN
        } else {
            sys::POLLIN | sys::POLLOUT
        };
        (self.stream.as_raw_fd(), events)
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed")),
                Ok(written) => self.out_pos += written,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        self.outbuf.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Read everything that arrived and match responses to requests in
    /// order; the receive time is taken once per read.
    fn receive(&mut self, start: Instant, chunk: &mut [u8]) -> io::Result<()> {
        loop {
            let got = match self.stream.read(chunk) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            };
            let received = Instant::now();
            self.inbuf.extend_from_slice(&chunk[..got]);
            let mut at = 0;
            while self.inbuf.len() - at >= 4 {
                let len = u32::from_le_bytes(self.inbuf[at..at + 4].try_into().expect("4 bytes"))
                    as usize;
                if self.inbuf.len() - at < 4 + len {
                    break;
                }
                let payload = &self.inbuf[at + 4..at + 4 + len];
                at += 4 + len;
                let (index, sent) = self.inflight.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "response without a request")
                })?;
                let frame = &self.plan[index];
                match check_privatize(payload, frame.inputs, frame.n) {
                    Ok(outputs) => {
                        self.stats.draws += outputs.len() as u64;
                        self.stats.spans.push((
                            index as u32,
                            frame.due.as_nanos() as u64,
                            sent.duration_since(start).as_nanos() as u64,
                            received.duration_since(start).as_nanos() as u64,
                        ));
                    }
                    Err(message) => {
                        self.stats.failed += 1;
                        self.stats.error.get_or_insert(message);
                    }
                }
            }
            self.inbuf.drain(..at);
        }
    }

    fn done(&self) -> bool {
        self.next == self.plan.len() && self.inflight.is_empty()
    }

    /// Give the stream back in blocking mode, with what it measured.
    fn finish(self) -> io::Result<LoopStats> {
        self.stream.set_nonblocking(false)?;
        Ok(self.stats)
    }
}

/// Send each plan on its connection on schedule regardless of responses (an
/// open loop), from this one thread, reading responses as they arrive.
/// Requests still unanswered `drain` after the last one was due count as
/// failed.
pub fn open_loop(
    streams: &mut [TcpStream],
    plans: &[Vec<Frame>],
    start: Instant,
    drain: Duration,
) -> io::Result<Vec<LoopStats>> {
    sys::prepare_generator_thread();
    let last_due = plans
        .iter()
        .filter_map(|p| p.last().map(|f| f.due))
        .max()
        .unwrap_or_default();
    let deadline = start + last_due + drain;
    let mut sides = Side::all(streams, plans)?;
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        for side in &mut sides {
            side.send_due(start, now);
            side.flush()?;
        }
        if sides.iter().all(Side::done) {
            break;
        }
        if now >= deadline {
            for side in &mut sides {
                side.stats.timed_out = side.inflight.len() as u64;
                side.stats.failed += side.stats.timed_out;
            }
            break;
        }
        let wake = sides
            .iter()
            .filter(|s| s.next < s.plan.len())
            .map(|s| start + s.plan[s.next].due)
            .min()
            .unwrap_or(deadline);
        if wake > now {
            let fds: Vec<(i32, i16)> = sides.iter().map(Side::poll_fd).collect();
            sys::wait_fds(&fds, wake - now)?;
        }
        for side in &mut sides {
            side.receive(start, &mut chunk)?;
        }
    }
    sides.into_iter().map(Side::finish).collect()
}

/// Keep `window` requests in flight on each connection, taking each plan's
/// requests in turn (cycling) as soon as there is room, until `stop` after
/// `start`; then collect the answers still owed, for at most `drain`.  A
/// closed loop, whose pace the server sets, driven from this one thread.
/// Every answer is checked; its span's due time is the plan's (0 here).
pub fn closed_loop(
    streams: &mut [TcpStream],
    plans: &[Vec<Frame>],
    window: usize,
    start: Instant,
    stop: Duration,
    drain: Duration,
) -> io::Result<Vec<LoopStats>> {
    let mut sides = Side::all(streams, plans)?;
    let mut chunk = vec![0u8; 64 * 1024];
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    loop {
        let now = Instant::now();
        let open = now < start + stop;
        for side in &mut sides {
            while open && side.inflight.len() < window {
                side.enqueue(side.next % side.plan.len(), now);
                side.next += 1;
            }
            side.flush()?;
        }
        if !open && sides.iter().all(|s| s.inflight.is_empty()) {
            break;
        }
        if now >= start + stop + drain {
            for side in &mut sides {
                side.stats.timed_out = side.inflight.len() as u64;
                side.stats.failed += side.stats.timed_out;
            }
            break;
        }
        let fds: Vec<(i32, i16)> = sides.iter().map(Side::poll_fd).collect();
        sys::wait_fds(&fds, Duration::from_millis(10))?;
        for side in &mut sides {
            side.receive(start, &mut chunk)?;
        }
    }
    sides.into_iter().map(Side::finish).collect()
}
