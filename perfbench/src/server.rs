//! The server under test: spawn `serve_tcp`, time its set-up, scrape its
//! `GET /metrics`, read its peak RSS, and stop it.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cpm_serve::Op;

use crate::client;
use crate::sys;

/// How long a server may take from spawn to its first `stats` answer.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `serve_tcp` process; dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Seconds from spawn to the first successful `stats` answer.
    pub setup_s: f64,
}

impl Server {
    /// Spawn `bin` with `env` on an ephemeral loopback port, two reactor
    /// workers, and no inherited `CPM_*` settings; stderr goes to `log`.
    pub fn spawn(bin: &Path, env: &[(&str, String)], log: &Path) -> io::Result<Server> {
        let mut command = Command::new(bin);
        for (name, _) in std::env::vars() {
            if name.starts_with("CPM_") {
                command.env_remove(name);
            }
        }
        command
            .env("CPM_SERVE_ADDR", "127.0.0.1:0")
            .env("CPM_NET_WORKERS", "2")
            .envs(env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log)?);
        // SAFETY: the hook runs in the child between fork and exec and only
        // makes one async-signal-safe system call.
        unsafe {
            command.pre_exec(sys::kill_with_parent);
        }
        let started = Instant::now();
        let child = command.spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        server.addr = wait_for_listen(&mut server.child, log, started)?;
        let stats = client::cpmf(&Op::Stats);
        loop {
            let answered = client::connect(server.addr)
                .and_then(|mut stream| client::rpc(&mut stream, &stats))
                .map(|payload| client::ok_response(&payload).is_ok())
                .unwrap_or(false);
            if answered {
                break;
            }
            if started.elapsed() > SETUP_TIMEOUT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no stats answer"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) in megabytes.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Wait for the `listening on <addr>` line `serve_tcp` prints once boot is
/// done, failing early if the process exits instead.
fn wait_for_listen(child: &mut Child, log: &Path, started: Instant) -> io::Result<SocketAddr> {
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(addr) = text
            .lines()
            .find_map(|line| line.strip_prefix("cpm-serve: listening on "))
            .and_then(|addr| addr.trim().parse().ok())
        {
            return Ok(addr);
        }
        if let Some(status) = child.try_wait()? {
            return Err(io::Error::other(format!(
                "serve_tcp exited during boot ({status}): {text}"
            )));
        }
        if started.elapsed() > SETUP_TIMEOUT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "serve_tcp never listened",
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Spawn `count` servers one after another and keep the last; returns it
/// with every set-up time (set-up is noisy; one spawn is one sample).
pub fn spawn_several(
    bin: &Path,
    env: &[(&str, String)],
    log_dir: &Path,
    count: usize,
) -> io::Result<(Server, Vec<f64>)> {
    let mut setups = Vec::with_capacity(count);
    let mut last = None;
    for i in 0..count {
        let log: PathBuf = log_dir.join(format!("server-{i}.log"));
        let server = Server::spawn(bin, env, &log)?;
        setups.push(server.setup_s);
        last = Some(server); // the previous server is killed here
    }
    Ok((last.expect("at least one spawn"), setups))
}

/// Every unlabelled-or-labelled sample line of a `GET /metrics` scrape.
pub fn scrape(addr: SocketAddr) -> io::Result<BTreeMap<String, f64>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP body"))?;
    Ok(body
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Sum of every sample whose name starts with `prefix`, after minus before.
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, prefix: &str) -> f64 {
    let sum = |m: &BTreeMap<String, f64>| -> f64 {
        m.iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    sum(after) - sum(before)
}
