//! The socket front end under concurrency: one engine, one TCP listener, N
//! client threads hammering the same protocol — every client gets correct
//! responses, the shared cache designs each key exactly once, and the server
//! shuts down cleanly with accurate totals.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use cpm_serve::frontend::{read_frame, write_frame, WireResponse};
use cpm_serve::prelude::*;

fn roundtrip<S: Read + Write>(stream: &mut S, request: &str) -> WireResponse {
    write_frame(stream, request.as_bytes()).unwrap();
    let payload = read_frame(stream).unwrap().expect("a response frame");
    serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap()
}

#[test]
fn concurrent_tcp_clients_share_one_engine_and_one_design_per_key() {
    let clients = 6;
    let engine = Arc::new(Engine::with_defaults());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::tcp(Arc::clone(&engine), listener).unwrap();
    let addr = server.local_addr().unwrap();

    std::thread::scope(|scope| {
        for t in 0..clients {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                // Every client asks for the same LP key (WM at n = 6) and a
                // client-specific GM key.
                let wm = roundtrip(
                    &mut stream,
                    r#"{"op": "privatize", "n": 6, "alpha": 0.9, "properties": "CM",
                        "inputs": [0, 3, 6]}"#,
                );
                assert!(wm.ok, "client {t}: {}", wm.error);
                assert_eq!(wm.outputs.len(), 3);
                assert!(wm.outputs.iter().all(|&o| o <= 6));

                let gm = roundtrip(
                    &mut stream,
                    &format!(
                        r#"{{"op": "privatize", "n": {}, "alpha": 0.5, "inputs": [1, 2]}}"#,
                        4 + t
                    ),
                );
                assert!(gm.ok, "client {t}: {}", gm.error);
                assert_eq!(gm.outputs.len(), 2);

                roundtrip(&mut stream, r#"{"op": "shutdown"}"#);
            });
        }
    });

    let summary = server.stop();
    assert_eq!(summary.connections, clients as u64);
    assert_eq!(summary.frames, clients as u64 * 3);
    assert_eq!(summary.draws, clients as u64 * 5);

    // Single flight held across connections: the WM key was designed once (the
    // only LP), and each distinct GM key once.
    let stats = engine.cache_stats();
    assert_eq!(stats.lp_solves, 1, "stats: {stats:?}");
    assert_eq!(stats.design_solves, 1 + clients as u64);
}

#[test]
fn stop_returns_even_with_an_idle_connection_open() {
    // A client that connects and then goes silent must not block shutdown: the
    // drain closes its socket, unblocking the connection thread's read.
    let engine = Arc::new(Engine::with_defaults());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::tcp(Arc::clone(&engine), listener).unwrap();
    let addr = server.local_addr().unwrap();

    let mut idle = TcpStream::connect(addr).unwrap();
    // One stats roundtrip proves the server accepted the connection and its
    // thread is live; then the client goes silent with the stream open.
    let response = roundtrip(&mut idle, r#"{"op": "stats"}"#);
    assert!(response.ok);

    let (sender, receiver) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let summary = server.stop();
        sender.send(summary).unwrap();
    });
    let summary = receiver
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("stop() must not hang on an idle connection");
    stopper.join().unwrap();
    assert_eq!(summary.connections, 1, "the idle connection closed cleanly");
    assert_eq!(summary.frames, 1, "just the synchronising stats frame");
    drop(idle);
}

#[test]
fn the_listener_outlives_individual_connection_shutdowns() {
    let engine = Arc::new(Engine::with_defaults());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::tcp(Arc::clone(&engine), listener).unwrap();
    let addr = server.local_addr().unwrap();

    // A client sends shutdown: its connection closes, the listener stays up.
    let mut first = TcpStream::connect(addr).unwrap();
    roundtrip(&mut first, r#"{"op": "shutdown"}"#);
    drop(first);

    // A second client connects fine afterwards.
    let mut second = TcpStream::connect(addr).unwrap();
    let response = roundtrip(
        &mut second,
        r#"{"op": "privatize", "n": 5, "alpha": 0.5, "inputs": [5]}"#,
    );
    assert!(response.ok, "error: {}", response.error);
    roundtrip(&mut second, r#"{"op": "stats"}"#);
    drop(second);

    let summary = server.stop();
    assert_eq!(summary.connections, 2);
}

/// Every accepted socket gets `TCP_NODELAY`.  The option lives on the server's
/// end of the connection, and client and server share this process, so the
/// test finds that end among the process's descriptors and reads it back.
#[cfg(target_os = "linux")]
#[test]
fn accepted_connections_have_tcp_nodelay_set() {
    use std::mem::ManuallyDrop;
    use std::os::fd::{FromRawFd, RawFd};

    let engine = Arc::new(Engine::with_defaults());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::tcp(Arc::clone(&engine), listener).unwrap();
    let addr = server.local_addr().unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    // One round trip proves the reactor has accepted and registered the socket.
    assert!(roundtrip(&mut client, r#"{"op": "stats"}"#).ok);
    let client_addr = client.local_addr().unwrap();

    let mut server_ends = 0;
    for entry in std::fs::read_dir("/proc/self/fd").unwrap() {
        let name = entry.unwrap().file_name();
        let Ok(fd) = name.to_string_lossy().parse::<RawFd>() else {
            continue;
        };
        let is_socket = std::fs::read_link(format!("/proc/self/fd/{fd}"))
            .is_ok_and(|target| target.to_string_lossy().starts_with("socket:"));
        if !is_socket {
            continue;
        }
        // SAFETY: the stream only borrows the descriptor for two getsockname
        // calls and a getsockopt; `ManuallyDrop` never closes it, so its
        // owner (the server, or another test) keeps sole ownership.
        let socket = ManuallyDrop::new(unsafe { TcpStream::from_raw_fd(fd) });
        if socket.local_addr().ok() == Some(addr) && socket.peer_addr().ok() == Some(client_addr) {
            assert!(
                socket.nodelay().unwrap(),
                "accepted socket lacks TCP_NODELAY"
            );
            server_ends += 1;
        }
    }
    assert_eq!(
        server_ends, 1,
        "the server's end of the connection was not found"
    );

    drop(client);
    server.stop();
}
