//! A minimal HTTP/1.0 stats endpoint serving Prometheus text exposition.
//!
//! One extra thread per server, driven by the same [`Reactor`] abstraction
//! as the request front-end: the listener and every in-flight scrape
//! connection sit on one readiness loop, so the endpoint costs nothing
//! while nobody scrapes.  The protocol support is deliberately tiny —
//! `GET /metrics` answers `200 text/plain; version=0.0.4` with the full
//! registry rendering, anything else answers `404`, and every response
//! closes the connection — which is all a Prometheus scraper (or `curl`)
//! needs.

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{FrontendStats, ServerMetrics};
use crate::reactor::{raw_fd_of, Reactor};

/// Reactor token for the listening socket (connection tokens are slab
/// indices, far below this).
const LISTENER_TOKEN: usize = usize::MAX - 1;

/// Maximum bytes of request head we accept before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// One in-flight scrape connection.
struct ScrapeConn {
    stream: TcpStream,
    /// Request bytes read so far (until the blank line ends the head).
    request: Vec<u8>,
    /// Response bytes not yet written.
    response: Vec<u8>,
    /// How much of `response` has been written.
    written: usize,
}

impl ScrapeConn {
    fn new(stream: TcpStream) -> ScrapeConn {
        ScrapeConn {
            stream,
            request: Vec::with_capacity(256),
            response: Vec::new(),
            written: 0,
        }
    }
}

/// Spawn the stats endpoint on `addr`.  Returns the bound address (so
/// `port 0` binds can report what they got) and the serving thread's
/// handle; the thread exits when `stop` is raised.
pub fn spawn_stats_listener(
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("cphash-stats-http".into())
        .spawn(move || serve(listener, metrics, stop))
        .map_err(std::io::Error::other)?;
    Ok((bound, handle))
}

/// The endpoint's reactor loop.
fn serve(listener: TcpListener, metrics: Arc<ServerMetrics>, stop: Arc<AtomicBool>) {
    // Its *own* front-end stats block, so scrape activity never pollutes the
    // server's reactor counters.
    let Ok(mut reactor) = Reactor::new(Arc::new(FrontendStats::default())) else {
        return;
    };
    if reactor
        .register(raw_fd_of(&listener), LISTENER_TOKEN, false)
        .is_err()
    {
        return;
    }
    let mut connections: Vec<Option<ScrapeConn>> = Vec::new();
    let mut ready: Vec<usize> = Vec::with_capacity(16);

    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        ready.clear();
        // A bounded wait keeps the stop flag responsive.
        let _ = reactor.wait(&mut ready, Some(Duration::from_millis(50)));
        for &token in &ready {
            if token == LISTENER_TOKEN {
                accept_all(&listener, &mut connections, &mut reactor);
                continue;
            }
            let Some(conn) = connections.get_mut(token).and_then(|c| c.as_mut()) else {
                continue;
            };
            match step(conn, &metrics) {
                Step::Continue => {}
                Step::NeedWrite => {
                    // The response outgrew the socket buffer: add write
                    // interest so the next readiness event drains it.
                    let fd = raw_fd_of(&conn.stream);
                    let _ = reactor.rearm(fd, token, true);
                }
                Step::Done => {
                    let fd = raw_fd_of(&conn.stream);
                    let _ = reactor.deregister(fd, token);
                    connections[token] = None;
                }
            }
        }
    }
}

/// Accept every pending connection and register it with the reactor.
fn accept_all(
    listener: &TcpListener,
    connections: &mut Vec<Option<ScrapeConn>>,
    reactor: &mut Reactor,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let slot = connections
                    .iter()
                    .position(|c| c.is_none())
                    .unwrap_or_else(|| {
                        connections.push(None);
                        connections.len() - 1
                    });
                let fd = raw_fd_of(&stream);
                connections[slot] = Some(ScrapeConn::new(stream));
                if reactor.register(fd, slot, false).is_err() {
                    connections[slot] = None;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

enum Step {
    /// Keep the connection registered as-is.
    Continue,
    /// A pending response hit a full socket buffer: add write interest.
    NeedWrite,
    /// Finished (or failed): retire the connection.
    Done,
}

/// Advance one connection: read until the request head completes, build the
/// response once, then write until it is flushed.
fn step(conn: &mut ScrapeConn, metrics: &ServerMetrics) -> Step {
    if conn.response.is_empty() {
        let mut buf = [0u8; 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => return Step::Done,
                Ok(n) => {
                    conn.request.extend_from_slice(&buf[..n]);
                    if conn.request.len() > MAX_REQUEST_BYTES {
                        return Step::Done;
                    }
                    if head_complete(&conn.request) {
                        conn.response = respond(&conn.request, metrics);
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Step::Continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Step::Done,
            }
        }
    }
    while conn.written < conn.response.len() {
        match conn.stream.write(&conn.response[conn.written..]) {
            Ok(0) => return Step::Done,
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Step::NeedWrite,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Step::Done,
        }
    }
    let _ = conn.stream.flush();
    Step::Done
}

/// Whether the request head (terminated by a blank line) has fully arrived.
fn head_complete(request: &[u8]) -> bool {
    request.windows(4).any(|w| w == b"\r\n\r\n") || request.windows(2).any(|w| w == b"\n\n")
}

/// Build the full response bytes for a request head.
fn respond(request: &[u8], metrics: &ServerMetrics) -> Vec<u8> {
    let head = String::from_utf8_lossy(request);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    if method == "GET" && (path == "/metrics" || path == "/") {
        let body = metrics.render_prometheus();
        let mut out = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body.as_bytes());
        out
    } else {
        let body = "not found\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_rejects_unknown_paths() {
        let metrics = Arc::new(ServerMetrics::new());
        metrics.note_lookup(true);
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, handle) = spawn_stats_listener(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&metrics),
            Arc::clone(&stop),
        )
        .unwrap();

        let ok = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200"), "{ok}");
        assert!(ok.contains("cphash_requests_total 1"), "{ok}");
        let body = ok.split("\r\n\r\n").nth(1).unwrap();
        cphash_perfmon::parse_prometheus_text(body).expect("served text parses");

        let missing = scrape(addr, "GET /nope HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }
}
