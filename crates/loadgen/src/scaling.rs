//! Connection-scaling scenario: many mostly-idle connections plus a paced
//! request stream.
//!
//! The ROADMAP's north star is millions of mostly-idle users, and the cost
//! that caps connection counts is not request throughput — it is what an
//! *idle* connection costs the front-end.  This scenario makes that cost
//! measurable: it parks `idle_connections` open-but-silent connections on
//! the server, then drives a fixed, paced request load over a handful of
//! active connections and reports client-observed batch latency.  The
//! server-side counterpart (worker CPU, `FrontendStats` wake-ups) is read
//! by the harness that owns the server — see the `ablate_frontend`
//! benchmark, which runs this scenario against both the epoll and the
//! busy-poll front-end and compares wake-ups at equal throughput.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use cphash_kvproto::{client_handshake, encode_op, OpFrame, ReplyDecoder, ReplyRef};
use cphash_perfmon::LatencyHistogram;

/// A blocking kvproto connection for harnesses that pace and pipeline by
/// hand.  (`cphash::RemoteClient` polls a non-blocking socket while it
/// waits, which would keep a thread busy through exactly the gaps a paced
/// scenario leaves for the server to sleep in.)
pub struct BlockingConn {
    stream: TcpStream,
    replies: ReplyDecoder,
}

impl BlockingConn {
    /// Connect and complete the handshake.
    pub fn open(addr: SocketAddr) -> io::Result<BlockingConn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        client_handshake(&mut stream)?;
        Ok(BlockingConn {
            stream,
            replies: ReplyDecoder::new(),
        })
    }

    /// Write `wire` — whole encoded requests — and block until `expect`
    /// replies have arrived, handing each to `each` in request order.
    pub fn exchange(
        &mut self,
        wire: &[u8],
        expect: usize,
        mut each: impl FnMut(ReplyRef<'_>),
    ) -> io::Result<()> {
        self.stream.write_all(wire)?;
        let mut received = 0;
        while received < expect {
            match self.replies.next_reply_ref() {
                Ok(Some(reply)) => {
                    each(reply);
                    received += 1;
                }
                Ok(None) => {
                    if self.replies.read_from(&mut self.stream)?.0 == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-batch",
                        ));
                    }
                }
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
        }
        Ok(())
    }
}

/// Options for a connection-scaling run.
#[derive(Debug, Clone)]
pub struct ConnectionScalingOptions {
    /// Server address.
    pub addr: SocketAddr,
    /// Connections opened and then left idle for the whole run.
    pub idle_connections: usize,
    /// Connections carrying the request stream.
    pub active_connections: usize,
    /// Total lookups to send.
    pub requests: u64,
    /// Lookups per pipelined batch (one batch = one latency sample).
    pub pipeline: usize,
    /// Target request rate; `None` drives batches back-to-back.  Pacing
    /// leaves idle gaps, which is exactly where a busy-polling front-end
    /// burns CPU and an event-driven one sleeps.
    pub target_rps: Option<f64>,
}

impl Default for ConnectionScalingOptions {
    fn default() -> Self {
        ConnectionScalingOptions {
            addr: "127.0.0.1:0".parse().expect("valid literal address"),
            idle_connections: 1000,
            active_connections: 2,
            requests: 50_000,
            pipeline: 64,
            target_rps: Some(20_000.0),
        }
    }
}

/// Result of a connection-scaling run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectionScalingResult {
    /// Idle connections actually opened (fd limits may cap the request).
    pub idle_open: usize,
    /// Lookups sent and answered.
    pub operations: u64,
    /// Wall-clock seconds for the request phase.
    pub elapsed_secs: f64,
    /// 99th-percentile batch round-trip, microseconds.
    pub batch_p99_us: u64,
    /// Mean batch round-trip, microseconds.
    pub batch_mean_us: f64,
}

impl ConnectionScalingResult {
    /// Requests per second over the request phase.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.operations as f64 / self.elapsed_secs
        }
    }
}

/// Run the scenario: park the idle set, then drive paced pipelined lookups
/// over the active set, measuring per-batch round-trip latency.
pub fn run_connection_scaling(
    opts: &ConnectionScalingOptions,
) -> std::io::Result<ConnectionScalingResult> {
    assert!(opts.active_connections > 0 && opts.pipeline > 0);

    // Park the idle herd.  Stop early (rather than fail) if the fd limit
    // bites; the caller can see how many actually opened.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(opts.idle_connections);
    for _ in 0..opts.idle_connections {
        match TcpStream::connect(opts.addr) {
            Ok(stream) => idle.push(stream),
            Err(_) => break,
        }
    }
    let idle_open = idle.len();

    let mut active: Vec<BlockingConn> = (0..opts.active_connections)
        .map(|_| BlockingConn::open(opts.addr))
        .collect::<Result<_, _>>()?;

    let batch_interval = opts.target_rps.map(|rps| {
        assert!(rps > 0.0, "target_rps must be positive");
        Duration::from_secs_f64(opts.pipeline as f64 / rps)
    });

    let mut histogram = LatencyHistogram::new();
    let mut wire = BytesMut::with_capacity(opts.pipeline * 16);
    let mut sent = 0u64;
    let mut conn_idx = 0usize;
    let started = Instant::now();
    let mut next_batch = started;

    while sent < opts.requests {
        if let Some(interval) = batch_interval {
            let now = Instant::now();
            if now < next_batch {
                std::thread::sleep(next_batch - now);
            }
            next_batch += interval;
        }
        let batch = (opts.requests - sent).min(opts.pipeline as u64) as usize;
        wire.clear();
        for i in 0..batch {
            encode_op(&mut wire, &OpFrame::lookup((sent + i as u64) % 4096));
        }
        let conn = &mut active[conn_idx];
        conn_idx = (conn_idx + 1) % opts.active_connections;

        let batch_start = Instant::now();
        conn.exchange(&wire, batch, |_| {})?;
        histogram.record(batch_start.elapsed().as_micros() as u64);
        sent += batch as u64;
    }

    let elapsed_secs = started.elapsed().as_secs_f64();
    drop(idle);
    Ok(ConnectionScalingResult {
        idle_open,
        operations: sent,
        elapsed_secs,
        batch_p99_us: histogram.percentile(99.0),
        batch_mean_us: histogram.mean(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stub_server::spawn_stub_server;

    #[test]
    fn scenario_accounts_for_every_request() {
        let addr = spawn_stub_server();
        let opts = ConnectionScalingOptions {
            addr,
            idle_connections: 16,
            active_connections: 2,
            requests: 1_000,
            pipeline: 50,
            target_rps: None,
        };
        let result = run_connection_scaling(&opts).expect("run succeeds");
        assert_eq!(result.operations, 1_000);
        assert_eq!(result.idle_open, 16);
        assert!(result.throughput() > 0.0);
        assert!(result.batch_p99_us >= 1);
        assert!(result.batch_mean_us > 0.0);
    }

    #[test]
    fn pacing_stretches_the_run() {
        let addr = spawn_stub_server();
        let opts = ConnectionScalingOptions {
            addr,
            idle_connections: 0,
            active_connections: 1,
            requests: 500,
            pipeline: 50,
            // 2 500 req/s over 500 requests: the run must take ≥ ~150 ms
            // even on a fast loopback.
            target_rps: Some(2_500.0),
        };
        let result = run_connection_scaling(&opts).expect("run succeeds");
        assert_eq!(result.operations, 500);
        assert!(
            result.elapsed_secs > 0.15,
            "paced run finished in {:.3}s",
            result.elapsed_secs
        );
    }
}
