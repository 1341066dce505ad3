//! Ablation: the front-end backends (epoll, busy-poll, io_uring) under a
//! connection-scaling workload and a connection-churn storm.
//!
//! **Scaling arm** (ISSUE 3): park a herd of idle connections, drive the
//! same paced request stream over a few active connections, and compare
//! what the front-end *did* to serve it: reactor wake-ups, events per
//! wake-up and idle sleeps (`FrontendStats`), plus client-observed batch
//! p99.  Claim: with 1k+ idle connections at a fixed rate, the
//! event-driven front-ends wake at least 10× less often than busy-poll —
//! wake-ups bounded by activity, not by connection count.
//!
//! **Churn arm** (ISSUE 10): a storm of short-lived connections (each one
//! insert+lookup round-trip, then dropped) alongside a steady pipelined
//! stream.  Every accept, register, re-arm and deregister costs epoll an
//! `epoll_ctl`; io_uring queues the same mutations into the submission
//! ring and flushes them with the `io_uring_enter` it was going to make
//! anyway.  Claim: uring spends fewer syscalls per request than epoll
//! under churn.
//!
//! ```text
//! cargo run --release -p cphash-bench --bin ablate_frontend -- \
//!     [--idle 1000] [--requests 50000] [--rate 20000] [--churn 10000] \
//!     [--strict]
//! ```
//!
//! `--strict` exits nonzero if the scaling-arm wake-up ratio falls below
//! 10× while a real epoll backend is available, or if the churn-arm
//! syscalls-per-request for uring fails to beat epoll while both are real
//! (used by CI as a regression gate).

use bytes::BytesMut;
use cphash_kvproto::{encode_op, OpFrame, Status};
use cphash_kvserver::reactor::{reactor_available, FrontendKind};
use cphash_kvserver::{CpServer, CpServerConfig};
use cphash_loadgen::{
    run_connection_scaling, BlockingConn, ConnectionScalingOptions, ConnectionScalingResult,
};
use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    idle: usize,
    requests: u64,
    rate: f64,
    churn: u64,
    strict: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        idle: 1000,
        requests: 50_000,
        rate: 20_000.0,
        churn: 10_000,
        strict: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--idle" => args.idle = value("--idle").parse().expect("bad --idle"),
            "--requests" => args.requests = value("--requests").parse().expect("bad --requests"),
            "--rate" => args.rate = value("--rate").parse().expect("bad --rate"),
            "--churn" => args.churn = value("--churn").parse().expect("bad --churn"),
            "--strict" => args.strict = true,
            other => panic!(
                "unknown flag {other:?} (--idle N --requests N --rate RPS --churn N --strict)"
            ),
        }
    }
    args
}

fn server_config(kind: FrontendKind) -> CpServerConfig {
    CpServerConfig {
        client_threads: 2,
        partitions: 2,
        capacity_bytes: Some(16 * 1024 * 1024),
        typical_value_bytes: 8,
        frontend: kind,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Scaling arm
// ---------------------------------------------------------------------------

struct ScalingOutcome {
    kind: FrontendKind,
    result: ConnectionScalingResult,
    wakeups: u64,
    events_per_wakeup: f64,
    idle_sleeps: u64,
}

fn run_scaling(kind: FrontendKind, args: &Args) -> ScalingOutcome {
    let mut server = CpServer::start(server_config(kind)).expect("starting CPSERVER");
    let result = run_connection_scaling(&ConnectionScalingOptions {
        addr: server.addr(),
        idle_connections: args.idle,
        active_connections: 2,
        requests: args.requests,
        pipeline: 64,
        target_rps: Some(args.rate),
    })
    .expect("scaling run");
    let frontend = &server.metrics().frontend;
    let outcome = ScalingOutcome {
        kind,
        result,
        wakeups: frontend.wakeups(),
        events_per_wakeup: frontend.events_per_wakeup(),
        idle_sleeps: frontend.idle_sleeps(),
    };
    server.shutdown();
    outcome
}

// ---------------------------------------------------------------------------
// Churn arm
// ---------------------------------------------------------------------------

struct ChurnOutcome {
    kind: FrontendKind,
    connections: u64,
    accepts_per_sec: f64,
    wakeups: u64,
    syscalls: u64,
    syscalls_per_request: f64,
    churn_p99_us: u64,
}

/// One short-lived connection: connect, insert, lookup back, verify, drop.
fn churn_roundtrip(addr: SocketAddr, key: u64) {
    let mut conn = BlockingConn::open(addr).expect("churn connect");
    let mut wire = BytesMut::new();
    encode_op(&mut wire, &OpFrame::insert(key, key.to_le_bytes()));
    encode_op(&mut wire, &OpFrame::lookup(key));
    let mut last = None;
    conn.exchange(&wire, 2, |reply| {
        last = Some((reply.status, reply.value.to_vec()))
    })
    .expect("churn roundtrip");
    assert_eq!(last, Some((Status::Ok, key.to_le_bytes().to_vec())));
}

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * pct / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run_churn(kind: FrontendKind, conns: u64) -> ChurnOutcome {
    let mut server = CpServer::start(server_config(kind)).expect("starting CPSERVER");
    let addr = server.addr();

    // Steady pipelined lookup stream for the whole storm, so the churn
    // cost is measured *alongside* real traffic, not in a vacuum.
    let stop = Arc::new(AtomicBool::new(false));
    let steady = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = BlockingConn::open(addr).expect("steady connect");
            let mut wire = BytesMut::new();
            let mut key = 0u64;
            const PIPELINE: usize = 32;
            // relaxed: stop flag; stale reads just run one extra batch
            while !stop.load(Ordering::Relaxed) {
                wire.clear();
                for _ in 0..PIPELINE {
                    encode_op(&mut wire, &OpFrame::lookup(key));
                    key = key.wrapping_add(1);
                }
                conn.exchange(&wire, PIPELINE, |_| {})
                    .expect("steady batch");
            }
        })
    };
    // Let the steady stream settle before snapshotting the counters.
    std::thread::sleep(Duration::from_millis(50));

    let metrics = server.metrics();
    let wakeups_before = metrics.frontend.wakeups();
    let syscalls_before = metrics.frontend.syscalls();
    let requests_before = metrics.requests();
    let accepted_before = metrics.connections();

    let start = Instant::now();
    const STORMERS: u64 = 4;
    let handles: Vec<_> = (0..STORMERS)
        .map(|t| {
            let n = conns / STORMERS
                + if t == STORMERS - 1 {
                    conns % STORMERS
                } else {
                    0
                };
            std::thread::spawn(move || -> Vec<u64> {
                let mut latencies = Vec::with_capacity(n as usize);
                for i in 0..n {
                    let begun = Instant::now();
                    churn_roundtrip(addr, t * 10_000_000 + i);
                    latencies.push(begun.elapsed().as_micros() as u64);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("churn thread"))
        .collect();
    let elapsed_secs = start.elapsed().as_secs_f64();

    let wakeups = metrics.frontend.wakeups() - wakeups_before;
    let syscalls = metrics.frontend.syscalls() - syscalls_before;
    let requests = metrics.requests() - requests_before;
    let accepted = metrics.connections() - accepted_before;

    stop.store(true, Ordering::Relaxed); // relaxed: stop flag; join() below is the barrier
    steady.join().expect("steady thread");
    server.shutdown();

    latencies.sort_unstable();
    ChurnOutcome {
        kind,
        connections: accepted,
        accepts_per_sec: accepted as f64 / elapsed_secs.max(1e-9),
        wakeups,
        syscalls,
        syscalls_per_request: syscalls as f64 / requests.max(1) as f64,
        churn_p99_us: percentile(&latencies, 99.0),
    }
}

fn main() {
    let args = parse_args();
    let epoll_real = reactor_available(FrontendKind::Epoll);
    let uring_real = reactor_available(FrontendKind::Uring);
    if !epoll_real {
        println!("note: no epoll on this host; the 'epoll' run degrades to busy-poll");
    }
    if !uring_real {
        println!("note: no io_uring on this host; skipping the uring arms");
    }

    let mut backends = vec![FrontendKind::Epoll, FrontendKind::Poll];
    if uring_real {
        backends.push(FrontendKind::Uring);
    }

    // --- Scaling arm -------------------------------------------------------
    println!(
        "\nconnection-scaling ablation: {} idle connections, {} requests at {:.0} req/s",
        args.idle, args.requests, args.rate
    );
    let scaling: Vec<ScalingOutcome> = backends
        .iter()
        .map(|&kind| run_scaling(kind, &args))
        .collect();

    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "frontend", "idle-open", "throughput", "wakeups", "ev/wakeup", "idle-sleeps", "p99(us)"
    );
    for o in &scaling {
        println!(
            "{:<8} {:>10} {:>12.0} {:>12} {:>12.1} {:>12} {:>10}",
            o.kind.as_str(),
            o.result.idle_open,
            o.result.throughput(),
            o.wakeups,
            o.events_per_wakeup,
            o.idle_sleeps,
            o.result.batch_p99_us
        );
    }

    let epoll = &scaling[0];
    let poll = &scaling[1];
    let wakeup_ratio = poll.wakeups as f64 / epoll.wakeups.max(1) as f64;
    println!(
        "\nbusy-poll woke {:.1}x more often than {} at ~equal throughput ({:.0} vs {:.0} req/s)",
        wakeup_ratio,
        epoll.kind.as_str(),
        poll.result.throughput(),
        epoll.result.throughput()
    );
    let mut failed = false;
    if epoll_real {
        if wakeup_ratio >= 10.0 {
            println!("PASS: event-driven front-end wake-ups are >=10x lower (bounded by activity, not connections)");
        } else {
            println!("FAIL: expected >=10x fewer wake-ups with the epoll front-end");
            failed = true;
        }
    }

    // --- Churn arm ---------------------------------------------------------
    println!(
        "\nconnection-churn storm: {} short-lived connections alongside a steady pipelined stream",
        args.churn
    );
    let churn: Vec<ChurnOutcome> = backends
        .iter()
        .map(|&kind| run_churn(kind, args.churn))
        .collect();

    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "frontend", "conns", "accepts/s", "wakeups", "syscalls", "syscalls/req", "p99(us)"
    );
    for o in &churn {
        println!(
            "{:<8} {:>10} {:>12.0} {:>12} {:>12} {:>14.4} {:>10}",
            o.kind.as_str(),
            o.connections,
            o.accepts_per_sec,
            o.wakeups,
            o.syscalls,
            o.syscalls_per_request,
            o.churn_p99_us
        );
    }
    if epoll_real && uring_real {
        let epoll_churn = churn
            .iter()
            .find(|o| o.kind == FrontendKind::Epoll)
            .expect("epoll churn arm ran");
        let uring_churn = churn
            .iter()
            .find(|o| o.kind == FrontendKind::Uring)
            .expect("uring churn arm ran");
        println!(
            "\nuring spent {:.4} syscalls/request under churn vs epoll's {:.4} ({:.1}x fewer)",
            uring_churn.syscalls_per_request,
            epoll_churn.syscalls_per_request,
            epoll_churn.syscalls_per_request / uring_churn.syscalls_per_request.max(1e-9)
        );
        if uring_churn.syscalls_per_request < epoll_churn.syscalls_per_request {
            println!("PASS: io_uring beats epoll on syscalls-per-request under churn (batched ring mutations)");
        } else {
            println!("FAIL: expected io_uring to beat epoll on syscalls-per-request under churn");
            failed = true;
        }
    }

    if failed && args.strict {
        std::process::exit(1);
    }
}
