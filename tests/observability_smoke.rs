//! Smoke tests for the observability plane: a live CPSERVER under TCP load
//! must serve parseable, monotone Prometheus metrics over both the HTTP
//! stats endpoint and the kvproto v2 STATS opcode.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use cphash_suite::kvserver::{
    CpServer, CpServerConfig, LockServer, LockServerConfig, MemcacheCluster, MemcacheConfig,
};
use cphash_suite::loadgen::tcp::{run_tcp_load, TcpLoadOptions};
use cphash_suite::loadgen::WorkloadSpec;
use cphash_suite::perfmon::{parse_prometheus_text, trace, ParsedSample};
use cphash_suite::RemoteClient;

/// GET a path from the stats endpoint and return (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Scrape `/metrics` and parse the exposition.
fn scrape(addr: SocketAddr) -> Vec<ParsedSample> {
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.0 200"), "{status}");
    parse_prometheus_text(&body).expect("scrape parses")
}

fn sample_value(samples: &[ParsedSample], name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

#[test]
fn stats_endpoint_serves_monotone_metrics_under_load() {
    let mut server = CpServer::start(CpServerConfig {
        client_threads: 2,
        partitions: 2,
        capacity_bytes: Some(64 * 1024),
        typical_value_bytes: 8,
        stats_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..Default::default()
    })
    .unwrap();
    let stats_addr = server.stats_addr().expect("stats endpoint is enabled");
    let data_addr = server.addr();
    // Stage tracing on for the whole load: the stage histograms must fill
    // and the data path must not notice.
    trace::set_trace_enabled(true);

    let spec = WorkloadSpec {
        working_set_bytes: 64 * 1024,
        capacity_bytes: 64 * 1024,
        operations: 20_000,
        insert_ratio: 0.3,
        prefill: false,
        ..Default::default()
    };
    let load = std::thread::spawn(move || {
        run_tcp_load(
            &spec,
            &TcpLoadOptions {
                addr: data_addr,
                threads: 2,
                connections_per_thread: 2,
                pipeline: 32,
            },
        )
        .unwrap()
    });

    // Scrape mid-run: poll until the request counter moves, proving the
    // endpoint answers while the data plane is busy.
    let mut mid = scrape(stats_addr);
    while sample_value(&mid, "cphash_requests_total").unwrap_or(0.0) == 0.0 && !load.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(5));
        mid = scrape(stats_addr);
    }

    let result = load.join().unwrap();
    trace::set_trace_enabled(false);
    assert_eq!(result.operations, spec.operations);
    // 30 % of requests were inserts into a table that holds the whole
    // working set, so a healthy fraction of the traced lookups must hit.
    assert!(
        result.lookup_hits as f64 / result.lookups as f64 > 0.2,
        "{} hits of {} lookups",
        result.lookup_hits,
        result.lookups
    );
    let end = scrape(stats_addr);

    // The acceptance families are all present.
    for family in [
        "cphash_requests_total",
        "cphash_lookups_total",
        "cphash_inserts_total",
        "cphash_connections_total",
        "cphash_batch_rounds_total",
        "cphash_batch_occupancy",
        "cphash_queue_depth",
        "cphash_server_run_cuts_total",
        "cphash_server_parks_total",
        "cphash_server_idle_spin_cycles_total",
        "cphash_migration_chunks_total",
        "cphash_migration_pacer_rate",
        "cphash_retries_emitted_total",
        "cphash_request_latency_ns_count",
        "cphash_frontend_wakeups_total",
        "cphash_frontend_syscalls_total",
        "cphash_conn_read_syscalls_total",
        "cphash_conn_write_syscalls_total",
    ] {
        assert!(
            end.iter().any(|s| s.name == family),
            "family {family} missing from scrape"
        );
    }
    // Syscalls per request, data movement included, from a live server:
    // every request was read and most were answered, and with 32 requests
    // per pipelined batch that took far fewer `read`s and `write`s than
    // requests.
    let requests = sample_value(&end, "cphash_requests_total").unwrap();
    let reads = sample_value(&end, "cphash_conn_read_syscalls_total").unwrap();
    let writes = sample_value(&end, "cphash_conn_write_syscalls_total").unwrap();
    assert!(reads > 0.0 && writes > 0.0);
    assert!(
        reads + writes < requests,
        "{reads} reads + {writes} writes for {requests} requests"
    );
    // Why batch occupancy is what it is, from the counters alone: the
    // workload's 8-byte values travel in the request and reply words, so no
    // `Ready` or `Decref` ever ended a staged run early.
    assert!(sample_value(&end, "cphash_batch_rounds_total").unwrap() > 0.0);
    assert_eq!(
        sample_value(&end, "cphash_server_run_cuts_total"),
        Some(0.0)
    );
    // Every stage of the traced pipeline recorded samples, exported under
    // its stage label.
    for stage in [
        "ring_enqueue",
        "drain",
        "prepare",
        "prefetch",
        "execute",
        "reply_publish",
    ] {
        assert!(
            end.iter().any(|s| s.name == "cphash_stage_cycles_count"
                && s.labels.contains(&format!("stage=\"{stage}\""))
                && s.value > 0.0),
            "stage {stage} recorded nothing"
        );
    }

    // Every counter sample is monotone between the two scrapes.
    for before in mid
        .iter()
        .filter(|s| s.name.ends_with("_total") || s.name.ends_with("_count"))
    {
        let after = end
            .iter()
            .find(|s| s.name == before.name && s.labels == before.labels)
            .unwrap_or_else(|| panic!("{} vanished between scrapes", before.name));
        assert!(
            after.value >= before.value,
            "{}{} went backwards: {} -> {}",
            before.name,
            before.labels,
            before.value,
            after.value
        );
    }
    // And the final request count accounts for the whole workload.
    assert!(
        sample_value(&end, "cphash_requests_total").unwrap() >= spec.operations as f64,
        "request counter undercounts the workload"
    );

    let (status, _) = http_get(stats_addr, "/nope");
    assert!(status.starts_with("HTTP/1.0 404"), "{status}");
    server.shutdown();
}

#[test]
fn stats_opcode_answers_on_every_server() {
    // The wire STATS request returns the same exposition the HTTP endpoint
    // serves, on all three servers, without any HTTP listener configured.
    fn fetch_and_check(addr: SocketAddr) -> Vec<ParsedSample> {
        let mut client = RemoteClient::connect(addr).unwrap();
        assert_eq!(client.protocol_version(), 2);
        let text = client.fetch_stats().unwrap();
        let samples = parse_prometheus_text(&text).expect("wire stats parse");
        assert!(
            samples.iter().any(|s| s.name == "cphash_requests_total"),
            "wire stats carry the request counter"
        );
        samples
    }

    let mut cpserver = CpServer::start(CpServerConfig {
        client_threads: 1,
        partitions: 2,
        ..Default::default()
    })
    .unwrap();
    let samples = fetch_and_check(cpserver.addr());
    // The STATS round-trip itself is counted as an admin command.
    assert!(sample_value(&samples, "cphash_admin_commands_total").is_some());
    assert_eq!(
        sample_value(&samples, "cphash_server_run_cuts_total"),
        Some(0.0)
    );
    cpserver.shutdown();

    let mut lockserver = LockServer::start(LockServerConfig {
        worker_threads: 1,
        partitions: 16,
        ..Default::default()
    })
    .unwrap();
    fetch_and_check(lockserver.addr());
    lockserver.shutdown();

    let mut cluster = MemcacheCluster::start(MemcacheConfig {
        instances: 1,
        ..Default::default()
    })
    .unwrap();
    fetch_and_check(cluster.addrs()[0]);
    cluster.shutdown();
}
