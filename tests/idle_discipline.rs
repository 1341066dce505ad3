//! Idle discipline: a partition server with nothing to do sleeps, costs
//! nothing while it sleeps, and is back at work as soon as a request
//! arrives.
//!
//! Its own test binary with a single `#[test]`, so the process-CPU reading
//! of the idle window is not polluted by other tests' threads.

use std::time::{Duration, Instant};

use cphash_suite::kvserver::{CpServer, CpServerConfig};
use cphash_suite::{CpHash, CpHashConfig, KeyRef, KvClient, RemoteClient};

/// Process CPU (user + system) so far, from `/proc/self/stat`.
#[cfg(target_os = "linux")]
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks (100 Hz on Linux).
    let after_comm = stat.rsplit_once(')').expect("stat has a comm field").1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_millis(ticks * 10)
}

fn idle_iterations(server: &CpServer) -> Vec<u64> {
    server
        .server_stats()
        .iter()
        .map(|s| s.idle_iterations.load(std::sync::atomic::Ordering::Relaxed))
        .collect()
}

/// 2 000 single-operation round trips, each after a 1 ms pause — long
/// enough for the server to have gone back to sleep.  A lost wake-up has no
/// timeout to rescue it, so "all complete" is the assertion.
fn paced_round_trips(client: &mut impl KvClient, label: &str) {
    const ROUNDS: u64 = 2_000;
    let mut worst = Duration::ZERO;
    for i in 0..ROUNDS {
        std::thread::sleep(Duration::from_millis(1));
        let key = KeyRef::Hash(i % 64);
        let began = Instant::now();
        if i % 4 == 0 {
            assert!(client.insert_blocking(key, &i.to_le_bytes()).unwrap());
        } else {
            // Keys 0..64 are all written within the first 256 rounds; a
            // miss before that is fine, an error or a hang is not.
            client.get_blocking(key).unwrap();
        }
        worst = worst.max(began.elapsed());
    }
    eprintln!("{label}: {ROUNDS} paced round trips, worst {worst:?}");
}

#[test]
fn an_idle_server_sleeps_and_wakes_on_demand() {
    let mut server = CpServer::start(CpServerConfig {
        client_threads: 1,
        partitions: 2,
        max_partitions: 4,
        ..Default::default()
    })
    .unwrap();
    let mut remote = RemoteClient::connect(server.addr()).unwrap();
    assert!(remote
        .insert_blocking(KeyRef::Hash(7), b"seventy-seven")
        .unwrap());

    // (a) Left alone, the whole server — one worker, two active partition
    // servers, two spares that have never seen a message — stops burning
    // CPU, and the partition servers stop iterating altogether: a parked
    // server has no periodic timeout.  (Spinning, this window costs a full
    // second of CPU on two CPUs.)
    std::thread::sleep(Duration::from_millis(300));
    #[cfg(target_os = "linux")]
    {
        let idle_before = idle_iterations(&server);
        let cpu_before = process_cpu();
        std::thread::sleep(Duration::from_millis(500));
        let burnt = process_cpu() - cpu_before;
        assert!(
            burnt < Duration::from_millis(50),
            "an idle server burnt {burnt:?} of CPU in 500 ms"
        );
        assert_eq!(
            idle_iterations(&server),
            idle_before,
            "parked servers must not iterate"
        );
    }

    // (b) The first request after the idle stretch pays one wake-up, not a
    // timer's worth of waiting.
    let began = Instant::now();
    let value = remote.get_blocking(KeyRef::Hash(7)).unwrap();
    let took = began.elapsed();
    assert_eq!(value.unwrap().as_slice(), b"seventy-seven");
    assert!(
        took < Duration::from_millis(20),
        "a get after an idle stretch took {took:?}"
    );

    // (c) Sleeping and waking two thousand times loses no request, over the
    // wire and in process.
    paced_round_trips(&mut remote, "RemoteClient");
    drop(remote);
    server.shutdown();

    let (mut table, mut clients) = CpHash::new(CpHashConfig {
        partitions: 2,
        clients: 1,
        max_partitions: 4,
        ..Default::default()
    });
    paced_round_trips(&mut clients[0], "in-process");
    let parks: u64 = table.server_stats().iter().map(|s| s.parks()).sum();
    assert!(
        parks >= 1_000,
        "servers left alone for a millisecond at a time slept only {parks} times"
    );
    drop(clients);
    table.shutdown();
}
