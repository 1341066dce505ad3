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

fn server_parks(server: &CpServer) -> u64 {
    server.server_stats().iter().map(|s| s.parks()).sum()
}

fn server_clients_asleep_parks(server: &CpServer) -> u64 {
    server
        .server_stats()
        .iter()
        .map(|s| s.clients_asleep_parks())
        .sum()
}

fn server_spin_cycles(server: &CpServer) -> u64 {
    server
        .server_stats()
        .iter()
        .map(|s| s.idle_spin_cycles())
        .sum()
}

/// 2 000 single-operation round trips, each after a 1 ms pause — long
/// enough for the server to have gone back to sleep.  A lost wake-up has no
/// timeout to rescue it, so "all complete" is the assertion.  `after_pause`
/// runs at the end of each pause, before the request.
fn paced_round_trips(client: &mut impl KvClient, label: &str, mut after_pause: impl FnMut()) {
    const ROUNDS: u64 = 2_000;
    let mut worst = Duration::ZERO;
    for i in 0..ROUNDS {
        std::thread::sleep(Duration::from_millis(1));
        after_pause();
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
    // wire and in process.  Over the wire the worker announces each of its
    // reactor sleeps, so the partition servers park on the short
    // clients-asleep budget instead of 300 µs, and the blocking helper
    // yields instead of starving the server it waits for.  Which budget
    // ran is held; what the exchange costs in CPU and in spin per sleep
    // depends on the host and is printed.  The spin is sampled pause by
    // pause: a pause that held exactly one park (the server's, after the
    // previous reply) adds that park's spin.
    let mut spins: Vec<u64> = Vec::new();
    let mut last = (server_parks(&server), server_spin_cycles(&server));
    let asleep_parks_before = server_clients_asleep_parks(&server);
    #[cfg(target_os = "linux")]
    let cpu_before = process_cpu();
    paced_round_trips(&mut remote, "RemoteClient", || {
        let now = (server_parks(&server), server_spin_cycles(&server));
        if now.0 == last.0 + 1 {
            spins.push(now.1 - last.1);
        }
        last = now;
    });
    spins.sort_unstable();
    let cycles_per_us = cphash_suite::perfmon::estimate_cycles_per_second(10) / 1e6;
    let quartile_us = |q: usize| spins[spins.len() * q / 4] as f64 / cycles_per_us;
    let (q1, q2, q3) = (quartile_us(1), quartile_us(2), quartile_us(3));
    eprintln!(
        "RemoteClient: {} single-park pauses, spin per park quartiles {q1:.1} / {q2:.1} / {q3:.1} µs",
        spins.len()
    );
    // Measured on the 2-CPU reference host: one park per round trip; spin
    // before it, lower quartile / median, 61–97 / 68–113 µs in debug builds
    // (the worker itself takes that long to get from the reply to its
    // announced `epoll_wait`), 31–48 / 31–53 µs in release ones.  A busy
    // loop holding one of the two CPUs moved the lower quartile to 43–98 µs.
    // Before the announcement every park waited out 300 µs.
    assert!(
        spins.len() >= 1_000,
        "only {} single-park pauses",
        spins.len()
    );
    let asleep_parks = server_clients_asleep_parks(&server) - asleep_parks_before;
    eprintln!("RemoteClient: {asleep_parks} parks on the clients-asleep budget");
    assert!(
        asleep_parks >= 1_000,
        "only {asleep_parks} of the paced pauses ended on the clients-asleep budget"
    );
    // Measured on the same host: 0.23–0.48 s for the whole exchange in
    // debug builds, 0.13–0.30 s in release ones (~2.5 s of wall time), and
    // 2.6 s in one run in five with a busy loop started beside it.  Before
    // the announcement, 5.8–6.6 s in debug builds.
    #[cfg(target_os = "linux")]
    eprintln!(
        "RemoteClient: {:?} of process CPU",
        process_cpu() - cpu_before
    );
    drop(remote);
    server.shutdown();

    let (mut table, mut clients) = CpHash::new(CpHashConfig {
        partitions: 2,
        clients: 1,
        max_partitions: 4,
        ..Default::default()
    });
    paced_round_trips(&mut clients[0], "in-process", || {});
    let stats = table.server_stats();
    let parks: u64 = stats.iter().map(|s| s.parks()).sum();
    assert!(
        parks >= 1_000,
        "servers left alone for a millisecond at a time slept only {parks} times"
    );
    // An in-process handle never announces, so every park took the full
    // spin.
    let asleep_parks: u64 = stats.iter().map(|s| s.clients_asleep_parks()).sum();
    assert_eq!(
        asleep_parks, 0,
        "an unannounced client's server took the short spin"
    );
    drop(clients);
    table.shutdown();
}
