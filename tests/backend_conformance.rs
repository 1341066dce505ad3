//! Backend-agnostic conformance suite for the reactor contract (ISSUE 10).
//!
//! Both front-end backends (epoll, and the busy-poll fallback of platforms
//! without it) must present the same observable behaviour to the workers:
//! level-triggered readiness, registration/deregistration that takes
//! effect, write-interest toggling via `rearm`, waker delivery, and
//! survival of an fd closed while still armed.  The same scenarios run
//! against the platform's reactor and — through `Reactor::with_backend` —
//! against `PollReactor`, so a backend cannot pass by being exercised only
//! through its own unit tests.
//!
//! The contract is asymmetric on purpose: *delivery* obligations (ready
//! data keeps firing until drained; deregistered tokens never fire) bind
//! every backend, while *quietness* obligations (no events without
//! readiness) bind only the readiness-based backends — the busy-poll
//! backend reports every registered token on every call by design, and
//! workers absorb the spurious wake-ups as `WouldBlock` reads.

use cphash_suite::kvserver::reactor::{raw_fd_of, PollReactor, Reactor, Waker, WAKER_TOKEN};
use cphash_suite::kvserver::FrontendStats;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The backends under test — the platform's reactor (epoll on Linux) and
/// the busy-poll backend — as (name, fresh reactor, whether the quietness
/// obligations bind it; see module docs).
fn backends() -> [(&'static str, Reactor, bool); 2] {
    let stats = || Arc::new(FrontendStats::default());
    [
        (
            "epoll",
            Reactor::new(stats()).unwrap(),
            cfg!(target_os = "linux"),
        ),
        (
            "busy-poll",
            Reactor::with_backend(Box::new(PollReactor::new()), stats()),
            false,
        ),
    ]
}

/// A connected (server-side, client-side) socket pair, server side
/// non-blocking as workers configure it.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();
    (server, client)
}

fn wait_for(reactor: &mut Reactor, token: usize, timeout: Duration) -> bool {
    let mut ready = Vec::new();
    let deadline = std::time::Instant::now() + timeout;
    loop {
        ready.clear();
        let _ = reactor.wait(&mut ready, Some(Duration::from_millis(10)));
        if ready.contains(&token) {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
    }
}

#[test]
fn readiness_is_level_triggered_until_deregistered() {
    for (kind, mut reactor, readiness_based) in backends() {
        // Quietness binds only the readiness-based backends (see module
        // docs); busy-poll reports registered tokens unconditionally.
        let (server, mut client) = socket_pair();
        let fd = raw_fd_of(&server);
        reactor.register(fd, 5, false).unwrap();

        // Quiet socket: no readiness.
        if readiness_based {
            assert!(
                !wait_for(&mut reactor, 5, Duration::from_millis(50)),
                "{kind}: token ready with no data"
            );
        }

        client.write_all(b"payload").unwrap();
        assert!(
            wait_for(&mut reactor, 5, Duration::from_secs(2)),
            "{kind}: data did not make the token ready"
        );
        // Level-triggered: unread bytes keep the token firing on every
        // subsequent wait, not just the first one after arrival.
        for round in 0..3 {
            assert!(
                wait_for(&mut reactor, 5, Duration::from_secs(2)),
                "{kind}: unread data stopped firing on round {round}"
            );
        }
        // Drained socket: quiet again.
        let mut buf = [0u8; 64];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"payload");
        if readiness_based {
            assert!(
                !wait_for(&mut reactor, 5, Duration::from_millis(50)),
                "{kind}: token still ready after the socket was drained"
            );
        }

        // Deregistered: new data must not surface the token again.
        reactor.deregister(fd, 5).unwrap();
        client.write_all(b"more").unwrap();
        assert!(
            !wait_for(&mut reactor, 5, Duration::from_millis(100)),
            "{kind}: deregistered token still delivered"
        );
    }
}

#[test]
fn write_interest_toggles_via_rearm() {
    for (kind, mut reactor, readiness_based) in backends() {
        let (server, _client) = socket_pair();
        let fd = raw_fd_of(&server);
        reactor.register(fd, 9, false).unwrap();

        // Read-only interest on an idle socket: silent (readiness-based
        // backends only; busy-poll always reports and always retries
        // writes, so interest sets are moot for it by design).
        if readiness_based {
            assert!(
                !wait_for(&mut reactor, 9, Duration::from_millis(50)),
                "{kind}: read-only idle socket reported ready"
            );
        }
        // Adding write interest makes the (writable) socket fire.
        reactor.rearm(fd, 9, true).unwrap();
        assert!(
            wait_for(&mut reactor, 9, Duration::from_secs(2)),
            "{kind}: write interest did not report writability"
        );
        // Dropping write interest silences it again.
        reactor.rearm(fd, 9, false).unwrap();
        if readiness_based {
            assert!(
                !wait_for(&mut reactor, 9, Duration::from_millis(50)),
                "{kind}: writability still reported after rearm to read-only"
            );
        }
        reactor.deregister(fd, 9).unwrap();
    }
}

#[test]
fn waker_delivery_wakes_a_sleeping_reactor() {
    for (kind, mut reactor, readiness_based) in backends() {
        let waker = Waker::new();
        let Some(fd) = waker.fd() else {
            // No eventfd off Linux: the waker is inert and busy-poll workers
            // never sleep for long.  Nothing to conform.
            continue;
        };
        reactor.register(fd, WAKER_TOKEN, false).unwrap();

        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        assert!(
            wait_for(&mut reactor, WAKER_TOKEN, Duration::from_secs(2)),
            "{kind}: wake() did not surface WAKER_TOKEN"
        );
        t.join().unwrap();
        waker.drain();
        if readiness_based {
            assert!(
                !wait_for(&mut reactor, WAKER_TOKEN, Duration::from_millis(50)),
                "{kind}: drained waker still firing"
            );
        }
    }
}

#[test]
fn closing_an_armed_fd_does_not_wedge_the_reactor() {
    for (kind, mut reactor, _) in backends() {
        let (server, client) = socket_pair();
        let fd = raw_fd_of(&server);
        reactor.register(fd, 11, false).unwrap();

        // Close both ends while the registration is still armed.  Workers
        // normally deregister first; the contract here is only that a
        // misordered close cannot wedge or poison the reactor.
        drop(client);
        drop(server);
        let mut ready = Vec::new();
        let _ = reactor.wait(&mut ready, Some(Duration::from_millis(20)));
        // Deregistering the closed fd may fail (the kernel already dropped
        // it) but must not panic; either way the reactor keeps serving
        // other registrations.
        let _ = reactor.deregister(fd, 11);

        let (server2, mut client2) = socket_pair();
        reactor.register(raw_fd_of(&server2), 12, false).unwrap();
        client2.write_all(b"alive").unwrap();
        assert!(
            wait_for(&mut reactor, 12, Duration::from_secs(2)),
            "{kind}: reactor stopped delivering after an armed fd was closed"
        );
    }
}
