//! Connection acceptance: one listener per worker.
//!
//! "The CPSERVER also has an additional thread that accepts new connections.
//! When a connection is made, it is assigned to a client thread with the
//! smallest number of current active connections." (§4.1)
//!
//! That single acceptor serializes every accept: under a connection-churn
//! storm one thread (and one listen queue) throttles the whole server.
//! Here every worker owns a listener on the server's address instead
//! ([`shard_listeners`]) and accepts for itself ([`drain_accepts`]) — no
//! hand-off thread, no cross-thread wake-up.  Where the kernel can
//! load-balance (`SO_REUSEPORT`: Linux, IPv4) each worker gets its own
//! socket and accept queue; elsewhere the workers share one bound socket
//! through `try_clone` and whichever is awake accepts.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Build one non-blocking listener per shard, all accepting on `bind`
/// (port 0 picks a port once; every listener reports the resolved address).
///
/// The set is `SO_REUSEPORT` sockets where that can be built (Linux, IPv4
/// bind), so the kernel spreads connections over the shards; otherwise it
/// is one bound socket `try_clone`d per shard, every clone draining the
/// same accept queue.  Either way each worker has exactly one listener, and
/// an error here is the bind (or clone) error itself.
pub fn shard_listeners(
    bind: SocketAddr,
    shards: usize,
) -> io::Result<(SocketAddr, Vec<TcpListener>)> {
    assert!(shards > 0, "need at least one shard");
    let mut listeners = Vec::with_capacity(shards);
    #[cfg(target_os = "linux")]
    if let SocketAddr::V4(v4) = bind {
        let first = reuseport_listener(*v4.ip(), v4.port())?;
        let SocketAddr::V4(resolved) = first.local_addr()? else {
            unreachable!("IPv4 socket reports an IPv4 local address");
        };
        listeners.push(first);
        for _ in 1..shards {
            listeners.push(reuseport_listener(*resolved.ip(), resolved.port())?);
        }
    }
    if listeners.is_empty() {
        let first = TcpListener::bind(bind)?;
        for _ in 1..shards {
            listeners.push(first.try_clone()?);
        }
        listeners.push(first);
    }
    for listener in &listeners {
        listener.set_nonblocking(true)?;
    }
    Ok((listeners[0].local_addr()?, listeners))
}

/// One `SO_REUSEPORT` (+`SO_REUSEADDR`) listener, built below std because
/// the option must be set *before* `bind`.
#[cfg(target_os = "linux")]
fn reuseport_listener(ip: std::net::Ipv4Addr, port: u16) -> io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    // SAFETY: raw socket-setup calls on a freshly created, owned fd; the
    // sockaddr_in is a valid 16-byte POD and every failure path closes the
    // fd before returning.
    unsafe {
        let fd = libc::socket(libc::AF_INET, libc::SOCK_STREAM | libc::SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let close_on = |fd: i32, err: io::Error| {
            libc::close(fd);
            Err(err)
        };
        let one: libc::c_int = 1;
        for opt in [libc::SO_REUSEADDR, libc::SO_REUSEPORT] {
            let rc = libc::setsockopt(
                fd,
                libc::SOL_SOCKET,
                opt,
                (&one as *const libc::c_int).cast(),
                core::mem::size_of::<libc::c_int>() as libc::socklen_t,
            );
            if rc != 0 {
                return close_on(fd, io::Error::last_os_error());
            }
        }
        let addr = libc::sockaddr_in {
            sin_family: libc::AF_INET as u16,
            sin_port: port.to_be(),
            sin_addr: u32::from(ip).to_be(),
            sin_zero: [0; 8],
        };
        if libc::bind(
            fd,
            (&addr as *const libc::sockaddr_in).cast(),
            core::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
        ) != 0
        {
            return close_on(fd, io::Error::last_os_error());
        }
        if libc::listen(fd, 1024) != 0 {
            return close_on(fd, io::Error::last_os_error());
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// Collect every connection currently acceptable on a worker-owned
/// listener: non-blocking `accept(2)` until `WouldBlock`.
pub fn drain_accepts(listener: &TcpListener, out: &mut Vec<TcpStream>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => out.push(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                // Persistent accept errors (EMFILE under a connection
                // storm) keep the listener level-ready; back off briefly
                // so the worker does not hot-spin accept→fail.
                std::thread::sleep(Duration::from_millis(1));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FrontendStats;
    use crate::reactor::{raw_fd_of, Reactor, LISTENER_TOKEN};
    use std::sync::Arc;

    /// Accept everything pending on every listener of a shard set, waiting
    /// until at least `want` connections have arrived; returns how many
    /// each listener accepted.
    fn accept_counts(listeners: &[TcpListener], want: usize) -> Vec<usize> {
        let mut reactors: Vec<Reactor> = listeners
            .iter()
            .map(|l| {
                let mut r = Reactor::new(Arc::new(FrontendStats::default())).unwrap();
                r.register(raw_fd_of(l), LISTENER_TOKEN, false).unwrap();
                r
            })
            .collect();
        let mut counts = vec![0usize; listeners.len()];
        let mut accepted = Vec::new();
        let mut ready = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counts.iter().sum::<usize>() < want && std::time::Instant::now() < deadline {
            for (i, (l, r)) in listeners.iter().zip(reactors.iter_mut()).enumerate() {
                ready.clear();
                r.wait(&mut ready, Some(Duration::from_millis(5))).unwrap();
                if ready.contains(&LISTENER_TOKEN) {
                    drain_accepts(l, &mut accepted);
                    counts[i] += accepted.drain(..).count();
                }
            }
        }
        // One more look at every listener: a connection must not be
        // acceptable twice.
        for (i, l) in listeners.iter().enumerate() {
            drain_accepts(l, &mut accepted);
            counts[i] += accepted.drain(..).count();
        }
        counts
    }

    #[test]
    fn ipv4_shards_share_one_port_and_each_connection_lands_once() {
        let (addr, listeners) = shard_listeners("127.0.0.1:0".parse().unwrap(), 3).unwrap();
        assert_eq!(listeners.len(), 3);
        assert_ne!(addr.port(), 0);
        for l in &listeners {
            assert_eq!(l.local_addr().unwrap(), addr);
        }
        let _conns: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        assert_eq!(accept_counts(&listeners, 6).iter().sum::<usize>(), 6);
    }

    #[test]
    fn ipv6_shards_are_clones_of_one_socket_and_a_connection_lands_once() {
        // The non-reuseport tier: one bound socket, cloned per worker.
        let Ok((addr, listeners)) = shard_listeners("[::1]:0".parse().unwrap(), 2) else {
            eprintln!("skipping: no IPv6 loopback on this host");
            return;
        };
        assert_eq!(listeners.len(), 2);
        assert!(addr.is_ipv6() && addr.port() != 0);
        for l in &listeners {
            assert_eq!(l.local_addr().unwrap(), addr);
        }
        let _conn = TcpStream::connect(addr).unwrap();
        let counts = accept_counts(&listeners, 1);
        assert_eq!(counts.iter().sum::<usize>(), 1, "accepted {counts:?}");
    }

    #[test]
    fn a_bind_error_is_reported_not_retried() {
        // A port already bound without SO_REUSEPORT cannot be joined: the
        // caller sees that error, once.
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = shard_listeners(taken.local_addr().unwrap(), 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
    }
}
