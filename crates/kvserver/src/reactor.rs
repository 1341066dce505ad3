//! The per-worker readiness reactor behind every server front-end.
//!
//! The paper's client threads "monitor TCP connections assigned to [them]
//! and gather as many requests as possible" (§4.1).  The original
//! reproduction implemented that monitoring as a round-robin busy-poll over
//! non-blocking sockets, so worker CPU burned in proportion to *connections
//! held* rather than *requests served*.  This module keeps the
//! thread-per-core worker structure but makes the monitoring event-driven:
//!
//! * [`EpollReactor`] (Linux) sleeps in `epoll_wait` when a worker is idle
//!   and hands back exactly the connections with pending bytes (or writable
//!   sockets the worker is back-logged on).  Idle connections cost nothing.
//! * [`PollReactor`] is the portable fallback: it reports every registered
//!   connection as "maybe ready" on each call — the legacy busy-poll
//!   behaviour behind the same [`EventBackend`] trait, so builds for hosts
//!   without epoll share the worker loops unchanged.
//!
//! Which of the two runs is a fact of the platform ([`Reactor::new`]), not
//! an option.  [`Reactor::with_backend`] is the seam through which tests
//! drive the worker-facing contract against a backend of their choosing.
//!
//! New connections arrive on a listener the worker itself owns, registered
//! under [`LISTENER_TOKEN`] (see [`crate::acceptor`]).  Cross-thread
//! wake-ups travel through a [`Waker`]: an `eventfd` registered on the
//! worker's epoll set, so another thread can end a worker's sleep
//! immediately instead of on a poll tick.
//!
//! Every [`Reactor`] records [`crate::metrics::FrontendStats`]: wake-ups,
//! events per wake-up, idle sleeps and syscalls.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use crate::metrics::FrontendStats;

/// Raw file descriptor type used by the reactor API.  On non-Unix hosts the
/// poll backend never dereferences descriptors, so a plain integer keeps the
/// trait portable.
#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
/// Raw file descriptor type used by the reactor API (non-Unix stand-in).
#[cfg(not(unix))]
pub type RawFd = i32;

/// Token reserved for the worker's [`Waker`] registration.
pub const WAKER_TOKEN: usize = usize::MAX;

/// Token reserved for the worker's own listening socket.
pub const LISTENER_TOKEN: usize = usize::MAX - 1;

/// The raw descriptor of a socket-like object, for reactor registration.
/// On non-Unix hosts (where only the poll backend runs and descriptors are
/// never dereferenced) this is a `-1` stand-in.
#[cfg(unix)]
pub fn raw_fd_of<T: std::os::unix::io::AsRawFd>(io: &T) -> RawFd {
    io.as_raw_fd()
}
/// The raw descriptor of a socket-like object (non-Unix stand-in).
#[cfg(not(unix))]
pub fn raw_fd_of<T>(_io: &T) -> RawFd {
    -1
}

/// The readiness interface both backends implement.
///
/// Tokens are caller-chosen `usize` identifiers (connection slab slots, plus
/// [`WAKER_TOKEN`]); `wait` reports ready tokens, not descriptors.
pub trait EventBackend {
    /// Start watching `fd` under `token`.  `writable` additionally requests
    /// write-readiness (for connections with back-logged output).
    fn register(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()>;
    /// Change the interest set of an already registered descriptor.
    fn rearm(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()>;
    /// Stop watching `fd`.
    fn deregister(&mut self, fd: RawFd, token: usize) -> io::Result<()>;
    /// Append ready tokens to `ready` and return how many were added.
    /// `timeout` of `None` polls without blocking; `Some(d)` may sleep up to
    /// `d` waiting for the first event.
    fn wait(&mut self, ready: &mut Vec<usize>, timeout: Option<Duration>) -> io::Result<usize>;

    /// Drain the backend's syscall counter: how many syscalls it issued
    /// since the last drain.  The busy-poll backend never syscalls (0).
    fn take_syscalls(&mut self) -> u64 {
        0
    }
}

/// Linux readiness backend: one `epoll` instance per worker.
#[cfg(target_os = "linux")]
pub struct EpollReactor {
    epfd: RawFd,
    buf: Vec<libc::epoll_event>,
    /// Syscalls issued since the last [`EventBackend::take_syscalls`] drain.
    syscalls: u64,
}

#[cfg(target_os = "linux")]
impl EpollReactor {
    /// Create the epoll instance.
    pub fn new() -> io::Result<EpollReactor> {
        // SAFETY: epoll_create1 takes no pointers; the fd is checked before use.
        let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollReactor {
            epfd,
            buf: vec![libc::epoll_event { events: 0, u64: 0 }; 256],
            syscalls: 1,
        })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        let mut ev = libc::epoll_event {
            events: libc::EPOLLIN | if writable { libc::EPOLLOUT } else { 0 },
            u64: token as u64,
        };
        self.syscalls += 1;
        // SAFETY: epfd is a live epoll fd and `ev` outlives the call.
        let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl EventBackend for EpollReactor {
    fn register(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, writable)
    }

    fn rearm(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, writable)
    }

    fn deregister(&mut self, fd: RawFd, _token: usize) -> io::Result<()> {
        self.syscalls += 1;
        let rc =
            // SAFETY: EPOLL_CTL_DEL ignores the event argument; NULL is accepted.
            unsafe { libc::epoll_ctl(self.epfd, libc::EPOLL_CTL_DEL, fd, core::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, ready: &mut Vec<usize>, timeout: Option<Duration>) -> io::Result<usize> {
        // epoll_wait counts whole milliseconds: round a blocking wait up so
        // a sub-millisecond timeout sleeps instead of returning at once.
        let timeout_ms: i32 = match timeout {
            None => 0,
            Some(d) => d.as_nanos().div_ceil(1_000_000).clamp(1, i32::MAX as u128) as i32,
        };
        let n = loop {
            self.syscalls += 1;
            // SAFETY: `buf` is live for the call and the length matches its capacity.
            let rc = unsafe {
                libc::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            // Copy out of the (packed) kernel record before using it.
            let token = ev.u64;
            ready.push(token as usize);
        }
        Ok(n)
    }

    fn take_syscalls(&mut self) -> u64 {
        core::mem::take(&mut self.syscalls)
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollReactor {
    fn drop(&mut self) {
        // SAFETY: epfd is owned by this reactor and Drop runs once.
        unsafe { libc::close(self.epfd) };
    }
}

/// Portable busy-poll backend: every registered token is reported as ready
/// on each call, reproducing the legacy scan-all-connections loop (including
/// its idle back-off) behind the [`EventBackend`] trait.
#[derive(Default)]
pub struct PollReactor {
    /// `(fd, token)` registrations in insertion order.
    registered: Vec<(RawFd, usize)>,
    /// Consecutive blocking waits, for the legacy 256-iteration back-off.
    idle_streak: u32,
}

impl PollReactor {
    /// Create an empty poll backend.
    pub fn new() -> PollReactor {
        PollReactor::default()
    }
}

impl EventBackend for PollReactor {
    fn register(&mut self, fd: RawFd, token: usize, _writable: bool) -> io::Result<()> {
        self.registered.push((fd, token));
        Ok(())
    }

    fn rearm(&mut self, _fd: RawFd, _token: usize, _writable: bool) -> io::Result<()> {
        // Busy-poll always retries reads and writes; interest sets are moot.
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        self.registered.retain(|&(f, t)| !(f == fd && t == token));
        Ok(())
    }

    fn wait(&mut self, ready: &mut Vec<usize>, timeout: Option<Duration>) -> io::Result<usize> {
        match timeout {
            None => self.idle_streak = 0,
            Some(d) => {
                // The caller is idle: reproduce the legacy back-off (spin a
                // while, then nap briefly) so an idle worker does not peg a
                // core, while staying far more eager than a real sleep.
                self.idle_streak = self.idle_streak.saturating_add(1);
                if self.idle_streak > 256 {
                    std::thread::sleep(d.min(Duration::from_micros(50)));
                }
            }
        }
        for &(_, token) in &self.registered {
            ready.push(token);
        }
        Ok(self.registered.len())
    }
}

/// A worker's reactor: the platform's backend plus shared front-end
/// statistics.
pub struct Reactor {
    backend: Box<dyn EventBackend>,
    stats: Arc<FrontendStats>,
}

impl Reactor {
    /// Build the platform's reactor: epoll on Linux, the busy-poll
    /// [`PollReactor`] where epoll does not exist.  On Linux a failing
    /// `epoll_create1` is the caller's start-up error, never a silent
    /// busy-poll.
    pub fn new(stats: Arc<FrontendStats>) -> io::Result<Reactor> {
        #[cfg(target_os = "linux")]
        let backend = EpollReactor::new()?;
        #[cfg(not(target_os = "linux"))]
        let backend = PollReactor::new();
        Ok(Reactor::with_backend(Box::new(backend), stats))
    }

    /// Wrap a caller-built backend: how tests run the worker-facing
    /// contract against a backend other than the platform's.
    pub fn with_backend(backend: Box<dyn EventBackend>, stats: Arc<FrontendStats>) -> Reactor {
        let mut reactor = Reactor { backend, stats };
        // Fold setup-time syscalls into the stats from the start.
        reactor.drain_syscalls();
        reactor
    }

    /// Move the backend's syscall delta into the shared stats.
    fn drain_syscalls(&mut self) {
        let n = self.backend.take_syscalls();
        if n > 0 {
            self.stats.note_syscalls(n);
        }
    }

    /// Start watching `fd` under `token` (read interest; `writable` adds
    /// write interest).
    pub fn register(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        let r = self.backend.register(fd, token, writable);
        self.drain_syscalls();
        r
    }

    /// Change the interest set of a registered descriptor.
    pub fn rearm(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        let r = self.backend.rearm(fd, token, writable);
        self.drain_syscalls();
        r
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        let r = self.backend.deregister(fd, token);
        self.drain_syscalls();
        r
    }

    /// Wait for readiness, appending ready tokens to `ready` and updating
    /// the front-end statistics (a wake-up is a wait that delivered events;
    /// an idle sleep is a blocking wait that timed out empty).
    pub fn wait(&mut self, ready: &mut Vec<usize>, timeout: Option<Duration>) -> io::Result<usize> {
        let blocking = timeout.is_some();
        let n = self.backend.wait(ready, timeout)?;
        self.drain_syscalls();
        if n > 0 {
            self.stats.note_wakeup(n as u64);
        } else if blocking {
            self.stats.note_idle_sleep();
        }
        Ok(n)
    }
}

/// A cross-thread wake-up handle for one worker's reactor.
///
/// On Linux this wraps an `eventfd` the worker registers under
/// [`WAKER_TOKEN`]; `wake` makes a sleeping `epoll_wait` return immediately.
/// Elsewhere (the poll backend never sleeps for long) it is a no-op.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

struct WakerInner {
    fd: RawFd,
}

impl Waker {
    /// Create a waker for a worker's reactor.
    pub fn new() -> Waker {
        #[cfg(target_os = "linux")]
        // SAFETY: eventfd takes no pointers; -1 on failure is kept as "no fd".
        let fd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        #[cfg(not(target_os = "linux"))]
        let fd = -1;
        Waker {
            inner: Arc::new(WakerInner { fd }),
        }
    }

    /// The descriptor the worker should register under [`WAKER_TOKEN`], if
    /// this waker is backed by one.
    pub fn fd(&self) -> Option<RawFd> {
        (self.inner.fd >= 0).then_some(self.inner.fd)
    }

    /// Wake the owning worker (best-effort; a full eventfd counter already
    /// means a wake-up is pending).
    pub fn wake(&self) {
        #[cfg(target_os = "linux")]
        if self.inner.fd >= 0 {
            let one: u64 = 1;
            // SAFETY: fd was checked >= 0; the buffer is a live 8-byte u64.
            unsafe { libc::write(self.inner.fd, (&one as *const u64).cast(), 8) };
        }
    }

    /// Consume pending wake-ups so the (level-triggered) readiness clears.
    pub fn drain(&self) {
        #[cfg(target_os = "linux")]
        if self.inner.fd >= 0 {
            let mut counter: u64 = 0;
            // SAFETY: fd was checked >= 0; the buffer is a live mutable 8-byte u64.
            unsafe { libc::read(self.inner.fd, (&mut counter as *mut u64).cast(), 8) };
        }
    }
}

impl Default for Waker {
    fn default() -> Waker {
        Waker::new()
    }
}

impl Drop for WakerInner {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if self.fd >= 0 {
            // SAFETY: fd is owned by this waker, checked >= 0, and Drop runs once.
            unsafe { libc::close(self.fd) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn stats() -> Arc<FrontendStats> {
        Arc::new(FrontendStats::default())
    }

    #[test]
    fn poll_backend_reports_every_registration() {
        let mut r = Reactor::with_backend(Box::new(PollReactor::new()), stats());
        r.register(10, 0, false).unwrap();
        r.register(11, 1, false).unwrap();
        let mut ready = Vec::new();
        assert_eq!(r.wait(&mut ready, None).unwrap(), 2);
        assert_eq!(ready, vec![0, 1]);
        r.deregister(10, 0).unwrap();
        ready.clear();
        assert_eq!(r.wait(&mut ready, None).unwrap(), 1);
        assert_eq!(ready, vec![1]);
    }

    #[cfg(not(target_os = "linux"))]
    #[test]
    fn waker_is_inert_for_the_poll_backend() {
        let w = Waker::new();
        assert!(w.fd().is_none());
        w.wake(); // must not panic
        w.drain();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reactor_sees_socket_data_and_waker() {
        let s = stats();
        let mut r = Reactor::new(Arc::clone(&s)).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let fd = {
            use std::os::unix::io::AsRawFd;
            server_side.as_raw_fd()
        };
        r.register(fd, 7, false).unwrap();

        let waker = Waker::new();
        r.register(waker.fd().unwrap(), WAKER_TOKEN, false).unwrap();

        // Nothing ready: a zero-timeout wait yields no tokens, and a short
        // blocking wait counts as an idle sleep.
        let mut ready = Vec::new();
        assert_eq!(r.wait(&mut ready, None).unwrap(), 0);
        assert_eq!(
            r.wait(&mut ready, Some(Duration::from_millis(1))).unwrap(),
            0
        );
        assert!(s.idle_sleeps.load(core::sync::atomic::Ordering::Relaxed) >= 1);

        // Socket data wakes the reactor with the right token.
        client.write_all(b"ping").unwrap();
        ready.clear();
        let n = r.wait(&mut ready, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(ready, vec![7]);
        assert!(s.wakeups.load(core::sync::atomic::Ordering::Relaxed) >= 1);

        // The waker wakes it too, and draining clears the readiness.
        waker.wake();
        ready.clear();
        r.wait(&mut ready, Some(Duration::from_secs(2))).unwrap();
        assert!(ready.contains(&WAKER_TOKEN));
        waker.drain();
        ready.clear();
        // Socket data was never consumed, so token 7 stays level-ready, but
        // the waker token must be gone.
        r.wait(&mut ready, None).unwrap();
        assert!(!ready.contains(&WAKER_TOKEN));

        r.deregister(fd, 7).unwrap();
        ready.clear();
        r.wait(&mut ready, None).unwrap();
        assert!(!ready.contains(&7));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_sub_millisecond_timeout_sleeps() {
        // epoll_wait counts whole milliseconds; a 200 µs timeout must round
        // up to a real sleep, not down to a poll booked as an idle sleep.
        let s = stats();
        let mut r = Reactor::new(Arc::clone(&s)).unwrap();
        let mut ready = Vec::new();
        let timeout = Duration::from_micros(200);
        let started = std::time::Instant::now();
        assert_eq!(r.wait(&mut ready, Some(timeout)).unwrap(), 0);
        assert!(started.elapsed() >= timeout, "{:?}", started.elapsed());
        assert!(ready.is_empty());
        assert_eq!(s.idle_sleeps(), 1);
    }

    #[test]
    fn degraded_epoll_request_still_works() {
        // Off Linux this exercises the fallback; on Linux it simply builds
        // the real thing. Either way the API holds.
        let mut r = Reactor::new(stats()).unwrap();
        let mut ready = Vec::new();
        assert_eq!(r.wait(&mut ready, None).unwrap(), 0);
    }
}
