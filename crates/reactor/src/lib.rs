//! A thin, dependency-free readiness reactor for the networked runtime.
//!
//! `crates/node` historically spent two blocking threads per peer
//! (reader + writer), which caps an in-process cluster at n ≈ 16 before the
//! thread count alone makes the box unusable. This crate provides the one
//! primitive needed to replace that model: a [`Poller`] that multiplexes
//! readiness for many nonblocking sockets onto a single thread, mio-style,
//! without pulling in any external dependency.
//!
//! On Linux the implementation is level-triggered `epoll` via hand-written
//! `extern "C"` bindings (the repo is dependency-free, so no `libc` crate);
//! on other unix platforms it falls back to `poll(2)`. Both backends share
//! the same semantics:
//!
//! - **Level-triggered**: an event fires as long as the condition holds, so
//!   a handler that drains partially is re-notified on the next wait. This
//!   costs a little in spurious wakeups and buys a lot in correctness — no
//!   starvation when a read loop stops early to bound latency.
//! - **Tokens, not pointers**: callers register a `RawFd` under a `usize`
//!   token of their choosing and get that token back in [`Event`]s. The
//!   reactor never owns or touches the fd's lifetime; callers must
//!   [`Poller::deregister`] before closing.
//! - **Cross-thread wakeup**: [`Poller::wake`] is safe to call from any
//!   thread and forces an in-progress or future [`Poller::wait`] to return.
//!   Implemented as a `UnixStream` self-pipe registered under a reserved
//!   internal token; the wait loop drains it and never surfaces it to the
//!   caller.
//!
//! The event-loop shards in `moonshot-node` own all higher-level policy
//! (framing, write coalescing, timers, redial); this crate is deliberately
//! nothing but readiness.

#![warn(missing_docs, missing_debug_implementations)]

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::Duration;

/// Reserved token used internally for the waker self-pipe. Registrations
/// under this token are rejected.
pub const WAKE_TOKEN: usize = usize::MAX;

/// Which readiness conditions a registration subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Notify when the fd is readable (or the peer closed the read half).
    pub readable: bool,
    /// Notify when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    /// Writable only.
    pub const WRITABLE: Interest = Interest { readable: false, writable: true };
    /// Both readable and writable.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    /// Neither: the fd stays registered but only reports peer hangup.
    /// Use to pause a connection (backpressure) without losing its slot.
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable (data buffered, or EOF/err pending on read).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up or the socket errored; the fd should be drained
    /// (reads will surface the error/EOF) and closed.
    pub hangup: bool,
}

/// A readiness multiplexer over nonblocking fds.
///
/// One `Poller` belongs to one event-loop thread: `register`/`reregister`/
/// `deregister`/`wait` must be called from that thread (they take `&mut`),
/// while [`Poller::wake`] may be called from anywhere.
///
/// # Examples
///
/// ```
/// use moonshot_reactor::{Interest, Poller};
/// use std::io::Write;
/// use std::os::unix::io::AsRawFd;
/// use std::os::unix::net::UnixStream;
/// use std::time::Duration;
///
/// let (mut a, b) = UnixStream::pair().unwrap();
/// b.set_nonblocking(true).unwrap();
/// let mut poller = Poller::new().unwrap();
/// poller.register(b.as_raw_fd(), 7, Interest::READABLE).unwrap();
///
/// let mut events = Vec::new();
/// poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
/// assert!(events.is_empty()); // nothing to read yet
///
/// a.write_all(b"x").unwrap();
/// poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].token, 7);
/// assert!(events[0].readable);
/// poller.deregister(b.as_raw_fd()).unwrap();
/// ```
#[derive(Debug)]
pub struct Poller {
    backend: backend::Backend,
    /// Read end of the waker self-pipe, drained inside `wait`.
    wake_rx: UnixStream,
    /// Write end; `wake()` writes one byte. Behind a mutex only to make the
    /// `&self` write race-free in the doc sense — `UnixStream` writes are
    /// atomic for one byte, but the lock keeps miri/tsan happy and costs
    /// nothing off the hot path.
    wake_tx: Mutex<UnixStream>,
}

impl Poller {
    /// Creates a poller with its waker pipe installed.
    pub fn new() -> io::Result<Poller> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut backend = backend::Backend::new()?;
        backend.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READABLE)?;
        Ok(Poller { backend, wake_rx, wake_tx: Mutex::new(wake_tx) })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// The fd must already be nonblocking; the reactor does not change fd
    /// flags. Registering an fd twice is an error on the epoll backend
    /// (`EEXIST`); use [`Poller::reregister`] to change interest.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "token usize::MAX is reserved"));
        }
        self.backend.register(fd, token, interest)
    }

    /// Changes the interest (and/or token) of an already-registered fd.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "token usize::MAX is reserved"));
        }
        self.backend.reregister(fd, token, interest)
    }

    /// Removes `fd` from the poller. Must be called before the fd is
    /// closed; a closed-then-reused fd under a stale registration would
    /// deliver events for the wrong token.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses, or [`Poller::wake`] is called. Ready events are appended to
    /// `events` (which is cleared first). A wake with no ready fds returns
    /// with `events` empty.
    ///
    /// Timeout contract: `None` blocks indefinitely, `Some(Duration::ZERO)`
    /// never blocks, and a non-zero timeout **never returns early** without
    /// an event or a wake. Both backends count whole milliseconds, so the
    /// timeout is rounded *up* to the next one: a caller sleeping towards a
    /// deadline wakes at most 1 ms late instead of polling through the last
    /// sub-millisecond of it (truncation turned every such timeout into a
    /// busy loop). A signal restarts the wait, which can only lengthen it.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        self.backend.wait(events, timeout_ms)?;
        // Drain and hide the waker pipe. Multiple queued wakes collapse
        // into one return, which is exactly the semantics callers want.
        let mut woke = false;
        let mut i = 0;
        while i < events.len() {
            if events[i].token == WAKE_TOKEN {
                woke = true;
                events.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if woke {
            let mut buf = [0u8; 64];
            loop {
                match (&self.wake_rx).read(&mut buf) {
                    Ok(0) => break, // waker write end closed: shutting down
                    Ok(_) => continue,
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Forces a concurrent or future [`Poller::wait`] to return. Safe to
    /// call from any thread; coalesces with pending wakes.
    pub fn wake(&self) -> io::Result<()> {
        let mut tx = self.wake_tx.lock().unwrap();
        match tx.write(&[1]) {
            Ok(_) => Ok(()),
            // Pipe full means a wake is already pending: success.
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// A cloneable handle that can wake a [`Poller`] from other threads without
/// holding a reference to it.
///
/// # Examples
///
/// ```
/// use moonshot_reactor::{Poller, Waker};
/// let poller = Poller::new().unwrap();
/// let waker = Waker::for_poller(&poller).unwrap();
/// let t = std::thread::spawn(move || waker.wake().unwrap());
/// t.join().unwrap();
/// ```
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Creates a waker bound to `poller`'s wake pipe.
    pub fn for_poller(poller: &Poller) -> io::Result<Waker> {
        let tx = poller.wake_tx.lock().unwrap().try_clone()?;
        Ok(Waker { tx })
    }

    /// Wakes the poller. See [`Poller::wake`].
    pub fn wake(&self) -> io::Result<()> {
        match (&self.tx).write(&[1]) {
            Ok(_) => Ok(()),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker { tx: self.tx.try_clone().expect("clone waker pipe") }
    }
}

#[cfg(target_os = "linux")]
mod backend {
    //! Level-triggered epoll via hand-written FFI (no libc crate).

    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Mirrors `struct epoll_event`. On x86/x86-64 the kernel ABI packs
    /// this struct; elsewhere it has natural alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        u64: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    #[derive(Debug)]
    pub(super) struct Backend {
        epfd: RawFd,
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Backend> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Backend { epfd })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask(interest), u64: token as u64 };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        pub(super) fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(super) fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, u64: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
            Ok(())
        }

        /// `timeout_ms`: -1 blocks indefinitely, 0 polls.
        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, u64: 0 }; 256];
            let n = loop {
                match cvt(unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                }) {
                    Ok(n) => break n as usize,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let token = ev.u64 as usize;
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    //! Portable `poll(2)` fallback: O(n) per wait, fine for tests and
    //! small clusters on non-Linux unix.

    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    #[derive(Debug)]
    pub(super) struct Backend {
        regs: Vec<(RawFd, usize, Interest)>,
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Backend> {
            Ok(Backend { regs: Vec::new() })
        }

        pub(super) fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            if self.regs.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
            }
            self.regs.push((fd, token, interest));
            Ok(())
        }

        pub(super) fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            for r in &mut self.regs {
                if r.0 == fd {
                    r.1 = token;
                    r.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.regs.len();
            self.regs.retain(|(f, _, _)| *f != fd);
            if self.regs.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        /// `timeout_ms`: -1 blocks indefinitely, 0 polls.
        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .regs
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: {
                        let mut e = 0;
                        if interest.readable {
                            e |= POLLIN;
                        }
                        if interest.writable {
                            e |= POLLOUT;
                        }
                        e
                    },
                    revents: 0,
                })
                .collect();
            let n = loop {
                let r = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if r < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
                break r;
            };
            if n <= 0 {
                return Ok(());
            }
            for (pfd, (_, token, _)) in fds.iter().zip(self.regs.iter()) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token: *token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & POLLOUT != 0,
                    hangup: bits & (POLLHUP | POLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::thread;
    use std::time::Instant;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires_only_with_data() {
        let (mut a, b) = pair();
        let mut p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();

        p.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "no data yet: {events:?}");

        a.write_all(b"hi").unwrap();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
        assert!(events[0].readable);
        assert!(!events[0].hangup);
    }

    #[test]
    fn level_triggered_refires_until_drained() {
        let (mut a, mut b) = pair();
        let mut p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        a.write_all(b"xyz").unwrap();
        let mut events = Vec::new();

        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        // Don't read: must re-fire.
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1, "level-triggered event should re-fire");

        let mut buf = [0u8; 8];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(n, 3);
        p.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "drained fd should be quiet: {events:?}");
    }

    #[test]
    fn read_half_close_reports_readable_hangup() {
        let (a, b) = pair();
        let mut p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 3, Interest::READABLE).unwrap();
        drop(a);
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable, "EOF must look readable so reads see Ok(0)");
        assert!(events[0].hangup);
    }

    #[test]
    fn writable_fires_after_backpressure_clears() {
        // TCP pair with tiny buffers so we can actually fill the pipe.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();

        let mut p = Poller::new().unwrap();
        // Fill the socket until WouldBlock.
        let chunk = vec![0u8; 64 * 1024];
        let mut wrote = 0usize;
        loop {
            match (&tx).write(&chunk) {
                Ok(n) => wrote += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("fill: {e}"),
            }
        }
        assert!(wrote > 0);
        p.register(tx.as_raw_fd(), 9, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        // A full socket may or may not already have a sliver of space;
        // drain the receive side and require writable to fire.
        let mut sink = vec![0u8; 256 * 1024];
        let mut drained = 0usize;
        rx.set_nonblocking(true).unwrap();
        while drained < wrote {
            match rx.read(&mut sink) {
                Ok(0) => break,
                Ok(n) => drained += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("drain: {e}"),
            }
        }
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.writable),
            "drained socket must become writable: {events:?}"
        );
    }

    #[test]
    fn wake_from_other_thread_interrupts_wait() {
        let mut p = Poller::new().unwrap();
        let waker = Waker::for_poller(&p).unwrap();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            waker.wake().unwrap();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(30))).unwrap();
        let waited = start.elapsed();
        t.join().unwrap();
        assert!(events.is_empty(), "waker must not surface events: {events:?}");
        assert!(waited < Duration::from_secs(10), "wake should interrupt long wait");
    }

    /// The timeout contract: a non-zero timeout with no event and no wake
    /// blocks for at least that long (sub-millisecond ones used to truncate
    /// to a non-blocking poll, so 200 of them took microseconds), and zero
    /// stays non-blocking.
    #[test]
    fn nonzero_timeout_never_returns_early_and_zero_never_blocks() {
        let mut p = Poller::new().unwrap();
        let mut events = Vec::new();
        let short = Duration::from_micros(300);

        let start = Instant::now();
        p.wait(&mut events, Some(short)).unwrap();
        assert!(start.elapsed() >= short, "300 µs wait returned after {:?}", start.elapsed());
        assert!(events.is_empty());

        let start = Instant::now();
        for _ in 0..200 {
            p.wait(&mut events, Some(short)).unwrap();
        }
        assert!(
            start.elapsed() >= 200 * short,
            "200 waits of 300 µs took only {:?}",
            start.elapsed()
        );

        // A millisecond each would make this take a full second.
        let start = Instant::now();
        for _ in 0..1_000 {
            p.wait(&mut events, Some(Duration::ZERO)).unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "1000 zero-timeout polls blocked for {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn wake_before_wait_is_not_lost() {
        let mut p = Poller::new().unwrap();
        p.wake().unwrap();
        let start = Instant::now();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(30))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(10));
        // Coalesced: a second wait with zero timeout sees nothing.
        p.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn many_wakes_coalesce() {
        let mut p = Poller::new().unwrap();
        for _ in 0..10_000 {
            p.wake().unwrap(); // must not error when the pipe fills
        }
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        p.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn registration_churn_register_deregister_reregister() {
        let mut p = Poller::new().unwrap();
        let mut keep = Vec::new();
        for round in 0..50usize {
            let (mut a, b) = pair();
            p.register(b.as_raw_fd(), round, Interest::READABLE).unwrap();
            if round % 3 == 0 {
                // Flip interest back and forth.
                p.reregister(b.as_raw_fd(), round, Interest::BOTH).unwrap();
                p.reregister(b.as_raw_fd(), round, Interest::READABLE).unwrap();
            }
            if round % 2 == 0 {
                p.deregister(b.as_raw_fd()).unwrap();
                // Deregistered fd must not surface even with data pending.
                a.write_all(b"z").unwrap();
                keep.push((a, b));
            } else {
                keep.push((a, b));
            }
        }
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        for e in &events {
            assert!(e.token % 2 == 1, "deregistered token {} surfaced", e.token);
        }
    }

    #[test]
    fn interest_change_gates_events() {
        let (mut a, b) = pair();
        let mut p = Poller::new().unwrap();
        // Register write-only: pending data must not wake us readable.
        p.register(b.as_raw_fd(), 5, Interest::WRITABLE).unwrap();
        a.write_all(b"data").unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(
            events.iter().all(|e| !e.readable || e.hangup),
            "write-only registration saw readable: {events:?}"
        );
        // Now subscribe readable and require the event.
        p.reregister(b.as_raw_fd(), 5, Interest::READABLE).unwrap();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 5 && e.readable));
    }

    #[test]
    fn reserved_token_rejected() {
        let (_a, b) = pair();
        let mut p = Poller::new().unwrap();
        assert!(p.register(b.as_raw_fd(), WAKE_TOKEN, Interest::READABLE).is_err());
    }

    #[test]
    fn double_register_errors() {
        let (_a, b) = pair();
        let mut p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        assert!(p.register(b.as_raw_fd(), 2, Interest::READABLE).is_err());
    }
}
