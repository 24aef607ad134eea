//! Readiness-based I/O without new dependencies: a thin syscall shim over
//! `epoll(7)` (Linux) with a `poll(2)` fallback for other unixes, mirroring
//! the [`crate::signal`] pattern of declaring the libc symbols directly
//! (std already links libc).
//!
//! The shim exposes exactly what one event loop needs and nothing more:
//!
//! * [`Poller`] — register/modify/deregister interest in a file
//!   descriptor under a caller-chosen `u64` token, and [`Poller::wait`]
//!   for readiness, level-triggered.
//! * [`Waker`] — a self-pipe whose read end lives inside the poller;
//!   any thread can [`Waker::wake`] the loop out of its wait (worker
//!   results, drain requests, shutdown).
//! * Socket and process helpers the serving layer needs around the loop:
//!   [`set_sndbuf`] (the slow-reader tests pin the kernel send buffer so
//!   write-stalls are reachable), [`raise_nofile_limit`] (a 10k-connection
//!   drill needs ~2 fds per connection), and [`current_rss_kb`] (the
//!   drill's bounded-memory report).
//!
//! Level-triggered readiness keeps the two backends semantically
//! identical: a readable fd keeps reporting readable until drained, so a
//! missed byte is re-announced on the next wait instead of lost.

use std::io;
use std::time::Duration;

/// Readiness of one registered descriptor, by its registration token.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token supplied at registration.
    pub token: u64,
    /// Reads will make progress (data, EOF, or a pending error).
    pub readable: bool,
    /// Writes will make progress.
    pub writable: bool,
    /// The peer hung up or the descriptor errored — teardown territory.
    pub hangup: bool,
}

#[cfg(unix)]
mod sys {
    use std::os::unix::io::RawFd;

    pub type CInt = i32;

    extern "C" {
        pub fn close(fd: CInt) -> CInt;
        pub fn pipe(fds: *mut CInt) -> CInt;
        pub fn fcntl(fd: CInt, cmd: CInt, arg: CInt) -> CInt;
        pub fn read(fd: CInt, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: CInt, buf: *const u8, count: usize) -> isize;
        pub fn setsockopt(
            fd: CInt,
            level: CInt,
            optname: CInt,
            optval: *const u8,
            optlen: u32,
        ) -> CInt;
    }

    pub const F_SETFL: CInt = 4;
    pub const O_NONBLOCK: CInt = 0o4000;
    pub const SOL_SOCKET: CInt = 1;
    pub const SO_SNDBUF: CInt = 7;
    pub const SO_RCVBUF: CInt = 8;

    /// A nonblocking self-pipe: `.0` is the read end, `.1` the write end.
    pub fn nonblocking_pipe() -> std::io::Result<(RawFd, RawFd)> {
        let mut fds: [CInt; 2] = [-1, -1];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        for fd in fds {
            // Best effort: a blocking wake pipe still works, it just may
            // park a very chatty waker briefly.
            unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) };
        }
        Ok((fds[0], fds[1]))
    }
}

/// Cross-thread wakeup for a [`Poller`] sitting in `wait`. Cloneable and
/// cheap; the underlying pipe closes when the last clone and the poller
/// are gone.
#[derive(Clone)]
pub struct Waker {
    #[cfg(unix)]
    inner: std::sync::Arc<WakerFd>,
}

#[cfg(unix)]
struct WakerFd(i32);

#[cfg(unix)]
impl Drop for WakerFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

impl Waker {
    /// Interrupts the poller's current (or next) wait. Never blocks for
    /// long and never fails: a full pipe already guarantees a pending
    /// wakeup.
    pub fn wake(&self) {
        #[cfg(unix)]
        unsafe {
            sys::write(self.inner.0, [1u8].as_ptr(), 1);
        }
    }
}

/// The token the poller uses internally for its wake pipe; user tokens
/// must stay below it.
const WAKE_TOKEN: u64 = u64::MAX;

/// A level-triggered readiness poller over raw file descriptors.
pub struct Poller {
    imp: imp::Imp,
    waker: Waker,
    wake_read_fd: i32,
}

impl Poller {
    /// Builds the poller and its wake pipe. Fails only when the kernel is
    /// out of descriptors — callers treat that as fatal for the transport.
    pub fn new() -> io::Result<Poller> {
        #[cfg(unix)]
        {
            let (read_fd, write_fd) = sys::nonblocking_pipe()?;
            let mut imp = imp::Imp::new().inspect_err(|_| {
                unsafe { sys::close(read_fd) };
                unsafe { sys::close(write_fd) };
            })?;
            imp.register(read_fd, WAKE_TOKEN, true, false)?;
            Ok(Poller {
                imp,
                waker: Waker { inner: std::sync::Arc::new(WakerFd(write_fd)) },
                wake_read_fd: read_fd,
            })
        }
        #[cfg(not(unix))]
        {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "readiness polling requires a unix platform",
            ))
        }
    }

    /// A handle other threads use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Starts watching `fd` under `token`. `token` must be unique among
    /// live registrations and below `u64::MAX`.
    pub fn register(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.imp.register(fd, token, readable, writable)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn modify(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.imp.modify(fd, token, readable, writable)
    }

    /// Stops watching `fd`. Call **before** closing the descriptor — the
    /// poll(2) backend has no kernel-side cleanup to fall back on.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.imp.deregister(fd)
    }

    /// Waits up to `timeout` for readiness, appending events to `out`
    /// (which is cleared first). Returns whether a [`Waker`] fired; wake
    /// notifications are drained internally and never appear in `out`.
    /// `EINTR` surfaces as an empty, un-woken return.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<bool> {
        out.clear();
        self.imp.wait(out, timeout)?;
        let mut woken = false;
        out.retain(|ev| {
            if ev.token == WAKE_TOKEN {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            // Drain the pipe so level-triggering quiesces.
            let mut sink = [0u8; 64];
            #[cfg(unix)]
            while unsafe { sys::read(self.wake_read_fd, sink.as_mut_ptr(), sink.len()) } > 0 {}
            let _ = sink;
        }
        Ok(woken)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(unix)]
        unsafe {
            sys::close(self.wake_read_fd);
        }
    }
}

/// Clamps a wait duration to whole milliseconds for the syscalls, rounding
/// up so a 1ns timeout does not spin.
fn timeout_ms(timeout: Duration) -> i32 {
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    if ms == 0 && !timeout.is_zero() {
        1
    } else {
        ms
    }
}

#[cfg(target_os = "linux")]
mod imp {
    //! The epoll backend: O(1) per event, kernel-held interest list.

    use super::{timeout_ms, PollEvent};
    use std::io;
    use std::time::Duration;

    type CInt = i32;

    const EPOLL_CTL_ADD: CInt = 1;
    const EPOLL_CTL_DEL: CInt = 2;
    const EPOLL_CTL_MOD: CInt = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Linux's epoll_event layout (packed on every epoll-bearing arch).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: CInt) -> CInt;
        fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
        fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt) -> CInt;
        fn close(fd: CInt) -> CInt;
    }

    pub struct Imp {
        epfd: CInt,
        buf: Vec<EpollEvent>,
    }

    /// `EPOLLRDHUP` rides only with read interest: it is level-triggered,
    /// so a half-closed peer would otherwise report on every wait while
    /// the loop does not want to read (a request waiting or running).
    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut events = 0;
        if readable {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if writable {
            events |= EPOLLOUT;
        }
        events
    }

    fn ctl(epfd: CInt, op: CInt, fd: CInt, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        if unsafe { epoll_ctl(epfd, op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    impl Imp {
        pub fn new() -> io::Result<Imp> {
            let epfd = unsafe { epoll_create1(0) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Imp { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 1024] })
        }

        pub fn register(&mut self, fd: CInt, token: u64, r: bool, w: bool) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_ADD, fd, interest_bits(r, w), token)
        }

        pub fn modify(&mut self, fd: CInt, token: u64, r: bool, w: bool) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_MOD, fd, interest_bits(r, w), token)
        }

        pub fn deregister(&mut self, fd: CInt) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as CInt,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Imp {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    //! The poll(2) fallback: the interest list lives in user space as a
    //! flat `pollfd` array. O(n) per wait, which is fine for the
    //! connection counts a non-Linux dev box sees.

    use super::{timeout_ms, PollEvent};
    use std::io;
    use std::time::Duration;

    type CInt = i32;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: CInt,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: CInt) -> CInt;
    }

    pub struct Imp {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    fn interest_bits(readable: bool, writable: bool) -> i16 {
        (if readable { POLLIN } else { 0 }) | (if writable { POLLOUT } else { 0 })
    }

    impl Imp {
        pub fn new() -> io::Result<Imp> {
            Ok(Imp { fds: Vec::new(), tokens: Vec::new() })
        }

        fn position(&self, fd: CInt) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn register(&mut self, fd: CInt, token: u64, r: bool, w: bool) -> io::Result<()> {
            if self.position(fd).is_ok() {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered twice"));
            }
            self.fds.push(PollFd { fd, events: interest_bits(r, w), revents: 0 });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: CInt, token: u64, r: bool, w: bool) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds[i].events = interest_bits(r, w);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: CInt) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let n = unsafe {
                poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms(timeout))
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (p, token) in self.fds.iter().zip(&self.tokens) {
                let bits = p.revents;
                if bits == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token: *token,
                    readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                    hangup: bits & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod imp {
    //! Non-unix stub: [`super::Poller::new`] already failed before this is
    //! reachable.

    use super::PollEvent;
    use std::io;
    use std::time::Duration;

    pub struct Imp;

    impl Imp {
        pub fn register(&mut self, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("poller cannot be constructed on non-unix")
        }
        pub fn modify(&mut self, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("poller cannot be constructed on non-unix")
        }
        pub fn deregister(&mut self, _: i32) -> io::Result<()> {
            unreachable!("poller cannot be constructed on non-unix")
        }
        pub fn wait(&mut self, _: &mut Vec<PollEvent>, _: Duration) -> io::Result<()> {
            unreachable!("poller cannot be constructed on non-unix")
        }
    }
}

/// Pins a socket's kernel send buffer (`SO_SNDBUF`). The slow-reader chaos
/// tests shrink it so a stalled peer back-pressures the server within a few
/// kilobytes instead of megabytes.
#[cfg(unix)]
pub fn set_sndbuf(fd: i32, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, sys::SO_SNDBUF, bytes)
}

/// Pins a socket's kernel receive buffer (`SO_RCVBUF`); the slow-reader
/// *client* shrinks its own window so the server's writes stall sooner.
#[cfg(unix)]
pub fn set_rcvbuf(fd: i32, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, sys::SO_RCVBUF, bytes)
}

#[cfg(unix)]
fn set_buf_opt(fd: i32, opt: i32, bytes: usize) -> io::Result<()> {
    let val = bytes.min(i32::MAX as usize) as i32;
    let rc = unsafe {
        sys::setsockopt(
            fd,
            sys::SOL_SOCKET,
            opt,
            (&val as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(not(unix))]
pub fn set_sndbuf(_fd: i32, _bytes: usize) -> io::Result<()> {
    Ok(())
}

#[cfg(not(unix))]
pub fn set_rcvbuf(_fd: i32, _bytes: usize) -> io::Result<()> {
    Ok(())
}

/// Raises the soft `RLIMIT_NOFILE` to the hard limit and returns
/// `(soft, hard)` afterwards. A 10k-connection drill needs two descriptors
/// per in-process connection; default soft limits (1024) would melt it.
#[cfg(unix)]
pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut std::ffi::c_void) -> i32;
        fn setrlimit(resource: i32, rlim: *const std::ffi::c_void) -> i32;
    }
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, (&mut lim as *mut RLimit).cast()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur < lim.max {
        let want = RLimit { cur: lim.max, max: lim.max };
        // Best effort: failure leaves the old soft limit, which we report.
        if unsafe { setrlimit(RLIMIT_NOFILE, (&want as *const RLimit).cast()) } == 0 {
            lim.cur = lim.max;
        }
    }
    Ok((lim.cur, lim.max))
}

#[cfg(not(unix))]
pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
    Ok((u64::MAX, u64::MAX))
}

/// The process's resident set size in KiB, from `/proc/self/status`
/// (`None` where that does not exist). The wire drill reports it so
/// "bounded memory at 10k connections" is a measured claim.
pub fn current_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_interrupts_a_long_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let started = std::time::Instant::now();
        let mut events = Vec::new();
        let woken = poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(woken, "waker must interrupt the wait");
        assert!(events.is_empty(), "wake events never surface as user events");
        assert!(started.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn readiness_follows_data_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7, true, false).unwrap();

        // Nothing to read yet: timeout, no events.
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());

        client.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while events.is_empty() {
            assert!(std::time::Instant::now() < deadline, "readable never reported");
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
        }
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: unread data keeps reporting.
        let mut again = Vec::new();
        poller.wait(&mut again, Duration::from_millis(50)).unwrap();
        assert!(again.iter().any(|e| e.token == 7 && e.readable));

        // Drain, then quiesce.
        let mut buf = [0u8; 16];
        let mut stream_ref = &server;
        let n = stream_ref.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        poller.wait(&mut again, Duration::from_millis(20)).unwrap();
        assert!(again.is_empty(), "drained fd must quiesce: {again:?}");

        // Write interest on an idle socket is immediately ready.
        poller.modify(server.as_raw_fd(), 7, false, true).unwrap();
        poller.wait(&mut again, Duration::from_millis(100)).unwrap();
        assert!(again.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(server.as_raw_fd()).unwrap();
        poller.wait(&mut again, Duration::from_millis(10)).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 3, true, false).unwrap();
        drop(client);

        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 3 && e.readable) {
                break; // EOF surfaces as readable (read returns 0).
            }
            assert!(std::time::Instant::now() < deadline, "hangup never reported");
        }
    }

    /// A peer that half-closes (`shutdown(SHUT_WR)`) is news only to a
    /// reader: without read interest the loop must not hear of it at all,
    /// or it would wake on every wait.
    #[test]
    fn half_closed_peer_reports_only_to_read_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 5, false, false).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(50)).unwrap();
        assert!(events.is_empty(), "no interest, yet woken: {events:?}");

        poller.modify(server.as_raw_fd(), 5, true, false).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !events.iter().any(|e| e.token == 5 && e.readable) {
            assert!(std::time::Instant::now() < deadline, "half-close never reported");
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
        }
    }

    #[test]
    fn rss_and_rlimit_helpers_answer() {
        let (soft, hard) = raise_nofile_limit().unwrap();
        assert!(soft >= 1 && hard >= soft);
        #[cfg(target_os = "linux")]
        assert!(current_rss_kb().unwrap() > 0);
    }

    #[test]
    fn sndbuf_can_be_pinned() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        set_sndbuf(server.as_raw_fd(), 8 * 1024).unwrap();
        set_rcvbuf(server.as_raw_fd(), 8 * 1024).unwrap();
    }
}
