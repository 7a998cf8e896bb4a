//! Offline shim of the `mio` readiness-polling model: the subset
//! `eccparityd`'s evented front-end and `eccparity-loadgen`'s
//! multiplexed client need, implemented directly over `epoll(7)` on
//! Linux with a portable `poll(2)` fallback. This is a *style*-alike,
//! not a drop-in replacement for upstream `mio`: sources are registered
//! by raw fd (anything [`AsRawFd`]), readiness is level-triggered, and
//! there is exactly one [`Waker`] slot per [`Poll`].
//!
//! Backend selection: Linux uses `epoll` unless the
//! `ECC_PARITY_FORCE_POLL=1` knob forces the `poll(2)` backend (the
//! portable path CI exercises so a regression there cannot hide behind
//! epoll); other Unixes always use `poll(2)`.
//!
//! Level-triggered semantics are what the server's interest re-arming
//! relies on: a socket with unread bytes or writable buffer space keeps
//! firing until the interest is changed with [`Poll::reregister`], so a
//! handler that processes only part of the readable data is woken again
//! on the next [`Poll::poll`] call rather than hanging.
//!
//! This crate is the workspace's only home for unsafe FFI to the
//! polling syscalls; `crates/service` stays `#![forbid(unsafe_code)]`.

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---- raw syscall bindings --------------------------------------------------
//
// Bound directly (the workspace vendors no `libc`): signatures and
// constants per the Linux x86-64 ABI, which is the only tier this repo
// builds on in CI. `epoll_event` is packed on x86-64 — getting that
// wrong corrupts every second event's token.

#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---- public surface --------------------------------------------------------

/// Caller-chosen identifier attached to a registration; every readiness
/// [`Event`] carries the token of the source that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for. Combine with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the source has bytes to read (or hit EOF / an error).
    pub const READABLE: Interest = Interest(0b01);
    /// Wake when the source can accept writes without blocking.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Does this interest include the read direction?
    pub fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Does this interest include the write direction?
    pub fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness notification. Error and hang-up conditions are folded
/// into *both* directions so the owning handler always runs, observes
/// the failing `read`/`write`, and tears the connection down — there is
/// no separate error event to forget to handle.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
}

impl Event {
    /// Token of the registration that fired.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Reading will make progress (data, EOF, or a reportable error).
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Writing will make progress (buffer space or a reportable error).
    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// Reusable buffer of readiness notifications filled by [`Poll::poll`].
pub struct Events {
    inner: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// A buffer returning at most `capacity` events per poll call.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Iterate the events from the last poll call.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// Did the last poll call deliver nothing (timeout or wake)?
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

#[derive(Debug, Clone, Copy)]
struct Reg {
    fd: RawFd,
    token: Token,
    interest: Interest,
}

enum Backend {
    Epoll { epfd: RawFd },
    Poll { regs: Mutex<Vec<Reg>> },
}

/// The readiness selector: register sources, then [`Poll::poll`] for
/// events. All methods take `&self`; a `Poll` may be shared behind an
/// `Arc` with a [`Waker`] on another thread.
pub struct Poll {
    backend: Backend,
    /// Read end of the waker pipe (-1 when no waker was created); its
    /// pending bytes are drained inside `poll` so a level-triggered
    /// backend does not spin on an old wake.
    waker_read: AtomicI32,
}

/// `true` when the `ECC_PARITY_FORCE_POLL` knob forces the portable
/// `poll(2)` backend even where epoll is available.
pub fn force_poll_backend() -> bool {
    std::env::var("ECC_PARITY_FORCE_POLL").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

impl Poll {
    /// Open a selector on the platform's best backend (see crate docs).
    pub fn new() -> io::Result<Poll> {
        let use_epoll = cfg!(target_os = "linux") && !force_poll_backend();
        let backend = if use_epoll {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Backend::Epoll { epfd }
        } else {
            Backend::Poll {
                regs: Mutex::new(Vec::new()),
            }
        };
        Ok(Poll {
            backend,
            waker_read: AtomicI32::new(-1),
        })
    }

    /// Which backend this selector runs on (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        }
    }

    /// Start watching `source` for `interest`, tagging events `token`.
    /// The source must already be (and stay) open; it is identified by
    /// raw fd, so dropping it without [`Poll::deregister`] is a bug.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.register_fd(source.as_raw_fd(), token, interest)
    }

    fn register_fd(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &self.backend {
            Backend::Epoll { epfd } => {
                let mut ev = EpollEvent {
                    events: epoll_mask(interest),
                    data: token.0 as u64,
                };
                cvt(unsafe { epoll_ctl(*epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
            }
            Backend::Poll { regs } => {
                let mut regs = regs.lock().expect("poll registration lock");
                if regs.iter().any(|r| r.fd == fd) {
                    return Err(io::Error::from(io::ErrorKind::AlreadyExists));
                }
                regs.push(Reg {
                    fd,
                    token,
                    interest,
                });
                Ok(())
            }
        }
    }

    /// Change the token and/or interest of an already-registered source.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &self.backend {
            Backend::Epoll { epfd } => {
                let mut ev = EpollEvent {
                    events: epoll_mask(interest),
                    data: token.0 as u64,
                };
                cvt(unsafe { epoll_ctl(*epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
            }
            Backend::Poll { regs } => {
                let mut regs = regs.lock().expect("poll registration lock");
                match regs.iter_mut().find(|r| r.fd == fd) {
                    Some(r) => {
                        r.token = token;
                        r.interest = interest;
                        Ok(())
                    }
                    None => Err(io::Error::from(io::ErrorKind::NotFound)),
                }
            }
        }
    }

    /// Stop watching a source. Must happen before its fd is closed (a
    /// closed fd is auto-removed by epoll but would poison the `poll(2)`
    /// backend's fd list with `POLLNVAL`).
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &self.backend {
            Backend::Epoll { epfd } => {
                let mut ev = EpollEvent { events: 0, data: 0 };
                cvt(unsafe { epoll_ctl(*epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
            }
            Backend::Poll { regs } => {
                let mut regs = regs.lock().expect("poll registration lock");
                let before = regs.len();
                regs.retain(|r| r.fd != fd);
                if regs.len() == before {
                    return Err(io::Error::from(io::ErrorKind::NotFound));
                }
                Ok(())
            }
        }
    }

    /// Block until at least one registered source is ready, the timeout
    /// elapses (`events` left empty), or a [`Waker`] fires. Waker bytes
    /// are drained here; the waker's event is still delivered so the
    /// loop can distinguish a wake from a timeout.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 1ns timeout still sleeps rather than spins.
            Some(d) => {
                let round_up = u128::from(d.subsec_nanos() % 1_000_000 != 0);
                (d.as_millis() + round_up).min(i32::MAX as u128) as i32
            }
        };
        match &self.backend {
            Backend::Epoll { epfd } => {
                let mut raw = vec![EpollEvent { events: 0, data: 0 }; events.capacity];
                let n = loop {
                    let r = unsafe {
                        epoll_wait(*epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms)
                    };
                    if r >= 0 {
                        break r as usize;
                    }
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                for ev in &raw[..n] {
                    let bits = ev.events;
                    events.inner.push(Event {
                        token: Token(ev.data as usize),
                        readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                        writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                    });
                }
            }
            Backend::Poll { regs } => {
                let snapshot: Vec<Reg> = regs.lock().expect("poll registration lock").clone();
                let mut fds: Vec<PollFd> = snapshot
                    .iter()
                    .map(|r| PollFd {
                        fd: r.fd,
                        events: (if r.interest.is_readable() { POLLIN } else { 0 })
                            | (if r.interest.is_writable() { POLLOUT } else { 0 }),
                        revents: 0,
                    })
                    .collect();
                let n = loop {
                    let r = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                    if r >= 0 {
                        break r as usize;
                    }
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                if n > 0 {
                    for (pfd, reg) in fds.iter().zip(&snapshot) {
                        let got = pfd.revents;
                        if got == 0 {
                            continue;
                        }
                        if events.inner.len() == events.capacity {
                            break;
                        }
                        events.inner.push(Event {
                            token: reg.token,
                            readable: got & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0,
                            writable: got & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0,
                        });
                    }
                }
            }
        }
        let waker_fd = self.waker_read.load(Ordering::Acquire);
        if waker_fd >= 0 && events.inner.iter().any(|e| e.readable) {
            // Drain any pending wake bytes (nonblocking read-until-empty).
            let mut buf = [0u8; 64];
            while unsafe { read(waker_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
        Ok(())
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        if let Backend::Epoll { epfd } = self.backend {
            unsafe { close(epfd) };
        }
        let waker_fd = self.waker_read.load(Ordering::Acquire);
        if waker_fd >= 0 {
            unsafe { close(waker_fd) };
        }
    }
}

fn epoll_mask(interest: Interest) -> u32 {
    let mut m = 0;
    if interest.is_readable() {
        m |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.is_writable() {
        m |= EPOLLOUT;
    }
    m
}

struct WakerInner {
    write_fd: RawFd,
}

impl Drop for WakerInner {
    fn drop(&mut self) {
        unsafe { close(self.write_fd) };
    }
}

/// Cross-thread wakeup for a [`Poll`]: a nonblocking self-pipe whose
/// read end is registered like any other source. Cheap to clone; any
/// clone's [`Waker::wake`] interrupts the owning `poll` call, which
/// then sees an event carrying the waker's token.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl Waker {
    /// Create the waker for `poll`, delivering wake events as `token`.
    /// One waker per `Poll` (a second call replaces which pipe gets
    /// drained and leaks the first's read registration — don't).
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        let mut fds = [-1i32; 2];
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        let (read_fd, write_fd) = (fds[0], fds[1]);
        if let Err(e) = poll.register_fd(read_fd, token, Interest::READABLE) {
            unsafe {
                close(read_fd);
                close(write_fd);
            }
            return Err(e);
        }
        poll.waker_read.store(read_fd, Ordering::Release);
        Ok(Waker {
            inner: Arc::new(WakerInner { write_fd }),
        })
    }

    /// Interrupt the owning `Poll::poll` call. Idempotent while a wake
    /// is already pending (the pipe is nonblocking; a full pipe already
    /// guarantees a wakeup is due).
    pub fn wake(&self) -> io::Result<()> {
        let n = unsafe { write(self.inner.write_fd, [1u8].as_ptr(), 1) };
        if n == 1 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::WouldBlock {
            Ok(())
        } else {
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::UnixStream;

    fn backends() -> Vec<Poll> {
        // Default backend (epoll on Linux), then the portable fallback,
        // constructed directly so the test does not mutate process env.
        vec![
            Poll::new().unwrap(),
            Poll {
                backend: Backend::Poll {
                    regs: Mutex::new(Vec::new()),
                },
                waker_read: AtomicI32::new(-1),
            },
        ]
    }

    #[test]
    fn readable_when_peer_writes_and_on_eof() {
        for poll in backends() {
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poll.register(&b, Token(7), Interest::READABLE).unwrap();
            let mut events = Events::with_capacity(8);

            // Nothing pending: a zero timeout returns empty.
            poll.poll(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert!(events.is_empty(), "{}", poll.backend_name());

            a.write_all(b"hi").unwrap();
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let ev = events.iter().next().expect("readable event");
            assert_eq!(ev.token(), Token(7));
            assert!(ev.is_readable());
            let mut buf = [0u8; 8];
            let mut br = &b;
            assert_eq!(br.read(&mut buf).unwrap(), 2);

            // EOF must also read as readable so handlers observe it.
            drop(a);
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events
                .iter()
                .any(|e| e.token() == Token(7) && e.is_readable()));
            poll.deregister(&b).unwrap();
        }
    }

    #[test]
    fn writable_interest_and_reregister() {
        for poll in backends() {
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            poll.register(&a, Token(1), Interest::READABLE).unwrap();
            let mut events = Events::with_capacity(8);
            // Read-only interest: a writable-but-silent socket is quiet.
            poll.poll(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert!(events.is_empty(), "{}", poll.backend_name());
            // Re-arm for writes: an empty send buffer fires immediately.
            poll.reregister(&a, Token(2), Interest::READABLE | Interest::WRITABLE)
                .unwrap();
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let ev = events.iter().next().expect("writable event");
            assert_eq!(ev.token(), Token(2));
            assert!(ev.is_writable());
            poll.deregister(&a).unwrap();
            drop(b);
        }
    }

    #[test]
    fn waker_interrupts_a_long_poll() {
        for poll in backends() {
            let poll = Arc::new(poll);
            let waker = Waker::new(&poll, Token(0)).unwrap();
            let w2 = waker.clone();
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                w2.wake().unwrap();
            });
            let mut events = Events::with_capacity(4);
            let t0 = std::time::Instant::now();
            poll.poll(&mut events, Some(Duration::from_secs(30)))
                .unwrap();
            assert!(t0.elapsed() < Duration::from_secs(10));
            assert!(events.iter().any(|e| e.token() == Token(0)));
            // The wake byte was drained: the next zero-timeout poll is quiet.
            poll.poll(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert!(
                !events.iter().any(|e| e.token() == Token(0)),
                "{}",
                poll.backend_name()
            );
            t.join().unwrap();
        }
    }

    #[test]
    fn double_wake_coalesces_and_repeated_wakes_never_block() {
        for poll in backends() {
            let poll = Arc::new(poll);
            let waker = Waker::new(&poll, Token(9)).unwrap();
            for _ in 0..100_000 {
                waker.wake().unwrap();
            }
            let mut events = Events::with_capacity(4);
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token() == Token(9)));
        }
    }
}
