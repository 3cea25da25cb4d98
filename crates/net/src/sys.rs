//! Readiness polling without dependencies.
//!
//! The container (and CI) have no registry access, so the event loop
//! cannot lean on `mio` or `tokio`. Instead this module declares the
//! handful of libc symbols the Rust standard library already links —
//! `epoll_*` on Linux, `poll` everywhere Unix — and wraps them in a
//! small [`Poller`] plus a pipe-based [`WakePipe`] that lets worker
//! threads interrupt a blocked wait.
//!
//! The platform picks the backend; [`Poller`] names its type:
//!
//! * `EpollPoller` on Linux: one `epoll_create1` instance, O(ready)
//!   wakeups.
//! * `PollPoller` on every other Unix: a rebuilt `pollfd` array per
//!   wait, O(registered). It is also compiled into Linux unit-test
//!   builds, so the tests below run both backends on one machine.
//!
//! Both expose the same methods. Everything here is level-triggered:
//! the edge reads/writes until `WouldBlock` and keeps interest flags in
//! sync with what it still wants to do, so no readiness is ever lost.

#![cfg(unix)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
#[cfg(any(test, not(target_os = "linux")))]
use std::{collections::HashMap, os::raw::c_ulong};

// Symbols provided by the platform libc that std already links; declaring
// them here adds no cargo dependency.
extern "C" {
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

#[cfg(any(test, not(target_os = "linux")))]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int)
        -> c_int;
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0x800;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x4; // BSD family

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or peer hung up — a read will observe EOF/error).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup. These conditions are reported by the kernel
    /// even with an empty interest set, so a consumer that has stopped
    /// reading must act on this flag (close the connection) or the
    /// level-triggered poller will re-deliver the event forever.
    pub hangup: bool,
}

/// The platform's level-triggered readiness poller: epoll on Linux.
#[cfg(target_os = "linux")]
pub(crate) type Poller = EpollPoller;
/// The platform's level-triggered readiness poller: `poll(2)` off Linux.
#[cfg(not(target_os = "linux"))]
pub(crate) type Poller = PollPoller;

// ---------------------------------------------------------------- epoll

#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: c_int = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: c_int = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: c_int = 3;
#[cfg(target_os = "linux")]
const EPOLLIN: u32 = 0x1;
#[cfg(target_os = "linux")]
const EPOLLOUT: u32 = 0x4;
#[cfg(target_os = "linux")]
const EPOLLERR: u32 = 0x8;
#[cfg(target_os = "linux")]
const EPOLLHUP: u32 = 0x10;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// The kernel ABI packs `epoll_event` on x86-64 (and only there).
#[cfg(target_os = "linux")]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
pub(crate) struct EpollPoller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointer is passed. A non-negative result is a new fd
        // that this poller owns and closes exactly once, in `Drop`.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Starts watching `fd`; future events carry `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, r, w)
    }

    /// Updates the interest set of an already-registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, r, w)
    }

    /// Stops watching `fd`. Must be called *before* the descriptor is
    /// closed (closing an epoll-registered fd leaks the registration).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: if r { EPOLLIN } else { 0 } | if w { EPOLLOUT } else { 0 },
            data: token,
        };
        // SAFETY: `self.epfd` is owned by this poller and stays open until
        // `Drop`; `ev` is a live, initialised `EpollEvent` for the whole
        // call. A stale or foreign `fd` is an error return, not UB.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks up to `timeout_ms` for readiness; appends events to `out`
    /// (cleared first). A negative timeout blocks indefinitely.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        // SAFETY: the kernel writes at most `maxevents` = `self.buf.len()`
        // (256, fits `c_int`) entries into `self.buf`, which holds that
        // many initialised `EpollEvent`s; `self.epfd` is owned and open.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // EINTR: treat as a timeout tick
            }
            return Err(err);
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                // Errors and hangups surface as readability so the next
                // read observes the failure and the connection is reaped.
                readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: this poller owns `epfd` alone and `Drop` runs once, so
        // the fd is closed exactly once and never used afterwards.
        unsafe { close(self.epfd) };
    }
}

// ----------------------------------------------------------------- poll

#[cfg(any(test, not(target_os = "linux")))]
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[cfg(any(test, not(target_os = "linux")))]
const POLLIN: i16 = 0x1;
#[cfg(any(test, not(target_os = "linux")))]
const POLLOUT: i16 = 0x4;
#[cfg(any(test, not(target_os = "linux")))]
const POLLERR: i16 = 0x8;
#[cfg(any(test, not(target_os = "linux")))]
const POLLHUP: i16 = 0x10;
#[cfg(any(test, not(target_os = "linux")))]
const POLLNVAL: i16 = 0x20;

#[cfg(any(test, not(target_os = "linux")))]
pub(crate) struct PollPoller {
    /// fd → (token, read interest, write interest).
    fds: HashMap<RawFd, (u64, bool, bool)>,
    scratch: Vec<PollFd>,
    tokens: Vec<u64>,
}

#[cfg(any(test, not(target_os = "linux")))]
impl PollPoller {
    pub fn new() -> io::Result<Self> {
        Ok(PollPoller {
            fds: HashMap::new(),
            scratch: Vec::new(),
            tokens: Vec::new(),
        })
    }

    /// Starts watching `fd`; future events carry `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
        self.fds.insert(fd, (token, r, w));
        Ok(())
    }

    /// Updates the interest set of an already-registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
        self.register(fd, token, r, w)
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.fds.remove(&fd);
        Ok(())
    }

    /// Blocks up to `timeout_ms` for readiness; appends events to `out`
    /// (cleared first). A negative timeout blocks indefinitely.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        self.scratch.clear();
        self.tokens.clear();
        for (&fd, &(token, r, w)) in &self.fds {
            self.scratch.push(PollFd {
                fd,
                events: if r { POLLIN } else { 0 } | if w { POLLOUT } else { 0 },
                revents: 0,
            });
            self.tokens.push(token);
        }
        // SAFETY: `self.scratch` holds `nfds` = `self.scratch.len()`
        // initialised `#[repr(C)]` `PollFd`s (the `pollfd` layout), and
        // `poll(2)` reads and writes only those. The fds are the caller's
        // registrations; one closed since is reported as POLLNVAL.
        let n = unsafe {
            poll(
                self.scratch.as_mut_ptr(),
                self.scratch.len() as c_ulong,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (pfd, &token) in self.scratch.iter().zip(&self.tokens) {
            let bits = pfd.revents;
            if bits == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: bits & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0,
                writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                hangup: bits & (POLLERR | POLLHUP | POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- waker

/// A self-pipe: worker threads write one byte to wake the event loop out
/// of its poller wait; the loop drains the pipe and processes whatever
/// the workers left in the completion list.
///
/// Both ends are non-blocking. A full pipe simply drops the wake byte —
/// harmless, because a full pipe already guarantees a pending wakeup.
pub(crate) struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

// SAFETY: a `WakePipe` is two integer fds it owns until `Drop`, which
// needs exclusive access; moving it to another thread moves that
// ownership and nothing else.
unsafe impl Send for WakePipe {}
// SAFETY: every `&self` method is one `read(2)` or `write(2)` call on fds
// that stay open while any reference exists; concurrent one-byte pipe
// writes are atomic, and each `drain` reads into its own stack buffer.
unsafe impl Sync for WakePipe {}

impl WakePipe {
    pub fn new() -> io::Result<Self> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a two-element `c_int` array, exactly what
        // `pipe(2)` writes.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            // SAFETY: `fd` came from the `pipe(2)` call above and is owned
            // here; F_GETFL passes no pointer.
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            // SAFETY: the same owned `fd`; F_SETFL passes an integer flag
            // word, no pointer.
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                let err = io::Error::last_os_error();
                // SAFETY: both fds came from the successful `pipe(2)` above
                // and no `WakePipe` owns them yet, so this is their only
                // close.
                unsafe {
                    close(fds[0]);
                    close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The readable end, for registration with the [`Poller`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the poller (callable from any thread; never blocks).
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: `byte` is one readable byte on the stack and `count` is
        // 1; `write_fd` is owned and open until `Drop`.
        unsafe { write(self.write_fd, &byte as *const u8 as *const c_void, 1) };
    }

    /// Drains pending wake bytes (event-loop side).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `buf` is a writable 64-byte stack array and `count` is
            // `buf.len()`; `read_fd` is owned and open until `Drop`.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: the pipe owns both fds and `Drop` runs once, so each is
        // closed exactly once and never used afterwards.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::fd::AsRawFd;

    /// Runs `$body` once per backend compiled into this build (epoll
    /// and poll on Linux, poll elsewhere), with `$poller` bound to a
    /// fresh poller and `$name` to its backend name.
    macro_rules! for_each_poller {
        (|$poller:ident, $name:ident| $body:block) => {{
            #[cfg(target_os = "linux")]
            {
                let mut $poller = EpollPoller::new().unwrap();
                let $name = "epoll";
                $body
            }
            {
                let mut $poller = PollPoller::new().unwrap();
                let $name = "poll";
                $body
            }
        }};
    }

    #[test]
    fn wake_pipe_round_trips() {
        let w = WakePipe::new().unwrap();
        w.wake();
        w.wake();
        w.drain(); // must not block even after multiple wakes
        w.drain(); // and must not block when empty
    }

    #[test]
    fn both_backends_see_socket_readiness() {
        for_each_poller!(|poller, name| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();

            poller
                .register(listener.as_raw_fd(), 7, true, false)
                .unwrap();

            // Nothing pending: a short wait returns no events.
            let mut events = Vec::new();
            poller.wait(&mut events, 10).unwrap();
            assert!(events.is_empty(), "{name}: spurious event");

            // A connection attempt makes the listener readable.
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            poller.wait(&mut events, 1000).unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{name}: accept readiness missed"
            );
            let (mut peer, _) = listener.accept().unwrap();

            // The accepted socket is immediately writable.
            poller.register(peer.as_raw_fd(), 9, false, true).unwrap();
            poller.wait(&mut events, 1000).unwrap();
            assert!(
                events.iter().any(|e| e.token == 9 && e.writable),
                "{name}: write readiness missed"
            );

            // Data from the client makes it readable after a modify.
            poller.modify(peer.as_raw_fd(), 9, true, false).unwrap();
            client.write_all(b"ping").unwrap();
            poller.wait(&mut events, 1000).unwrap();
            assert!(
                events.iter().any(|e| e.token == 9 && e.readable),
                "{name}: read readiness missed"
            );
            let mut buf = [0u8; 8];
            peer.set_nonblocking(true).unwrap();
            assert_eq!(peer.read(&mut buf).unwrap(), 4);

            poller.deregister(peer.as_raw_fd()).unwrap();
            poller.deregister(listener.as_raw_fd()).unwrap();
        });
    }

    #[test]
    fn waker_interrupts_a_long_wait() {
        for_each_poller!(|poller, name| {
            let w = std::sync::Arc::new(WakePipe::new().unwrap());
            poller.register(w.read_fd(), 1, true, false).unwrap();

            let w2 = w.clone();
            let t = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                w2.wake();
            });
            let start = std::time::Instant::now();
            let mut events = Vec::new();
            // Without the wake this would block for 5 s.
            poller.wait(&mut events, 5000).unwrap();
            assert!(start.elapsed().as_secs() < 4, "{name}: not woken");
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
            w.drain();
            t.join().unwrap();
        });
    }
}
