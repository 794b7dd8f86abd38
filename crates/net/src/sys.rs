//! Raw epoll / pipe shims — the event loop's kernel interface without
//! the `libc` crate.
//!
//! The workspace's raw-syscall precedent lives here: the handful of
//! symbols the poll loop needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `pipe2`, `read`, `write`, `close`) are declared
//! `extern "C"` against the libc the Rust runtime already links, so the
//! workspace stays dependency-free.
//! This module is Linux-only (gated at the crate root); the wire codec
//! and load-generator math compile everywhere.
//!
//! [`Poller`] is a minimal level-triggered epoll wrapper: register a
//! fd with a `u64` token and an interest mask, wait, get back
//! [`Event`]s. Level-triggered is what makes read-readiness *gating*
//! work: a shard that stops polling `EPOLLIN` on a connection (because
//! its ingress queue is full) simply stops being told about readable
//! data — the bytes sit in the kernel socket buffer, the TCP window
//! closes, and the sender blocks. That is the whole back-pressure
//! path; no application-level acking needed.

use std::io;
use std::os::unix::io::RawFd;

/// Readable interest (also delivered on error/hang-up so a read can
/// observe the EOF).
pub const EPOLLIN: u32 = 0x1;
/// Writable interest.
pub const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
/// Peer shut down its write side.
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// One readiness notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data (or EOF/error — reads observe those too) can be read.
    pub readable: bool,
    /// The fd accepts writes again.
    pub writable: bool,
    /// The peer hung up or the fd errored; the connection is done.
    pub closed: bool,
}

// The kernel ABI packs epoll_event on x86_64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

// Symbols std's libc link already provides (see module docs).
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn __errno_location() -> *mut i32;
}

fn errno() -> i32 {
    // SAFETY: `__errno_location` returns a valid, aligned pointer to the
    // calling thread's errno, which lives as long as the thread.
    unsafe { *__errno_location() }
}

fn last_err(what: &str) -> io::Error {
    io::Error::other(format!("{what} failed (errno {})", errno()))
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: takes one integer flag and touches no caller memory;
        // failure is reported through the return value.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_err("epoll_create1"));
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest | EPOLLRDHUP,
            data: token,
        };
        let arg = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `arg` is null only for `EPOLL_CTL_DEL`, which ignores
        // it; otherwise it points at `ev`, a live `repr(C)` event on this
        // frame that the kernel only reads during the call.
        if unsafe { epoll_ctl(self.epfd, op, fd, arg) } < 0 {
            return Err(last_err("epoll_ctl"));
        }
        Ok(())
    }

    /// Register `fd` with a token and an `EPOLLIN`/`EPOLLOUT` mask.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change a registered fd's interest mask (0 mutes it — the gating
    /// move).
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregister a fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` (−1 blocks) and fill `out` with ready
    /// events. An interrupted wait returns 0 events, not an error.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        const MAX_EVENTS: usize = 64;
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: `buf` holds `MAX_EVENTS` writable events and the kernel
        // writes at most `maxevents` (= `MAX_EVENTS`) of them.
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
        if n < 0 {
            if errno() == EINTR {
                out.clear();
                return Ok(0);
            }
            return Err(last_err("epoll_wait"));
        }
        out.clear();
        for raw in buf.iter().take(n as usize) {
            let e = *raw;
            let bits = e.events;
            out.push(Event {
                token: e.data,
                readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was opened by `Poller::new`, is owned by this
        // value alone, and is closed exactly once, here.
        unsafe { close(self.epfd) };
    }
}

/// A nonblocking self-pipe: the cross-thread wake-up for a poll loop.
/// Register [`read_fd`](WakePipe::read_fd) in the loop's [`Poller`];
/// any thread may [`wake`](WakePipe::wake) it.
#[derive(Debug)]
pub struct WakePipe {
    r: i32,
    w: i32,
}

impl WakePipe {
    /// A fresh pipe pair (both ends nonblocking, close-on-exec).
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a writable array of the two `i32`s `pipe2`
        // fills.
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
            return Err(last_err("pipe2"));
        }
        Ok(WakePipe {
            r: fds[0],
            w: fds[1],
        })
    }

    /// The read end, for [`Poller::add`].
    pub fn read_fd(&self) -> RawFd {
        self.r
    }

    /// Nudge the poll loop. A full pipe already guarantees a pending
    /// wake-up, so `EAGAIN` is success.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: the kernel reads one byte from `byte`, a live local;
        // `w` stays open until this pipe is dropped.
        unsafe { write(self.w, &byte, 1) };
    }

    /// Swallow every queued wake-up byte.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: the kernel writes at most `buf.len()` bytes into the
            // local `buf`; `r` stays open until this pipe is dropped.
            let n = unsafe { read(self.r, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                debug_assert!(n > 0 || errno() == EAGAIN || errno() == EINTR || n == 0);
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: both ends were opened by `WakePipe::new`, are owned by
        // this value alone, and are closed exactly once, here.
        unsafe {
            close(self.r);
            close(self.w);
        }
    }
}

// SAFETY: the pipe is two fd integers with no thread-bound state, so
// moving it to another thread is sound.
unsafe impl Send for WakePipe {}
// SAFETY: a shared pipe only issues syscalls the kernel serializes: a
// one-byte `write` (≤ PIPE_BUF, atomic) and `read`s into local buffers.
unsafe impl Sync for WakePipe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_wakes_the_poller() {
        let poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.add(pipe.read_fd(), 7, EPOLLIN).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a short wait times out empty.
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty());
        // A wake from "another thread" is delivered with the token.
        pipe.wake();
        pipe.wake();
        poller.wait(&mut events, 1_000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].closed);
        // Drained, the pipe goes quiet (level-triggered would re-fire
        // otherwise).
        pipe.drain();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty());
        poller.delete(pipe.read_fd()).unwrap();
    }

    #[test]
    fn interest_masks_gate_delivery() {
        let poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        // Registered with an empty mask: a pending byte is NOT
        // delivered — the read-readiness gate.
        poller.add(pipe.read_fd(), 1, 0).unwrap();
        pipe.wake();
        let mut events = Vec::new();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty(), "muted fd must stay silent");
        // Re-opening the gate delivers the byte that waited.
        poller.modify(pipe.read_fd(), 1, EPOLLIN).unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        assert_eq!(events.len(), 1);
    }
}
