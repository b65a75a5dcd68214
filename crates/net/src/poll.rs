//! Readiness polling in pure std — the server's event loops block here.
//!
//! Unix only, like the whole crate (its root refuses other targets).
//!
//! The repo's offline-build rule forbids external crates, so instead of mio
//! we declare `poll(2)` directly with an `extern "C"` block (std already
//! links libc; this adds no dependency). Level-triggered `poll` is the
//! right tool at this scale: the fd set is rebuilt per wait, which is O(n) —
//! exactly `poll`'s own cost — and stays allocation-free after warmup
//! because the backing `Vec` is reused.
//!
//! [`Waker`] is the classic self-pipe: a nonblocking `UnixStream::pair`
//! whose read end sits in every poll set, so another thread can interrupt a
//! blocked `poll` by writing one byte. That is what replaces the old
//! `sleep(5ms)` accept/stats loops — a server loop sleeps *in the
//! kernel* until a socket or a peer loop has something for it.

use std::io;
use std::time::Duration;

pub use std::os::unix::io::RawFd;

mod sys {
    use super::RawFd;
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux; the count is tiny either
        // way, so the widest unsigned type is safe everywhere std links
        // this symbol.
        pub fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// A reusable, rebuilt-per-wait `poll(2)` fd set.
#[derive(Default)]
pub struct PollSet {
    fds: Vec<sys::pollfd>,
}

impl PollSet {
    pub fn new() -> PollSet {
        PollSet { fds: Vec::new() }
    }

    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Register interest; returns the slot index for the readiness queries.
    pub fn push(&mut self, fd: RawFd, read: bool, write: bool) -> usize {
        let mut events = 0i16;
        if read {
            events |= sys::POLLIN;
        }
        if write {
            events |= sys::POLLOUT;
        }
        self.fds.push(sys::pollfd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Block until at least one fd is ready or the timeout elapses
    /// (`None` = forever). Returns the number of ready fds.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: std::os::raw::c_int = match timeout {
            None => -1,
            // Round up so a sub-millisecond deadline remainder never turns
            // into a zero-timeout busy spin.
            Some(d) => {
                d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as std::os::raw::c_int
            }
        };
        loop {
            let r = unsafe {
                sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as std::os::raw::c_ulong,
                    ms,
                )
            };
            if r >= 0 {
                return Ok(r as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// Readable, hung up, or errored — anything a read should react to
    /// (a read on a HUP/ERR fd surfaces the real error or EOF).
    pub fn readable(&self, i: usize) -> bool {
        self.fds[i].revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0
    }

    pub fn writable(&self, i: usize) -> bool {
        self.fds[i].revents & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0
    }
}

/// Self-pipe wakeup: `wake()` from any thread interrupts a `PollSet::wait`
/// that includes `fd()`. Writes are nonblocking and coalesce (a full pipe
/// already guarantees a pending wakeup), `drain()` empties the pipe.
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poll_reports_readable_pipe() {
        let (mut a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut ps = PollSet::new();
        let i = ps.push(b.as_raw_fd(), true, false);
        // Nothing written yet: a zero-timeout wait sees nothing.
        assert_eq!(ps.wait(Some(Duration::from_millis(0))).unwrap(), 0);
        assert!(!ps.readable(i));
        a.write_all(b"x").unwrap();
        ps.clear();
        let i = ps.push(b.as_raw_fd(), true, false);
        assert_eq!(ps.wait(Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(ps.readable(i));
        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let w = Waker::new().unwrap();
        let mut ps = PollSet::new();
        let i = ps.push(w.fd(), true, false);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            let wref = &w;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                wref.wake();
            });
            // Without the wake this would sleep the full 10 s.
            assert_eq!(ps.wait(Some(Duration::from_secs(10))).unwrap(), 1);
        });
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(ps.readable(i));
        w.drain();
        // Drained: an immediate re-poll is quiet again.
        ps.clear();
        ps.push(w.fd(), true, false);
        assert_eq!(ps.wait(Some(Duration::from_millis(0))).unwrap(), 0);
    }

    #[test]
    fn wake_coalesces_without_blocking() {
        let w = Waker::new().unwrap();
        // Far more wakes than the pipe buffer holds: must never block.
        for _ in 0..1_000_000 {
            w.wake();
        }
        w.drain();
    }
}
