//! Safe wrapper around the Linux epoll readiness multiplexer
//! (level-triggered).

use std::io;
use std::os::unix::io::RawFd;

use crate::sys;

/// What readiness to watch a descriptor for. Error/hang-up conditions
/// are always reported, whatever the interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer half-closed).
    pub readable: bool,
    /// Wake when the descriptor accepts writes again.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only — the state most connections idle in.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// A registration with no readiness interest (errors and hang-ups
    /// only); `interest_modification_and_delete` alone registers one.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Data can be read (or the peer sent FIN).
    pub readable: bool,
    /// The descriptor accepts writes.
    pub writable: bool,
    /// Error or full hang-up on the descriptor; the owner should try an
    /// I/O operation and retire it on failure.
    pub hangup: bool,
}

/// Reusable buffer [`Epoll::wait`] fills — sized once, no allocation per
/// poll round.
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// The events delivered by the most recent [`Epoll::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out of the (possibly packed) ABI struct first.
            let bits = raw.events;
            let data = raw.data;
            Event {
                token: data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            }
        })
    }
}

/// A level-triggered epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a new (close-on-exec) epoll instance.
    pub fn new() -> io::Result<Epoll> {
        Ok(Epoll {
            fd: sys::sys_epoll_create()?,
        })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(self.fd, sys::EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Registers a descriptor shared by several epoll instances (a
    /// listening socket) for read readiness with `EPOLLEXCLUSIVE`: a new
    /// connection wakes one of the threads waiting on those instances,
    /// not all of them. Linux refuses [`Epoll::modify`] on such a
    /// registration, so pausing it is [`Epoll::delete`] and resuming it
    /// is this call again.
    pub fn add_exclusive(&self, fd: RawFd, token: u64) -> io::Result<()> {
        let bits = sys::EPOLLIN | sys::EPOLLEXCLUSIVE;
        sys::sys_epoll_ctl(self.fd, sys::EPOLL_CTL_ADD, fd, bits, token)
    }

    /// Changes the interest of an already registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(self.fd, sys::EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Deregisters a descriptor. (Closing the fd deregisters implicitly;
    /// explicit removal keeps the lifecycle visible.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::sys_epoll_ctl(self.fd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout_ms` (`-1` = forever), filling
    /// `events`. Returns the number of events delivered. `EINTR` is
    /// retried internally.
    pub fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        events.len = sys::sys_epoll_wait(self.fd, &mut events.buf, timeout_ms)?;
        Ok(events.len)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys::sys_close(self.fd);
    }
}

// The kernel serializes epoll_ctl/epoll_wait on one instance.
unsafe impl Send for Epoll {}
unsafe impl Sync for Epoll {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn reports_read_readiness_with_token() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), 42, Interest::READ).unwrap();
        let mut events = Events::with_capacity(8);

        // Nothing readable yet: a zero-timeout wait delivers nothing.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 1_000).unwrap(), 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 42);
        assert!(ev.readable);
        assert!(!ev.writable);
    }

    #[test]
    fn interest_modification_and_delete() {
        let (_client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), 7, Interest::NONE).unwrap();
        let mut events = Events::with_capacity(8);

        // A fresh socket is writable once we ask for write readiness.
        let write_only = Interest {
            readable: false,
            writable: true,
        };
        epoll.modify(server.as_raw_fd(), 7, write_only).unwrap();
        assert_eq!(epoll.wait(&mut events, 1_000).unwrap(), 1);
        assert!(events.iter().next().unwrap().writable);

        epoll.delete(server.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn an_exclusive_listener_pauses_by_delete_and_resumes_by_add() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fd = listener.as_raw_fd();
        let (paused, open) = (Epoll::new().unwrap(), Epoll::new().unwrap());
        paused.add_exclusive(fd, 3).unwrap();
        open.add_exclusive(fd, 3).unwrap();
        assert!(paused.modify(fd, 3, Interest::READ).is_err());
        paused.delete(fd).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(4);
        assert_eq!(paused.wait(&mut events, 50).unwrap(), 0);
        assert_eq!(open.wait(&mut events, 1_000).unwrap(), 1);
        // Re-registered, it sees the connection still waiting.
        paused.add_exclusive(fd, 3).unwrap();
        assert_eq!(paused.wait(&mut events, 1_000).unwrap(), 1);
        assert!(events.iter().next().unwrap().readable);
    }

    #[test]
    fn peer_close_reported_as_readable() {
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(client);
        let mut events = Events::with_capacity(8);
        assert!(epoll.wait(&mut events, 1_000).unwrap() >= 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.readable || ev.hangup);
    }
}
