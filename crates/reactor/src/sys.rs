//! Raw Linux syscall bindings — the only `unsafe` in the workspace.
//!
//! Declarations mirror the glibc/musl prototypes; constants mirror the
//! kernel ABI (`<sys/epoll.h>`, `<sys/eventfd.h>`, `<sys/resource.h>`).
//! Everything here is `pub(crate)` and consumed through the safe
//! wrappers in the sibling modules.

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLEXCLUSIVE: u32 = 1 << 28;

pub(crate) const EPOLL_CTL_ADD: c_int = 1;
pub(crate) const EPOLL_CTL_DEL: c_int = 2;
pub(crate) const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const RLIMIT_NOFILE: c_int = 7;

/// The kernel's `struct epoll_event`. Packed on x86-64 (a quirk the ABI
/// froze in); naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

pub(crate) fn sys_epoll_create() -> io::Result<c_int> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

pub(crate) fn sys_epoll_ctl(
    epfd: c_int,
    op: c_int,
    fd: c_int,
    events: u32,
    data: u64,
) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Waits for readiness; retries on `EINTR`. Returns the number of
/// events written into `buf`.
pub(crate) fn sys_epoll_wait(
    epfd: c_int,
    buf: &mut [EpollEvent],
    timeout_ms: c_int,
) -> io::Result<usize> {
    loop {
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

pub(crate) fn sys_eventfd() -> io::Result<c_int> {
    cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
}

/// Adds 1 to an eventfd counter. `EAGAIN` (counter saturated) is fine —
/// the reader is already guaranteed a wakeup.
pub(crate) fn sys_eventfd_signal(fd: c_int) {
    let one: u64 = 1;
    unsafe { write(fd, (&one as *const u64).cast(), 8) };
}

/// Reads (and thereby zeroes) an eventfd counter; `EAGAIN` when it was
/// already zero.
pub(crate) fn sys_eventfd_drain(fd: c_int) {
    let mut counter: u64 = 0;
    unsafe { read(fd, (&mut counter as *mut u64).cast(), 8) };
}

pub(crate) fn sys_close(fd: c_int) {
    unsafe { close(fd) };
}

/// Raises the soft `RLIMIT_NOFILE` toward `min(target, hard)`; returns
/// the soft limit now in effect.
pub(crate) fn sys_raise_nofile(target: u64) -> io::Result<u64> {
    let mut lim = Rlimit { cur: 0, max: 0 };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    let want = target.min(lim.max);
    if want > lim.cur {
        let new = Rlimit {
            cur: want,
            max: lim.max,
        };
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
        return Ok(want);
    }
    Ok(lim.cur)
}
