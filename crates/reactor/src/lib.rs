//! Event-loop primitives for the serving daemon's connection reactor.
//!
//! The workspace builds with no crates.io access, so this crate is the
//! offline stand-in for the corner of `mio`/`libc` the daemon needs: raw
//! `extern "C"` bindings to the Linux `epoll`, `eventfd`, and `rlimit`
//! syscalls ([`sys`], the only module containing `unsafe`), wrapped in
//! safe, misuse-resistant types:
//!
//! * [`Epoll`] — a level-triggered readiness multiplexer. Register a
//!   file descriptor with a `u64` token and an [`Interest`]; [`Epoll::wait`]
//!   fills a reusable [`Events`] buffer without allocating. A listening
//!   socket shared by several event loops is registered with
//!   [`Epoll::add_exclusive`], so a new connection wakes one of them.
//! * [`Waker`] — an `eventfd` plus an *armed* flag. Event-loop threads
//!   arm it just before blocking in `epoll_wait`; producers on other
//!   threads call [`Waker::wake`], which only pays the `write(2)` when
//!   the loop is actually (about to be) asleep. That keeps cross-thread
//!   hand-offs syscall-free while the loop is busy.
//! * [`Slab`] — a generational arena for per-connection state. Tokens
//!   embed a generation, so a message routed to a connection that died
//!   (and whose slot was reused) is detected and dropped instead of
//!   being delivered to the new occupant.
//! * [`raise_nofile_limit`] — lifts `RLIMIT_NOFILE` toward its hard
//!   cap, for stress tests and deployments holding thousands of mostly
//!   idle sockets.
//!
//! Everything is `std`-only and thread-safe where it claims to be;
//! `Epoll` and `Waker` are `Sync` (the kernel serializes the underlying
//! syscalls), `Slab` is plain data owned by one loop.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "sitw-reactor binds the Linux epoll/eventfd syscalls directly; \
     ports to other platforms need a kqueue/poll backend here"
);

mod epoll;
mod rlimit;
mod slab;
mod sys;
mod wake;

pub use epoll::{Epoll, Event, Events, Interest};
pub use rlimit::raise_nofile_limit;
pub use slab::Slab;
pub use wake::Waker;
