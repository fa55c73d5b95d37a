//! Offline static analysis and model checking for the sitw workspace.
//!
//! Two pillars, both std-only so they build in the same air-gapped
//! environment as the rest of the workspace:
//!
//! - [`lexer`] + [`rules`]: the `sitw-lint` engine. A hand-rolled
//!   Rust lexer (strings, nested comments, raw strings, lifetimes)
//!   feeds token-level rules that enforce the repo's written
//!   invariants — unsafe confinement, hot-path allocation and panic
//!   freedom, and clock discipline — with `file:line` diagnostics and
//!   `// sitw-lint: allow(...)` opt-outs.
//! - [`sched`]: a mini-loom interleaving checker that exhaustively
//!   enumerates schedules of the reactor's waker and slab protocols,
//!   proving no lost wakeup and no stale-token delivery at model
//!   scale, and demonstrating it would catch the bugs by refuting
//!   deliberately broken variants.
//!
//! The `sitw-lint` binary wires both into CI: lint the workspace, run
//! the tier-1 model sweep, exit nonzero on any finding.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod sched;
