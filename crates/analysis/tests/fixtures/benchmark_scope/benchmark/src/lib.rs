//! Scoping fixture: a harness under `benchmark/` may read wall clocks
//! (measuring is its job) but may not hold `unsafe`.

#![forbid(unsafe_code)]

use std::time::Instant;

pub fn stamp() -> Instant {
    Instant::now()
}

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
