//! # cpm-sys — the workspace's only `unsafe` OS surface
//!
//! Everything above this crate is `#![forbid(unsafe_code)]`.  Two things the
//! workspace needs are not reachable from safe std, so they live here behind
//! safe wrappers:
//!
//! * [`poll`] — the readiness syscall the serving reactor needs (`poll(2)`),
//!   bounds-checked.  The crate declares the symbol directly against the C
//!   library std already links, so no external `libc` crate is required.
//! * [`pool`] — a persistent helper-thread pool that runs *borrowed* closures
//!   (`std::thread::scope` semantics without a spawn per call).  Its one
//!   `unsafe` line erases the borrow's lifetime; the module docs give the
//!   argument for why that is sound.
//!
//! Scope is deliberately tiny.  Anything else the workspace needs from the OS
//! goes through std.

#![warn(missing_docs)]

#[cfg(unix)]
pub mod poll;
pub mod pool;

#[cfg(unix)]
pub use poll::{poll_ready, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
