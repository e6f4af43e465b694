//! Client side of the hot-server binary protocol: a pipelining
//! [`Connection`] handle and the network YCSB driver
//! ([`run_closed_loop`]).
//!
//! The driver runs the paper's workload mix over the wire with a bounded
//! window of requests in flight, and carries its own in-process ground
//! truth ([`expected_checksums`]) so every network run can be checked
//! byte-for-byte against the same operations executed directly on the
//! index.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod connection;
mod driver;

pub use connection::Connection;
pub use driver::{expected_checksums, run_closed_loop};
