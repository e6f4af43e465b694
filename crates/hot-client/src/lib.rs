//! Client side of the hot-server binary protocol: a pipelining
//! [`Connection`] handle and the network YCSB driver ([`driver`]).
//!
//! The driver runs the paper's workload mix over the wire in two pacing
//! modes — closed-loop (bounded in-flight window, peak throughput) and
//! open-loop (fixed schedule, coordinated-omission-free latency) — and
//! carries its own in-process ground truth
//! ([`driver::expected_checksums`]) so every network run can be checked
//! byte-for-byte against the same operations executed directly on the
//! index.

#![deny(missing_docs)]

pub mod connection;
pub mod driver;

pub use connection::Connection;
pub use driver::{
    expected_checksums, run_closed_loop, run_open_loop, run_workload, NetRunReport, Pacing,
};
// Re-exported so that a caller of the run functions can build the registry
// they record into without naming hot-metrics as a direct dependency.
pub use hot_metrics::Registry;
