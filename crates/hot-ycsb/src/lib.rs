//! YCSB-style index micro-benchmark (Section 6.1 of the HOT paper).
//!
//! Reimplements the workload setup of Zhang et al.'s index micro-benchmark
//! (itself adapted from the YCSB framework) that the paper's evaluation is
//! built on:
//!
//! * the six **core workloads** A–F ([`Workload`]) with their operation
//!   mixes (A: 50/50 read/update, B: 95/5, C: read-only, D: latest-read with
//!   5% inserts, E: 95% short range scans + 5% inserts, F: 50% read / 50%
//!   read-modify-write);
//! * **request distributions**: uniform and Zipfian (plus "latest" for
//!   workload D), via a faithful port of YCSB's incremental Zipfian
//!   generator ([`Zipfian`]);
//! * the four **data sets** ([`DatasetKind`]): synthetic stand-ins for the
//!   paper's url (≈55-byte URLs), email (≈23-byte addresses), yago (8-byte
//!   compound triples with the paper's exact bit layout) and integer
//!   (uniform 63-bit) keys — see DESIGN.md §5 for why the synthetic
//!   generators preserve the relevant key-distribution behaviour.
//!
//! The generator is deterministic given a seed, so every index structure
//! executes the identical operation sequence.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod dataset;
#[cfg(feature = "metrics")]
mod phase;
mod workload;
mod zipf;

pub use dataset::{Dataset, DatasetKind};
#[cfg(feature = "metrics")]
pub use phase::PhaseRecorder;
pub use workload::{BatchedOperation, Operation, RequestDistribution, Workload, WorkloadRun};
pub use zipf::Zipfian;
