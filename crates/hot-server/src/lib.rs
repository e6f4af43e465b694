//! A TCP key-value front-end for the HOT reproduction.
//!
//! This crate turns the sharded concurrent trie ([`hot_core::ShardedHot`])
//! into a network service speaking a length-prefixed binary protocol
//! ([`protocol`]): GET / PUT / DEL / SCAN / RESUME frames, fully
//! pipelineable, decoded incrementally from arbitrary read boundaries.
//! Pipelining is the only batching: the server ([`server`]) drains each
//! connection's pipelined request window into the index's batched entry
//! points — the same
//! memory-level-parallel paths the in-process benchmarks exercise — so the
//! figures measured over loopback differ from the in-process ones by
//! protocol + syscall cost only (EXPERIMENTS.md discusses the
//! methodology).
//!
//! Because HOT is a secondary index (TIDs in the trie, key bytes in the
//! tuple store), the service is an *index server over a shared corpus*:
//! server and client materialize the same deterministic dataset
//! ([`store`]) and a PUT's TID is validated against that corpus before it
//! may enter the index.
//!
//! The `hot-server` binary serves one corpus from the command line; the
//! companion `hot-client` crate holds the connection handle and the
//! network YCSB driver.

#![deny(missing_docs)]

pub mod protocol;
pub mod server;
pub mod store;

pub use protocol::{FrameDecoder, ProtoError, Request, Response, MAX_FRAME, MAX_KEY};
pub use server::{start, start_with_data, ServerConfig, ServerHandle, ServerStats};
pub use store::{net_data_for, NetData};
