//! The network YCSB driver: closed-loop workload execution over one
//! pipelined connection, plus the in-process reference it is checked
//! against.
//!
//! Checksum parity is the driver's contract: for workloads A–E (no
//! read-modify-write, so every operation is independent of in-flight
//! responses) the checksum computed over the wire must be byte-identical
//! to the in-process one over the same corpus — the server executes each
//! connection's stream in request order, TCP preserves response order, and
//! the checksum (summed found-TIDs and scan counts) is insensitive to how
//! requests were grouped into windows.

use crate::connection::Connection;
use hot_core::ShardedHot;
use hot_metrics::{OpKind, Registry};
use hot_server::{NetData, Request, Response};
use hot_ycsb::{Operation, RequestDistribution, Workload, WorkloadRun};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Instant;

/// One phase's result: throughput, latency percentiles, and the checksum
/// the parity gates compare.
#[derive(Debug, Clone)]
pub struct NetRunReport {
    /// Operations executed.
    pub ops: usize,
    /// Million operations per second, end to end.
    pub mops: f64,
    /// Summed found-TIDs (reads) and result counts (scans).
    pub checksum: u64,
    /// Median per-operation latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile latency in microseconds.
    pub p999_us: f64,
}

/// Map one YCSB operation onto a wire request and the metric kind its
/// latency is recorded under.
fn to_request(op: &Operation, data: &NetData) -> (Request, OpKind) {
    match *op {
        Operation::Read(idx) => {
            (Request::Get { key: data.dataset.keys[idx].clone() }, OpKind::NetGet)
        }
        Operation::Update(idx) | Operation::Insert(idx) => (
            Request::Put { tid: data.tids[idx], key: data.dataset.keys[idx].clone() },
            OpKind::NetPut,
        ),
        Operation::Scan(idx, len) => (
            Request::Scan { start: data.dataset.keys[idx].clone(), limit: len as u32 },
            OpKind::NetScan,
        ),
        Operation::ReadModifyWrite(idx) => {
            // Approximated as a read (A–E never emit this); the checksum
            // contract below only covers workloads without RMW.
            (Request::Get { key: data.dataset.keys[idx].clone() }, OpKind::NetGet)
        }
    }
}

/// Fold one response into the running checksum, mirroring the in-process
/// driver: found reads add their TID, scans add their result count.
fn settle(kind: OpKind, resp: &Response, checksum: &mut u64) -> std::io::Result<()> {
    match (kind, resp) {
        (OpKind::NetGet, Response::Tid(tid)) => *checksum = checksum.wrapping_add(*tid),
        (OpKind::NetGet, Response::None) => {}
        (OpKind::NetPut, Response::Tid(_) | Response::None) => {}
        (OpKind::NetScan, Response::Scan { tids, .. }) => {
            *checksum = checksum.wrapping_add(tids.len() as u64);
        }
        (_, Response::Error { code, msg }) => {
            return Err(std::io::Error::other(format!("server error {code}: {msg}")));
        }
        (_, other) => {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("response {other:?} does not answer a {} request", kind.label()),
            ));
        }
    }
    Ok(())
}

/// Closed-loop pipelined execution: up to `window` requests in flight;
/// the window is flushed when full and one response is drained per
/// subsequent send. `window == 1` degenerates to strict request–response.
pub fn run_closed_loop(
    conn: &mut Connection,
    data: &NetData,
    run: &WorkloadRun,
    window: usize,
    registry: &Registry,
) -> std::io::Result<NetRunReport> {
    let window = window.max(1);
    let ops: Vec<Operation> = run.operations().collect();
    let mut inflight: VecDeque<(OpKind, Instant)> = VecDeque::with_capacity(window);
    let mut checksum = 0u64;
    let before = registry.ops_snapshot();
    let start = Instant::now();
    for op in &ops {
        let (req, kind) = to_request(op, data);
        conn.send(&req);
        inflight.push_back((kind, Instant::now()));
        if inflight.len() >= window {
            conn.flush()?;
            let (kind, sent) = inflight.pop_front().expect("window is full");
            let resp = conn.recv()?;
            let ns = sent.elapsed().as_nanos() as u64;
            registry.record_ns(kind, ns);
            registry.record_ns(OpKind::NetOp, ns);
            settle(kind, &resp, &mut checksum)?;
        }
    }
    conn.flush()?;
    while let Some((kind, sent)) = inflight.pop_front() {
        let resp = conn.recv()?;
        let ns = sent.elapsed().as_nanos() as u64;
        registry.record_ns(kind, ns);
        registry.record_ns(OpKind::NetOp, ns);
        settle(kind, &resp, &mut checksum)?;
    }
    let secs = start.elapsed().as_secs_f64();
    let delta = registry.ops_snapshot().op(OpKind::NetOp).since(before.op(OpKind::NetOp));
    Ok(NetRunReport {
        ops: ops.len(),
        mops: if secs > 0.0 {
            ops.len() as f64 / secs / 1e6
        } else {
            0.0
        },
        checksum,
        p50_us: delta.p50_ns() as f64 / 1_000.0,
        p99_us: delta.p99_ns() as f64 / 1_000.0,
        p999_us: delta.p999_ns() as f64 / 1_000.0,
    })
}

/// The in-process ground truth: execute the same workload sequence over a
/// [`ShardedHot`] built from the same corpus, returning one checksum per
/// phase. Phases share one index instance — exactly like the phases of a
/// network session share one server — so insert-bearing workloads (D/E)
/// leave their keys behind for later phases on both sides.
pub fn expected_checksums(
    data: &NetData,
    workloads: &[Workload],
    dist: RequestDistribution,
    ops: usize,
    seed: u64,
    shards: usize,
) -> Vec<u64> {
    let index = ShardedHot::new(Arc::clone(&data.arena), shards);
    let entries = data.sorted_entries();
    index.bulk_load(&entries).expect("sorted distinct entries");
    let keys = &data.dataset.keys;
    let tids = &data.tids;
    let mut out = Vec::with_capacity(workloads.len());
    let mut scan_buf = Vec::new();
    for &workload in workloads {
        let run = WorkloadRun::new(workload, dist, data.loaded, ops, seed);
        let mut checksum = 0u64;
        for op in run.operations() {
            match op {
                Operation::Read(idx) => {
                    if let Some(tid) = index.get(&keys[idx]) {
                        checksum = checksum.wrapping_add(tid);
                    }
                }
                Operation::Update(idx) | Operation::Insert(idx) => {
                    index.insert(&keys[idx], tids[idx]);
                }
                Operation::Scan(idx, len) => {
                    index.scan_into(&keys[idx], len, &mut scan_buf);
                    checksum = checksum.wrapping_add(scan_buf.len() as u64);
                }
                Operation::ReadModifyWrite(idx) => {
                    if let Some(tid) = index.get(&keys[idx]) {
                        checksum = checksum.wrapping_add(tid);
                        index.insert(&keys[idx], tid);
                    }
                }
            }
        }
        out.push(checksum);
    }
    out
}
