//! The network YCSB driver: closed- and open-loop workload execution over
//! one pipelined connection, plus the in-process reference it is checked
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
use hot_metrics::{OpKind, OpSnapshot, Registry};
use hot_server::protocol::{Request, Response};
use hot_server::store::NetData;
use hot_ycsb::{Operation, RequestDistribution, Workload, WorkloadRun};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One phase's result: throughput, latency percentiles, and the checksum
/// the parity gates compare.
#[derive(Debug, Clone)]
pub struct NetRunReport {
    /// The workload that ran.
    pub workload: Workload,
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

/// How the driver paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Keep a bounded window of in-flight requests; a response admits the
    /// next request. Measures peak pipeline throughput.
    ClosedLoop {
        /// In-flight request bound.
        window: usize,
    },
    /// Send on a fixed schedule regardless of responses, so queueing
    /// delay is charged to latency (coordinated-omission-free): latency
    /// is measured from each request's *scheduled* send time.
    OpenLoop {
        /// Target request rate per second.
        rate: u64,
    },
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

fn percentile_report(
    workload: Workload,
    ops: usize,
    secs: f64,
    checksum: u64,
    delta: &OpSnapshot,
) -> NetRunReport {
    NetRunReport {
        workload,
        ops,
        mops: if secs > 0.0 { ops as f64 / secs / 1e6 } else { 0.0 },
        checksum,
        p50_us: delta.p50_ns() as f64 / 1_000.0,
        p99_us: delta.p99_ns() as f64 / 1_000.0,
        p999_us: delta.quantile_ns(0.999) as f64 / 1_000.0,
    }
}

/// Run one workload phase over `conn`, paced by `pacing`, recording
/// per-op latency into `registry` (under the op's kind and `NetOp`).
pub fn run_workload(
    conn: &mut Connection,
    data: &NetData,
    run: &WorkloadRun,
    workload: Workload,
    pacing: Pacing,
    registry: &Registry,
) -> std::io::Result<NetRunReport> {
    match pacing {
        Pacing::ClosedLoop { window } => {
            run_closed_loop(conn, data, run, workload, window, registry)
        }
        Pacing::OpenLoop { rate } => run_open_loop(conn, data, run, workload, rate, registry),
    }
}

/// Closed-loop pipelined execution: up to `window` requests in flight;
/// the window is flushed when full and one response is drained per
/// subsequent send. `window == 1` degenerates to strict request–response.
pub fn run_closed_loop(
    conn: &mut Connection,
    data: &NetData,
    run: &WorkloadRun,
    workload: Workload,
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
    Ok(percentile_report(workload, ops.len(), secs, checksum, &delta))
}

/// Open-loop execution: a sender thread writes requests on a fixed
/// schedule (`rate` per second) while this thread receives and pairs
/// responses FIFO. Latency is `receive time − scheduled send time`, so a
/// stall penalizes every queued request behind it instead of silently
/// pausing the clock (coordinated omission).
pub fn run_open_loop(
    conn: &mut Connection,
    data: &NetData,
    run: &WorkloadRun,
    workload: Workload,
    rate: u64,
    registry: &Registry,
) -> std::io::Result<NetRunReport> {
    let rate = rate.max(1);
    let ops: Vec<Operation> = run.operations().collect();
    let total = ops.len();
    let mut sender_stream = conn.try_clone_stream()?;
    let (tx, rx) = mpsc::sync_channel::<(OpKind, Instant)>(1 << 16);
    let before = registry.ops_snapshot();
    let start = Instant::now();
    let interval = Duration::from_nanos(1_000_000_000 / rate);

    let mut checksum = 0u64;
    let mut received = 0usize;
    let (send_result, recv_result) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<()> {
            let mut wire = Vec::with_capacity(4 << 10);
            for (i, op) in ops.iter().enumerate() {
                let scheduled = start + interval * i as u32;
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let (req, kind) = to_request(op, data);
                wire.clear();
                req.encode(&mut wire);
                sender_stream.write_all(&wire)?;
                if tx.send((kind, scheduled)).is_err() {
                    break;
                }
            }
            drop(tx);
            Ok(())
        });

        let mut recv_result = Ok(());
        while received < total {
            let (kind, scheduled) = match rx.recv() {
                Ok(pair) => pair,
                Err(_) => break,
            };
            let resp = match conn.recv() {
                Ok(r) => r,
                Err(e) => {
                    recv_result = Err(e);
                    break;
                }
            };
            let ns = scheduled.elapsed().as_nanos() as u64;
            registry.record_ns(kind, ns);
            registry.record_ns(OpKind::NetOp, ns);
            if let Err(e) = settle(kind, &resp, &mut checksum) {
                recv_result = Err(e);
                break;
            }
            received += 1;
        }
        drop(rx);
        let send_result = sender
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("open-loop sender thread panicked")));
        (send_result, recv_result)
    });
    recv_result.and(send_result)?;
    let secs = start.elapsed().as_secs_f64();
    let delta = registry.ops_snapshot().op(OpKind::NetOp).since(before.op(OpKind::NetOp));
    Ok(percentile_report(workload, received, secs, checksum, &delta))
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
