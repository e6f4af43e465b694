//! The TCP server: shard-affine execution behind per-connection pipelining.
//!
//! Threading model (DESIGN.md §18): the index is a [`ShardedHot`] whose
//! *shard-owning worker threads* (one per shard, optionally core-pinned via
//! `hot_core::numa`) do all trie work. Connections get one lightweight I/O
//! thread each; a connection thread never descends the trie itself — it
//! decodes a window of pipelined requests, routes the window through the
//! sharded batch entry points (`get_batch_with` / `scan_batch`: one epoch
//! pin and one MLP ring per shard per drain), and scatters the responses
//! back in request order. So the expensive part of the server scales with
//! shards, not with connections.
//!
//! Backpressure is structural: a connection's window is bounded
//! ([`ServerConfig::window`]), responses are written with blocking
//! `write_all` *before* the next read, and the socket's write timeout is
//! the idle timeout — a reader that stops draining responses first stalls
//! only its own connection, then gets disconnected. Graceful shutdown (the
//! SHUTDOWN frame or [`ServerHandle::shutdown`]) stops the acceptor, lets
//! every connection finish its in-flight window, and joins all threads.

use crate::protocol::{
    err_code, FrameDecoder, ProtoError, Request, Response, MAX_BATCH_SCAN_TIDS, MAX_SCAN_TIDS,
};
use crate::store::{net_data_for, NetData};
use hot_core::{RouterScratch, ShardedHot};
use hot_keys::ArenaKeySource;
use hot_metrics::{OpKind, Registry};
use hot_ycsb::DatasetKind;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a blocked read wakes up to check the stop flag and the idle
/// clock. Bounds both shutdown latency and idle-timeout resolution.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick one (the bound address
    /// is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Which key corpus to materialize.
    pub kind: DatasetKind,
    /// Keys bulk-loaded at startup.
    pub keys: usize,
    /// Operations per workload phase the insert reserve is sized for.
    pub ops: usize,
    /// Corpus seed (must match the client's).
    pub seed: u64,
    /// Shard count of the range-partitioned index.
    pub shards: usize,
    /// Spawn the shard-owning worker pool (`false` = inline router, the
    /// single-threaded fallback used by small tests).
    pub workers: bool,
    /// Pin each shard worker to a core (`hot_core::numa`).
    pub pin: bool,
    /// Maximum pipelined requests executed per drain, per connection.
    pub window: usize,
    /// Close connections idle longer than this; also the write timeout
    /// that bounds how long a slow reader can stall its own connection.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            kind: DatasetKind::Integer,
            keys: 100_000,
            ops: 100_000,
            seed: 42,
            shards: 4,
            workers: true,
            pin: false,
            window: 128,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// One monotonically increasing, wait-free counter.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-server operation counters, readable at any time (STATS frames and
/// [`ServerHandle::stats_json`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    accepted: Counter,
    closed: Counter,
    requests: Counter,
    batches: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    proto_errors: Counter,
}

impl ServerStats {
    /// Connections accepted since startup.
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Connections currently open.
    pub fn active(&self) -> u64 {
        self.accepted.get().saturating_sub(self.closed.get())
    }

    /// Requests executed (BATCH sub-requests counted individually).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Framing/decode violations answered with an ERR frame.
    pub fn proto_errors(&self) -> u64 {
        self.proto_errors.get()
    }

    /// Raw bytes read off all sockets.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.get()
    }

    /// Raw bytes written to all sockets.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.get()
    }
}

/// State shared by the acceptor and every connection thread.
struct Shared {
    index: ShardedHot<Arc<ArenaKeySource>>,
    arena: Arc<ArenaKeySource>,
    registry: Registry,
    stats: ServerStats,
    stop: AtomicBool,
    addr: SocketAddr,
    window: usize,
    idle_timeout: Duration,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Flip the stop flag and nudge the acceptor out of `accept()` with a
    /// throwaway self-connection.
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
    }

    fn stats_json(&self) -> String {
        format!(
            "{{\"connections\": {{\"accepted\": {}, \"active\": {}}}, \
             \"requests\": {}, \"batches\": {}, \"proto_errors\": {}, \
             \"bytes_in\": {}, \"bytes_out\": {}, \"shards\": {}, \
             \"keys\": {}, \"metrics\": {}}}",
            self.stats.accepted(),
            self.stats.active(),
            self.stats.requests(),
            self.stats.batches.get(),
            self.stats.proto_errors(),
            self.stats.bytes_in(),
            self.stats.bytes_out(),
            self.index.shards(),
            self.index.len(),
            self.registry.ops_snapshot().to_json(),
        )
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

/// Start a server: materialize the corpus, bulk-load the first
/// [`ServerConfig::keys`] keys into a [`ShardedHot`], bind, and spawn the
/// acceptor. Returns once the socket is listening.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let data = net_data_for(config.kind, config.keys, config.ops, config.seed);
    start_with_data(config, data)
}

/// [`start`] over an already-materialized corpus (lets tests and the
/// loopback benchmark reuse one corpus for several server instances).
pub fn start_with_data(config: ServerConfig, data: NetData) -> std::io::Result<ServerHandle> {
    let index = ShardedHot::with_config(
        Arc::clone(&data.arena),
        config.shards,
        config.workers,
        config.pin,
    );
    let entries = data.sorted_entries();
    index
        .bulk_load(&entries)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("bulk load: {e:?}")))?;

    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        index,
        arena: data.arena,
        registry: Registry::new(),
        stats: ServerStats::default(),
        stop: AtomicBool::new(false),
        addr,
        window: config.window.max(1),
        idle_timeout: config.idle_timeout,
        conns: Mutex::new(Vec::new()),
    });

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("hot-server-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;

    Ok(ServerHandle { shared, accept: Some(accept) })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live operation counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The full STATS document (counters + metrics snapshot).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// True once a SHUTDOWN frame (or [`ServerHandle::shutdown`]) was
    /// processed.
    pub fn stopping(&self) -> bool {
        self.shared.stop_requested()
    }

    /// Stop accepting, let in-flight windows finish, join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until a client-driven SHUTDOWN stops the server, then join
    /// every thread — the serving binary's main loop.
    pub fn join(mut self) {
        while !self.shared.stop_requested() {
            std::thread::sleep(POLL_INTERVAL);
        }
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for conn in conns {
            let _ = conn.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop_requested() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.stats.accepted.add(1);
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("hot-server-conn".to_string())
            .spawn(move || {
                serve_conn(&conn_shared, stream);
                conn_shared.stats.closed.add(1);
            });
        match handle {
            Ok(h) => {
                let mut conns = shared.conns.lock().expect("conns lock");
                // Reap connections that already exited, so churn doesn't
                // grow the handle list (and retain thread resources)
                // without bound; shutdown joins whatever is left.
                let mut i = 0;
                while i < conns.len() {
                    if conns[i].is_finished() {
                        let _ = conns.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                conns.push(h);
            }
            Err(_) => shared.stats.closed.add(1),
        }
    }
}

/// One connection's read → decode → execute → respond loop.
fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    let mut dec = FrameDecoder::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut scratch = ConnScratch::default();
    let mut window: Vec<Request> = Vec::new();
    let mut responses: Vec<Response> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut last_activity = Instant::now();

    loop {
        if shared.stop_requested() {
            // A concurrent SHUTDOWN: tell the client why before closing.
            send_error(&mut stream, err_code::SHUTTING_DOWN, "server shutting down");
            return;
        }
        // Drain already-buffered frames into the bounded request window.
        while window.len() < shared.window {
            match dec.next_frame() {
                Ok(Some(body)) => match Request::decode(&body) {
                    Ok(req) => window.push(req),
                    Err(e) => {
                        protocol_error(shared, &mut stream, &e);
                        return;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    protocol_error(shared, &mut stream, &e);
                    return;
                }
            }
        }
        if window.is_empty() {
            // Nothing decodable: block (bounded by the poll interval) for
            // more bytes.
            match stream.read(&mut rbuf) {
                Ok(0) => return,
                Ok(n) => {
                    shared.stats.bytes_in.add(n as u64);
                    dec.feed(&rbuf[..n]);
                    last_activity = Instant::now();
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if last_activity.elapsed() >= shared.idle_timeout {
                        return;
                    }
                }
                Err(_) => return,
            }
            continue;
        }
        // Execute the drained window and write every response before
        // reading again — the structural backpressure bound: at most
        // `window` requests plus one socket buffer are ever in flight.
        responses.clear();
        let shutdown = execute_window(shared, &window, &mut scratch, &mut responses);
        // BATCH frames count as their sub-requests (added by exec_ops),
        // not as a request of their own — `requests` is operations, so a
        // batch of N records N, not N + 1.
        let scalar_frames =
            window.iter().filter(|r| !matches!(r, Request::Batch(_))).count();
        shared.stats.requests.add(scalar_frames as u64);
        window.clear();
        wbuf.clear();
        for r in &responses {
            r.encode(&mut wbuf);
        }
        if stream.write_all(&wbuf).is_err() {
            return;
        }
        shared.stats.bytes_out.add(wbuf.len() as u64);
        last_activity = Instant::now();
        if shutdown {
            let _ = stream.flush();
            shared.begin_shutdown();
            return;
        }
    }
}

fn protocol_error(shared: &Arc<Shared>, stream: &mut TcpStream, err: &ProtoError) {
    shared.stats.proto_errors.add(1);
    // Best-effort ERR frame, then close: a framing error leaves no way to
    // find the next frame boundary.
    send_error(stream, err_code::BAD_FRAME, &err.to_string());
}

fn send_error(stream: &mut TcpStream, code: u8, msg: &str) {
    let mut wire = Vec::new();
    Response::Error { code, msg: msg.to_string() }.encode(&mut wire);
    let _ = stream.write_all(&wire);
}

/// Connection-scoped buffers of the execute path, reused across windows.
#[derive(Default)]
struct ConnScratch {
    router: RouterScratch,
    /// Key list of a GET run. Always empty between runs, which is what lets
    /// its allocation outlive the window whose requests the keys borrow.
    keys: Vec<&'static [u8]>,
    /// Answers of a GET run.
    found: Vec<Option<u64>>,
}

/// Execute one drained window in request order, coalescing runs of GETs
/// into `get_batch_with` and runs of SCANs into `scan_batch`. Returns
/// true when a SHUTDOWN frame was in the window.
fn execute_window(
    shared: &Shared,
    reqs: &[Request],
    scratch: &mut ConnScratch,
    out: &mut Vec<Response>,
) -> bool {
    let mut shutdown = false;
    // Top-level scans are each clamped to MAX_SCAN_TIDS and each get
    // their own response frame, so they need no aggregate budget.
    let mut scan_budget = usize::MAX;
    exec_ops(shared, reqs, true, scratch, out, &mut shutdown, &mut scan_budget);
    shutdown
}

/// Clamp one scan's grant against its per-scan cap and the enclosing
/// aggregate budget. Every non-empty request is granted at least one
/// result even on an exhausted budget, so it can still make progress and
/// mint a continuation token (an empty page reads as end-of-keyspace).
fn grant_scan(limit: u32, scan_budget: &mut usize) -> usize {
    let want = (limit as usize).min(MAX_SCAN_TIDS);
    if want == 0 {
        return 0;
    }
    let grant = want.min((*scan_budget).max(1));
    *scan_budget = scan_budget.saturating_sub(grant);
    grant
}

fn exec_ops(
    shared: &Shared,
    reqs: &[Request],
    allow_batch: bool,
    scratch: &mut ConnScratch,
    out: &mut Vec<Response>,
    shutdown: &mut bool,
    scan_budget: &mut usize,
) {
    let mut i = 0;
    while i < reqs.len() {
        match &reqs[i] {
            Request::Get { .. } => {
                let mut j = i + 1;
                while j < reqs.len() && matches!(reqs[j], Request::Get { .. }) {
                    j += 1;
                }
                exec_gets(shared, &reqs[i..j], scratch, out);
                i = j;
            }
            Request::Scan { .. } => {
                let mut j = i + 1;
                while j < reqs.len() && matches!(reqs[j], Request::Scan { .. }) {
                    j += 1;
                }
                exec_scans(shared, &reqs[i..j], &mut scratch.router, out, scan_budget);
                i = j;
            }
            Request::Batch(subs) => {
                if allow_batch {
                    shared.stats.batches.add(1);
                    let mut sub_out = Vec::with_capacity(subs.len());
                    // A batch answers with ONE frame, so its scans share
                    // an aggregate budget sized to keep the OK_BATCH
                    // response within MAX_FRAME (truncated scans return
                    // continuation tokens).
                    let mut batch_budget = MAX_BATCH_SCAN_TIDS;
                    exec_ops(
                        shared,
                        subs,
                        false,
                        scratch,
                        &mut sub_out,
                        shutdown,
                        &mut batch_budget,
                    );
                    shared.stats.requests.add(subs.len() as u64);
                    out.push(Response::Batch(sub_out));
                } else {
                    // Unreachable through the decoder; kept total anyway.
                    out.push(Response::Error {
                        code: err_code::BAD_FRAME,
                        msg: ProtoError::NestedBatch.to_string(),
                    });
                }
                i += 1;
            }
            other => {
                out.push(exec_scalar(shared, other, shutdown, scan_budget));
                i += 1;
            }
        }
    }
}

/// Record a coalesced run: one timer sample per request (the run's time
/// amortized over its requests), under the op's kind and the aggregate
/// `NetOp`.
fn record_run(shared: &Shared, kind: OpKind, elapsed: Duration, n: usize) {
    if n == 0 {
        return;
    }
    let per_op = (elapsed.as_nanos() / n as u128) as u64;
    shared.registry.record_ns_n(kind, per_op, n as u64);
    shared.registry.record_ns_n(OpKind::NetOp, per_op, n as u64);
    shared.registry.add_items(kind, n as u64);
}

fn exec_gets(shared: &Shared, gets: &[Request], scratch: &mut ConnScratch, out: &mut Vec<Response>) {
    let start = Instant::now();
    // Shortening `'static` to the run's lifetime is plain covariance.
    let mut keys: Vec<&[u8]> = std::mem::take(&mut scratch.keys);
    keys.extend(gets.iter().map(|r| match r {
        Request::Get { key } => key.as_slice(),
        _ => unreachable!("run contains only GETs"),
    }));
    scratch.found.clear();
    scratch.found.resize(keys.len(), None);
    shared.index.get_batch_with(&keys, &mut scratch.found, &mut scratch.router);
    record_run(shared, OpKind::NetGet, start.elapsed(), keys.len());
    out.extend(scratch.found.iter().map(|f| match f {
        Some(tid) => Response::Tid(*tid),
        None => Response::None,
    }));
    // Hand the emptied allocation back. No borrow survives `clear`, and
    // collecting a `Vec`'s own iterator into an element type of the same
    // layout reuses its buffer (`keys_buffer_is_reused` pins that).
    keys.clear();
    scratch.keys = keys.into_iter().map(|_| -> &'static [u8] { unreachable!("cleared") }).collect();
}

fn exec_scans(
    shared: &Shared,
    scans: &[Request],
    scratch: &mut RouterScratch,
    out: &mut Vec<Response>,
    scan_budget: &mut usize,
) {
    let start = Instant::now();
    let requests: Vec<(&[u8], usize)> = scans
        .iter()
        .map(|r| match r {
            Request::Scan { start, limit } => {
                (start.as_slice(), grant_scan(*limit, scan_budget))
            }
            _ => unreachable!("run contains only SCANs"),
        })
        .collect();
    let mut tids = Vec::new();
    let mut bounds = Vec::new();
    shared.index.scan_batch(&requests, &mut tids, &mut bounds, scratch);
    record_run(shared, OpKind::NetScan, start.elapsed(), requests.len());
    for (i, &(_, limit)) in requests.iter().enumerate() {
        let page = &tids[bounds[i]..bounds[i + 1]];
        let token = shared.index.scan_token(page, limit);
        out.push(Response::Scan { tids: page.to_vec(), token });
    }
}

fn exec_scalar(
    shared: &Shared,
    req: &Request,
    shutdown: &mut bool,
    scan_budget: &mut usize,
) -> Response {
    let start = Instant::now();
    match req {
        Request::Put { tid, key } => {
            // The TID must resolve to the claimed key in the tuple store
            // before it may enter the index — the KeySource invariant
            // (every stored TID loads a valid key) holds against
            // arbitrary wire input.
            let resp = match shared.arena.try_key(*tid) {
                Some(stored) if stored == key.as_slice() => {
                    match shared.index.insert(key, *tid) {
                        Some(old) => Response::Tid(old),
                        None => Response::None,
                    }
                }
                _ => Response::Error {
                    code: err_code::TID_MISMATCH,
                    msg: format!("tid {tid} does not resolve to the {}-byte key", key.len()),
                },
            };
            record_run(shared, OpKind::NetPut, start.elapsed(), 1);
            resp
        }
        Request::Del { key } => {
            let resp = match shared.index.remove(key) {
                Some(old) => Response::Tid(old),
                None => Response::None,
            };
            record_run(shared, OpKind::NetDel, start.elapsed(), 1);
            resp
        }
        Request::Resume { token, limit } => {
            let mut tids = Vec::new();
            let limit = grant_scan(*limit, scan_budget);
            let token = shared.index.scan_resume(token, limit, &mut tids);
            record_run(shared, OpKind::NetScan, start.elapsed(), 1);
            Response::Scan { tids, token }
        }
        Request::Stats => Response::Text(shared.stats_json()),
        Request::Ping => Response::None,
        Request::Shutdown => {
            *shutdown = true;
            Response::None
        }
        Request::Get { .. } | Request::Scan { .. } | Request::Batch(_) => {
            unreachable!("handled by exec_ops runs")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A GET run answers from connection-scoped buffers: the second window
    /// reuses the first one's key-list allocation, and the run is recorded
    /// as one sample per request.
    #[test]
    fn keys_buffer_is_reused() {
        let config = ServerConfig { keys: 500, ops: 100, workers: false, ..ServerConfig::default() };
        let data = net_data_for(config.kind, config.keys, config.ops, config.seed);
        let loaded: Vec<(Vec<u8>, u64)> =
            (0..100).map(|i| (data.dataset.keys[i].clone(), data.tids[i])).collect();
        let server = start_with_data(config, data).expect("server starts");
        let window: Vec<Request> =
            loaded.iter().map(|(key, _)| Request::Get { key: key.clone() }).collect();
        let mut scratch = ConnScratch::default();
        let mut out = Vec::new();
        execute_window(&server.shared, &window, &mut scratch, &mut out);
        let (buffer, capacity) = (scratch.keys.as_ptr(), scratch.keys.capacity());
        assert!(capacity >= window.len() && scratch.keys.is_empty());
        execute_window(&server.shared, &window[..40], &mut scratch, &mut out);
        assert_eq!((scratch.keys.as_ptr(), scratch.keys.capacity()), (buffer, capacity));
        let want = loaded.iter().chain(&loaded[..40]).map(|&(_, tid)| Response::Tid(tid));
        assert!(out.iter().eq(want.collect::<Vec<_>>().iter()));
        let snap = server.shared.registry.ops_snapshot();
        assert_eq!(snap.op(OpKind::NetGet).count, 140);
        assert_eq!(snap.op(OpKind::NetGet).hist_total(), 140);
        assert_eq!(snap.op(OpKind::NetOp).count, 140);
    }
}
