//! The TCP server: per-connection pipelining in front of a [`ShardedHot`].
//!
//! Threading model (DESIGN.md §18.2). Every connection gets one thread
//! that owns the connection's buffers — the [`FrameDecoder`]'s read
//! buffer, the response write buffer, the router scratch and the metrics
//! tally — and runs the read → parse → execute → respond loop on them.
//! The connection thread descends the trie itself: it parses a window of
//! pipelined requests and routes each GET or SCAN run through
//! `get_batch_with` / `scan_batch` (classify, shard-grouped drains, one
//! epoch pin per run) on its own scratch, PUT, DEL and RESUME as scalar
//! calls, then writes the answers in request order — the windows of one
//! socket read with one write. The shards are
//! ROWEX-synchronised, so connections are the parallelism; there is no
//! hand-off between a connection and a shard (DESIGN.md §17.3).
//!
//! A request's bytes are touched once: the socket is read
//! straight into the decoder's buffer, requests are parsed in place
//! ([`RequestRef`], keys are views into that buffer), and answers are
//! encoded directly into the write buffer. In steady state the loop
//! allocates nothing, RESUME included; only STATS and ERR frames build
//! owned values.
//!
//! Backpressure is structural: a turn of the loop executes only frames
//! already buffered — at most the frames of one read of up to 32 KiB —
//! and writes their answers with one blocking `write_all` *before* the
//! next read; a turn whose answers reach `TURN_ANSWER_BYTES` starts no
//! further window, so the write buffer never holds more than that plus
//! one window's answers. The socket's write timeout is the idle timeout —
//! a reader that stops draining responses first stalls only its own
//! connection, then gets disconnected. Connection threads are
//! bounded too ([`ServerConfig::max_connections`]): the acceptor answers
//! the excess with a typed `overloaded` ERR frame and closes. Graceful
//! shutdown (the SHUTDOWN frame or [`ServerHandle::shutdown`]) stops the
//! acceptor, lets every connection finish its in-flight turn, and joins
//! all threads.

use crate::protocol::{
    encode_error, encode_none, encode_scan, encode_text, encode_tid, err_code, FrameDecoder,
    ProtoError, RequestRef, ScanTokenRef, MAX_SCAN_TIDS,
};
use crate::store::{net_data_for, NetData};
use hot_core::{RouterScratch, ShardedHot};
use hot_keys::ArenaKeySource;
use hot_metrics::{LocalTally, OpKind, Registry};
use hot_ycsb::DatasetKind;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a blocked read wakes up to check the stop flag and the idle
/// clock. Bounds both shutdown latency and idle-timeout resolution.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Answer bytes after which a turn starts no further window and writes
/// what it holds. A point answer (13 bytes at most) is no longer than a
/// GET, PUT or DEL of an 8-byte key, so a read of point requests — at
/// most 32 KiB — is answered with one write. The bound binds on
/// SCAN-heavy turns: it caps the connection's write buffer at this plus
/// one window's answers, and keeps a client's first answers from waiting
/// behind many windows of work. At 64 KiB a write's fixed syscall cost is
/// already small beside copying its bytes.
const TURN_ANSWER_BYTES: usize = 64 << 10;

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
    /// Read by nothing; the next `benchmark` PR removes it with `bench/src/run.rs`'s literal.
    pub workers: bool,
    /// Read by nothing; the next `benchmark` PR removes it with `bench/src/run.rs`'s literal.
    pub pin: bool,
    /// Most pipelined requests in one window: the unit a connection
    /// publishes its metrics and counters in, and the longest GET or SCAN
    /// run handed to the index at once. A turn executes as many windows
    /// as one socket read delivered and answers them with one write.
    pub window: usize,
    /// Close connections idle longer than this; also the write timeout
    /// that bounds how long a slow reader can stall its own connection.
    pub idle_timeout: Duration,
    /// Most connections served at once — each costs a thread and its
    /// buffers, so the count must not be the client's to choose. A
    /// connection accepted beyond it is answered with one
    /// [`err_code::OVERLOADED`] ERR frame and closed. Default 1024.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            kind: DatasetKind::Integer,
            keys: 100_000,
            ops: 100_000,
            seed: 42,
            shards: 2,
            workers: false,
            pin: false,
            window: 128,
            idle_timeout: Duration::from_secs(30),
            max_connections: 1024,
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
    rejected: Counter,
    requests: Counter,
    windows: Counter,
    writes: Counter,
    get_runs: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    proto_errors: Counter,
}

impl ServerStats {
    /// Connections admitted since startup (rejected ones not included).
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Connections currently served; never above
    /// [`ServerConfig::max_connections`].
    pub fn active(&self) -> u64 {
        self.accepted.get().saturating_sub(self.closed.get())
    }

    /// Connections turned away with an `overloaded` ERR frame.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Requests executed.
    fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Request windows executed: drains of up to
    /// [`ServerConfig::window`] of one connection's buffered frames into
    /// the index. `requests / windows` is the achieved pipelining depth.
    fn windows(&self) -> u64 {
        self.windows.get()
    }

    /// Socket writes of answers: one per turn of a connection's loop,
    /// which answers every window one read delivered (up to 64 KiB of
    /// answers). `requests / writes` is the answers per syscall.
    fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// `get_batch_with` calls made for coalesced GET runs; the `net_get`
    /// count of the metrics document divided by this is the mean run
    /// length the MLP engine was fed.
    fn get_runs(&self) -> u64 {
        self.get_runs.get()
    }

    /// Framing/decode violations answered with an ERR frame.
    pub fn proto_errors(&self) -> u64 {
        self.proto_errors.get()
    }

    /// Raw bytes read off all sockets.
    fn bytes_in(&self) -> u64 {
        self.bytes_in.get()
    }

    /// Raw bytes written to all sockets.
    fn bytes_out(&self) -> u64 {
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
    max_connections: u64,
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

    /// The STATS document ([`ServerHandle::stats_json`] lists the fields).
    fn stats_json(&self) -> String {
        let shard_memory: Vec<String> = (0..self.index.shards())
            .map(|s| {
                let m = self.index.shard(s).memory_stats();
                format!(
                    "{{\"node_bytes\": {}, \"node_reserved_bytes\": {}}}",
                    m.node_bytes, m.capacity_bytes
                )
            })
            .collect();
        format!(
            "{{\"connections\": {{\"accepted\": {}, \"active\": {}, \"rejected\": {}}}, \
             \"requests\": {}, \"windows\": {}, \"writes\": {}, \"get_runs\": {}, \
             \"proto_errors\": {}, \"bytes_in\": {}, \"bytes_out\": {}, \
             \"shards\": {}, \"keys\": {}, \"shard_memory\": [{}], \"metrics\": {}}}",
            self.stats.accepted(),
            self.stats.active(),
            self.stats.rejected(),
            self.stats.requests(),
            self.stats.windows(),
            self.stats.writes(),
            self.stats.get_runs(),
            self.stats.proto_errors(),
            self.stats.bytes_in(),
            self.stats.bytes_out(),
            self.index.shards(),
            self.index.len(),
            shard_memory.join(", "),
            self.registry.ops_snapshot().to_json(),
        )
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    /// Frees what only the load needed, off the start-up path.
    release: Option<std::thread::JoinHandle<()>>,
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
/// Returns once the socket is listening; `data.dataset` and `data.tids`
/// are freed, and their pages returned to the OS, by a background thread
/// that shutdown joins (DESIGN.md §11.4 has what that costs whom).
pub fn start_with_data(config: ServerConfig, data: NetData) -> std::io::Result<ServerHandle> {
    let index = ShardedHot::new(Arc::clone(&data.arena), config.shards);
    index
        .bulk_load(&data.sorted_entries())
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
        max_connections: config.max_connections as u64,
        conns: Mutex::new(Vec::new()),
    });

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("hot-server-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;

    // The index only needs the arena. Freeing the rest of the corpus (one
    // allocation per key) and handing the pages back takes as long as
    // building a shard, so it happens behind the listener. If the thread
    // cannot be spawned the closure, and the corpus with it, drops here.
    let (dataset, tids) = (data.dataset, data.tids);
    let release = std::thread::Builder::new()
        .name("hot-server-release".to_string())
        .spawn(move || {
            drop((dataset, tids));
            trim_heap();
        })
        .ok();

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        release,
    })
}

/// Return freed heap pages to the OS. glibc keeps them otherwise: the
/// corpus copy and the sort's temporaries were allocated before the index
/// nodes, so the freed space lies below live data, where only an explicit
/// trim releases it. A no-op on other allocators.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and is thread-safe (it
        // locks each arena in turn); it only unmaps pages of free chunks.
        unsafe { malloc_trim(0) };
    }
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

    /// The full STATS document — what a STATS frame answers with. One
    /// JSON object, every number cumulative since startup:
    ///
    /// * `connections`: `accepted`, `active`, `rejected` (turned away at
    ///   [`ServerConfig::max_connections`]);
    /// * `requests`: requests executed;
    /// * `windows`: request windows executed — `requests / windows` is
    ///   the pipelining depth the server actually reached;
    /// * `writes`: socket writes of answers, one per turn — `requests /
    ///   writes` is the answers each write syscall carried;
    /// * `get_runs`: coalesced GET runs handed to `get_batch_with` —
    ///   `metrics.ops.net_get.count / get_runs` is their mean length;
    /// * `proto_errors`, `bytes_in`, `bytes_out`;
    /// * `shards`, and `keys`, the live keys in the index;
    /// * `shard_memory`: per shard, in shard order, `node_bytes` (live
    ///   node bytes) and `node_reserved_bytes` (bytes of the 2 MiB chunks
    ///   the shard carves its nodes from, unused tail included; 0 on a
    ///   shard whose nodes come from the general allocator — DESIGN.md
    ///   §3.7);
    /// * `metrics`: the `hot-metrics` snapshot, i.e. `ops.net_*` with
    ///   count, items, mean and p50 / p99 / p999 latency per kind.
    ///
    /// A connection publishes its counters and samples when a window
    /// ends (and before it answers its own STATS frame), so the document
    /// covers every finished window and nothing newer; `writes` and
    /// `bytes_out` grow when a turn's write is done.
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Stop accepting, let in-flight turns finish, join every thread.
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
        if let Some(release) = self.release.take() {
            let _ = release.join();
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
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.stats.active() >= shared.max_connections {
            // Only this thread admits, and `closed` only grows, so the
            // check cannot be overtaken: `active()` never exceeds the cap.
            shared.stats.rejected.add(1);
            let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
            send_error(
                &mut stream,
                err_code::OVERLOADED,
                "connection limit reached",
            );
            continue;
        }
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

/// Everything a connection thread owns besides its socket; all of it is
/// reused from turn to turn.
#[derive(Default)]
struct Conn {
    /// Splits the byte stream into frames; owns the read buffer the
    /// requests of a turn are parsed out of.
    dec: FrameDecoder,
    scratch: ConnScratch,
    /// The answers of one turn — every window it executed — written with
    /// one `write_all`.
    wbuf: Vec<u8>,
}

impl Conn {
    /// One turn: execute the buffered frames window by window, their
    /// answers into the cleared `wbuf`, which the caller writes with one
    /// `write_all`. No further window starts after one that held a
    /// SHUTDOWN, after `wbuf` reached [`TURN_ANSWER_BYTES`], or once no
    /// complete frame is left; a violation ends the turn where it is found,
    /// its ERR frame behind the answers of every request before it.
    fn execute_turn(&mut self, shared: &Shared) -> Executed {
        self.wbuf.clear();
        let mut turn = Executed::default();
        loop {
            let window = self.execute_window(shared);
            turn.executed += window.executed;
            turn.shutdown |= window.shutdown;
            if let Some(err) = window.error {
                // Best effort before the close: a framing error leaves no
                // way to find the next frame boundary.
                shared.stats.proto_errors.add(1);
                encode_error(&mut self.wbuf, err_code::BAD_FRAME, &err.to_string());
                turn.error = Some(err);
                return turn;
            }
            // A window short of `window` frames ran out of them.
            if window.executed < shared.window
                || turn.shutdown
                || self.wbuf.len() >= TURN_ANSWER_BYTES
            {
                return turn;
            }
        }
    }

    /// Execute up to [`ServerConfig::window`] buffered frames in request
    /// order, their answers appended to `wbuf`: each frame is parsed
    /// in place, maximal runs of GETs are coalesced into `get_batch_with`
    /// and runs of SCANs into `scan_batch`, and the connection's tally is
    /// published once at the end.
    fn execute_window(&mut self, shared: &Shared) -> Executed {
        let Conn { dec, scratch, wbuf } = self;
        let mut window = Executed::default();
        let mut frames = dec.frames();
        let mut next = frames.next();
        if next.is_none() {
            return window;
        }
        let mut exec = Exec::new(shared, scratch, wbuf);
        while let Some(frame) = next {
            match frame.and_then(RequestRef::decode) {
                Ok(req) => exec.exec_request(req),
                Err(err) => {
                    window.error = Some(err);
                    break;
                }
            }
            window.executed += 1;
            next = if window.executed < shared.window {
                frames.next()
            } else {
                None
            };
        }
        exec.close_run();
        window.shutdown = exec.shutdown;
        scratch.flush(shared);
        shared.stats.windows.add(1);
        window
    }
}

/// One connection's read → parse → execute → respond loop.
fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    let mut conn = Conn::default();
    let mut last_activity = Instant::now();

    loop {
        if shared.stop_requested() {
            // A concurrent SHUTDOWN: tell the client why before closing.
            send_error(&mut stream, err_code::SHUTTING_DOWN, "server shutting down");
            return;
        }
        // Execute the already-buffered frames, in place.
        let turn = conn.execute_turn(shared);
        if turn.executed == 0 && turn.error.is_none() {
            // No complete frame buffered: block (bounded by the poll
            // interval) for more bytes, read straight into the decoder.
            match conn.dec.fill_from(&mut stream) {
                Ok(0) => return,
                Ok(n) => {
                    shared.stats.bytes_in.add(n as u64);
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
        // Every response is written before reading again — the structural
        // backpressure bound: at most one read's frames plus one socket
        // buffer are ever in flight.
        if stream.write_all(&conn.wbuf).is_err() {
            return;
        }
        shared.stats.writes.add(1);
        shared.stats.bytes_out.add(conn.wbuf.len() as u64);
        if turn.error.is_some() {
            return;
        }
        last_activity = Instant::now();
        if turn.shutdown {
            let _ = stream.flush();
            shared.begin_shutdown();
            return;
        }
    }
}

fn send_error(stream: &mut TcpStream, code: u8, msg: &str) {
    let mut wire = Vec::new();
    encode_error(&mut wire, code, msg);
    let _ = stream.write_all(&wire);
}

/// Most requests one `get_batch_with` / `scan_batch` call is handed: a
/// window's pending run lives in arrays on the executor's stack (views
/// into the decoder's buffer cannot outlive the window, so they cannot
/// sit in a reused `Vec`), and a longer run is executed in pieces of this
/// size — twice the MLP ring's depth, so nothing is lost to the split.
const RUN_CAP: usize = 128;

/// Connection-scoped state of the execute path, reused across windows.
#[derive(Default)]
struct ConnScratch {
    router: RouterScratch,
    /// Answers of a GET run.
    found: Vec<Option<u64>>,
    /// TIDs of a SCAN run (`bounds` delimits the pages) or of a RESUME.
    tids: Vec<u64>,
    bounds: Vec<usize>,
    /// This connection's net-op samples since the last flush.
    tally: LocalTally,
    /// Requests executed and GET runs drained since the last flush.
    requests: u64,
    get_runs: u64,
}

impl ConnScratch {
    /// Publish what the connection accumulated: once per window, and
    /// before a STATS frame is answered so a connection always sees its
    /// own requests.
    fn flush(&mut self, shared: &Shared) {
        shared.registry.absorb(&mut self.tally);
        shared
            .stats
            .requests
            .add(std::mem::take(&mut self.requests));
        shared
            .stats
            .get_runs
            .add(std::mem::take(&mut self.get_runs));
    }
}

/// What [`Conn::execute_window`] or [`Conn::execute_turn`] did.
#[derive(Debug, Default)]
struct Executed {
    /// Frames parsed and executed (their answers are in the write buffer).
    executed: usize,
    /// A SHUTDOWN frame was among them.
    shutdown: bool,
    /// The violation that ended the window or turn early; the connection
    /// is dead.
    error: Option<ProtoError>,
}

/// Clamp one scan's result count to [`MAX_SCAN_TIDS`].
fn grant_scan(limit: u32) -> usize {
    (limit as usize).min(MAX_SCAN_TIDS)
}

/// OK_TID / OK_NONE: the answer to a lookup, or a write's previous value.
#[inline]
fn encode_answer(out: &mut Vec<u8>, tid: Option<u64>) {
    match tid {
        Some(tid) => encode_tid(out, tid),
        None => encode_none(out),
    }
}

/// The continuation token of a scan page, its key borrowed from the tuple
/// store — the one minting rule of SCAN and RESUME answers: a page that
/// filled its limit resumes after its last key; a short page ran off the
/// key space.
fn page_token<'s>(shared: &'s Shared, page: &[u64], limit: usize) -> Option<ScanTokenRef<'s>> {
    let &last = page.last()?;
    if page.len() < limit {
        return None;
    }
    let last_key = shared.arena.key(last);
    Some(ScanTokenRef {
        shard: shared.index.shard_of(last_key) as u32,
        last_key,
    })
}

/// The executor of one window. Requests arrive one at a time, in order;
/// a *run* is a maximal sequence of requests of one kind. PUT, DEL and
/// RESUME execute on arrival; the GETs and SCANs of a run wait in `keys`
/// / `scans` (at most [`RUN_CAP`]) until the run ends and go to the index
/// as one batch. The clock is read once per run boundary — the end of one
/// run is the start of the next — and the run's time, parse and encode
/// included, is recorded as one equal sample per request.
struct Exec<'w, 'a> {
    shared: &'w Shared,
    scratch: &'w mut ConnScratch,
    out: &'w mut Vec<u8>,
    shutdown: bool,
    /// Kind and length of the open run, and when it began.
    run: Option<OpKind>,
    run_len: u64,
    mark: Instant,
    /// The open run's not yet executed GET keys or SCAN requests.
    pending: usize,
    keys: [&'a [u8]; RUN_CAP],
    scans: [(&'a [u8], usize); RUN_CAP],
}

impl<'w, 'a> Exec<'w, 'a> {
    fn new(shared: &'w Shared, scratch: &'w mut ConnScratch, out: &'w mut Vec<u8>) -> Self {
        Exec {
            shared,
            scratch,
            out,
            shutdown: false,
            run: None,
            run_len: 0,
            mark: Instant::now(),
            pending: 0,
            keys: [&[]; RUN_CAP],
            scans: [(&[], 0); RUN_CAP],
        }
    }

    /// Count `req` into the open run, closing the previous one first if
    /// it was of another kind.
    fn enter(&mut self, kind: OpKind) {
        if self.run != Some(kind) {
            if self.run.is_some() {
                self.close_run();
            }
            self.run = Some(kind);
        }
        self.run_len += 1;
        self.scratch.requests += 1;
    }

    /// End the open run: execute what is pending, read the clock, record
    /// one sample per request under the run's kind and under `NetOp`.
    fn close_run(&mut self) {
        self.flush_pending();
        let now = Instant::now();
        if let Some(kind) = self.run.take() {
            let n = std::mem::take(&mut self.run_len);
            let per_op = now.duration_since(self.mark).as_nanos() as u64 / n;
            let tally = &mut self.scratch.tally;
            tally.record(kind, per_op, n);
            tally.record(OpKind::NetOp, per_op, n);
            tally.add_items(kind, n);
        }
        self.mark = now;
    }

    fn flush_pending(&mut self) {
        match self.run {
            Some(OpKind::NetGet) if self.pending > 0 => self.exec_gets(),
            Some(OpKind::NetScan) if self.pending > 0 => self.exec_scans(),
            _ => {}
        }
        self.pending = 0;
    }

    /// Take the next request of the window. The four data requests are
    /// handled here so that, inlined into the window loop behind the
    /// inlined parser, their fields never round-trip through memory as a
    /// `RequestRef`; the rest is [`exec_scalar`](Self::exec_scalar)'s.
    #[inline(always)]
    fn exec_request(&mut self, req: RequestRef<'a>) {
        match req {
            RequestRef::Get { key } => {
                self.enter(OpKind::NetGet);
                self.keys[self.pending] = key;
                self.pending += 1;
                if self.pending == RUN_CAP {
                    self.flush_pending();
                }
            }
            RequestRef::Scan { start, limit } => {
                self.enter(OpKind::NetScan);
                self.scans[self.pending] = (start, grant_scan(limit));
                self.pending += 1;
                if self.pending == RUN_CAP {
                    self.flush_pending();
                }
            }
            RequestRef::Put { tid, key } => {
                self.enter(OpKind::NetPut);
                self.exec_put(tid, key);
            }
            RequestRef::Del { key } => {
                self.enter(OpKind::NetDel);
                encode_answer(self.out, self.shared.index.remove(key));
            }
            other => self.exec_scalar(other),
        }
    }

    fn exec_put(&mut self, tid: u64, key: &[u8]) {
        // The TID must resolve to the claimed key in the tuple store
        // before it may enter the index — the KeySource invariant (every
        // stored TID loads a valid key) holds against arbitrary wire
        // input.
        match self.shared.arena.try_key(tid) {
            Some(stored) if stored == key => {
                encode_answer(self.out, self.shared.index.insert(key, tid));
            }
            _ => {
                let msg = format!("tid {tid} does not resolve to the {}-byte key", key.len());
                encode_error(self.out, err_code::TID_MISMATCH, &msg);
            }
        }
    }

    fn exec_gets(&mut self) {
        let keys = &self.keys[..self.pending];
        let ConnScratch {
            found,
            router,
            get_runs,
            ..
        } = &mut *self.scratch;
        found.clear();
        found.resize(keys.len(), None);
        self.shared.index.get_batch_with(keys, found, router);
        *get_runs += 1;
        for &tid in found.iter() {
            encode_answer(self.out, tid);
        }
    }

    fn exec_scans(&mut self) {
        let scans = &self.scans[..self.pending];
        let ConnScratch {
            router,
            tids,
            bounds,
            ..
        } = &mut *self.scratch;
        self.shared.index.scan_batch(scans, tids, bounds, router);
        for (&(_, limit), span) in scans.iter().zip(bounds.windows(2)) {
            let page = &tids[span[0]..span[1]];
            encode_scan(self.out, page, page_token(self.shared, page, limit));
        }
    }

    /// The requests off the common path: RESUME (a scan page on arrival)
    /// and the unrecorded control requests between runs.
    #[inline(never)]
    fn exec_scalar(&mut self, req: RequestRef<'a>) {
        let shared = self.shared;
        match req {
            RequestRef::Resume { token, limit } => {
                self.enter(OpKind::NetScan);
                // Pending SCANs of the same run answer first.
                self.flush_pending();
                let (tids, limit) = (&mut self.scratch.tids, grant_scan(limit));
                if limit == 0 {
                    // A zero-limit page keeps the position it was given.
                    tids.clear();
                    encode_scan(self.out, tids, Some(token));
                } else {
                    shared.index.scan_after(token.last_key, limit, tids);
                    encode_scan(self.out, tids, page_token(shared, tids, limit));
                }
            }
            control => {
                self.close_run();
                self.scratch.requests += 1;
                if control == RequestRef::Stats {
                    self.scratch.flush(shared);
                    encode_text(self.out, &shared.stats_json());
                } else {
                    self.shutdown |= control == RequestRef::Shutdown;
                    encode_none(self.out);
                }
                // Not a recorded kind: keep its time out of the next run.
                self.mark = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response, ScanToken};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Heap allocations made by this thread (a reallocation counts:
        /// the default `realloc` goes through `alloc`).
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator, counting per thread.
    struct CountingAlloc;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // whose contract is the one the caller upholds; the counter is a
    // destructor-less thread-local `Cell`, touched without allocating.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: `GlobalAlloc::alloc`'s contract, passed on to `System`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's `layout` obligations are `System`'s.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: `GlobalAlloc::dealloc`'s contract, passed on to `System`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
            // with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    fn allocations() -> u64 {
        ALLOCS.with(Cell::get)
    }

    /// The configuration a flag-less `hot_server` runs is the one
    /// `BENCHMARK.json` gates: `bench/src/run.rs` starts its server with
    /// `shards: 2` and `window: CHUNK` (= 128).
    #[test]
    fn default_config_is_the_gated_one() {
        let config = ServerConfig::default();
        assert_eq!((config.shards, config.window), (2, 128));
    }

    /// A server over 500 integer keys and its corpus.
    fn server() -> (ServerHandle, NetData) {
        let config = ServerConfig {
            keys: 500,
            ops: 100,
            ..ServerConfig::default()
        };
        let data = || net_data_for(config.kind, config.keys, config.ops, config.seed);
        (
            start_with_data(config.clone(), data()).expect("server starts"),
            data(),
        )
    }

    /// One connection's execute path without the socket: requests go in
    /// through `feed`, windows — one by one, or a turn of them — run on
    /// the calling thread.
    #[derive(Default)]
    struct Harness {
        conn: Conn,
        wire: Vec<u8>,
        answers: Vec<u8>,
    }

    impl Harness {
        /// Feed `reqs` and drain them window by window, the answers of
        /// all of them piling up in `answers`; returns the number of
        /// windows it took.
        fn run(&mut self, shared: &Shared, reqs: &[Request]) -> usize {
            self.wire = requests(reqs);
            self.run_wire(shared)
        }

        /// [`run`](Self::run) for an already encoded request stream.
        fn run_wire(&mut self, shared: &Shared) -> usize {
            self.conn.dec.feed(&self.wire);
            self.answers.clear();
            let mut windows = 0;
            loop {
                self.conn.wbuf.clear();
                let window = self.conn.execute_window(shared);
                assert_eq!(window.error, None);
                if window.executed == 0 {
                    return windows;
                }
                self.answers.extend_from_slice(&self.conn.wbuf);
                windows += 1;
            }
        }

        /// Feed `wire` as one read and run one turn; its answers are
        /// `self.conn.wbuf`.
        fn turn(&mut self, shared: &Shared, wire: &[u8]) -> Executed {
            self.conn.dec.feed(wire);
            self.conn.execute_turn(shared)
        }
    }

    fn requests(reqs: &[Request]) -> Vec<u8> {
        let mut wire = Vec::new();
        for req in reqs {
            req.encode(&mut wire);
        }
        wire
    }

    fn encoded(responses: &[Response]) -> Vec<u8> {
        let mut wire = Vec::new();
        for resp in responses {
            resp.encode(&mut wire);
        }
        wire
    }

    /// The number a STATS document gives its field `name`.
    fn stats_field(doc: &str, name: &str) -> u64 {
        let tail = doc.split(&format!("\"{name}\": ")).nth(1).expect(name);
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect(name)
    }

    /// The loaded TIDs in key order.
    fn sorted_tids(data: &NetData) -> Vec<u64> {
        let mut order: Vec<usize> = (0..data.loaded).collect();
        order.sort_unstable_by(|&a, &b| data.dataset.keys[a].cmp(&data.dataset.keys[b]));
        order.iter().map(|&i| data.tids[i]).collect()
    }

    /// The owned continuation token a SCAN or RESUME answer carries for
    /// `page` (the serve loop's `page_token`).
    fn owned_token(shared: &Shared, page: &[u64], limit: usize) -> Option<ScanToken> {
        page_token(shared, page, limit).map(|t| t.to_owned())
    }

    /// A SCAN of `limit` keys from the `at`-th smallest, and its answer.
    fn scan_at(shared: &Shared, sorted: &[u64], at: usize, limit: usize) -> (Request, Response) {
        let page = sorted[at..at + limit].to_vec();
        let start = shared.arena.key(page[0]).to_vec();
        let token = owned_token(shared, &page, limit);
        (
            Request::Scan {
                start,
                limit: limit as u32,
            },
            Response::Scan { tids: page, token },
        )
    }

    /// The serve loop's promise: once its buffers are warm, a window of
    /// GETs — and a window mixing GET runs with PUT, DEL, SCAN and RESUME,
    /// and a turn of several such windows —
    /// executes without a single heap allocation on the connection
    /// thread, and its answers are the bytes `Response::encode` produces.
    /// (The writes are an upsert of a stored binding and a DEL of an
    /// absent key: they take the whole serving path, while the index's
    /// own copy-on-write node allocations — not the serve loop's — stay
    /// out of the count.)
    #[test]
    fn steady_state_windows_do_not_allocate() {
        let (server, data) = server();
        let shared = &*server.shared;
        let key = |i: usize| data.dataset.keys[i].clone();
        let absent = data.dataset.keys[data.loaded].clone();
        let mut order: Vec<usize> = (0..data.loaded).collect();
        order.sort_unstable_by(|&a, &b| data.dataset.keys[a].cmp(&data.dataset.keys[b]));
        let sorted_tids: Vec<u64> = order.iter().map(|&i| data.tids[i]).collect();

        let gets: Vec<Request> = (0..100)
            .map(|i| Request::Get {
                key: if i % 9 == 8 { absent.clone() } else { key(i) },
            })
            .collect();
        let get_answers: Vec<Response> = (0..100)
            .map(|i| {
                if i % 9 == 8 {
                    Response::None
                } else {
                    Response::Tid(data.tids[i])
                }
            })
            .collect();

        // Page 1 fills its limit (token at its last key); page 2 starts at
        // the third-largest key and runs off the end (no token). The two
        // RESUMEs continue them: the first fills its page again, the
        // second finds the two keys after the third-largest and ends.
        let (first, tail) = (order[0], order[data.loaded - 3]);
        let token_key = key(order[4]);
        let resume_at = |last_key: Vec<u8>| Request::Resume {
            token: ScanToken {
                shard: shared.index.shard_of(&last_key) as u32,
                last_key,
            },
            limit: 5,
        };
        let mixed = vec![
            Request::Get { key: key(1) },
            Request::Get { key: key(2) },
            Request::Put {
                tid: data.tids[3],
                key: key(3),
            },
            Request::Get { key: key(3) },
            Request::Del {
                key: absent.clone(),
            },
            Request::Put {
                tid: data.tids[4],
                key: key(5),
            },
            Request::Scan {
                start: key(first),
                limit: 5,
            },
            Request::Scan {
                start: key(tail),
                limit: 5,
            },
            Request::Get {
                key: absent.clone(),
            },
            Request::Ping,
            Request::Get { key: key(6) },
            resume_at(token_key.clone()),
            resume_at(key(tail)),
            Request::Get { key: key(7) },
        ];
        let mixed_answers = vec![
            Response::Tid(data.tids[1]),
            Response::Tid(data.tids[2]),
            Response::Tid(data.tids[3]),
            Response::Tid(data.tids[3]),
            Response::None,
            Response::Error {
                code: err_code::TID_MISMATCH,
                msg: format!(
                    "tid {} does not resolve to the {}-byte key",
                    data.tids[4],
                    key(5).len()
                ),
            },
            Response::Scan {
                tids: sorted_tids[..5].to_vec(),
                token: owned_token(shared, &sorted_tids[..5], 5),
            },
            Response::Scan {
                tids: sorted_tids[data.loaded - 3..].to_vec(),
                token: None,
            },
            Response::None,
            Response::None,
            Response::Tid(data.tids[6]),
            Response::Scan {
                tids: sorted_tids[5..10].to_vec(),
                token: owned_token(shared, &sorted_tids[5..10], 5),
            },
            Response::Scan {
                tids: sorted_tids[data.loaded - 2..].to_vec(),
                token: None,
            },
            Response::Tid(data.tids[7]),
        ];
        assert_eq!(
            owned_token(shared, &sorted_tids[..5], 5).map(|t| t.last_key),
            Some(token_key),
            "the filled page resumes after its fifth key"
        );

        let mut conn = Harness::default();
        // Warm the buffers, checking the bytes on the way. The mismatching
        // PUT is the ERR cold edge (`format!`), so it is checked here and
        // left out of the counted windows.
        assert_eq!(conn.run(shared, &gets), 1);
        assert_eq!(conn.answers, encoded(&get_answers));
        assert_eq!(conn.run(shared, &mixed), 1);
        assert_eq!(conn.answers, encoded(&mixed_answers));
        let (mut steady, mut steady_answers) = (mixed, mixed_answers);
        steady.remove(5);
        steady_answers.remove(5);
        conn.run(shared, &steady);

        let gets_wire = requests(&gets);
        let steady_wire = std::mem::take(&mut conn.wire);
        let (gets_bytes, steady_bytes) = (encoded(&get_answers), encoded(&steady_answers));
        for (wire, want) in [(&gets_wire, &gets_bytes), (&steady_wire, &steady_bytes)] {
            conn.wire.clone_from(wire);
            conn.run_wire(shared);
            let before = allocations();
            for _ in 0..8 {
                assert_eq!(conn.run_wire(shared), 1);
            }
            assert_eq!(allocations() - before, 0, "a steady-state window allocated");
            assert_eq!(&conn.answers, want);
        }

        // One read of three windows — 300 GETs, then the mixed requests —
        // is one turn into one buffer, and it allocates nothing either.
        let turn_wire = [&gets_wire[..], &gets_wire, &gets_wire, &steady_wire].concat();
        let turn_bytes = [&gets_bytes[..], &gets_bytes, &gets_bytes, &steady_bytes].concat();
        let frames = 3 * gets.len() + steady.len();
        assert!(frames > 2 * shared.window);
        conn.turn(shared, &turn_wire);
        let before = allocations();
        for _ in 0..8 {
            assert_eq!(conn.turn(shared, &turn_wire).executed, frames);
        }
        assert_eq!(allocations() - before, 0, "a steady-state turn allocated");
        assert_eq!(conn.conn.wbuf, turn_bytes);
    }

    /// A zero-limit RESUME keeps its position: the answer is an empty page
    /// carrying the request's own token, and that token resumes as if the
    /// scan had never paused.
    #[test]
    fn zero_limit_resume_answers_with_the_requests_token() {
        let (server, data) = server();
        let shared = &*server.shared;
        let sorted = sorted_tids(&data);
        let token = owned_token(shared, &sorted[..3], 3).expect("a filled page");
        let mut conn = Harness::default();
        let resume = |limit| Request::Resume {
            token: token.clone(),
            limit,
        };
        assert_eq!(conn.run(shared, &[resume(0), resume(4)]), 1);
        let want = [
            Response::Scan {
                tids: Vec::new(),
                token: Some(token.clone()),
            },
            Response::Scan {
                tids: sorted[3..7].to_vec(),
                token: owned_token(shared, &sorted[3..7], 4),
            },
        ];
        assert_eq!(conn.answers, encoded(&want));
    }

    /// Every request is one sample under its kind and one under `NetOp`
    /// — per-kind `count == hist_total ==` requests of that kind — after
    /// every window, however the requests fall into runs and windows; and
    /// the STATS document carries the counters that make window depth and
    /// run length readable from outside.
    #[test]
    fn every_window_publishes_one_sample_per_request() {
        let (server, data) = server();
        let shared = &*server.shared;
        let key = |i: usize| data.dataset.keys[i].clone();
        let mut conn = Harness::default();
        let mut want = [0u64; 4]; // gets, puts, dels, scans
        let mut want_runs = 0;
        let mut want_windows = 0;
        for round in 1..=5usize {
            let mut reqs = Vec::new();
            for i in 0..round * 40 {
                reqs.push(Request::Get { key: key(i) });
            }
            reqs.push(Request::Put {
                tid: data.tids[round],
                key: key(round),
            });
            reqs.push(Request::Put {
                tid: data.tids[round],
                key: key(round),
            });
            reqs.push(Request::Get { key: key(round) });
            reqs.push(Request::Del {
                key: key(400 + round),
            });
            reqs.push(Request::Scan {
                start: key(round),
                limit: 3,
            });
            reqs.push(Request::Resume {
                token: ScanToken {
                    shard: 0,
                    last_key: key(round),
                },
                limit: 2,
            });
            reqs.push(Request::Get { key: key(7) });
            reqs.push(Request::Get { key: key(8) });
            reqs.push(Request::Scan {
                start: key(9),
                limit: 1,
            });
            reqs.push(Request::Stats);
            let windows = conn.run(shared, &reqs);
            assert_eq!(windows, reqs.len().div_ceil(shared.window));
            want_windows += windows as u64;
            want[0] += round as u64 * 40 + 3;
            want[1] += 2;
            want[2] += 1;
            want[3] += 3;
            // The leading GETs split at every window (and RUN_CAP) edge;
            // then one run after the PUTs and one after the RESUME.
            want_runs += (round * 40).div_ceil(shared.window) as u64 + 2;

            let snap = shared.registry.ops_snapshot();
            let kinds = [
                OpKind::NetGet,
                OpKind::NetPut,
                OpKind::NetDel,
                OpKind::NetScan,
            ];
            for (kind, n) in kinds.into_iter().zip(want) {
                assert_eq!(snap.op(kind).count, n, "{kind:?} count, round {round}");
                assert_eq!(
                    snap.op(kind).hist_total(),
                    n,
                    "{kind:?} samples, round {round}"
                );
            }
            let total: u64 = want.iter().sum();
            assert_eq!(snap.op(OpKind::NetOp).count, total);
            assert_eq!(snap.op(OpKind::NetOp).hist_total(), total);
            // STATS frames count as requests too.
            assert_eq!(shared.stats.requests(), total + round as u64);
            assert_eq!(shared.stats.get_runs(), want_runs);
            assert_eq!(shared.stats.windows(), want_windows);
        }

        // The STATS frame answered inside the last window already saw that
        // window's requests (the connection flushes before answering).
        let mut dec = FrameDecoder::new();
        dec.feed(&conn.answers);
        let mut last = None;
        while let Some(body) = dec.next_frame().expect("well-framed answers") {
            last = Some(Response::decode(body).expect("valid answer"));
        }
        let Some(Response::Text(doc)) = last else {
            panic!("STATS answers with OK_TEXT")
        };
        let field = |name: &str| stats_field(&doc, name);
        for name in [
            "accepted",
            "active",
            "rejected",
            "requests",
            "windows",
            "writes",
            "get_runs",
            "proto_errors",
            "bytes_in",
            "bytes_out",
            "shards",
            "keys",
            "node_bytes",
            "node_reserved_bytes",
        ] {
            field(name);
        }
        assert!(doc.contains("\"metrics\": {") && doc.contains("\"net_get\""));
        assert_eq!(field("requests"), shared.stats.requests());
        assert_eq!(field("get_runs"), want_runs);
        assert_eq!(
            field("windows"),
            want_windows - 1,
            "the answering window is still open"
        );
        assert_eq!(field("writes"), 0, "the harness writes to no socket");
        assert!(
            !doc.contains("batches"),
            "the retired BATCH frame has no counter"
        );
        assert_eq!(field("keys"), shared.index.len() as u64);

        // One `shard_memory` entry per shard, in shard order, read from the
        // shard's `memory_stats` (exact once the epoch has run the frees the
        // PUTs and DELs deferred): a store this small stays on the general
        // allocator, so it holds no chunk bytes.
        assert!(hot_core::sync::quiesce());
        let now = shared.stats_json();
        let per_shard = |name: &str| -> Vec<usize> {
            now.split(&format!("\"{name}\": "))
                .skip(1)
                .map(|tail| {
                    tail.chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .expect(name)
                })
                .collect()
        };
        let shards = shared.index.shards();
        let live: Vec<usize> = (0..shards)
            .map(|s| shared.index.shard(s).memory_stats().node_bytes)
            .collect();
        assert!(now.contains("\"shard_memory\": [{\"node_bytes\": "));
        assert!(live.iter().all(|&bytes| bytes > 0));
        assert_eq!(per_shard("node_bytes"), live);
        assert_eq!(per_shard("node_reserved_bytes"), vec![0; shards]);
    }

    /// One turn executes every window one read delivered into one buffer:
    /// 3 × `window` + 5 requests — GET runs broken by PUT, DEL and SCAN,
    /// then STATS — are four windows, answered byte for byte as
    /// `Response::encode` answers them one by one, with the window and
    /// GET-run counts of one write per window.
    #[test]
    fn one_turn_answers_every_window_of_a_read() {
        let (server, data) = server();
        let shared = &*server.shared;
        let sorted = sorted_tids(&data);
        let key = |i: usize| data.dataset.keys[i].clone();
        let absent = key(data.loaded);
        let n = 3 * shared.window + 5;
        let (mut reqs, answers): (Vec<Request>, Vec<Response>) = (0..n - 1)
            .map(|i| match i % 40 {
                // An upsert of the stored binding answers with that TID.
                10 => (
                    Request::Put {
                        tid: data.tids[i],
                        key: key(i),
                    },
                    Response::Tid(data.tids[i]),
                ),
                20 => (
                    Request::Del {
                        key: absent.clone(),
                    },
                    Response::None,
                ),
                30 => scan_at(shared, &sorted, i % 100, 3),
                39 => (
                    Request::Get {
                        key: absent.clone(),
                    },
                    Response::None,
                ),
                _ => (Request::Get { key: key(i) }, Response::Tid(data.tids[i])),
            })
            .unzip();
        reqs.push(Request::Stats);
        // What one write per window counted: a GET run ends at every
        // window edge, and never reaches RUN_CAP inside a window.
        assert!(RUN_CAP >= shared.window);
        let is_get: Vec<bool> = reqs
            .iter()
            .map(|r| matches!(r, Request::Get { .. }))
            .collect();
        let want_runs: usize = is_get
            .chunks(shared.window)
            .map(|w| {
                (0..w.len())
                    .filter(|&k| w[k] && (k == 0 || !w[k - 1]))
                    .count()
            })
            .sum();

        let mut conn = Harness::default();
        let turn = conn.turn(shared, &requests(&reqs));
        assert_eq!(turn.executed, n);
        assert!(!turn.shutdown && turn.error.is_none());
        assert_eq!(shared.stats.windows(), 4);
        assert_eq!(shared.stats.get_runs(), want_runs as u64);

        let want = encoded(&answers);
        let (head, tail) = conn.conn.wbuf.split_at(want.len());
        assert!(
            head == want,
            "the answers are Response::encode's, request by request"
        );
        let mut dec = FrameDecoder::new();
        dec.feed(tail);
        let body = dec.next_frame().expect("framed").expect("the STATS answer");
        let Ok(Response::Text(doc)) = Response::decode(body) else {
            panic!("STATS answers with OK_TEXT")
        };
        assert_eq!(dec.pending(), 0);
        // STATS still sees its own window, and the three before it.
        assert_eq!(stats_field(&doc, "requests"), n as u64);
        assert_eq!(stats_field(&doc, "windows"), 3);
        assert_eq!(
            conn.conn.execute_turn(shared).executed,
            0,
            "nothing is left for a second turn"
        );
    }

    /// A turn whose answers reach `TURN_ANSWER_BYTES` starts no further
    /// window: SCAN windows of ≈ 44 KB of answers go two to a turn, the
    /// frames left over are answered by the next turns, in order, and no
    /// turn's buffer holds more than the bound plus one window's answers.
    #[test]
    fn a_turn_stops_starting_windows_at_the_answer_bound() {
        let (server, data) = server();
        let shared = &*server.shared;
        let sorted = sorted_tids(&data);
        let (w, limit) = (shared.window, 40);
        let (reqs, answers): (Vec<Request>, Vec<Response>) = (0..5 * w)
            .map(|i| scan_at(shared, &sorted, i % (data.loaded - limit), limit))
            .unzip();
        // Integer keys: every answer is the same size.
        let window_bytes = encoded(&answers[..w]).len();
        assert!(window_bytes < TURN_ANSWER_BYTES && 2 * window_bytes >= TURN_ANSWER_BYTES);

        let mut conn = Harness::default();
        let mut turn = conn.turn(shared, &requests(&reqs));
        let (mut per_turn, mut written) = (Vec::new(), Vec::new());
        while turn.executed > 0 {
            assert!(conn.conn.wbuf.len() <= TURN_ANSWER_BYTES + window_bytes);
            per_turn.push(turn.executed);
            written.extend_from_slice(&conn.conn.wbuf);
            turn = conn.conn.execute_turn(shared);
        }
        assert_eq!(per_turn, [2 * w, 2 * w, w]);
        assert!(
            written == encoded(&answers),
            "every answer, in request order"
        );
        assert_eq!(shared.stats.windows(), 5);
    }

    /// A violation ends the turn where it is found — in its third window
    /// here: the answers of windows 1–2 and of window 3's prefix, then the
    /// ERR frame, in the one buffer. A SHUTDOWN ends the turn after its
    /// window: the window behind it is not executed.
    #[test]
    fn a_violation_or_a_shutdown_ends_the_turn() {
        let (server, data) = server();
        let shared = &*server.shared;
        let w = shared.window;
        let (gets, answers): (Vec<Request>, Vec<Response>) = (0..3 * w)
            .map(|i| {
                (
                    Request::Get {
                        key: data.dataset.keys[i].clone(),
                    },
                    Response::Tid(data.tids[i]),
                )
            })
            .unzip();

        let prefix = 2 * w + 10;
        let unknown_opcode = [1, 0, 0, 0, 0x7E];
        let wire = [
            &requests(&gets[..prefix])[..],
            &unknown_opcode,
            &requests(&gets[prefix..]),
        ]
        .concat();
        let mut conn = Harness::default();
        let turn = conn.turn(shared, &wire);
        let err = ProtoError::UnknownOpcode(0x7E);
        assert_eq!((turn.executed, turn.error.as_ref()), (prefix, Some(&err)));
        let mut want = answers[..prefix].to_vec();
        want.push(Response::Error {
            code: err_code::BAD_FRAME,
            msg: err.to_string(),
        });
        assert!(
            conn.conn.wbuf == encoded(&want),
            "the prefix's answers, then ERR"
        );
        assert_eq!(shared.stats.proto_errors(), 1);

        let mut reqs = gets;
        reqs.insert(w + 10, Request::Shutdown);
        let windows = shared.stats.windows();
        let mut conn = Harness::default();
        let turn = conn.turn(shared, &requests(&reqs));
        assert!(turn.shutdown && turn.error.is_none());
        assert_eq!(turn.executed, 2 * w);
        assert_eq!(shared.stats.windows() - windows, 2);
        let mut want = answers[..2 * w - 1].to_vec();
        want.insert(w + 10, Response::None);
        assert!(
            conn.conn.wbuf == encoded(&want),
            "windows 1-2 answered, SHUTDOWN acknowledged"
        );
        assert!(conn.conn.dec.pending() > 0, "window 3 is left unexecuted");
    }

    /// Over a real socket: 8 × `window` GETs sent with one `write` come
    /// back byte-identical, and with fewer writes than windows — the
    /// windows one read delivered share a write.
    #[test]
    fn the_windows_of_one_read_share_a_socket_write() {
        use std::io::Read;
        let (server, data) = server();
        let keys = &data.dataset.keys;
        let (gets, answers): (Vec<Request>, Vec<Response>) = (0..8 * server.shared.window)
            .map(|i| {
                let j = i % keys.len();
                let answer = if j < data.loaded {
                    Response::Tid(data.tids[j])
                } else {
                    Response::None
                };
                (
                    Request::Get {
                        key: keys[j].clone(),
                    },
                    answer,
                )
            })
            .unzip();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        stream
            .write_all(&requests(&gets))
            .expect("one write of every request");
        let want = encoded(&answers);
        let mut got = vec![0; want.len()];
        stream.read_exact(&mut got).expect("every answer");
        assert!(
            got == want,
            "the answers are Response::encode's, request by request"
        );

        stream
            .write_all(&requests(&[Request::Stats]))
            .expect("STATS");
        let mut len = [0; 4];
        stream.read_exact(&mut len).expect("a STATS frame");
        let mut body = vec![0; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut body).expect("the STATS body");
        let Ok(Response::Text(doc)) = Response::decode(&body) else {
            panic!("STATS answers with OK_TEXT")
        };
        let (writes, windows) = (stats_field(&doc, "writes"), stats_field(&doc, "windows"));
        assert!(
            writes >= 1 && writes < windows,
            "{writes} writes for {windows} windows"
        );
    }

    /// Start-up end to end, at a size that takes the parallel sort and the
    /// concurrent shard builds: STATS reports every loaded key, each one
    /// GETs its TID, the reserve is absent — and `shutdown` waits for the
    /// thread that frees the load-time corpus copy.
    #[test]
    fn start_up_loads_every_key_and_shutdown_joins_the_release_thread() {
        let config = ServerConfig {
            keys: 40_000,
            ops: 100,
            ..ServerConfig::default()
        };
        let data = || net_data_for(DatasetKind::Url, config.keys, config.ops, config.seed);
        let (mut server, data) = (
            start_with_data(config.clone(), data()).expect("starts"),
            data(),
        );
        let shared = Arc::clone(&server.shared);
        assert!(
            server.release.is_some(),
            "the corpus copy is freed off the start-up path"
        );
        assert!(shared
            .stats_json()
            .contains(&format!("\"keys\": {}", data.loaded)));

        let gets: Vec<Request> = data
            .dataset
            .keys
            .iter()
            .map(|key| Request::Get { key: key.clone() })
            .collect();
        let answers: Vec<Response> = (0..gets.len())
            .map(|i| {
                if i < data.loaded {
                    Response::Tid(data.tids[i])
                } else {
                    Response::None
                }
            })
            .collect();
        let mut conn = Harness::default();
        conn.run(&shared, &gets);
        assert!(
            conn.answers == encoded(&answers),
            "every loaded key answers with its TID"
        );

        server.stop_and_join();
        assert!(
            server.accept.is_none() && server.release.is_none(),
            "every handle was joined"
        );
        drop(server);
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "no server thread is left holding the state"
        );
    }
}
