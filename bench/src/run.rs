//! The three engines a workload can drive, and the slice loop that
//! drives them.
//!
//! Only default entry points are called (`get`, `get_batch`, `insert`,
//! `remove`, `scan_into`, `bulk_load`, `start_with_data`,
//! `Connection::{connect, send, flush, recv}`), never an engine-specific
//! one, so a later change may delete a descent engine or a knob without
//! touching the benchmark. `bench/README.md` lists the call surface.

use crate::gen::{count_failed, Corpus, Op, OpGen, Results, Slice, CHUNK, ERR, NONE};
use crate::host;
use crate::trace::{Trace, ROOT};
use hot_client::Connection;
use hot_core::sync::ConcurrentHot;
use hot_keys::{ArenaKeySource, EmbeddedKeySource};
use hot_server::{start_with_data, NetData, Request, Response, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chunks a serving workload keeps in flight: 8 × 128 = 1024 requests.
/// With at most one window in flight the loop measures the hypervisor's
/// wake-up latency, not the server (README, "What decided the design").
pub const CHUNKS_IN_FLIGHT: usize = 8;

/// Harness-side buffers a slice is staged in before its clock starts.
/// They exist before the RSS baseline is taken and are reused by every
/// slice, so the harness's own memory stays out of `rss_per_key_b`.
#[derive(Default)]
pub struct Scratch<'c> {
    keys: Vec<&'c [u8]>,
    out: Vec<Option<u64>>,
    reqs: Vec<Request>,
    scan: Vec<u64>,
}

/// Per chunk: its latency, and when its last answer was in hand (ns on
/// the run's clock). Chunks complete in order, so the difference of two
/// completion times is the time the chunks between them took.
#[derive(Default)]
pub struct ChunkLog {
    pub lat_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
}

impl ChunkLog {
    /// A log whose buffers are already resident: it fills during the
    /// timed phase, and its pages must not show up as the index's memory.
    pub fn prefaulted(chunks: usize) -> ChunkLog {
        let mut log = ChunkLog {
            lat_ns: vec![1; chunks],
            done_ns: vec![1; chunks],
        };
        log.clear();
        log
    }

    #[inline]
    fn push(&mut self, lat_ns: u64, done_ns: u64) {
        self.lat_ns.push(lat_ns);
        self.done_ns.push(done_ns);
    }

    pub fn clear(&mut self) {
        self.lat_ns.clear();
        self.done_ns.clear();
    }
}

impl Scratch<'_> {
    /// The staged requests of a serving slice.
    pub fn requests(&self) -> &[Request] {
        &self.reqs
    }
}

/// One way of running a slice against the program under test.
pub trait Engine: Sized {
    /// Requests outstanding while the loop waits: the numerator of
    /// `driver.little_ratio`.
    const IN_FLIGHT: usize;
    /// Spans a traced chunk records (root included).
    const SPANS_PER_CHUNK: usize;
    /// Whether `set_up` wants the loaded keys in key order.
    const SORTED_LOAD: bool;
    /// Whether the driving thread busy-polls while it waits. Its CPU time
    /// is then mostly the wait, and is kept out of the CPU metrics.
    const DRIVER_POLLS: bool = false;

    /// Build the program under test from the corpus. Returns it with the
    /// seconds from "corpus in hand" to "ready for the first op".
    fn set_up(corpus: &Corpus, order: &[u32]) -> Result<(Self, f64), String>;

    /// Stage `slice` (untimed).
    fn prepare<'c>(corpus: &'c Corpus, slice: &Slice, s: &mut Scratch<'c>);

    /// Run the staged slice; returns its wall time. Each chunk is logged
    /// in `chunks`, answers are stored in `got`.
    fn run_slice<const TRACE: bool>(
        &mut self,
        corpus: &Corpus,
        slice: &Slice,
        s: &mut Scratch,
        got: &mut Results,
        chunks: &mut ChunkLog,
        tr: &mut Trace,
    ) -> Result<Duration, String>;

    /// Keys the program under test says it holds.
    fn live_keys(&mut self) -> Result<usize, String>;

    /// Structural self-check, outside any timed region.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Stop it. Returns what was done outside the slices.
    fn finish(self) -> Background {
        Background::default()
    }
}

/// Ops a workload's background thread did while the slices ran.
#[derive(Default)]
pub struct Background {
    pub ops: u64,
    pub failed: u64,
    pub secs: f64,
}

/// The tuple store: every key of the corpus, in corpus order.
pub fn arena_of(corpus: &Corpus) -> Arc<ArenaKeySource> {
    let keys = &corpus.dataset.keys;
    let mut arena =
        ArenaKeySource::with_capacity(keys.len(), corpus.dataset.avg_key_len().ceil() as usize);
    for (k, &tid) in keys.iter().zip(&corpus.tids) {
        assert_eq!(arena.push(k), tid, "corpus TIDs are arena offsets");
    }
    Arc::new(arena)
}

/// The loaded keys as `(key, tid)` in key order, for `bulk_load`.
pub fn sorted_entries<'c>(corpus: &'c Corpus, order: &[u32]) -> Vec<(&'c [u8], u64)> {
    order
        .iter()
        .map(|&i| (corpus.key(i), corpus.tids[i as usize]))
        .collect()
}

// ---------------------------------------------------------------------
// lib-read: ConcurrentHot::get_batch, one call per chunk.
// ---------------------------------------------------------------------

pub struct LibBatch {
    index: ConcurrentHot<Arc<ArenaKeySource>>,
}

impl Engine for LibBatch {
    const IN_FLIGHT: usize = CHUNK;
    const SPANS_PER_CHUNK: usize = 2;
    const SORTED_LOAD: bool = true;

    fn set_up(corpus: &Corpus, order: &[u32]) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let arena = arena_of(corpus);
        let fill = start.elapsed();
        // Pairing sorted indices with TIDs is the harness's bookkeeping.
        let entries = sorted_entries(corpus, order);
        let start = Instant::now();
        let index = ConcurrentHot::new(arena);
        index
            .bulk_load(&entries)
            .map_err(|e| format!("bulk_load: {e:?}"))?;
        Ok((LibBatch { index }, (fill + start.elapsed()).as_secs_f64()))
    }

    fn prepare<'c>(corpus: &'c Corpus, slice: &Slice, s: &mut Scratch<'c>) {
        s.keys.clear();
        s.keys.extend(slice.key.iter().map(|&i| corpus.key(i)));
        s.out.clear();
        s.out.resize(slice.len(), None);
    }

    fn run_slice<const TRACE: bool>(
        &mut self,
        _corpus: &Corpus,
        _slice: &Slice,
        s: &mut Scratch,
        got: &mut Results,
        chunks: &mut ChunkLog,
        tr: &mut Trace,
    ) -> Result<Duration, String> {
        let start = Instant::now();
        for (keys, out) in s.keys.chunks(CHUNK).zip(s.out.chunks_mut(CHUNK)) {
            let t0 = tr.now();
            self.index.get_batch(keys, out);
            let t1 = tr.now();
            chunks.push(t1 - t0, t1);
            if TRACE {
                let root = tr.span("chunk", ROOT, t0, t1);
                tr.span("mlp.get_batch", root, t0, t1);
            }
        }
        let wall = start.elapsed();
        for (slot, &found) in got.tid.iter_mut().zip(&s.out) {
            *slot = found.unwrap_or(NONE);
        }
        Ok(wall)
    }

    fn live_keys(&mut self) -> Result<usize, String> {
        Ok(self.index.len())
    }

    fn check(&self) -> Result<(), String> {
        self.index.try_check_invariants().map(|_| ())
    }
}

// ---------------------------------------------------------------------
// lib-churn: scalar calls on ConcurrentHot, a second thread reading.
// ---------------------------------------------------------------------

pub struct LibScalar {
    index: Arc<ConcurrentHot<EmbeddedKeySource>>,
    stop: Arc<AtomicBool>,
    reader: std::thread::JoinHandle<Background>,
}

/// Share of the loaded keys that are never removed (the background
/// reader's keys), as a divisor.
pub const PINNED_ONE_IN: usize = 10;
/// The background reader does one chunk of gets, then pauses this long.
const READER_PAUSE: Duration = Duration::from_millis(1);

impl Engine for LibScalar {
    const IN_FLIGHT: usize = CHUNK;
    const SPANS_PER_CHUNK: usize = 1 + CHUNK;
    const SORTED_LOAD: bool = false;

    /// The paper's insert-only load phase: every key by `insert`, in the
    /// corpus's shuffled order.
    fn set_up(corpus: &Corpus, _order: &[u32]) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let index = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
        for i in 0..corpus.loaded {
            index.insert(corpus.key(i as u32), corpus.tids[i]);
        }
        let secs = start.elapsed().as_secs_f64();

        // A reader that really holds epoch pins while the writer churns.
        // It only asks for pinned keys, so every get must hit.
        let stop = Arc::new(AtomicBool::new(false));
        let pinned: Vec<u64> = corpus.tids[..corpus.loaded / PINNED_ONE_IN].to_vec();
        let (idx, halt) = (Arc::clone(&index), Arc::clone(&stop));
        let reader = std::thread::Builder::new()
            .name("bench-reader".to_string())
            .spawn(move || {
                let mut rng = StdRng::seed_from_u64(pinned.len() as u64);
                let (mut ops, mut failed) = (0u64, 0u64);
                let start = Instant::now();
                // Relaxed: the flag publishes nothing but itself.
                while !halt.load(Ordering::Relaxed) {
                    for _ in 0..CHUNK {
                        let tid = pinned[rng.gen_range(0..pinned.len())];
                        failed += u64::from(idx.get(&hot_keys::encode_u64(tid)) != Some(tid));
                    }
                    ops += CHUNK as u64;
                    // Between bursts it sleeps, so that it is a reader, not a
                    // second load generator: run flat out, its pins fight the
                    // writer for the epoch registry's one lock and the workload
                    // turns bimodal (README, "The background reader").
                    std::thread::sleep(READER_PAUSE);
                }
                Background {
                    ops,
                    failed,
                    secs: start.elapsed().as_secs_f64(),
                }
            })
            .map_err(|e| format!("spawn reader: {e}"))?;
        Ok((
            LibScalar {
                index,
                stop,
                reader,
            },
            secs,
        ))
    }

    fn prepare<'c>(_corpus: &'c Corpus, _slice: &Slice, s: &mut Scratch<'c>) {
        s.scan.reserve(128);
    }

    fn run_slice<const TRACE: bool>(
        &mut self,
        corpus: &Corpus,
        slice: &Slice,
        s: &mut Scratch,
        got: &mut Results,
        chunks: &mut ChunkLog,
        tr: &mut Trace,
    ) -> Result<Duration, String> {
        let index = &*self.index;
        let mut full = slice.full.iter().map(|(at, _)| *at as usize).peekable();
        let start = Instant::now();
        for chunk in 0..slice.len() / CHUNK {
            let t0 = tr.now();
            let root = if TRACE { tr.open("chunk", t0) } else { ROOT };
            for i in chunk * CHUNK..(chunk + 1) * CHUNK {
                let key = corpus.key(slice.key[i]);
                let o0 = if TRACE { tr.now() } else { 0 };
                let name = match slice.op[i] {
                    Op::Get => {
                        got.tid[i] = index.get(key).unwrap_or(NONE);
                        "sync.get"
                    }
                    Op::Put => {
                        let tid = corpus.tids[slice.key[i] as usize];
                        got.tid[i] = index.insert(key, tid).unwrap_or(NONE);
                        "sync.insert"
                    }
                    Op::Del => {
                        got.tid[i] = index.remove(key).unwrap_or(NONE);
                        "sync.remove"
                    }
                    Op::Scan => {
                        s.scan.clear();
                        index.scan_into(key, slice.limit[i] as usize, &mut s.scan);
                        got.scan(i, &s.scan, full.next_if_eq(&i).is_some());
                        "scan.scan_into"
                    }
                };
                if TRACE {
                    let o1 = tr.now();
                    tr.span(name, root, o0, o1);
                }
            }
            let t1 = tr.now();
            chunks.push(t1 - t0, t1);
            if TRACE {
                tr.close(root, t1);
            }
        }
        Ok(start.elapsed())
    }

    fn live_keys(&mut self) -> Result<usize, String> {
        Ok(self.index.len())
    }

    /// Runs with the writer idle. The reader is still reading, which the
    /// walk tolerates: readers take no locks and change nothing.
    fn check(&self) -> Result<(), String> {
        self.index.try_check_invariants().map(|_| ())
    }

    fn finish(self) -> Background {
        self.stop.store(true, Ordering::Relaxed);
        self.reader.join().expect("reader thread panicked")
    }
}

// ---------------------------------------------------------------------
// serve-*: hot-server in-process, one hot_client::Connection, 1024 in flight.
// ---------------------------------------------------------------------

pub struct Serve {
    server: ServerHandle,
    conn: Connection,
    /// A second handle on the connection's socket, to switch it between
    /// blocking (writes) and non-blocking (polled reads).
    socket: TcpStream,
}

impl Serve {
    /// The server's STATS document, parsed.
    pub fn stats(&self) -> Result<crate::json::Value, String> {
        crate::json::parse(&self.server.stats_json())
    }

    /// Strict request–response round trip (depth 1).
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.conn.call(req).map_err(|e| format!("call: {e}"))
    }
}

/// Overwrite `slot` with the request for op `i`, reusing its key buffer.
fn stage_request(slot: &mut Request, corpus: &Corpus, slice: &Slice, i: usize) {
    let mut key = match slot {
        Request::Get { key } | Request::Put { key, .. } | Request::Del { key } => {
            std::mem::take(key)
        }
        Request::Scan { start, .. } => std::mem::take(start),
        _ => Vec::new(),
    };
    key.clear();
    key.extend_from_slice(corpus.key(slice.key[i]));
    *slot = match slice.op[i] {
        Op::Get => Request::Get { key },
        Op::Put => Request::Put {
            tid: corpus.tids[slice.key[i] as usize],
            key,
        },
        Op::Del => Request::Del { key },
        Op::Scan => Request::Scan {
            start: key,
            limit: slice.limit[i],
        },
    };
}

/// The next response, polling the (non-blocking) socket until it is
/// there. A client that sleeps on an empty socket is woken through the
/// hypervisor, which on the sizing host costs more than the whole request
/// (README, "Why the client polls"); one that polls measures the server.
fn poll_recv(conn: &mut Connection) -> Result<Response, String> {
    loop {
        match conn.recv() {
            Ok(resp) => return Ok(resp),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
}

/// Encode one chunk and flush it as one write. Returns when the flush
/// began (a chunk's latency runs from there to its last answer) and the
/// chunk's root span, left open until that answer arrives.
fn send_chunk<const TRACE: bool>(
    conn: &mut Connection,
    socket: &TcpStream,
    reqs: &[Request],
    tr: &mut Trace,
) -> Result<(u64, u32), String> {
    let t0 = tr.now();
    for req in reqs {
        conn.send(req);
    }
    let t1 = tr.now();
    // A write must not be cut short: block for it, then poll again.
    let flushed = socket
        .set_nonblocking(false)
        .and_then(|()| conn.flush())
        .and_then(|()| socket.set_nonblocking(true));
    flushed.map_err(|e| format!("flush: {e}"))?;
    let mut root = ROOT;
    if TRACE {
        let t2 = tr.now();
        root = tr.open("chunk", t0);
        tr.span("client.encode", root, t0, t1);
        tr.span("client.flush", root, t1, t2);
    }
    Ok((t1, root))
}

impl Engine for Serve {
    const IN_FLIGHT: usize = CHUNKS_IN_FLIGHT * CHUNK;
    const SPANS_PER_CHUNK: usize = 4;
    const SORTED_LOAD: bool = false;
    const DRIVER_POLLS: bool = true;

    fn set_up(corpus: &Corpus, _order: &[u32]) -> Result<(Self, f64), String> {
        // The server wants a corpus copy of its own; making one is the
        // harness's cost, keeping it (until the load is done) the server's.
        let dataset = corpus.dataset.clone();
        let tids = corpus.tids.clone();
        let start = Instant::now();
        let arena = arena_of(corpus);
        let data = NetData {
            dataset,
            arena,
            tids,
            loaded: corpus.loaded,
        };
        // Inline router: classify and shard-grouped drains run on the
        // connection thread, so the run is two busy threads on two cores
        // with no worker pool to oversubscribe them.
        let config = ServerConfig {
            shards: 2,
            workers: false,
            pin: false,
            window: CHUNK,
            ..ServerConfig::default()
        };
        let server = start_with_data(config, data).map_err(|e| format!("start server: {e}"))?;
        let conn = Connection::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let socket = conn
            .try_clone_stream()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok((
            Serve {
                server,
                conn,
                socket,
            },
            start.elapsed().as_secs_f64(),
        ))
    }

    fn prepare<'c>(corpus: &'c Corpus, slice: &Slice, s: &mut Scratch<'c>) {
        s.reqs.resize(slice.len(), Request::Ping);
        for (i, slot) in s.reqs.iter_mut().enumerate() {
            stage_request(slot, corpus, slice, i);
        }
    }

    fn run_slice<const TRACE: bool>(
        &mut self,
        _corpus: &Corpus,
        slice: &Slice,
        s: &mut Scratch,
        got: &mut Results,
        chunks: &mut ChunkLog,
        tr: &mut Trace,
    ) -> Result<Duration, String> {
        let total = slice.len() / CHUNK;
        let conn = &mut self.conn;
        // Per in-flight chunk: when its flush began, and its root span.
        let mut flushed = [(0u64, ROOT); CHUNKS_IN_FLIGHT];
        let mut full = slice.full.iter().map(|(at, _)| *at as usize).peekable();
        let start = Instant::now();
        for (chunk, slot) in flushed.iter_mut().enumerate().take(total) {
            *slot = send_chunk::<TRACE>(conn, &self.socket, &s.reqs[chunk * CHUNK..][..CHUNK], tr)?;
        }
        for chunk in 0..total {
            let t0 = tr.now();
            for i in chunk * CHUNK..(chunk + 1) * CHUNK {
                // Each answer is stored; whether it is right is decided
                // after the clock stops.
                match poll_recv(conn)? {
                    Response::None => got.tid[i] = NONE,
                    Response::Tid(tid) => got.tid[i] = tid,
                    Response::Scan { tids, .. } => {
                        got.scan(i, &tids, full.next_if_eq(&i).is_some())
                    }
                    _ => got.tid[i] = ERR,
                }
            }
            let t1 = tr.now();
            let (flush_began, root) = flushed[chunk % CHUNKS_IN_FLIGHT];
            chunks.push(t1 - flush_began, t1);
            if TRACE {
                tr.span("client.recv", root, t0, t1);
                tr.close(root, t1);
            }
            let next = chunk + CHUNKS_IN_FLIGHT;
            if next < total {
                flushed[next % CHUNKS_IN_FLIGHT] =
                    send_chunk::<TRACE>(conn, &self.socket, &s.reqs[next * CHUNK..][..CHUNK], tr)?;
            }
        }
        let wall = start.elapsed();
        self.socket
            .set_nonblocking(false)
            .map_err(|e| format!("socket mode: {e}"))?;
        Ok(wall)
    }

    fn live_keys(&mut self) -> Result<usize, String> {
        self.stats()?
            .get("keys")
            .and_then(crate::json::Value::as_f64)
            .map(|k| k as usize)
            .ok_or_else(|| "STATS document has no `keys`".to_string())
    }

    fn finish(self) -> Background {
        drop(self.conn);
        self.server.shutdown();
        Background::default()
    }
}

// ---------------------------------------------------------------------
// The slice loop.
// ---------------------------------------------------------------------

/// What one phase (a run of slices) measured.
#[derive(Default)]
pub struct Phase {
    /// Wall seconds of each slice.
    pub slice_secs: Vec<f64>,
    /// Every chunk of the measured slices.
    pub chunks: ChunkLog,
    /// Ops run and checked, warm-up included, and how many were wrong.
    pub ops: u64,
    pub failed: u64,
    /// CPU nanoseconds of each slice, and over all slices the user/system
    /// split in seconds (tick-counted). Of the whole process, or without
    /// the driving thread when that thread polls.
    pub slice_cpu_ns: Vec<u64>,
    pub cpu_user: f64,
    pub cpu_sys: f64,
    /// `(voluntary, involuntary)` context switches, first slice to last.
    pub ctxsw: (u64, u64),
    /// Seconds spent generating and staging ops (untimed work).
    pub gen_secs: f64,
}

/// CPU consumed so far: exact nanoseconds, and the tick-counted split.
struct Cpu {
    ns: u64,
    user: f64,
    sys: f64,
}

/// How long a phase runs.
pub struct Budget {
    /// Slices run first and checked, but not measured: connection buffers,
    /// allocator and caches reach their steady state.
    pub warm_slices: usize,
    /// Stop once the slices' wall times add up to this.
    pub measure: Duration,
    pub min_slices: usize,
    pub max_slices: usize,
}

/// Run slices of `slice_ops` ops until the budget is spent. The first
/// slice is whatever `slice`/`scratch` already hold (staged before the
/// RSS baseline); later ones are generated, untimed, just before they run.
#[allow(clippy::too_many_arguments)]
pub fn drive<'c, E: Engine, const TRACE: bool>(
    engine: &mut E,
    corpus: &'c Corpus,
    gen: &mut OpGen,
    slice: &mut Slice,
    scratch: &mut Scratch<'c>,
    got: &mut Results,
    tr: &mut Trace,
    budget: &Budget,
    chunks: ChunkLog,
    first_is_staged: bool,
) -> Result<Phase, String> {
    let mut phase = Phase {
        chunks,
        ..Phase::default()
    };
    let mut measured = Duration::ZERO;
    let mut ctxsw0 = host::context_switches();
    let cpu_now = || {
        // This thread's share is read first, so it never exceeds the total.
        let own = E::DRIVER_POLLS.then(|| (host::thread_cpu_ns(), host::cpu_seconds(true)));
        let (own_ns, (own_user, own_sys)) = own.unwrap_or_default();
        let (user, sys) = host::cpu_seconds(false);
        Cpu {
            ns: host::process_cpu_ns() - own_ns,
            user: user - own_user,
            sys: sys - own_sys,
        }
    };
    for n in 0..budget.max_slices.saturating_add(budget.warm_slices) {
        if n > 0 || !first_is_staged {
            let start = Instant::now();
            let ops = slice.len();
            gen.fill(corpus, slice, ops);
            E::prepare(corpus, slice, scratch);
            phase.gen_secs += start.elapsed().as_secs_f64();
        }
        if TRACE && !tr.has_room(E::SPANS_PER_CHUNK * slice.len() / CHUNK) {
            break;
        }
        got.reset(slice.len());
        let cpu0 = cpu_now();
        let wall = engine.run_slice::<TRACE>(corpus, slice, scratch, got, &mut phase.chunks, tr)?;
        let cpu1 = cpu_now();
        phase.ops += slice.len() as u64;
        phase.failed += count_failed(slice, got);
        if n < budget.warm_slices {
            phase.chunks.clear();
            ctxsw0 = host::context_switches();
            continue;
        }
        phase.slice_cpu_ns.push(cpu1.ns.saturating_sub(cpu0.ns));
        phase.cpu_user += cpu1.user - cpu0.user;
        phase.cpu_sys += cpu1.sys - cpu0.sys;
        phase.slice_secs.push(wall.as_secs_f64());
        measured += wall;
        if measured >= budget.measure && phase.slice_secs.len() >= budget.min_slices {
            break;
        }
    }
    let ctxsw1 = host::context_switches();
    // Saturating: a thread that exited took its counts with it.
    phase.ctxsw = (
        ctxsw1.0.saturating_sub(ctxsw0.0),
        ctxsw1.1.saturating_sub(ctxsw0.1),
    );
    Ok(phase)
}
