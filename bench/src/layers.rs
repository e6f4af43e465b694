//! Per-layer rows of a traced run, measured on the workload's own corpus
//! and key distribution by calling each layer's public functions from
//! outside.
//!
//! The centre piece is the **ladder**: one read stream, replayed through
//! six rungs that each add one layer —
//!
//! | rung | what runs | row |
//! |---|---|---|
//! | r0 | `HotTrie::get` | `trie.get_ns` |
//! | r1 | `ConcurrentHot::get` | `sync.rowex_ns` = r1 − r0 |
//! | r2 | `ConcurrentHot::get_batch`, 128 per call | `mlp.*` (r2 − r1 is the batch engine's saving) |
//! | r3 | `ShardedHot::inline_router(2)` + `get_batch_with` | `shard.route_ns` = r3 − r2 |
//! | r4 | r3 behind request encode → frame decode → … → response decode, in one thread | `protocol.*` = r4 − r3 |
//! | r5 | the same frames through `hot-server` over loopback, 1024 in flight | `server.transport_ns` = r5 − r4 |
//!
//! r0–r4 run on one thread, so their wall time is their CPU time. r5 runs
//! on two, so it is stated in CPU per op as well: the server threads' CPU
//! plus what the client does besides polling for answers (encode, write,
//! decode). Then `server.transport_ns` — syscalls, socket copies, window
//! coalescing, response assembly, the net-op histogram; everything the
//! benchmark cannot see into from outside — is not negative just because
//! two threads overlap. `server.loopback_wall_ns` is the same run by the
//! clock.

use crate::gen::{count_failed, Corpus, Mix, OpGen, Results, Slice, CHUNK, NONE};
use crate::host;
use crate::run::{arena_of, sorted_entries, ChunkLog, Engine, Scratch, Serve};
use crate::spec::Row;
use crate::stats::{median, percentile};
use crate::trace::{self, Trace};
use hot_core::sync::ConcurrentHot;
use hot_core::{CompactHot, HotTrie, RouterScratch, ShardedHot};
use hot_keys::ArenaKeySource;
use hot_metrics::{OpKind, Registry};
use hot_server::{FrameDecoder, Request, Response};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed part of one round of one rung, and rounds per rung.
const ROUND: Duration = Duration::from_millis(200);
const ROUNDS: usize = 3;
/// Chunks of the read stream the rungs cycle through.
const STREAM_CHUNKS: usize = 2048;
/// Chunks each rung runs first, untimed, with every answer checked.
const WARM_CHUNKS: usize = 256;
/// Keys the write rung removes and re-inserts, and scans it runs.
const WRITE_OPS: usize = 50_000;
const SCAN_OPS: usize = 20_000;
/// Timed part of the loopback rung.
const LOOPBACK: Duration = Duration::from_millis(1800);
/// Depth-1 round trips behind `client.rtt_p50_us`.
const RTT_CALLS: usize = 2000;

/// The rows a traced run adds, and the answers checked on the way.
#[derive(Default)]
pub struct Layers {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
}

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        self.rows.push((name, value));
    }
}

/// One ladder row: what the rung added.
#[derive(Debug, PartialEq)]
pub struct LadderRow {
    pub rung: &'static str,
    pub layer: &'static str,
    /// ns per op of the whole rung.
    pub total_ns: f64,
    /// What this rung added over the one before (r0: all of it).
    pub added_ns: f64,
    /// `added_ns` as a share of the last rung.
    pub share: f64,
}

/// Differences of consecutive rungs. The `added_ns` sum to the last rung
/// and the shares to 1 by construction; a layer that saves time (the
/// batch engine) has a negative row.
pub fn ladder_rows(rungs: &[(&'static str, &'static str, f64)]) -> Vec<LadderRow> {
    let last = rungs.last().map_or(1.0, |r| r.2);
    let mut below = 0.0;
    rungs
        .iter()
        .map(|&(rung, layer, total_ns)| {
            let added_ns = total_ns - below;
            below = total_ns;
            LadderRow {
                rung,
                layer,
                total_ns,
                added_ns,
                share: added_ns / last,
            }
        })
        .collect()
}

/// The read stream: keys, and the TID each must return.
struct Stream<'c> {
    keys: Vec<&'c [u8]>,
    expect: Vec<u64>,
    wrong: u64,
    checked: u64,
}

/// A rung's body: answers the keys it is given (`width` per call, the
/// first being key number `at` of the stream) into the output slots.
type RungFn<'a> = Box<dyn FnMut(usize, &[&[u8]], &mut [Option<u64>]) + 'a>;

impl Stream<'_> {
    /// ns per op of each rung `(width, body)`. Every rung first runs
    /// [`WARM_CHUNKS`] untimed with each answer checked; then the rungs
    /// are timed in [`ROUNDS`] interleaved rounds and a rung's figure is
    /// the median of its rounds, so a disturbance a fraction of a second
    /// long spoils one round of some rungs, not a rung.
    fn measure(&mut self, rungs: &mut [(usize, RungFn)]) -> Vec<f64> {
        let warm = WARM_CHUNKS * CHUNK;
        for (width, call) in rungs.iter_mut() {
            let mut out = vec![None; *width];
            let checked = self.keys[..warm]
                .chunks(*width)
                .zip(self.expect[..warm].chunks(*width));
            for (i, (keys, expect)) in checked.enumerate() {
                call(i * *width, keys, &mut out[..keys.len()]);
                for (got, &want) in out.iter().zip(expect) {
                    self.wrong += u64::from(got.unwrap_or(NONE) != want);
                }
                self.checked += keys.len() as u64;
            }
        }
        let mut rounds = vec![Vec::with_capacity(ROUNDS); rungs.len()];
        for _ in 0..ROUNDS {
            for ((width, call), rounds) in rungs.iter_mut().zip(&mut rounds) {
                let mut out = vec![None; *width];
                let start = Instant::now();
                let mut ops = 0usize;
                'timed: loop {
                    for (i, keys) in self.keys.chunks(*width).enumerate() {
                        call(i * *width, keys, &mut out[..keys.len()]);
                        ops += keys.len();
                        if start.elapsed() >= ROUND {
                            break 'timed;
                        }
                    }
                }
                rounds.push(start.elapsed().as_nanos() as f64 / ops as f64);
                std::hint::black_box(&out);
            }
        }
        rounds.iter_mut().map(|r| median(r)).collect()
    }
}

/// A rung body that answers its keys one scalar call at a time.
fn scalar<'a>(get: impl Fn(&[u8]) -> Option<u64> + 'a) -> RungFn<'a> {
    Box::new(move |_, keys, out| {
        for (slot, key) in out.iter_mut().zip(keys) {
            *slot = get(key);
        }
    })
}

/// A rung body that hands all its keys to one `get_batch`.
fn batched(index: &ConcurrentHot<Arc<ArenaKeySource>>) -> RungFn<'_> {
    Box::new(move |_, keys, out| index.get_batch(keys, out))
}

/// Time split of the in-process protocol loop (r4), summed over chunks.
#[derive(Default)]
struct ProtocolSplit {
    req_encode: u64,
    req_decode: u64,
    resp_encode: u64,
    resp_decode: u64,
    req_bytes: u64,
    resp_bytes: u64,
    ops: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n as f64
}

/// Every structure the rungs read, loaded with the same sorted entries.
struct Built {
    trie: HotTrie<Arc<ArenaKeySource>>,
    conc: ConcurrentHot<Arc<ArenaKeySource>>,
    sharded: ShardedHot<Arc<ArenaKeySource>>,
    compact: CompactHot,
}

/// Build the structures, and time what set-up is made of while at it.
fn build(
    corpus: &Corpus,
    order: &[u32],
    sort_secs: f64,
    out: &mut Layers,
) -> Result<Built, String> {
    let n = corpus.loaded;
    let start = Instant::now();
    let arena = arena_of(corpus);
    out.add(
        "keys.arena_fill_ns_per_key",
        ns_per(start.elapsed(), corpus.dataset.len()),
    );
    out.add(
        "keys.tuple_bytes_per_key",
        arena.capacity_bytes() as f64 / corpus.dataset.len() as f64,
    );
    out.add("bulk.sort_ns_per_key", sort_secs * 1e9 / n as f64);

    let entries = sorted_entries(corpus, order);
    let start = Instant::now();
    let conc = ConcurrentHot::new(Arc::clone(&arena));
    conc.bulk_load(&entries)
        .map_err(|e| format!("bulk_load: {e:?}"))?;
    out.add("bulk.load_ns_per_key", ns_per(start.elapsed(), n));
    out.add(
        "trie.node_bytes_per_key",
        conc.memory_stats().bytes_per_key(),
    );
    out.add("trie.mean_leaf_depth", conc.depth_stats().mean_depth());

    // The paper's load phase on this corpus: every key by `insert`.
    let start = Instant::now();
    let by_insert = ConcurrentHot::new(Arc::clone(&arena));
    for i in 0..n {
        by_insert.insert(corpus.key(i as u32), corpus.tids[i]);
    }
    out.add("sync.load_insert_ns", ns_per(start.elapsed(), n));
    if by_insert.len() != n {
        return Err(format!(
            "incremental load holds {} of {n} keys",
            by_insert.len()
        ));
    }
    drop(by_insert);

    let mut trie = HotTrie::new(Arc::clone(&arena));
    trie.bulk_load(&entries)
        .map_err(|e| format!("HotTrie::bulk_load: {e:?}"))?;
    let sharded = ShardedHot::inline_router(arena, 2);
    sharded
        .bulk_load(&entries)
        .map_err(|e| format!("ShardedHot::bulk_load: {e:?}"))?;
    let mut compact = CompactHot::new();
    compact
        .bulk_load(&entries)
        .map_err(|e| format!("CompactHot::bulk_load: {e:?}"))?;
    out.add(
        "arena.bytes_per_key",
        compact.memory_stats().footprint_per_key(),
    );
    Ok(Built {
        trie,
        conc,
        sharded,
        compact,
    })
}

/// r0 … r4, the in-flight sweep and the compact layout's `get`, in
/// interleaved rounds. Returns `[r0, r1, r2, r3, r4]` and what decoding a
/// response costs the client per op.
fn in_process_rungs(
    built: &Built,
    stream: &mut Stream,
    reqs: &[Request],
    out: &mut Layers,
) -> Result<([f64; 5], f64), String> {
    let Built {
        trie,
        conc,
        sharded,
        compact,
    } = built;
    let mut split = ProtocolSplit::default();
    let (mut wire, mut back) = (Vec::new(), Vec::new());
    let (mut server_dec, mut client_dec) = (FrameDecoder::new(), FrameDecoder::new());
    let mut window: Vec<Request> = Vec::with_capacity(CHUNK);
    let mut found = vec![None; CHUNK];
    let (mut router, mut router4) = (RouterScratch::new(), RouterScratch::new());
    let mut protocol_error = None;
    // r4: r3 behind the protocol, all in this thread, each step timed.
    let protocol: RungFn = Box::new(|at, keys, answers| {
        let reqs = &reqs[at..at + keys.len()];
        let mut step = || -> Result<(), String> {
            let t = Instant::now();
            wire.clear();
            for req in reqs {
                req.encode(&mut wire);
            }
            split.req_encode += ns_since(t);

            let t = Instant::now();
            server_dec.feed(&wire);
            window.clear();
            while let Some(body) = server_dec.next_frame().map_err(|e| e.to_string())? {
                window.push(Request::decode(&body).map_err(|e| e.to_string())?);
            }
            split.req_decode += ns_since(t);

            let probes: Vec<&[u8]> = window
                .iter()
                .map(|r| match r {
                    Request::Get { key } => key.as_slice(),
                    _ => &[],
                })
                .collect();
            sharded.get_batch_with(&probes, &mut found[..probes.len()], &mut router4);

            let t = Instant::now();
            back.clear();
            for f in &found[..probes.len()] {
                f.map_or(Response::None, Response::Tid).encode(&mut back);
            }
            split.resp_encode += ns_since(t);

            let t = Instant::now();
            client_dec.feed(&back);
            let mut slots = answers.iter_mut();
            while let Some(body) = client_dec.next_frame().map_err(|e| e.to_string())? {
                let slot = slots.next().ok_or("more responses than requests")?;
                *slot = match Response::decode(&body).map_err(|e| e.to_string())? {
                    Response::Tid(tid) => Some(tid),
                    _ => None,
                };
            }
            split.resp_decode += ns_since(t);
            split.req_bytes += wire.len() as u64;
            split.resp_bytes += back.len() as u64;
            split.ops += keys.len() as u64;
            Ok(())
        };
        if let Err(e) = step() {
            protocol_error.get_or_insert(e);
        }
    });
    let mut rungs: Vec<(usize, RungFn)> = vec![
        (CHUNK, scalar(|k| trie.get(k))),
        (CHUNK, scalar(|k| conc.get(k))),
        (CHUNK, batched(conc)),
        (
            CHUNK,
            Box::new(|_, keys, answers| sharded.get_batch_with(keys, answers, &mut router)),
        ),
        (CHUNK, protocol),
        (8, batched(conc)),
        (32, batched(conc)),
        (1024, batched(conc)),
        (CHUNK, scalar(|k| compact.get(k))),
    ];
    let ns = stream.measure(&mut rungs);
    drop(rungs);
    if let Some(e) = protocol_error {
        return Err(format!("in-process protocol loop: {e}"));
    }
    let [r0, r1, r2, r3, r4] = [ns[0], ns[1], ns[2], ns[3], ns[4]];
    out.add("trie.get_ns", r0);
    out.add("sync.get_ns", r1);
    out.add("sync.rowex_ns", r1 - r0);
    out.add("mlp.get_batch_ns", r2);
    out.add("mlp.batch_gain", r1 / r2);
    out.add("mlp.get_batch_w8_ns", ns[5]);
    out.add("mlp.get_batch_w32_ns", ns[6]);
    out.add("mlp.get_batch_w1024_ns", ns[7]);
    out.add("arena.get_ns", ns[8]);
    out.add("shard.get_batch_ns", r3);
    out.add("shard.route_ns", r3 - r2);
    out.add("shard.imbalance", sharded.imbalance());
    let per_op = |total: u64| total as f64 / split.ops as f64;
    out.add("protocol.loop_ns", r4);
    out.add("protocol.req_encode_ns", per_op(split.req_encode));
    out.add("protocol.req_decode_ns", per_op(split.req_decode));
    out.add("protocol.resp_encode_ns", per_op(split.resp_encode));
    out.add("protocol.resp_decode_ns", per_op(split.resp_decode));
    out.add("protocol.bytes_per_req", per_op(split.req_bytes));
    out.add("protocol.bytes_per_resp", per_op(split.resp_bytes));
    Ok(([r0, r1, r2, r3, r4], per_op(split.resp_decode)))
}

/// r5: the stream's frames through `hot-server` over loopback, spans on.
/// Returns r5 in CPU ns per op.
fn loopback_rung(
    corpus: &Corpus,
    slice: &Slice,
    scratch: &mut Scratch,
    resp_decode_ns: f64,
    r4: f64,
    out: &mut Layers,
) -> Result<f64, String> {
    let (mut served, start_s) = Serve::set_up(corpus, &[])?;
    out.add("server.start_s", start_s);
    let stat = |served: &Serve, name: &str| -> Result<f64, String> {
        let doc = served.stats()?;
        doc.get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("STATS lacks `{name}`"))
    };
    let mut tr = Trace::new();
    let mut got = Results::default();
    let mut log = ChunkLog::default();
    // One untimed pass first: connection buffers, server window, caches.
    got.reset(slice.len());
    served.run_slice::<false>(corpus, slice, scratch, &mut got, &mut log, &mut tr)?;
    let (bytes_in, bytes_out) = (stat(&served, "bytes_in")?, stat(&served, "bytes_out")?);
    // Server-side CPU: the process without this (polling) thread, whose
    // share is read first so that it never exceeds the total.
    let server_cpu = || {
        let own = host::thread_cpu_ns();
        host::process_cpu_ns() - own
    };
    let cpu0 = server_cpu();
    let (mut wall, mut ops) = (Duration::ZERO, 0usize);
    while wall < LOOPBACK {
        got.reset(slice.len());
        wall += served.run_slice::<true>(corpus, slice, scratch, &mut got, &mut log, &mut tr)?;
        ops += slice.len();
        out.failed += count_failed(slice, &got);
    }
    let server_ns = (server_cpu() - cpu0) as f64 / ops as f64;
    let totals = trace::totals(&tr.spans);
    let span_ns = |name| trace::total_of(&totals, name).total_ns as f64 / ops as f64;
    // What the client does besides waiting: encode, write, and decode the
    // answers (timed in r4; inside `recv` it cannot be told from the wait).
    let client_ns = span_ns("client.encode") + span_ns("client.flush") + resp_decode_ns;
    let r5 = server_ns + client_ns;
    let wall_ns = ns_per(wall, ops);
    out.add("server.loopback_cpu_ns", r5);
    out.add("server.loopback_wall_ns", wall_ns);
    out.add("server.transport_ns", r5 - r4);
    out.add(
        "server.bytes_in_per_op",
        (stat(&served, "bytes_in")? - bytes_in) / ops as f64,
    );
    out.add(
        "server.bytes_out_per_op",
        (stat(&served, "bytes_out")? - bytes_out) / ops as f64,
    );
    out.add("server.proto_errors", stat(&served, "proto_errors")?);
    out.add("client.encode_ns", span_ns("client.encode"));
    out.add("client.flush_ns", span_ns("client.flush"));
    out.add("client.recv_wait_ns", span_ns("client.recv"));
    out.add("client.busy_share", client_ns / wall_ns);

    let mut rtt: Vec<u64> = Vec::with_capacity(RTT_CALLS);
    for (req, &want) in scratch.requests()[..RTT_CALLS].iter().zip(&slice.expect) {
        let t = Instant::now();
        let resp = served.call(req)?;
        rtt.push(ns_since(t));
        out.failed += u64::from(resp != Response::Tid(want));
    }
    rtt.sort_unstable();
    out.add("client.rtt_p50_us", percentile(&rtt, 50.0) as f64 / 1e3);
    out.attempted += (ops + RTT_CALLS) as u64;
    served.finish();
    Ok(r5)
}

/// Write path and scans, scalar, on the bulk-loaded `ConcurrentHot`:
/// remove a strided sample of the keys, insert them back, then scan from
/// the stream's keys with limits 1–100.
fn write_and_scan_rung(
    conc: &ConcurrentHot<Arc<ArenaKeySource>>,
    corpus: &Corpus,
    stream: &Stream,
    out: &mut Layers,
) -> Result<(), String> {
    let write_ops = WRITE_OPS.min(corpus.loaded / 4);
    let stride = corpus.loaded / write_ops;
    let victims: Vec<u32> = (0..write_ops).map(|j| (j * stride) as u32).collect();
    let start = Instant::now();
    for &i in &victims {
        out.failed += u64::from(conc.remove(corpus.key(i)) != Some(corpus.tids[i as usize]));
    }
    out.add("sync.remove_ns", ns_per(start.elapsed(), write_ops));
    let start = Instant::now();
    for &i in &victims {
        out.failed += u64::from(
            conc.insert(corpus.key(i), corpus.tids[i as usize])
                .is_some(),
        );
    }
    out.add("sync.insert_ns", ns_per(start.elapsed(), write_ops));
    if conc.len() != corpus.loaded {
        return Err(format!(
            "write rung left {} of {} keys",
            conc.len(),
            corpus.loaded
        ));
    }

    let mut tids = Vec::with_capacity(128);
    let mut scanned = 0usize;
    let start = Instant::now();
    for (j, (&key, &want)) in stream
        .keys
        .iter()
        .zip(&stream.expect)
        .take(SCAN_OPS)
        .enumerate()
    {
        tids.clear();
        conc.scan_into(key, 1 + j % 100, &mut tids);
        scanned += tids.len();
        out.failed += u64::from(tids.first() != Some(&want));
    }
    out.add("scan.scan_ns", ns_per(start.elapsed(), SCAN_OPS));
    out.add("scan.ns_per_tid", ns_per(start.elapsed(), scanned.max(1)));
    out.attempted += (2 * write_ops + SCAN_OPS) as u64;
    Ok(())
}

/// What `hot_metrics::Registry::record_ns` costs: the server pays it
/// twice per op.
fn record_cost(out: &mut Layers) {
    const CALLS: u64 = 4_000_000;
    let registry = Registry::new();
    let start = Instant::now();
    for i in 0..CALLS {
        registry.record_ns(OpKind::NetGet, 200 + (i & 1023));
    }
    std::hint::black_box(&registry);
    out.add("metrics.record_ns", ns_per(start.elapsed(), CALLS as usize));
}

/// All layer rows for `corpus` (whose TIDs are arena offsets). `order` is
/// its loaded keys in key order, `sort_secs` what sorting them took.
pub fn measure(
    corpus: &Corpus,
    order: &[u32],
    sort_secs: f64,
    zipf: bool,
    seed: u64,
) -> Result<Layers, String> {
    let mut out = Layers::default();
    let built = build(corpus, order, sort_secs, &mut out)?;

    // The read stream: GETs on live keys, the workload's distribution.
    let mix = Mix {
        zipf,
        ..Mix::READ_ONLY
    };
    let mut slice = Slice::default();
    OpGen::new(corpus, mix, 0, seed ^ 0x001A_DDE4).fill(corpus, &mut slice, STREAM_CHUNKS * CHUNK);
    let mut stream = Stream {
        keys: slice.key.iter().map(|&i| corpus.key(i)).collect(),
        expect: slice.expect.clone(),
        wrong: 0,
        checked: 0,
    };
    let mut scratch = Scratch::default();
    Serve::prepare(corpus, &slice, &mut scratch);

    let ([r0, r1, r2, r3, r4], resp_decode_ns) =
        in_process_rungs(&built, &mut stream, scratch.requests(), &mut out)?;
    let Built { conc, .. } = built; // the rest is dropped: the server needs the memory's quiet
    let r5 = loopback_rung(corpus, &slice, &mut scratch, resp_decode_ns, r4, &mut out)?;

    println!("ladder rung layer ns_per_op added_ns share");
    for row in ladder_rows(&[
        ("r0", "trie (HotTrie::get)", r0),
        ("r1", "sync (ROWEX, epoch pin)", r1),
        ("r2", "mlp (get_batch)", r2),
        ("r3", "shard (inline router)", r3),
        ("r4", "protocol (encode/decode)", r4),
        ("r5", "server+client transport (cpu)", r5),
    ]) {
        println!(
            "ladder {} {:32} {:8.1} {:+8.1} {:+6.1}%",
            row.rung,
            row.layer,
            row.total_ns,
            row.added_ns,
            100.0 * row.share
        );
    }

    write_and_scan_rung(&conc, corpus, &stream, &mut out)?;
    drop(conc);
    record_cost(&mut out);
    out.attempted += stream.checked;
    out.failed += stream.wrong;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rows_sum_to_the_last_rung() {
        let rows = ladder_rows(&[
            ("r0", "trie", 410.0),
            ("r1", "sync", 455.5),
            ("r2", "mlp", 171.25),
            ("r3", "shard", 236.0),
            ("r4", "protocol", 402.0),
            ("r5", "transport", 905.75),
        ]);
        assert_eq!(rows[0].added_ns, 410.0);
        assert_eq!(
            rows[2].added_ns,
            171.25 - 455.5,
            "a layer that saves time has a negative row"
        );
        assert!((rows.iter().map(|r| r.added_ns).sum::<f64>() - 905.75).abs() < 1e-9);
        assert!((rows.iter().map(|r| r.share).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(rows[5].total_ns, 905.75);
    }
}
