//! Observability layer for the HOT index (DESIGN.md §13).
//!
//! A per-structure [`Registry`] records, with no locks on the hot path:
//!
//! * **operation counters and latency histograms** — one [`OpKind`] per
//!   public entry point (get / insert / remove / scan and their batched
//!   variants plus bulk load), each with a call counter, a summed-duration
//!   counter, an *items* counter (keys resolved per batch, TIDs returned
//!   per scan) and a fixed-bucket log-scale latency histogram
//!   (HdrHistogram-style: linear below 16 ns, then 16 sub-buckets per
//!   power of two — relative bucket error is bounded by 1/16);
//! * **ROWEX health counters** ([`RowexCounter`]) — lock-acquisition
//!   failures, optimistic-insert/remove restarts, obsolete-marker
//!   encounters, epoch pins and the deferred-free queue (queued vs.
//!   executed; the difference is the reclamation backlog).
//! * **MLP scheduler health** ([`SchedCounter`] plus the lane-occupancy
//!   histogram) — refills, completions by descent kind, restart-triggered
//!   re-descents, and one occupancy sample per scheduler round so the
//!   achieved in-flight depth of the batched descent engine is
//!   observable (DESIGN.md §9.4).
//!
//! Recording goes to one of eight cache-line-padded shards picked
//! by a per-thread slot, so concurrent writers on different threads do not
//! ping-pong a shared counter line; [`Registry::ops_snapshot`] merges the
//! shards into an immutable [`MetricsSnapshot`] that offers percentile
//! extraction ([`OpSnapshot::p50_ns`], `p99_ns`, `p999_ns`) and stable,
//! hand-rolled JSON (the workspace has no serde).
//!
//! The crate is only ever compiled when an index crate enables its
//! `metrics` cargo feature; the default build has **zero** cost because no
//! call site survives (verified by `cargo xtask verify-no-metrics`).

#![deny(missing_docs)]
#![warn(unreachable_pub)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Public operation kinds instrumented on the index entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKind {
    /// Point lookup (`get`).
    Get = 0,
    /// Upsert (`insert`).
    Insert = 1,
    /// Deletion (`remove`).
    Remove = 2,
    /// Range scan (`scan` / `scan_into`).
    Scan = 3,
    /// Batched point lookups (`get_batch`, and `ShardedHot::get_batch_with`).
    GetBatch = 4,
    /// Batched range scans (`scan_batch`).
    ScanBatch = 5,
    /// Sorted bulk load (`bulk_load`).
    BulkLoad = 6,
    /// Served GET request (hot-server execution, hot-client round trip).
    NetGet = 7,
    /// Served PUT request.
    NetPut = 8,
    /// Served DEL request.
    NetDel = 9,
    /// Served SCAN / SCAN-resume request.
    NetScan = 10,
    /// Any served network request — the aggregate the wire drivers use
    /// for whole-stream latency percentiles (each request is recorded
    /// under its kind *and* here).
    NetOp = 11,
}

impl OpKind {
    /// Every instrumented operation kind, in `repr` order.
    pub const ALL: [OpKind; NUM_OPS] = [
        OpKind::Get,
        OpKind::Insert,
        OpKind::Remove,
        OpKind::Scan,
        OpKind::GetBatch,
        OpKind::ScanBatch,
        OpKind::BulkLoad,
        OpKind::NetGet,
        OpKind::NetPut,
        OpKind::NetDel,
        OpKind::NetScan,
        OpKind::NetOp,
    ];

    /// Stable lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Scan => "scan",
            OpKind::GetBatch => "get_batch",
            OpKind::ScanBatch => "scan_batch",
            OpKind::BulkLoad => "bulk_load",
            OpKind::NetGet => "net_get",
            OpKind::NetPut => "net_put",
            OpKind::NetDel => "net_del",
            OpKind::NetScan => "net_scan",
            OpKind::NetOp => "net_op",
        }
    }
}

/// Number of instrumented operation kinds.
const NUM_OPS: usize = 12;

/// ROWEX synchronization health counters (see `hot_core::sync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum RowexCounter {
    /// A writer failed to acquire a node's write lock (contention).
    LockFail = 0,
    /// An optimistic insert/remove attempt restarted (failed lock, failed
    /// re-validation, or a torn-slot read).
    Restart = 1,
    /// A locked node turned out to be marked OBSOLETE during validation.
    ObsoleteSeen = 2,
    /// An epoch was pinned (one per public reader/writer entry).
    EpochPin = 3,
    /// A replaced node was handed to the deferred-free queue.
    DeferredQueued = 4,
    /// A deferred free actually executed (epoch advanced past all readers).
    DeferredFreed = 5,
}

impl RowexCounter {
    /// Every ROWEX counter, in `repr` order.
    pub const ALL: [RowexCounter; NUM_ROWEX] = [
        RowexCounter::LockFail,
        RowexCounter::Restart,
        RowexCounter::ObsoleteSeen,
        RowexCounter::EpochPin,
        RowexCounter::DeferredQueued,
        RowexCounter::DeferredFreed,
    ];

    /// Stable lowercase label used in JSON output.
    fn label(self) -> &'static str {
        match self {
            RowexCounter::LockFail => "lock_failures",
            RowexCounter::Restart => "restarts",
            RowexCounter::ObsoleteSeen => "obsolete_seen",
            RowexCounter::EpochPin => "epoch_pins",
            RowexCounter::DeferredQueued => "deferred_queued",
            RowexCounter::DeferredFreed => "deferred_freed",
        }
    }
}

/// Number of ROWEX health counters.
const NUM_ROWEX: usize = 6;

/// Health counters of `hot_core`'s batched descent engine, the out-of-order
/// MLP scheduler behind every batched read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SchedCounter {
    /// A lane was loaded with a request from the pending queue (initial
    /// fills count too, so `refills == requests` for a drained batch).
    Refill = 0,
    /// A lookup descent completed (hit or miss).
    LookupDone = 1,
    /// A scan-seek descent completed (its drain ran).
    ScanSeekDone = 2,
    /// A lane re-descended from a freshly reloaded root after observing a
    /// torn (null) slot mid-descent on the concurrent index.
    Redescent = 3,
}

impl SchedCounter {
    /// Every scheduler counter, in `repr` order.
    pub const ALL: [SchedCounter; NUM_SCHED] = [
        SchedCounter::Refill,
        SchedCounter::LookupDone,
        SchedCounter::ScanSeekDone,
        SchedCounter::Redescent,
    ];

    /// Stable lowercase label used in JSON output.
    fn label(self) -> &'static str {
        match self {
            SchedCounter::Refill => "refills",
            SchedCounter::LookupDone => "lookup_completions",
            SchedCounter::ScanSeekDone => "scan_seek_completions",
            SchedCounter::Redescent => "redescents",
        }
    }
}

/// Number of MLP scheduler health counters.
const NUM_SCHED: usize = 4;

/// Largest lane-occupancy value tracked exactly; the occupancy histogram
/// has one bucket per occupancy `0..=MAX_OCCUPANCY` (deeper schedulers
/// clamp into the last bucket).
pub const MAX_OCCUPANCY: usize = 64;

/// Buckets in the lane-occupancy histogram.
const OCC_BUCKETS: usize = MAX_OCCUPANCY + 1;

/// Sub-bucket resolution: 2^SUB_BITS log-spaced sub-buckets per power of
/// two, i.e. ≤ 1/16 ≈ 6% relative quantile error.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Largest exponent tracked: values at or above 2^MAX_EXP ns (~18 minutes)
/// land in the final bucket.
const MAX_EXP: u32 = 40;
/// Total latency-histogram buckets per operation kind.
const NUM_BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS) as usize * SUB;

/// Histogram bucket index for a duration of `ns` nanoseconds.
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    if msb >= MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    // ns ∈ [2^msb, 2^(msb+1)); its top SUB_BITS+1 bits select the run and
    // the sub-bucket within it.
    let sub = (ns >> (msb - SUB_BITS)) as usize - SUB;
    SUB + (msb - SUB_BITS) as usize * SUB + sub
}

/// Inclusive lower bound (in ns) of histogram bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let run = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    ((SUB + sub) as u64) << run
}

/// Width (in ns) of histogram bucket `i` (1 in the linear range).
#[inline]
fn bucket_width(i: usize) -> u64 {
    if i < SUB {
        1
    } else {
        1u64 << ((i - SUB) / SUB)
    }
}

/// Per-operation shard state. All fields are written with `Relaxed`
/// read-modify-writes: metrics never synchronize access to index memory,
/// they only have to be individually exact.
struct OpShard {
    count: AtomicU64,
    total_ns: AtomicU64,
    items: AtomicU64,
    hist: [AtomicU64; NUM_BUCKETS],
}

impl OpShard {
    fn new() -> OpShard {
        OpShard {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            items: AtomicU64::new(0),
            hist: [const { AtomicU64::new(0) }; NUM_BUCKETS],
        }
    }
}

/// One recording shard: a full set of op stats plus the ROWEX counters,
/// padded so two shards never share a cache line.
#[repr(align(128))]
struct Shard {
    ops: [OpShard; NUM_OPS],
    rowex: [AtomicU64; NUM_ROWEX],
    sched: [AtomicU64; NUM_SCHED],
    occupancy: [AtomicU64; OCC_BUCKETS],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            ops: std::array::from_fn(|_| OpShard::new()),
            rowex: [const { AtomicU64::new(0) }; NUM_ROWEX],
            sched: [const { AtomicU64::new(0) }; NUM_SCHED],
            occupancy: [const { AtomicU64::new(0) }; OCC_BUCKETS],
        }
    }
}

/// Number of recording shards per registry. Threads map onto shards by a
/// process-wide thread slot modulo this; more simultaneous threads than
/// shards merely share (correctly, via atomic adds), they never lose
/// updates.
const NUM_SHARDS: usize = 8;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Stable per-thread shard slot, assigned on first use.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn shard_index() -> usize {
    THREAD_SLOT.with(|s| *s) % NUM_SHARDS
}

/// Sharded metrics recorder owned by one index structure.
///
/// All recording methods take `&self` and are thread-safe; snapshots merge
/// the shards. Dropping the index drops its metrics — there is no global
/// state, so tests and benchmarks observe exactly the operations of the
/// structure they hold.
pub struct Registry {
    shards: Box<[Shard; NUM_SHARDS]>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh all-zero registry.
    pub fn new() -> Registry {
        // Build on the heap: a shard is dominated by its latency
        // histograms, so the full array is far too large to stage on the
        // stack of a caller's thread.
        let shards: Vec<Shard> = (0..NUM_SHARDS).map(|_| Shard::new()).collect();
        let shards: Box<[Shard; NUM_SHARDS]> = shards
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly NUM_SHARDS shards"));
        Registry { shards }
    }

    /// Record one completed `op` that took `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, op: OpKind, ns: u64) {
        self.record_ns_n(op, ns, 1);
    }

    /// Record `n` completed `op`s that took `ns` nanoseconds each (a
    /// coalesced run's time amortized over its requests): the same
    /// snapshot as `n` calls of [`record_ns`](Self::record_ns), for one
    /// bucket add instead of `n`.
    #[inline]
    fn record_ns_n(&self, op: OpKind, ns: u64, n: u64) {
        let shard = &self.shards[shard_index()].ops[op as usize];
        shard.count.fetch_add(n, Ordering::Relaxed);
        shard
            .total_ns
            .fetch_add(ns.wrapping_mul(n), Ordering::Relaxed);
        shard.hist[bucket_index(ns)].fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to `op`'s items counter (keys per batch, TIDs per scan).
    #[inline]
    pub fn add_items(&self, op: OpKind, n: u64) {
        self.shards[shard_index()].ops[op as usize]
            .items
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Move everything `tally` holds into this registry and leave it
    /// empty: per kind one add each to the count, duration and items
    /// counters, and one add per histogram bucket the tally touched. The
    /// snapshot afterwards is the one the same
    /// [`record_ns`](Self::record_ns) / [`add_items`](Self::add_items)
    /// calls made directly on the registry would have produced.
    pub fn absorb(&self, tally: &mut LocalTally) {
        let shard = &self.shards[shard_index()];
        let kinds = shard.ops[TALLY_BASE..].iter().zip(tally.ops.iter_mut());
        for ((op, local), hist) in kinds.zip(tally.hist.chunks_exact_mut(NUM_BUCKETS)) {
            if local.count == 0 && local.items == 0 {
                continue;
            }
            op.count
                .fetch_add(std::mem::take(&mut local.count), Ordering::Relaxed);
            op.total_ns
                .fetch_add(std::mem::take(&mut local.total_ns), Ordering::Relaxed);
            op.items
                .fetch_add(std::mem::take(&mut local.items), Ordering::Relaxed);
            for (word, touched) in local.touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(touched);
                while bits != 0 {
                    let bucket = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let n = std::mem::take(&mut hist[bucket]);
                    op.hist[bucket].fetch_add(n, Ordering::Relaxed);
                }
            }
        }
    }

    /// Increment a ROWEX health counter.
    #[inline]
    pub fn incr(&self, c: RowexCounter) {
        self.shards[shard_index()].rowex[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Merged value of one ROWEX counter.
    fn counter(&self, c: RowexCounter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.rowex[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Increment an MLP scheduler health counter.
    #[inline]
    pub fn incr_sched(&self, c: SchedCounter) {
        self.shards[shard_index()].sched[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one lane-occupancy sample (busy lanes observed at the top of
    /// a scheduler round; clamped to [`MAX_OCCUPANCY`]).
    #[inline]
    pub fn record_occupancy(&self, busy: usize) {
        self.shards[shard_index()].occupancy[busy.min(MAX_OCCUPANCY)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Merged value of one scheduler counter.
    fn sched_counter(&self, c: SchedCounter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sched[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Merge every shard into an immutable snapshot of the operation and
    /// ROWEX metrics (no structural gauges — the owning index attaches
    /// those, see `HotTrie::metrics_snapshot`).
    pub fn ops_snapshot(&self) -> MetricsSnapshot {
        let ops = OpKind::ALL
            .iter()
            .map(|&kind| {
                let mut snap = OpSnapshot {
                    kind,
                    count: 0,
                    total_ns: 0,
                    items: 0,
                    hist: vec![0; NUM_BUCKETS],
                };
                for shard in self.shards.iter() {
                    let s = &shard.ops[kind as usize];
                    snap.count += s.count.load(Ordering::Relaxed);
                    snap.total_ns += s.total_ns.load(Ordering::Relaxed);
                    snap.items += s.items.load(Ordering::Relaxed);
                    for (acc, b) in snap.hist.iter_mut().zip(s.hist.iter()) {
                        *acc += b.load(Ordering::Relaxed);
                    }
                }
                snap
            })
            .collect();
        let mut rowex = RowexSnapshot::default();
        for c in RowexCounter::ALL {
            rowex.counts[c as usize] = self.counter(c);
        }
        let mut sched = SchedSnapshot::default();
        for c in SchedCounter::ALL {
            sched.counts[c as usize] = self.sched_counter(c);
        }
        for (i, bucket) in sched.occupancy.iter_mut().enumerate() {
            *bucket = self
                .shards
                .iter()
                .map(|s| s.occupancy[i].load(Ordering::Relaxed))
                .sum();
        }
        MetricsSnapshot {
            ops,
            rowex,
            sched,
            structure: None,
        }
    }
}

/// First of the served-request kinds ([`OpKind::NetGet`] …
/// [`OpKind::NetOp`]), the ones a [`LocalTally`] holds.
const TALLY_BASE: usize = OpKind::NetGet as usize;
const TALLY_OPS: usize = NUM_OPS - TALLY_BASE;
const TOUCHED_WORDS: usize = NUM_BUCKETS.div_ceil(64);

/// One kind's share of a [`LocalTally`]: the counters of an `OpShard`,
/// plain, and which of the kind's buckets in `LocalTally::hist` are hit.
#[derive(Clone, Copy, Default)]
struct TallyOp {
    count: u64,
    total_ns: u64,
    items: u64,
    /// Bit `b` set ⇔ the kind's bucket `b` is non-zero, so absorbing
    /// visits the buckets that were hit and not all [`NUM_BUCKETS`].
    touched: [u64; TOUCHED_WORDS],
}

/// A single-owner, non-atomic accumulator for the served-request kinds
/// ([`OpKind::NetGet`] … [`OpKind::NetOp`]).
///
/// A connection thread records every request here — plain adds on memory
/// nobody else reads, same bucket index as the registry — and hands
/// the lot to [`Registry::absorb`] once per request window, so the shared
/// histograms cost a few atomic adds per window instead of three per run.
/// Nothing is averaged or dropped on the way: the registry ends up with
/// exactly the samples it would have been given directly, at most one
/// window late.
///
/// The buckets (≈ 24 KB) are one zeroed heap block, so only the pages
/// holding buckets that are ever hit become resident.
pub struct LocalTally {
    ops: [TallyOp; TALLY_OPS],
    /// `NUM_BUCKETS` buckets per kind, kind-major.
    hist: Box<[u64]>,
}

impl Default for LocalTally {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalTally {
    /// An empty tally.
    fn new() -> LocalTally {
        LocalTally {
            ops: [TallyOp::default(); TALLY_OPS],
            hist: vec![0; TALLY_OPS * NUM_BUCKETS].into_boxed_slice(),
        }
    }

    /// Record `n` completed `op`s that took `ns` nanoseconds each — the
    /// local counterpart of `n` calls of [`Registry::record_ns`].
    ///
    /// # Panics
    /// Panics if `op` is not one of the served-request kinds.
    #[inline]
    pub fn record(&mut self, op: OpKind, ns: u64, n: u64) {
        let kind = op as usize - TALLY_BASE;
        let local = &mut self.ops[kind];
        let bucket = bucket_index(ns);
        local.count += n;
        local.total_ns = local.total_ns.wrapping_add(ns.wrapping_mul(n));
        local.touched[bucket / 64] |= 1 << (bucket % 64);
        self.hist[kind * NUM_BUCKETS + bucket] += n;
    }

    /// Add `n` to `op`'s items counter — the local counterpart of
    /// [`Registry::add_items`]. Panics like [`record`](Self::record).
    #[inline]
    pub fn add_items(&mut self, op: OpKind, n: u64) {
        self.ops[op as usize - TALLY_BASE].items += n;
    }
}

/// Drop guard that records one operation's latency into its registry,
/// held by `Arc` so it can be bound across calls that mutably borrow the
/// instrumented structure (`insert`, `remove`, `bulk_load`).
pub struct SharedOpTimer {
    registry: std::sync::Arc<Registry>,
    op: OpKind,
    start: Instant,
}

impl SharedOpTimer {
    /// Start timing one `op` against a shared registry; records on drop.
    #[inline]
    pub fn new(registry: std::sync::Arc<Registry>, op: OpKind) -> SharedOpTimer {
        SharedOpTimer {
            registry,
            op,
            start: Instant::now(),
        }
    }
}

impl Drop for SharedOpTimer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.registry.record_ns(self.op, ns);
    }
}

/// Merged statistics for one operation kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Which operation this summarizes.
    pub kind: OpKind,
    /// Completed calls.
    pub count: u64,
    /// Summed wall-clock duration in nanoseconds.
    total_ns: u64,
    /// Summed item count (keys per batch call, TIDs per scan, keys per
    /// bulk load; 0 for point ops).
    pub items: u64,
    /// Latency histogram, `NUM_BUCKETS` log-scale buckets.
    hist: Vec<u64>,
}

impl OpSnapshot {
    /// Total samples in the histogram (must equal [`OpSnapshot::count`] —
    /// the metrics differential test asserts exactly this).
    pub fn hist_total(&self) -> u64 {
        self.hist.iter().sum()
    }

    /// Mean latency in nanoseconds (0 when no calls were recorded).
    fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Latency quantile in nanoseconds: the midpoint of the bucket holding
    /// the `q`-quantile sample (`q` in `[0, 1]`; 0 when empty). Relative
    /// error is bounded by the bucket width, ≤ 1/16.
    fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.hist_total();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower(i) + bucket_width(i) / 2;
            }
        }
        bucket_lower(NUM_BUCKETS - 1)
    }

    /// Median latency (ns).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile latency (ns).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile latency (ns).
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// This snapshot minus an earlier one of the same kind (saturating, so
    /// mismatched snapshots degrade to zeros rather than panicking).
    pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            kind: self.kind,
            count: self.count.saturating_sub(earlier.count),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            items: self.items.saturating_sub(earlier.items),
            hist: self
                .hist
                .iter()
                .zip(earlier.hist.iter())
                .map(|(&a, &b)| a.saturating_sub(b))
                .collect(),
        }
    }
}

/// Merged ROWEX health counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowexSnapshot {
    /// Counter values indexed by `RowexCounter as usize`.
    pub counts: [u64; NUM_ROWEX],
}

impl RowexSnapshot {
    /// Value of one counter.
    pub fn get(&self, c: RowexCounter) -> u64 {
        self.counts[c as usize]
    }

    /// Deferred frees still queued (reclamation backlog): queued − freed.
    fn deferred_depth(&self) -> u64 {
        self.get(RowexCounter::DeferredQueued)
            .saturating_sub(self.get(RowexCounter::DeferredFreed))
    }

    /// Restarts per completed write attempt-carrying op: `restarts /
    /// max(writes, 1)` — the contention signal fig10 reports.
    pub fn restart_rate(&self, writes: u64) -> f64 {
        self.get(RowexCounter::Restart) as f64 / writes.max(1) as f64
    }

    /// This snapshot minus an earlier one (saturating).
    fn since(&self, earlier: &RowexSnapshot) -> RowexSnapshot {
        let mut out = RowexSnapshot::default();
        for i in 0..NUM_ROWEX {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

/// Merged MLP scheduler health counters plus the lane-occupancy histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// Counter values indexed by `SchedCounter as usize`.
    pub counts: [u64; NUM_SCHED],
    /// Occupancy samples per busy-lane count (`occupancy[b]` = rounds that
    /// started with exactly `b` lanes in flight, `b` clamped to
    /// [`MAX_OCCUPANCY`]).
    occupancy: [u64; OCC_BUCKETS],
}

impl Default for SchedSnapshot {
    fn default() -> Self {
        SchedSnapshot {
            counts: [0; NUM_SCHED],
            occupancy: [0; OCC_BUCKETS],
        }
    }
}

impl SchedSnapshot {
    /// Value of one counter.
    pub fn get(&self, c: SchedCounter) -> u64 {
        self.counts[c as usize]
    }

    /// Completed descents across all kinds — for a drained batch pipeline
    /// this must equal both the submitted requests and the refills (the
    /// metrics differential test asserts exactly that).
    pub fn completions(&self) -> u64 {
        self.get(SchedCounter::LookupDone) + self.get(SchedCounter::ScanSeekDone)
    }

    /// Total occupancy samples (scheduler rounds observed).
    pub fn occupancy_samples(&self) -> u64 {
        self.occupancy.iter().sum()
    }

    /// Mean busy lanes per round (0 when no samples) — compare against the
    /// configured depth to see whether the pipeline stayed full.
    pub fn mean_occupancy(&self) -> f64 {
        let samples = self.occupancy_samples();
        if samples == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(b, &n)| b as u64 * n)
            .sum();
        weighted as f64 / samples as f64
    }

    /// This snapshot minus an earlier one (saturating).
    fn since(&self, earlier: &SchedSnapshot) -> SchedSnapshot {
        let mut out = SchedSnapshot::default();
        for i in 0..NUM_SCHED {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        for i in 0..OCC_BUCKETS {
            out.occupancy[i] = self.occupancy[i].saturating_sub(earlier.occupancy[i]);
        }
        out
    }
}

/// Structural gauges sampled from a whole-trie invariant walk (see
/// `hot_core::Hot::check_invariants`): the paper's two adaptivity dimensions made
/// observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralSnapshot {
    /// Compound nodes.
    pub nodes: u64,
    /// Stored keys (leaves).
    pub leaves: u64,
    /// Root height.
    pub height: u64,
    /// Total entry slots across all nodes; `entries / nodes / 32` is the
    /// fill factor.
    pub entries: u64,
    /// Live nodes per physical layout, indexed by `NodeTag as usize`
    /// (Single8 … Multi32x32).
    pub layout_census: [u64; 9],
    /// Leaf count per depth (root-to-leaf compound nodes), clamped to the
    /// final slot.
    pub leaf_depths: Vec<u64>,
}

impl StructuralSnapshot {
    /// Average node fill in entries out of the fanout bound `k = 32`.
    pub fn avg_fill(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.entries as f64 / self.nodes as f64
        }
    }
}

/// A complete, immutable metrics snapshot: merged operation stats, ROWEX
/// health counters and (when sampled) structural gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-operation stats, one entry per [`OpKind::ALL`] member.
    pub ops: Vec<OpSnapshot>,
    /// ROWEX counters (all zero on single-threaded structures).
    pub rowex: RowexSnapshot,
    /// MLP scheduler health (all zero until a batched entry point runs).
    pub sched: SchedSnapshot,
    /// Structural gauges, when the snapshot sampled the tree.
    pub structure: Option<StructuralSnapshot>,
}

impl MetricsSnapshot {
    /// Stats for one operation kind.
    pub fn op(&self, kind: OpKind) -> &OpSnapshot {
        &self.ops[kind as usize]
    }

    /// Total completed write-path calls (insert + remove + bulk load) —
    /// the denominator of [`RowexSnapshot::restart_rate`].
    pub fn write_ops(&self) -> u64 {
        self.op(OpKind::Insert).count
            + self.op(OpKind::Remove).count
            + self.op(OpKind::BulkLoad).count
    }

    /// Operation and ROWEX deltas since an `earlier` snapshot of the same
    /// registry (structural gauges are point-in-time and carried from
    /// `self`). This is what per-phase tagging diffs.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            ops: self
                .ops
                .iter()
                .zip(earlier.ops.iter())
                .map(|(a, b)| a.since(b))
                .collect(),
            rowex: self.rowex.since(&earlier.rowex),
            sched: self.sched.since(&earlier.sched),
            structure: self.structure.clone(),
        }
    }

    /// Serialize to stable, human-diffable JSON (ops with non-zero counts
    /// only; histograms summarized as percentiles, not dumped raw).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"ops\": {\n");
        let live: Vec<&OpSnapshot> = self.ops.iter().filter(|o| o.count > 0).collect();
        for (i, o) in live.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"items\": {}, \"mean_ns\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}{}\n",
                o.kind.label(),
                o.count,
                o.items,
                o.mean_ns(),
                o.p50_ns(),
                o.p99_ns(),
                o.p999_ns(),
                if i + 1 < live.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"rowex\": {");
        for (i, c) in RowexCounter::ALL.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\": {}{}",
                c.label(),
                self.rowex.get(*c),
                if i + 1 < NUM_ROWEX { ", " } else { "" }
            ));
        }
        out.push_str(&format!(
            ", \"deferred_depth\": {}}}",
            self.rowex.deferred_depth()
        ));
        if self.sched.get(SchedCounter::Refill) > 0 {
            out.push_str(",\n  \"sched\": {");
            for c in SchedCounter::ALL.iter() {
                out.push_str(&format!("\"{}\": {}, ", c.label(), self.sched.get(*c)));
            }
            out.push_str(&format!(
                "\"occupancy_samples\": {}, \"mean_occupancy\": {:.2}}}",
                self.sched.occupancy_samples(),
                self.sched.mean_occupancy()
            ));
        }
        if let Some(s) = &self.structure {
            out.push_str(&format!(
                ",\n  \"structure\": {{\"nodes\": {}, \"leaves\": {}, \"height\": {}, \
                 \"avg_fill\": {:.2}, \"layout_census\": {:?}, \"leaf_depths\": {:?}}}",
                s.nodes,
                s.leaves,
                s.height,
                s.avg_fill(),
                s.layout_census,
                s.leaf_depths
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording through a tally and absorbing it is indistinguishable
    /// from recording on the registry: same counts, same durations, same
    /// histogram buckets, one sample per request.
    #[test]
    fn absorbed_tally_equals_direct_recording() {
        let (direct, via_tally) = (Registry::new(), Registry::new());
        let mut tally = LocalTally::new();
        let samples = [
            (OpKind::NetGet, 180, 96),
            (OpKind::NetPut, 1_250, 1),
            (OpKind::NetGet, 181, 2),
            (OpKind::NetScan, 73_000, 3),
            (OpKind::NetDel, 0, 1),
            (OpKind::NetGet, u64::MAX, 1),
        ];
        for round in 0..3 {
            for &(op, ns, n) in &samples[round..] {
                for reg_op in [op, OpKind::NetOp] {
                    direct.record_ns_n(reg_op, ns, n);
                    tally.record(reg_op, ns, n);
                }
                direct.add_items(op, n);
                tally.add_items(op, n);
            }
            via_tally.absorb(&mut tally);
            assert_eq!(via_tally.ops_snapshot(), direct.ops_snapshot());
            // Absorbing emptied it: a second absorb adds nothing.
            via_tally.absorb(&mut tally);
            assert_eq!(via_tally.ops_snapshot(), direct.ops_snapshot());
        }
        let snap = via_tally.ops_snapshot();
        for op in [
            OpKind::NetGet,
            OpKind::NetPut,
            OpKind::NetDel,
            OpKind::NetScan,
            OpKind::NetOp,
        ] {
            assert_eq!(snap.op(op).count, snap.op(op).hist_total());
        }
        assert_eq!(snap.op(OpKind::NetOp).count, 3 * 104 - 96 - 97);
    }

    #[test]
    fn bucket_index_roundtrips_bounds() {
        // Every bucket's lower bound must map back to that bucket, and
        // bucket bounds must be monotonically increasing.
        let mut prev = 0;
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(
                bucket_index(lo + bucket_width(i) - 1),
                i,
                "upper edge of bucket {i}"
            );
            if i > 0 {
                assert!(lo > prev || i == 1, "bounds increase at {i}");
            }
            prev = lo;
        }
        // Overflow clamps to the last bucket.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_exact_for_linear_values() {
        let reg = Registry::new();
        for ns in 0..16u64 {
            // 0..16 land in the exact linear buckets.
            reg.record_ns(OpKind::Get, ns);
        }
        let snap = reg.ops_snapshot();
        let get = snap.op(OpKind::Get);
        assert_eq!(get.count, 16);
        assert_eq!(get.hist_total(), 16);
        assert_eq!(get.p50_ns(), 7);
        assert_eq!(get.quantile_ns(1.0), 15);
        assert_eq!(get.quantile_ns(0.0), 0);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let reg = Registry::new();
        let mut values: Vec<u64> = (0..10_000u64).map(|i| i * i + 17).collect();
        for &v in &values {
            reg.record_ns(OpKind::Insert, v);
        }
        values.sort_unstable();
        let snap = reg.ops_snapshot();
        let ins = snap.op(OpKind::Insert);
        for &(q, rank) in &[(0.5, 5000usize), (0.99, 9900), (0.999, 9990)] {
            let exact = values[rank - 1] as f64;
            let approx = ins.quantile_ns(q) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(
                err < 0.07,
                "q={q}: exact {exact} vs approx {approx} (err {err})"
            );
        }
    }

    #[test]
    fn shards_merge_across_threads() {
        let reg = std::sync::Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        reg.record_ns(OpKind::Get, i);
                        reg.add_items(OpKind::Get, 2);
                        reg.incr(RowexCounter::EpochPin);
                    }
                });
            }
        });
        let snap = reg.ops_snapshot();
        assert_eq!(snap.op(OpKind::Get).count, 4000);
        assert_eq!(snap.op(OpKind::Get).hist_total(), 4000);
        assert_eq!(snap.op(OpKind::Get).items, 8000);
        assert_eq!(snap.rowex.get(RowexCounter::EpochPin), 4000);
    }

    #[test]
    fn since_diffs_phases() {
        let reg = Registry::new();
        reg.record_ns(OpKind::Insert, 100);
        let load = reg.ops_snapshot();
        for _ in 0..10 {
            reg.record_ns(OpKind::Get, 50);
        }
        let run = reg.ops_snapshot().since(&load);
        assert_eq!(run.op(OpKind::Insert).count, 0);
        assert_eq!(run.op(OpKind::Get).count, 10);
        assert_eq!(run.op(OpKind::Get).hist_total(), 10);
    }

    #[test]
    fn record_ns_n_equals_n_records() {
        let (one_by_one, at_once) = (Registry::new(), Registry::new());
        for (ns, n) in [(0u64, 3u64), (750, 128), (u64::MAX / 2, 5)] {
            for _ in 0..n {
                one_by_one.record_ns(OpKind::NetGet, ns);
            }
            at_once.record_ns_n(OpKind::NetGet, ns, n);
        }
        assert_eq!(
            at_once.ops_snapshot().to_json(),
            one_by_one.ops_snapshot().to_json()
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let reg = Registry::new();
        reg.record_ns(OpKind::Get, 1234);
        let mut snap = reg.ops_snapshot();
        snap.structure = Some(StructuralSnapshot {
            nodes: 3,
            leaves: 40,
            height: 2,
            entries: 42,
            layout_census: [1, 0, 0, 2, 0, 0, 0, 0, 0],
            leaf_depths: vec![0, 8, 32],
        });
        let json = snap.to_json();
        assert!(json.contains("\"get\""));
        assert!(json.contains("\"rowex\""));
        assert!(json.contains("\"layout_census\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
