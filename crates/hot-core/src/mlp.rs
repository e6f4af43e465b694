//! The batched descent engine: a completion-driven out-of-order MLP
//! scheduler (DESIGN.md §9).
//!
//! epoch-exempt: shared descent core. Its callers, the read face of
//! [`Hot`](crate::trie::Hot) and the sharded router, take the access mode's
//! pin (an epoch guard in the ROWEX mode, nothing in the exclusive one)
//! *before* loading roots and calling in here. Protection is the caller's
//! contract — these routines only borrow already-protected nodes.
//!
//! A single HOT lookup is a serial pointer chase: every compound-node hop
//! depends on the previous one, so one descent keeps one cache miss in
//! flight while an out-of-order core sustains ten or more. The Cuckoo
//! Trie observation applies: the memory system rewards keeping N misses
//! in flight *continuously*. [`MlpScheduler`] is the one engine every
//! batched read runs on, whichever [`NodeStore`] holds the trie. A run is
//! a stream of point lookups or a stream of range-scan seeks — the
//! stream's type fixes its [`DescentKind`], so the sweep carries no
//! per-lane kind test. The scheduler owns a ring of up to N lane state
//! machines and sweeps it, advancing each in-flight descent by one node
//! per visit with the next hop prefetched. The moment a lane *completes*
//! (its result is written, its scan drained), it is refilled from the
//! pending-request queue in place, without waiting for the rest of the
//! ring: in-flight depth stays at N until the queue runs dry, regardless
//! of per-key depth variance (a deep URL descent, a re-descent on the
//! concurrent index).
//!
//! Completion order is data-dependent; *results are not*. Lookup results
//! land at their request's slot (`run_lookups`), and scan drains are
//! staged in a scratch vector and emitted in request order afterwards
//! (`run_scans`), so every entry point is
//! byte-identical to the scalar path (the `ooo_differential` test asserts
//! checksums at every depth).
//!
//! The in-flight depth N is [`DEFAULT_DEPTH`]; [`MlpScheduler::with_depth`]
//! exists so tests can shuffle the completion order. With the `metrics`
//! feature the lane-occupancy histogram shows whether the depth is
//! actually sustained (mean occupancy ≈ N until the tail).

use crate::metrics::{Metrics, SchedCounter};
use crate::node::TreeRef;
use crate::scan::{drain_frames, leaf_in_range, position_frames};
use crate::store::NodeStore;
use hot_bits::{Isa, Kernel};
use hot_keys::PaddedKey;
use std::cell::Cell;

/// In-flight depth of every scheduler outside tests. Completion-driven
/// refill keeps all lanes useful, so the limit is the line-fill-buffer
/// budget plus the L2 MLP the prefetcher adds; throughput is flat across
/// 8..=64 on the benchmark host with 16 best (EXPERIMENTS.md, "One
/// batched-descent engine").
pub const DEFAULT_DEPTH: usize = 16;

/// Largest supported in-flight depth (matches
/// `hot_metrics::MAX_OCCUPANCY`, so the occupancy histogram resolves every
/// legal depth exactly).
pub(crate) const MAX_DEPTH: usize = 64;

/// Cache lines prefetched per upcoming node (Section 4.5: header + partial
/// keys + values) — identical to the point-lookup path.
const PREFETCH_LINES: usize = 4;

/// Cache lines prefetched per pending request's key bytes ahead of a
/// refill (two lines cover a ≤ 64-byte key at any alignment; longer keys
/// still get their critical first lines started).
const KEY_PREFETCH_LINES: usize = 2;

/// Re-descents allowed per request after torn-slot (null) observations on
/// the concurrent index before the descent completes as a miss, which is
/// the same "not present" answer the scalar reader gives.
const MAX_REDESCENTS: u32 = 3;

/// What kind of descent a run's lanes perform (DESIGN.md §9.1). A run
/// serves exactly one, fixed by its stream's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DescentKind {
    /// Point lookup: the verified TID (or `None`) goes to `out[slot]`.
    Lookup,
    /// Range-scan seek: the recorded path seeds an in-order drain of up to
    /// `limit` TIDs.
    ScanSeek,
}

/// Lane stage within a descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Chasing compound nodes root-to-leaf.
    Descend,
    /// Terminal word reached and the tuple's key record prefetched last
    /// visit; the full-key verification (or scan positioning + drain) runs
    /// this visit, with the other lanes' misses having overlapped it.
    Finish,
}

/// A run's requests as the scheduler consumes them: key bytes and the
/// scan limit (ignored by lookups), all of the stream's one [`KIND`].
///
/// Implemented over the caller's natural containers so no per-call request
/// vector is materialized.
///
/// [`KIND`]: RequestStream::KIND
pub(crate) trait RequestStream {
    /// The descent every request of the stream takes.
    const KIND: DescentKind;
    /// Number of requests.
    fn len(&self) -> usize;
    /// The `i`-th request's key bytes and scan limit.
    fn fetch(&self, i: usize) -> (&[u8], usize);
}

/// `&[K]` as a stream of lookups.
pub(crate) struct LookupStream<'a, K>(pub &'a [K]);

impl<K: AsRef<[u8]>> RequestStream for LookupStream<'_, K> {
    const KIND: DescentKind = DescentKind::Lookup;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn fetch(&self, i: usize) -> (&[u8], usize) {
        (self.0[i].as_ref(), 0)
    }
}

/// `&[(K, usize)]` as a stream of scan seeks.
pub(crate) struct ScanStream<'a, K>(pub &'a [(K, usize)]);

impl<K: AsRef<[u8]>> RequestStream for ScanStream<'_, K> {
    const KIND: DescentKind = DescentKind::ScanSeek;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn fetch(&self, i: usize) -> (&[u8], usize) {
        let (key, limit) = &self.0[i];
        (key.as_ref(), *limit)
    }
}

/// One in-flight descent. Reference words are held widened, so a
/// scheduler's lanes serve tries of either back-end.
struct Lane {
    /// Padded search key.
    key: PaddedKey,
    /// Current word: node while descending, leaf/null once terminal.
    cur: u64,
    /// Stage within the descent.
    stage: Stage,
    /// Request index this lane is servicing.
    req: usize,
    /// Scan limit (scan-seek lanes only).
    limit: usize,
    /// Re-descents consumed (torn-slot recovery on the concurrent index).
    attempts: u32,
    /// Recorded descent path (scan-seek lanes only).
    path: Vec<(u64, usize)>,
    /// In-order frame stack for the drain (scan-seek lanes only; reused).
    frames: Vec<(u64, usize)>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            key: PaddedKey::new(),
            cur: 0,
            stage: Stage::Descend,
            req: 0,
            limit: 0,
            attempts: 0,
            path: Vec::new(),
            frames: Vec::new(),
        }
    }
}

/// Reusable completion-driven out-of-order descent scheduler.
///
/// One scheduler owns N lane state machines plus the scan staging buffers;
/// reusing it across batches amortizes every allocation. The convenience
/// entry points ([`get_batch`](crate::HotTrie::get_batch) and friends)
/// reuse one per thread; the `*_with` entry points take one from the
/// caller.
pub struct MlpScheduler {
    depth: usize,
    lanes: Vec<Lane>,
    /// Ring of occupied lane indices, compacted in place per sweep.
    active: Vec<usize>,
    /// Scan drains staged in completion order; emitted in request order.
    scratch_tids: Vec<u64>,
    /// Per-request `(begin, end)` span into `scratch_tids` (scan runs
    /// only; a lookup run leaves it empty).
    spans: Vec<(usize, usize)>,
}

impl Default for MlpScheduler {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// The scheduler behind the convenience batch entry points, parked
    /// here between calls so they allocate nothing after warm-up.
    static THREAD_SCHEDULER: Cell<Option<Box<MlpScheduler>>> = const { Cell::new(None) };
}

/// Staging entries (scan TIDs plus request spans) a parked scheduler may
/// keep: one huge batch must not pin megabytes per thread for good.
const PARKED_STAGING_MAX: usize = 1 << 16;

/// Run `f` with this thread's parked scheduler (created on first use, or
/// when a call nests inside another one's key source on the same thread,
/// or runs during thread teardown).
pub(crate) fn with_thread_scheduler<R>(f: impl FnOnce(&mut MlpScheduler) -> R) -> R {
    let mut sched = THREAD_SCHEDULER.try_with(Cell::take).ok().flatten().unwrap_or_default();
    let result = f(&mut sched);
    if sched.scratch_tids.capacity() + sched.spans.capacity() <= PARKED_STAGING_MAX {
        let _ = THREAD_SCHEDULER.try_with(|slot| slot.set(Some(sched)));
    }
    result
}

impl MlpScheduler {
    /// Scheduler keeping [`DEFAULT_DEPTH`] descents in flight.
    pub fn new() -> Self {
        Self::with_depth(DEFAULT_DEPTH)
    }

    /// Scheduler keeping up to `depth` descents in flight (`1..=64`).
    ///
    /// Lane buffers are allocated lazily on first use.
    pub fn with_depth(depth: usize) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "in-flight depth must be in 1..={MAX_DEPTH}"
        );
        MlpScheduler {
            depth,
            lanes: Vec::new(),
            active: Vec::new(),
            scratch_tids: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Drain a stream of lookups through the ring: request `i`'s verified
    /// TID (or `None`) is written to `out[i]` (`out` has one slot per
    /// request).
    ///
    /// * `reload_root` is called once per lane load and once per
    ///   re-descent — the per-refill root reload that keeps a long batch
    ///   on the concurrent index from pinning one stale root.
    /// * `redescend` enables torn-slot recovery (the access mode's
    ///   `SHARED`: only writers beside the reader publish null slots).
    pub(crate) fn run_lookups<St, Q, F>(
        &mut self,
        store: &St,
        reqs: &Q,
        out: &mut [Option<u64>],
        reload_root: F,
        redescend: bool,
        metrics: &Metrics,
    ) where
        St: NodeStore,
        Q: RequestStream,
        F: FnMut() -> St::Ref,
    {
        debug_assert_eq!(Q::KIND, DescentKind::Lookup);
        let (mut tids, mut bounds) = (Vec::new(), Vec::new());
        self.run(store, reqs, out, &mut tids, &mut bounds, reload_root, redescend, metrics);
    }

    /// Drain a stream of scan seeks through the ring: each request's TIDs
    /// are appended flat to `tids`, with one end offset pushed to `bounds`
    /// per request in request order (the caller seeds `bounds` with the
    /// starting offset, matching `scan_batch`). `reload_root` and
    /// `redescend` as for [`run_lookups`](Self::run_lookups).
    #[allow(clippy::too_many_arguments)] // two outputs plus the lookup entry's five
    pub(crate) fn run_scans<St, Q, F>(
        &mut self,
        store: &St,
        reqs: &Q,
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        reload_root: F,
        redescend: bool,
        metrics: &Metrics,
    ) where
        St: NodeStore,
        Q: RequestStream,
        F: FnMut() -> St::Ref,
    {
        debug_assert_eq!(Q::KIND, DescentKind::ScanSeek);
        self.run(store, reqs, &mut [], tids, bounds, reload_root, redescend, metrics);
    }

    /// The call's one ISA dispatch: the sweep below is compiled once per
    /// [`Kernel`] and every hop of every lane runs the chosen one.
    #[allow(clippy::too_many_arguments)] // internal plumbing of the two entries
    fn run<St, Q, F>(
        &mut self,
        store: &St,
        reqs: &Q,
        out: &mut [Option<u64>],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        reload_root: F,
        redescend: bool,
        metrics: &Metrics,
    ) where
        St: NodeStore,
        Q: RequestStream,
        F: FnMut() -> St::Ref,
    {
        match hot_bits::features().isa() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the token proves detection found every enabled feature.
            Isa::Avx2(k) => unsafe {
                self.run_avx2(k, store, reqs, out, tids, bounds, reload_root, redescend, metrics)
            },
            Isa::Portable(k) => self.run_on(k, store, reqs, out, tids, bounds, reload_root, redescend, metrics),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
    #[allow(clippy::too_many_arguments)]
    fn run_avx2<St, Q, F>(
        &mut self,
        k: hot_bits::Avx2,
        store: &St,
        reqs: &Q,
        out: &mut [Option<u64>],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        reload_root: F,
        redescend: bool,
        metrics: &Metrics,
    ) where
        St: NodeStore,
        Q: RequestStream,
        F: FnMut() -> St::Ref,
    {
        self.run_on(k, store, reqs, out, tids, bounds, reload_root, redescend, metrics)
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run_on<K, St, Q, F>(
        &mut self,
        k: K,
        store: &St,
        reqs: &Q,
        out: &mut [Option<u64>],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        mut reload_root: F,
        redescend: bool,
        metrics: &Metrics,
    ) where
        K: Kernel,
        St: NodeStore,
        Q: RequestStream,
        F: FnMut() -> St::Ref,
    {
        let n = reqs.len();
        if n == 0 {
            return;
        }
        let scan = Q::KIND == DescentKind::ScanSeek;
        self.scratch_tids.clear();
        self.spans.clear();
        if scan {
            self.spans.resize(n, (0, 0));
        }
        while self.lanes.len() < self.depth.min(n) {
            self.lanes.push(Lane::new());
        }
        self.active.clear();
        // Split borrows up front so the sweep loop can hold a lane `&mut`
        // while touching the active ring and the scan staging buffers.
        let MlpScheduler {
            depth,
            lanes,
            active,
            scratch_tids,
            spans,
        } = self;
        let depth = *depth;

        // Fill: load the first min(N, n) requests, one per lane. The
        // request keys live at stream-dependent addresses (for a random
        // probe stream, random lines of the key arena), so their reads are
        // misses too — start them all before the copies so they overlap.
        for i in 0..depth.min(n) {
            hot_bits::prefetch_node(reqs.fetch(i).0.as_ptr(), KEY_PREFETCH_LINES);
        }
        let mut next_req = 0;
        while next_req < n && active.len() < depth {
            let lane = active.len();
            stage_request(&mut lanes[lane], next_req, reqs, reload_root(), store, metrics);
            active.push(lane);
            next_req += 1;
        }

        // Sweep: advance every occupied lane one step per round. A lane
        // that completes refills from the pending queue *immediately* —
        // the ring never idles a lane while requests remain, so in-flight
        // depth stays at N until the tail.
        //
        // The Descend hop is inlined here rather than behind a per-lane
        // function call: at trie heights of ~6–10 the call overhead alone
        // costs double-digit percent of a batched lookup.
        let mut live = active.len();
        // Lanes currently in the Finish stage: lane `finishing` of them
        // will complete before the pending request at `next_req +
        // finishing` is staged, so that is the request whose key bytes a
        // newly terminal lane prefetches. Without this, every refill's key
        // copy is a *solo* arena miss in the middle of a sweep.
        let mut finishing = 0usize;
        while live > 0 {
            metrics.occupancy(live);
            let mut kept = 0;
            for slot in 0..live {
                let lane = active[slot];
                let l = &mut lanes[lane];
                if l.stage == Stage::Descend {
                    let raw = store.raw(St::Ref::from_word(l.cur));
                    let (idx, next) = raw.find_candidate::<K, St::Slot>(k, l.key.padded());
                    if scan {
                        l.path.push((l.cur, idx));
                    }
                    l.cur = next.word();
                    if next.is_node() {
                        // The next hop's memory starts loading now; it is
                        // needed only after every other live lane has
                        // moved.
                        hot_bits::prefetch_node(store.raw(next).base, PREFETCH_LINES);
                    } else if next.is_leaf() {
                        // Terminal: start the leaf's key record's miss and
                        // run the verification (or drain) on the next
                        // visit, and start the miss on the key bytes of
                        // the pending request this completion will refill
                        // with.
                        store.prefetch_leaf(next);
                        let peek = next_req + finishing;
                        if peek < n {
                            hot_bits::prefetch_node(reqs.fetch(peek).0.as_ptr(), KEY_PREFETCH_LINES);
                        }
                        finishing += 1;
                        l.stage = Stage::Finish;
                    } else {
                        // Null mid-descent: only the concurrent index
                        // publishes these (a slot observed mid-update).
                        // Re-descend from a fresh root a bounded number of
                        // times, then fall through to the same "not
                        // present" answer the scalar reader gives.
                        if redescend && l.attempts < MAX_REDESCENTS {
                            l.attempts += 1;
                            l.path.clear();
                            let root = reload_root();
                            l.cur = root.word();
                            metrics.sched(SchedCounter::Redescent);
                            if root.is_node() {
                                hot_bits::prefetch_node(store.raw(root).base, PREFETCH_LINES);
                            } else {
                                if root.is_leaf() {
                                    store.prefetch_leaf(root);
                                }
                                finishing += 1;
                                l.stage = Stage::Finish;
                            }
                        } else {
                            finishing += 1;
                            l.stage = Stage::Finish;
                        }
                    }
                    active[kept] = lane;
                    kept += 1;
                    continue;
                }
                // Finish stage: the lane's tuple line has had a full sweep
                // to arrive; complete the request and refill in place.
                finish_lane(Q::KIND, l, store, out, scratch_tids, spans, metrics);
                // Saturating: lanes staged straight to Finish (single-leaf
                // or empty root) never incremented the counter.
                finishing = finishing.saturating_sub(1);
                if next_req < n {
                    // Completion-driven refill.
                    stage_request(l, next_req, reqs, reload_root(), store, metrics);
                    next_req += 1;
                    active[kept] = lane;
                    kept += 1;
                }
            }
            live = kept;
        }

        // Emit scan results in request order: completion order shuffled
        // the staging vector, the spans restore the request view.
        if scan {
            for &(begin, end) in spans.iter() {
                tids.extend_from_slice(&scratch_tids[begin..end]);
                bounds.push(tids.len());
            }
        }
    }
}

/// Stage request `req` into lane `l`: set the key, point the lane at a
/// freshly loaded root and start the root's prefetch.
fn stage_request<St, Q>(l: &mut Lane, req: usize, reqs: &Q, root: St::Ref, store: &St, metrics: &Metrics)
where
    St: NodeStore,
    Q: RequestStream,
{
    let (key, limit) = reqs.fetch(req);
    l.key.set(key);
    l.cur = root.word();
    l.req = req;
    l.limit = limit;
    l.attempts = 0;
    l.path.clear();
    metrics.sched(SchedCounter::Refill);
    if root.is_node() {
        l.stage = Stage::Descend;
        hot_bits::prefetch_node(store.raw(root).base, PREFETCH_LINES);
    } else {
        // Single-leaf or empty tree: the descent is already terminal;
        // overlap the leaf's key load (if any) with the other lanes and
        // finish on the next visit.
        l.stage = Stage::Finish;
        if root.is_leaf() {
            store.prefetch_leaf(root);
        }
    }
}

/// Complete lane `l`'s request of a `kind` run: verify a lookup TID into
/// `out`, or position + drain a scan seek into the staging vector. Cold
/// relative to the per-hop sweep — one call per *request*, not per node.
fn finish_lane<St: NodeStore>(
    kind: DescentKind,
    l: &mut Lane,
    store: &St,
    out: &mut [Option<u64>],
    scratch_tids: &mut Vec<u64>,
    spans: &mut [(usize, usize)],
    metrics: &Metrics,
) {
    let req = l.req;
    let cur = St::Ref::from_word(l.cur);
    match kind {
        DescentKind::Lookup => {
            out[req] = if cur.is_leaf() { store.verify(cur, l.key.bytes()) } else { None };
            metrics.sched(SchedCounter::LookupDone);
        }
        DescentKind::ScanSeek => {
            let begin = scratch_tids.len();
            if l.limit > 0 {
                if l.path.is_empty() {
                    // Root was a leaf or null when loaded — same cases
                    // `scan_root` handles before seeking.
                    if cur.is_leaf() && leaf_in_range(store, cur, l.key.bytes()) {
                        scratch_tids.push(store.leaf_tid(cur));
                    }
                } else {
                    let limit = begin.saturating_add(l.limit);
                    if let Some(hit) = position_frames(store, &l.key, &l.path, cur, &mut l.frames) {
                        scratch_tids.push(hit);
                    }
                    drain_frames(store, &mut l.frames, limit, scratch_tids);
                }
            }
            spans[req] = (begin, scratch_tids.len());
            metrics.sched(SchedCounter::ScanSeekDone);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HotTrie;
    use hot_keys::{encode_u64, EmbeddedKeySource};

    fn build(n: u64) -> HotTrie<EmbeddedKeySource> {
        let mut t = HotTrie::new(EmbeddedKeySource);
        for v in 0..n {
            t.insert(&encode_u64(v * 3), v * 3);
        }
        t
    }

    #[test]
    fn batch_matches_scalar_on_hits_and_misses() {
        let t = build(10_000);
        let keys: Vec<[u8; 8]> = (0..1_000).map(encode_u64).collect();
        for depth in [1, 2, 5, 16, 64] {
            let mut sched = MlpScheduler::with_depth(depth);
            let mut out = vec![None; keys.len()];
            t.get_batch_with(&keys, &mut out, &mut sched);
            for (k, got) in keys.iter().zip(&out) {
                assert_eq!(*got, t.get(k), "depth {depth}");
            }
        }
    }

    #[test]
    fn scan_batch_matches_scalar() {
        let t = build(4_000);
        let requests: Vec<([u8; 8], usize)> = (0..64u64)
            .map(|i| (encode_u64(i * 191), (i % 13) as usize))
            .collect();
        let mut sched = MlpScheduler::with_depth(7);
        let (mut tids, mut bounds) = (Vec::new(), Vec::new());
        t.scan_batch_with(&requests, &mut tids, &mut bounds, &mut sched);
        assert_eq!(bounds.len(), requests.len() + 1);
        for (i, (key, limit)) in requests.iter().enumerate() {
            assert_eq!(
                &tids[bounds[i]..bounds[i + 1]],
                t.scan(key, *limit).as_slice(),
                "request {i}"
            );
        }
    }

    #[test]
    fn empty_tree_single_leaf_and_empty_batch() {
        let t: HotTrie<EmbeddedKeySource> = HotTrie::new(EmbeddedKeySource);
        let mut sched = MlpScheduler::new();
        let empty: [[u8; 8]; 0] = [];
        let mut out: Vec<Option<u64>> = vec![];
        t.get_batch_with(&empty, &mut out, &mut sched);

        let keys = [encode_u64(1), encode_u64(2)];
        let mut out = [Some(9), Some(9)];
        t.get_batch_with(&keys, &mut out, &mut sched);
        assert_eq!(out, [None, None]);

        let mut t = HotTrie::new(EmbeddedKeySource);
        t.insert(&encode_u64(7), 7);
        let mut out = [None, None];
        t.get_batch_with(&keys[..1], &mut out[..1], &mut sched);
        let mut out2 = [None, None];
        t.get_batch_with(&[encode_u64(7), encode_u64(8)], &mut out2, &mut sched);
        assert_eq!(out2, [Some(7), None]);
    }

    #[test]
    #[should_panic(expected = "in-flight depth")]
    fn zero_depth_rejected() {
        MlpScheduler::with_depth(0);
    }
}
