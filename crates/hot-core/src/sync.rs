//! ROWEX synchronization protocol (Section 5 of the paper).
//!
//! HOT's copy-on-write nodes publish every structural change with a single
//! pointer store, which makes the index "a perfect fit for the Read-Optimized
//! Write EXclusion (ROWEX) synchronization strategy":
//!
//! * **readers** never acquire locks and never restart — they pin an epoch
//!   and traverse with acquire loads; replaced (obsolete) nodes stay intact
//!   until no reader can hold them;
//! * **writers** follow the paper's five steps: (a) traverse and determine
//!   the *affected nodes* (those whose contents or value slots the operation
//!   writes), (b) lock them bottom-up, (c) validate that none is obsolete —
//!   restart otherwise, (d) apply the copy-on-write modification, marking
//!   replaced nodes obsolete, (e) unlock top-down;
//! * **reclamation** is epoch-based (`crossbeam-epoch`): obsolete nodes are
//!   deferred until all pinned epochs have moved on.
//!
//! A single compare-and-swap would not suffice (two concurrent inserts could
//! strand one writer's copy, as Section 5 explains); the per-node locks make
//! the affected set mutually exclusive while leaving the rest of the tree
//! writable.
//!
//! The affected sets per operation case follow the paper exactly: a normal
//! insert locks the mismatching node and its parent; leaf-node pushdown only
//! the node itself; parent pull-up walks ancestors until a non-full node (or
//! the root); intermediate node creation stops at the first node with room
//! below its parent; and "finally, the direct parent of the last accessed
//! node is added". After acquiring the locks the writer does **not** descend
//! again: step (c) is the obsolete check plus a re-read of the one slot per
//! locked level that the descent followed ([`ConcurrentHot::validate_locked`]).
//! That is enough because a locked, non-obsolete node cannot change under
//! the writer — its content is immutable (copy-on-write) and its value slots
//! are only stored under its own lock — and because the plan depends on
//! nothing else: the mismatch position is the same against every key below
//! the affected range, whatever other writers did further down.

// All protocol-carrying atomics (root word, len, lock words via `node`)
// come from the shim so loom models can explore their interleavings; see
// `crate::sync_shim` for the normal-build/model-build switch.
use crate::sync_shim::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_epoch as epoch;

use crate::bulk::BulkLoadError;
use crate::metrics::{Metrics, OpKind, RowexCounter};
use crate::node::builder::{true_height, Builder};
use crate::node::{NodeRef, Path, RawNode, MAX_FANOUT};
use crate::store::{HeapStore, NodeStore};
use hot_keys::stats::MemoryStats;
use hot_keys::{DepthStats, KeySource, PaddedKey, KEY_SCRATCH_LEN, MAX_TID};

/// Lock-word bit 0: a writer holds this node's write lock.
pub(crate) const LOCKED: u32 = 1;
/// Lock-word bit 1: this node was replaced by a copy-on-write and awaits
/// epoch reclamation; writers must not modify it.
pub(crate) const OBSOLETE: u32 = 2;

/// Try to acquire a node's write lock. Returns false when contended.
///
/// Ordering: the initial load is a **Relaxed optimistic peek** — it only
/// decides whether to attempt the CAS at all, and a stale value is
/// harmless because the CAS revalidates the whole word atomically (a
/// stale "unlocked" fails the CAS; a stale "locked" means one wasted
/// retry). The CAS success ordering is **Acquire**: it pairs with the
/// **Release** in [`unlock`], so everything the previous lock holder
/// wrote to the node happens-before this writer's re-analysis. Failure
/// ordering is Relaxed — a failed attempt reads no protected data, the
/// caller just backs off and relocks from scratch.
#[inline]
fn try_lock(node: RawNode) -> bool {
    let word = node.lock_word();
    let current = word.load(Ordering::Relaxed);
    current & LOCKED == 0
        && word
            // pairs-with: node-lock
            .compare_exchange(current, current | LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
}

/// Ordering: **Release** — pairs with the Acquire CAS in [`try_lock`];
/// all node/slot writes made under the lock happen-before the next
/// writer's acquisition. (Readers never take locks; they synchronize
/// through the Release slot/root stores instead.)
#[inline]
fn unlock(node: RawNode) {
    node.lock_word().fetch_and(!LOCKED, Ordering::Release); // pairs-with: node-lock
}

/// Ordering: **Acquire** — pairs with the Release in [`mark_obsolete`].
/// A writer that observes OBSOLETE restarts its descent; the pairing
/// guarantees it then also observes the Release-published replacement
/// node (no livelock on a stale root/slot).
#[inline]
fn is_obsolete(node: RawNode) -> bool {
    node.lock_word().load(Ordering::Acquire) & OBSOLETE != 0 // pairs-with: obsolete-flag
}

/// Ordering: **Release** — pairs with the Acquire in [`is_obsolete`].
/// Always called *after* the replacement is Release-published
/// ([`ConcurrentHot::publish`]), so `OBSOLETE` visible ⇒ replacement
/// visible.
#[inline]
fn mark_obsolete(node: RawNode) {
    node.lock_word().fetch_or(OBSOLETE, Ordering::Release); // pairs-with: obsolete-flag
}

/// A concurrently accessible Height Optimized Trie.
///
/// Shares the node representation and structure-adaptation algorithms with
/// [`HotTrie`](crate::HotTrie); all mutating operations take `&self` and may
/// run from any number of threads. Lookups and scans are wait-free.
///
/// ```
/// use hot_core::sync::ConcurrentHot;
/// use hot_keys::{encode_u64, EmbeddedKeySource};
/// use std::sync::Arc;
///
/// let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
/// let handles: Vec<_> = (0..4)
///     .map(|t| {
///         let trie = Arc::clone(&trie);
///         std::thread::spawn(move || {
///             for i in (t..1000).step_by(4) {
///                 trie.insert(&encode_u64(i), i);
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(trie.len(), 1000);
/// assert_eq!(trie.get(&encode_u64(123)), Some(123));
/// ```
pub struct ConcurrentHot<S> {
    root: AtomicU64,
    /// The key source and the allocation counter — the read half of the
    /// storage seam (descents, scans and the invariant walk run over it);
    /// the ROWEX write path below is heap-only and allocates directly.
    store: HeapStore<S>,
    len: AtomicUsize,
    /// Operation + ROWEX-health metrics recorder — zero-sized no-op unless
    /// the `metrics` feature is enabled (see [`crate::metrics`]).
    metrics: Metrics,
}

/// What the descent found and what the write operation will do. Levels
/// index the descent [`Path`], root first.
#[derive(Clone, Copy)]
enum Plan {
    /// Key present: replace the leaf word in `path[level]`'s taken slot.
    Upsert { level: usize },
    /// Key present in a leaf root: swap the root word.
    UpsertRoot { existing: u64 },
    /// Empty tree / leaf root growth (no locks; CAS on the root word).
    GrowRoot { expected: u64, pos: u16, key_bit: u8, existing: u64 },
    /// Leaf-node pushdown into `path[level]`'s taken slot.
    Pushdown { level: usize, pos: u16, key_bit: u8 },
    /// Insert into `path[level]`; `top` is the shallowest level whose
    /// *content* changes when the overflow cascade runs (equals `level`
    /// when no overflow happens).
    Insert { level: usize, top: usize, pos: u16, key_bit: u8 },
}

impl<S: KeySource> ConcurrentHot<S> {
    /// Create an empty concurrent trie resolving keys through `source`.
    pub fn new(source: S) -> Self {
        ConcurrentHot {
            root: AtomicU64::new(0),
            store: HeapStore::new(source),
            len: AtomicUsize::new(0),
            metrics: Metrics::new(),
        }
    }

    /// Number of keys stored.
    ///
    /// Ordering: Relaxed — `len` is a monotonic statistics counter, not a
    /// synchronization point; no reader derives pointer validity from it.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access the key source.
    pub fn source(&self) -> &S {
        &self.store.source
    }

    /// Crate-internal: the store the batched descent engine reads through.
    pub(crate) fn store(&self) -> &HeapStore<S> {
        &self.store
    }

    /// Crate-internal: the metrics sink, so the sharded router's fused
    /// batch drive can attribute its scheduler pass to this shard's
    /// registry.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Build the whole trie bottom-up from sorted `(key, tid)` entries and
    /// publish it with a **single** root store — the concurrent counterpart
    /// of [`HotTrie::bulk_load`](crate::HotTrie::bulk_load) (DESIGN.md §11).
    ///
    /// The trie must be empty: the finished root is installed with one CAS
    /// of the null root word, so concurrent readers observe either the
    /// empty trie or the complete bulk-loaded one, never an intermediate
    /// state. If any entry (or a racing writer) got there first the build
    /// is discarded and [`BulkLoadError::NotEmpty`] is returned. Duplicates
    /// collapse last-write-wins; unsorted input returns
    /// [`BulkLoadError::Unsorted`]. Returns the number of distinct keys.
    pub fn bulk_load<K: AsRef<[u8]>>(
        &self,
        entries: &[(K, u64)],
    ) -> Result<usize, BulkLoadError> {
        self.bulk_load_parallel(entries, 1)
    }

    /// [`bulk_load`](Self::bulk_load) with the root fragment's subtries
    /// built on up to `threads` worker threads (see
    /// [`HotTrie::bulk_load_parallel`](crate::HotTrie::bulk_load_parallel)).
    pub fn bulk_load_parallel<K: AsRef<[u8]>>(
        &self,
        entries: &[(K, u64)],
        threads: usize,
    ) -> Result<usize, BulkLoadError> {
        if !self.load_root().is_null() {
            return Err(BulkLoadError::NotEmpty);
        }
        let _t = self.metrics.timer(OpKind::BulkLoad);
        let (root, n) = crate::bulk::load(&self.store, entries, threads)?;
        if n == 0 {
            return Ok(0);
        }
        // Single-publish. Ordering: **Release** on success — pairs with the
        // Acquire `load_root`, so a reader that observes the new root
        // observes every `fill`ed node body built above (including the
        // worker threads' stores, which happened-before their join).
        match self
            .root
            // pairs-with: root-publish
            .compare_exchange(0, root.0, Ordering::Release, Ordering::Relaxed)
        {
            Ok(_) => {
                self.len.store(n, Ordering::Relaxed);
                self.metrics.items(OpKind::BulkLoad, n as u64);
                Ok(n)
            }
            Err(_) => {
                // Lost the race to a concurrent writer: nothing was
                // published, so the freshly built subtree is still private.
                // SAFETY: never published — this thread is its sole owner.
                unsafe { self.store.drop_tree(root) };
                Err(BulkLoadError::NotEmpty)
            }
        }
    }

    /// Ordering: **Acquire** — pairs with every **Release** store/CAS of
    /// the root word (`publish`, `cascade_overflow`, `publish_remove`, the
    /// Grow/UpsertRoot CASes). A descent that observes a new root pointer
    /// therefore observes the fully `fill`ed node body behind it.
    #[inline]
    pub(crate) fn load_root(&self) -> NodeRef {
        NodeRef(self.root.load(Ordering::Acquire)) // pairs-with: root-publish
    }

    /// Wait-free lookup (Listing 2): no locks, no restarts.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let _t = self.metrics.timer(OpKind::Get);
        self.metrics.incr(RowexCounter::EpochPin);
        let padded = PaddedKey::from_key(key);
        self.get_padded(&padded)
    }

    /// Like [`get`](Self::get) with a caller-provided padded-key buffer
    /// (avoids re-zeroing a fresh 264-byte buffer per call in tight loops),
    /// mirroring [`HotTrie::get_with`](crate::HotTrie::get_with).
    pub fn get_with(&self, key: &[u8], buf: &mut PaddedKey) -> Option<u64> {
        let _t = self.metrics.timer(OpKind::Get);
        self.metrics.incr(RowexCounter::EpochPin);
        buf.set(key);
        self.get_padded(buf)
    }

    fn get_padded(&self, key: &PaddedKey) -> Option<u64> {
        let _guard = epoch::pin();
        crate::trie::lookup(&self.store, self.load_root(), key)
    }

    /// Look up `keys` as one batch under a **single** epoch pin, writing
    /// `keys.len()` results into `out` (`out[i]` answers `keys[i]` exactly
    /// as [`get`](Self::get) would).
    ///
    /// Descents run through the batched descent engine ([`crate::mlp`]) on
    /// the thread's parked scheduler, so neither the per-lookup
    /// `epoch::pin()` nor the 264-byte key-buffer zeroing of the scalar
    /// path is paid per key. The root is reloaded at every lane refill, so
    /// a long batch never pins one stale root and observes writers at
    /// request granularity; a lane that sees a torn slot mid-descent
    /// re-descends from a fresh root a bounded number of times before
    /// answering "not present" exactly as scalar `get` does. Each
    /// individual result is some linearized point-in-time answer.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn get_batch<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut [Option<u64>]) {
        crate::mlp::with_thread_scheduler(|sched| self.get_batch_with(keys, out, sched));
    }

    /// Like [`get_batch`](Self::get_batch) with a caller-provided
    /// [`MlpScheduler`](crate::MlpScheduler), whose lane buffers are then
    /// amortized across the caller's batches.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn get_batch_with<K: AsRef<[u8]>>(
        &self,
        keys: &[K],
        out: &mut [Option<u64>],
        sched: &mut crate::mlp::MlpScheduler,
    ) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let _t = self.metrics.timer(OpKind::GetBatch);
        self.metrics.items(OpKind::GetBatch, keys.len() as u64);
        self.metrics.incr(RowexCounter::EpochPin);
        let _guard = epoch::pin();
        sched.run_points(&self.store, &crate::mlp::LookupStream(keys), out, |_| self.load_root(), true, &self.metrics);
    }

    /// Service a mixed stream of point lookups and range scans in one
    /// pass of the engine under a single epoch pin, mirroring
    /// [`HotTrie::mixed_batch`](crate::HotTrie::mixed_batch): `out[i]`
    /// answers `Get` request `i`; each `Scan` appends to `tids` with one
    /// end offset pushed to `bounds` in stream order (both cleared first,
    /// `bounds` seeded with 0). Records one `get_batch` and one
    /// `scan_batch` metrics sample. Runs on the thread's parked scheduler.
    ///
    /// # Panics
    /// Panics if `reqs` and `out` differ in length.
    pub fn mixed_batch(
        &self,
        reqs: &[crate::mlp::BatchRequest<'_>],
        out: &mut [Option<u64>],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
    ) {
        crate::mlp::with_thread_scheduler(|sched| self.mixed_batch_with(reqs, out, tids, bounds, sched));
    }

    /// Like [`mixed_batch`](Self::mixed_batch) with a caller-provided
    /// [`MlpScheduler`](crate::MlpScheduler).
    ///
    /// # Panics
    /// Panics if `reqs` and `out` differ in length.
    pub fn mixed_batch_with(
        &self,
        reqs: &[crate::mlp::BatchRequest<'_>],
        out: &mut [Option<u64>],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        sched: &mut crate::mlp::MlpScheduler,
    ) {
        assert_eq!(reqs.len(), out.len(), "one output slot per request");
        let _tg = self.metrics.timer(OpKind::GetBatch);
        let _ts = self.metrics.timer(OpKind::ScanBatch);
        let gets = reqs
            .iter()
            .filter(|r| matches!(r, crate::mlp::BatchRequest::Get(_)))
            .count();
        self.metrics.items(OpKind::GetBatch, gets as u64);
        self.metrics.incr(RowexCounter::EpochPin);
        tids.clear();
        bounds.clear();
        bounds.push(0);
        let _guard = epoch::pin();
        sched.run(&self.store, reqs, out, tids, bounds, |_| self.load_root(), false, true, &self.metrics);
        self.metrics.items(OpKind::ScanBatch, tids.len() as u64);
    }

    /// Remove `keys` as one batch, writing what [`remove`](Self::remove)
    /// would have returned per key into `out`: the existence probes run as
    /// remove-probe descents through the out-of-order scheduler under one
    /// epoch pin (overlapping their misses and warming the paths), then
    /// the structural removals apply per probed-present key through the
    /// normal lock-then-validate write path.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn remove_batch<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let _t = self.metrics.timer(OpKind::RemoveBatch);
        self.metrics.items(OpKind::RemoveBatch, keys.len() as u64);
        {
            self.metrics.incr(RowexCounter::EpochPin);
            let _guard = epoch::pin();
            crate::mlp::with_thread_scheduler(|sched| {
                sched.run_points(&self.store, &crate::mlp::ProbeStream(keys), out, |_| self.load_root(), true, &self.metrics)
            });
        }
        // Apply phase: the probe is a hint (a racing writer may beat us);
        // `remove` re-descends and gives the authoritative answer.
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            if slot.is_some() {
                *slot = self.remove(key.as_ref());
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Collect up to `limit` TIDs with keys `>= key`, in ascending key
    /// order. Wait-free; the scan observes an interleaving-consistent view
    /// (nodes replaced mid-scan keep serving their pre-replacement state,
    /// exactly as the paper describes for readers on obsolete nodes).
    ///
    /// Allocates the result vector (the cursor is this thread's parked one);
    /// hot loops should call [`scan_into`](Self::scan_into), or hold a
    /// [`ScanCursor`](crate::ScanCursor) and call
    /// [`scan_with`](Self::scan_with).
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        // Cap the pre-size by the trie's population: short scans on small
        // tries must not over-allocate (`len()` is a racy lower bound under
        // concurrent inserts, which only costs a Vec regrow, never results).
        let mut out = Vec::with_capacity(limit.min(128).min(self.len()));
        self.scan_into(key, limit, &mut out);
        out
    }

    /// Like [`scan`](Self::scan), writing the TIDs into `out` (cleared
    /// first) instead of allocating a fresh vector.
    pub fn scan_into(&self, key: &[u8], limit: usize, out: &mut Vec<u64>) {
        crate::scan::with_thread_cursor(|cursor| self.scan_with(key, limit, out, cursor));
    }

    /// Like [`scan`](Self::scan) with caller-owned buffers: the TIDs land in
    /// `out` (cleared first), and the padded start key, descent path and
    /// frame stack all live in `cursor` — repeated scans allocate nothing
    /// once the buffers warmed up, and the traversal prefetches one subtree
    /// ahead (see [`crate::scan`]). One epoch pin per call.
    pub fn scan_with(
        &self,
        key: &[u8],
        limit: usize,
        out: &mut Vec<u64>,
        cursor: &mut crate::scan::ScanCursor,
    ) {
        let _t = self.metrics.timer(OpKind::Scan);
        self.metrics.incr(RowexCounter::EpochPin);
        out.clear();
        let _guard = epoch::pin();
        cursor.scan_root(&self.store, self.load_root(), key, limit, out);
        self.metrics.items(OpKind::Scan, out.len() as u64);
    }

    /// Service many scan requests `(start key, limit)` under a **single**
    /// epoch pin: request `i`'s TIDs land in `tids[bounds[i]..bounds[i +
    /// 1]]` (both vectors cleared first; `bounds` gets `requests.len() + 1`
    /// prefix offsets).
    ///
    /// Seek descents run through the batched descent engine (see
    /// [`crate::mlp`]) on the thread's parked scheduler, with the root
    /// reloaded at every lane refill and bounded torn-slot re-descents;
    /// each individual scan still observes an interleaving-consistent
    /// view, as for scalar [`scan`](Self::scan).
    pub fn scan_batch<K: AsRef<[u8]>>(
        &self,
        requests: &[(K, usize)],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
    ) {
        crate::mlp::with_thread_scheduler(|sched| self.scan_batch_with(requests, tids, bounds, sched));
    }

    /// Like [`scan_batch`](Self::scan_batch) with a caller-provided
    /// [`MlpScheduler`](crate::MlpScheduler), sharing its lane ring across
    /// the caller's batches.
    pub fn scan_batch_with<K: AsRef<[u8]>>(
        &self,
        requests: &[(K, usize)],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        sched: &mut crate::mlp::MlpScheduler,
    ) {
        let _t = self.metrics.timer(OpKind::ScanBatch);
        self.metrics.incr(RowexCounter::EpochPin);
        tids.clear();
        bounds.clear();
        bounds.push(0);
        let _guard = epoch::pin();
        let mut out: [Option<u64>; 0] = [];
        sched.run(
            &self.store,
            &crate::mlp::ScanStream(requests),
            &mut out,
            tids,
            bounds,
            |_| self.load_root(),
            false,
            true,
            &self.metrics,
        );
        self.metrics.items(OpKind::ScanBatch, tids.len() as u64);
    }

    /// Insert `key → tid` (upsert); returns the previous TID if present.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`] or the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes.
    pub fn insert(&self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        let _t = self.metrics.timer(OpKind::Insert);
        let padded = PaddedKey::from_key(key);
        let mut backoff = 0u32;
        loop {
            self.metrics.incr(RowexCounter::EpochPin);
            let guard = epoch::pin();
            match self.try_insert(&padded, tid, &guard) {
                Ok(old) => return old,
                Err(()) => {
                    self.metrics.incr(RowexCounter::Restart);
                    backoff_spin(&mut backoff);
                }
            }
        }
    }

    /// One optimistic insert attempt: analyze, lock, validate, apply.
    /// `Err` requests a restart.
    fn try_insert(&self, key: &PaddedKey, tid: u64, guard: &epoch::Guard) -> Result<Option<u64>, ()> {
        let mut path = Path::new();
        let (plan, leaf) = self.analyze(key, &mut path, guard)?;

        // Cases without node locks: root-word CAS.
        if let Plan::GrowRoot { expected, pos, key_bit, existing } = plan {
            let new_word = if expected == 0 {
                NodeRef::leaf(tid).0
            } else {
                let (zero, one) = if key_bit == 1 {
                    (NodeRef::leaf(existing).0, NodeRef::leaf(tid).0)
                } else {
                    (NodeRef::leaf(tid).0, NodeRef::leaf(existing).0)
                };
                Builder::pair(pos, zero, one, 1).encode(&self.store.mem).0
            };
            // Ordering: **AcqRel** on success — the Release half publishes the
            // freshly encoded pair node (all its plain stores happen-before the
            // CAS), pairing with the Acquire in `load_root`; the Acquire half
            // orders this thread against whichever CAS installed `expected`.
            // **Acquire** on failure so the retry loop re-analyzes against a
            // fully published competing root.
            // pairs-with: root-publish
            return match self.root.compare_exchange(
                expected,
                new_word,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // Ordering: Relaxed — `len` is a statistics counter, never
                    // used to synchronize access to trie memory.
                    self.len.fetch_add(1, Ordering::Relaxed);
                    Ok(None)
                }
                Err(_) => {
                    // Roll back the orphaned allocation, if any.
                    let r = NodeRef(new_word);
                    if r.is_node() {
                        // SAFETY: never published.
                        unsafe { r.as_raw().free(&self.store.mem) };
                    }
                    Err(())
                }
            };
        }
        if let Plan::UpsertRoot { existing } = plan {
            // Ordering: AcqRel/Acquire for the same reasons as the GrowRoot
            // CAS above. Both sides of the exchange are tagged leaf words (no
            // node memory is published), but keeping the strongest ordering
            // used for root updates keeps the protocol uniform and costs
            // nothing on x86.
            // pairs-with: root-publish
            return match self.root.compare_exchange(
                NodeRef::leaf(existing).0,
                NodeRef::leaf(tid).0,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => Ok(Some(existing)),
                Err(_) => Err(()),
            };
        }

        // The affected levels (nodes whose content or slots are written)
        // are one contiguous run of the path: lock them bottom-up.
        let (lowest, level) = match plan {
            Plan::Upsert { level } | Plan::Pushdown { level, .. } => (level, level),
            // `top - 1` is the slot-written parent.
            Plan::Insert { level, top, .. } => (top.saturating_sub(1), level),
            Plan::GrowRoot { .. } | Plan::UpsertRoot { .. } => unreachable!("handled above"),
        };
        self.lock_levels(&path, lowest, level, guard)?;
        let result = if self.validate_locked(&path, leaf, lowest, level, guard) {
            Ok(self.apply_insert(plan, &path, tid, guard))
        } else {
            Err(())
        };
        unlock_levels(&path, lowest, level, guard);
        result
    }

    /// Step (b): try-lock `path[lowest..=level]` bottom-up. On contention
    /// everything acquired is released again and the attempt fails. `_guard`
    /// is the caller's proof of an active epoch pin — the lock words live
    /// in nodes that may otherwise be reclaimed.
    fn lock_levels(&self, path: &Path, lowest: usize, level: usize, guard: &epoch::Guard) -> Result<(), ()> {
        for l in (lowest..=level).rev() {
            if !try_lock(path[l].0.as_raw()) {
                self.metrics.incr(RowexCounter::LockFail);
                unlock_levels(path, l + 1, level, guard);
                return Err(());
            }
        }
        Ok(())
    }

    /// Step (c), under the locks: every level of `path[lowest..=level]` is
    /// still part of the trie (not obsolete) and its taken slot still leads
    /// where the descent went — to the next recorded node, or to `leaf`
    /// (the word the descent ended on) below the last one. A locked,
    /// non-obsolete node's content is immutable and its slots are only
    /// stored under the lock this writer holds, so what was read here stays
    /// true until the unlock; the plan needs no second descent (module docs).
    fn validate_locked(&self, path: &Path, leaf: NodeRef, lowest: usize, level: usize, _guard: &epoch::Guard) -> bool {
        (lowest..=level).all(|l| {
            let (node, idx) = path[l];
            let raw = node.as_raw();
            if is_obsolete(raw) {
                self.metrics.incr(RowexCounter::ObsoleteSeen);
                return false;
            }
            raw.value(idx) == path.get(l + 1).map_or(leaf, |hop| hop.0)
        })
    }

    /// Step (a): descend and classify the operation, returning the plan and
    /// the leaf word the descent ended on. `Err` = transient inconsistency
    /// observed (restart). The `_guard` parameter is a compile-time proof
    /// that the caller pinned the epoch: every node this descent
    /// dereferences stays live for at least as long as that pin.
    fn analyze(&self, key: &PaddedKey, path: &mut Path, _guard: &epoch::Guard) -> Result<(Plan, NodeRef), ()> {
        let root = self.load_root();
        if root.is_null() {
            return Ok((Plan::GrowRoot { expected: 0, pos: 0, key_bit: 0, existing: 0 }, root));
        }

        let cur = crate::node::descend(&self.store, root, key, path);
        if cur.is_null() {
            return Err(()); // torn read of a slot mid-publication
        }
        let existing = cur.tid();
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let mismatch = {
            let stored = self.store.source.load_key(existing, &mut scratch);
            hot_bits::first_mismatch_bit(stored, key.bytes())
        };
        let Some(pos) = mismatch else {
            let plan = match path.len() {
                0 => Plan::UpsertRoot { existing },
                depth => Plan::Upsert { level: depth - 1 },
            };
            return Ok((plan, cur));
        };
        assert!(pos < u16::MAX as usize);
        let key_bit = hot_bits::bit_at(key.bytes(), pos);

        if path.is_empty() {
            return Ok((Plan::GrowRoot { expected: root.0, pos: pos as u16, key_bit, existing }, cur));
        }

        // Target selection, as in the single-threaded insert.
        let mut level = path.len() - 1;
        while level > 0 && path[level].0.as_raw().min_position() as usize > pos {
            level -= 1;
        }
        let (target, idx) = path[level];
        let (mut lo, mut hi) = target.as_raw().affected_range(pos, idx);
        if lo == hi && level + 1 < path.len() {
            // The mismatching BiNode is the root of the child the descent
            // went through (`lo == idx`): grow the child.
            level += 1;
            let (child, idx) = path[level];
            (lo, hi) = child.as_raw().affected_range(pos, idx);
        }
        let raw = path[level].0.as_raw();

        // A single affected entry at the last level is the leaf `cur`.
        if lo == hi && level + 1 == path.len() && raw.height() > 1 {
            return Ok((Plan::Pushdown { level, pos: pos as u16, key_bit }, cur));
        }

        // Simulate the overflow cascade to find the shallowest content-
        // changing level ("until a node with sufficient space or the root
        // node is reached").
        let mut top = level;
        let mut entries = raw.count() + 1;
        let mut height = raw.height();
        while entries > MAX_FANOUT {
            if top == 0 {
                break; // new root
            }
            let parent = path[top - 1].0.as_raw();
            if height + 1 == parent.height() {
                // Parent pull-up: the parent gains one entry.
                top -= 1;
                entries = parent.count() + 1;
                height = parent.height();
            } else {
                // Intermediate node creation: the parent takes a slot store.
                top -= 1;
                break;
            }
        }
        Ok((Plan::Insert { level, top, pos: pos as u16, key_bit }, cur))
    }

    /// Step (d): perform the modification. All affected nodes are locked
    /// and validated.
    fn apply_insert(&self, plan: Plan, path: &Path, tid: u64, guard: &epoch::Guard) -> Option<u64> {
        match plan {
            Plan::Upsert { level } => {
                let (node, idx) = path[level];
                let raw = node.as_raw();
                let old = raw.value(idx);
                debug_assert!(old.is_leaf());
                raw.store_value(idx, NodeRef::leaf(tid));
                Some(old.tid())
            }
            Plan::Pushdown { level, pos, key_bit } => {
                let (node, slot) = path[level];
                let raw = node.as_raw();
                let old_leaf = raw.value(slot);
                debug_assert!(old_leaf.is_leaf());
                let (zero, one) = if key_bit == 1 {
                    (old_leaf.0, NodeRef::leaf(tid).0)
                } else {
                    (NodeRef::leaf(tid).0, old_leaf.0)
                };
                let pushed = Builder::pair(pos, zero, one, 1).encode(&self.store.mem);
                raw.store_value(slot, pushed);
                // Ordering: Relaxed — statistics counter only (see `len`).
                self.len.fetch_add(1, Ordering::Relaxed);
                None
            }
            Plan::Insert { level, pos, key_bit, .. } => {
                let (target, idx) = path[level];
                let raw = target.as_raw();
                if crate::sync_shim::insert_fast_path_enabled() {
                    let (lo, hi) = raw.affected_range(pos as usize, idx);
                    if let Some(new_node) = raw.insert_entry_cow(
                        pos as usize,
                        lo,
                        hi,
                        key_bit,
                        NodeRef::leaf(tid).0,
                        &self.store.mem,
                    ) {
                        self.publish(path, level, new_node, guard);
                        self.retire(target, guard);
                        // Ordering: Relaxed — statistics counter only.
                        self.len.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
                let mut builder = Builder::decode(raw);
                builder.insert_entry(pos, idx, key_bit, NodeRef::leaf(tid).0);
                if !builder.overflowed() {
                    let new_node = builder.encode(&self.store.mem);
                    self.publish(path, level, new_node, guard);
                    self.retire(target, guard);
                } else {
                    self.cascade_overflow(path, level, builder, guard);
                }
                // Ordering: Relaxed — statistics counter only.
                self.len.fetch_add(1, Ordering::Relaxed);
                None
            }
            Plan::GrowRoot { .. } | Plan::UpsertRoot { .. } => {
                unreachable!("handled before locking")
            }
        }
    }

    /// Overflow cascade under locks: mirrors the single-threaded
    /// `handle_overflow`, but publishes via locked slots / the root word and
    /// defers frees to the epoch.
    fn cascade_overflow(&self, path: &Path, mut level: usize, mut builder: Builder, guard: &epoch::Guard) {
        loop {
            debug_assert!(builder.overflowed());
            let (pos, left, right) = builder.split();
            let left_ref = self.half_ref(left);
            let right_ref = self.half_ref(right);
            let old_node = path[level].0;

            if level == 0 {
                let h = true_height(&[left_ref.0, right_ref.0]);
                let new_root = Builder::pair(pos, left_ref.0, right_ref.0, h).encode(&self.store.mem);
                self.publish(path, 0, new_root, guard);
                self.retire(old_node, guard);
                return;
            }

            let (parent, parent_idx) = path[level - 1];
            let parent_raw = parent.as_raw();
            if builder.height + 1 == parent_raw.height() {
                let mut pb = Builder::decode(parent_raw);
                pb.replace_entry_with_pair(parent_idx, pos, left_ref.0, right_ref.0);
                self.retire(old_node, guard);
                if pb.overflowed() {
                    builder = pb;
                    level -= 1;
                    continue;
                }
                let new_parent = pb.encode(&self.store.mem);
                self.publish(path, level - 1, new_parent, guard);
                self.retire(parent, guard);
                return;
            }

            let h = true_height(&[left_ref.0, right_ref.0]);
            let inter = Builder::pair(pos, left_ref.0, right_ref.0, h).encode(&self.store.mem);
            self.publish(path, level, inter, guard);
            self.retire(old_node, guard);
            return;
        }
    }

    fn half_ref(&self, half: Builder) -> NodeRef {
        if half.len() == 1 {
            NodeRef(half.values[0])
        } else {
            half.encode(&self.store.mem)
        }
    }

    /// Point the slot above `level` (or the root word) at `new`. The node at
    /// `level` is locked and not obsolete, so that slot (or the root word)
    /// still points at it and no other writer can store to it.
    ///
    /// Ordering: the root store is **Release** (pairs with `load_root`'s
    /// Acquire); the slot store goes through `store_value`, which is likewise
    /// Release (pairing with the Acquire in `value`). Either way a descent
    /// that observes the new word observes the fully `fill`ed node behind it.
    fn publish(&self, path: &Path, level: usize, new: NodeRef, _guard: &epoch::Guard) {
        if level == 0 {
            self.root.store(new.0, Ordering::Release); // pairs-with: root-publish
        } else {
            let (parent, idx) = path[level - 1];
            parent.as_raw().store_value(idx, new);
        }
    }

    /// Mark a replaced node obsolete and defer its reclamation to the epoch.
    fn retire(&self, node: NodeRef, guard: &epoch::Guard) {
        mark_obsolete(node.as_raw());
        self.metrics.incr(RowexCounter::DeferredQueued);
        let mem = Arc::as_ptr(&self.store.mem);
        let metrics = self.metrics.handle();
        // SAFETY: the node is obsolete and unreachable from the (new)
        // structure; the epoch guarantees no pinned reader still holds it
        // when the deferred function runs. `mem` is still alive then:
        // `Drop` waits out every retired node before the counter goes.
        unsafe {
            guard.defer_unchecked(move || {
                node.as_raw().free(&*mem);
                metrics.incr(RowexCounter::DeferredFreed);
            });
        }
    }

    /// Remove `key`; returns its TID if present.
    pub fn remove(&self, key: &[u8]) -> Option<u64> {
        let _t = self.metrics.timer(OpKind::Remove);
        let padded = PaddedKey::from_key(key);
        let mut backoff = 0u32;
        loop {
            self.metrics.incr(RowexCounter::EpochPin);
            let guard = epoch::pin();
            match self.try_remove(&padded, &guard) {
                Ok(result) => return result,
                Err(()) => {
                    self.metrics.incr(RowexCounter::Restart);
                    backoff_spin(&mut backoff);
                }
            }
        }
    }

    fn try_remove(&self, key: &PaddedKey, guard: &epoch::Guard) -> Result<Option<u64>, ()> {
        // Analyze.
        let root = self.load_root();
        if root.is_null() {
            return Ok(None);
        }
        let mut path = Path::new();
        let cur = crate::node::descend(&self.store, root, key, &mut path);
        if cur.is_null() {
            return Err(());
        }
        let tid = cur.tid();
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let stored = self.store.source.load_key(tid, &mut scratch);
        if hot_bits::first_mismatch_bit(stored, key.bytes()).is_some() {
            return Ok(None);
        }
        if path.is_empty() {
            // Leaf root. Ordering: AcqRel/Acquire — matches the other root
            // CASes. No node memory is published here (leaf word → null),
            // but the Acquire side keeps a failed retry from re-analyzing
            // against a half-observed competing root.
            // pairs-with: root-publish
            return match self.root.compare_exchange(
                root.0,
                0,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // Ordering: Relaxed — statistics counter only.
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    Ok(Some(tid))
                }
                Err(_) => Err(()),
            };
        }

        // Affected: the deepest node and its parent (whose slot is written
        // on COW replacement or collapse).
        let level = path.len() - 1;
        let lowest = level.saturating_sub(1);
        self.lock_levels(&path, lowest, level, guard)?;
        let result = if self.validate_locked(&path, cur, lowest, level, guard) {
            let (node, idx) = path[level];
            let raw = node.as_raw();
            let replacement = if raw.count() == 2 {
                raw.value(1 - idx) // collapse: the survivor moves up
            } else {
                let mut builder = Builder::decode(raw);
                builder.remove_entry(idx);
                builder.encode(&self.store.mem)
            };
            self.publish(&path, level, replacement, guard);
            self.retire(node, guard);
            // Ordering: Relaxed — statistics counter only.
            self.len.fetch_sub(1, Ordering::Relaxed);
            Ok(Some(tid))
        } else {
            Err(())
        };
        unlock_levels(&path, lowest, level, guard);
        result
    }

    /// Index memory footprint. Counts retired nodes until their deferred
    /// free has run: exact after [`quiesce`] with no writer running.
    pub fn memory_stats(&self) -> MemoryStats {
        self.store.memory_stats(self.len())
    }

    /// Leaf-depth histogram. Call on a quiesced tree.
    // epoch-exempt: quiesced-only diagnostic — the caller guarantees no
    // concurrent writers, so nothing can be retired under the walk.
    pub fn depth_stats(&self) -> DepthStats {
        crate::invariants::depth_stats(&self.store, self.load_root())
    }

    /// Structural fingerprint (see
    /// [`HotTrie::structure_digest`](crate::HotTrie::structure_digest)).
    /// Call on a quiesced tree.
    pub fn structure_digest(&self) -> u64 {
        crate::invariants::structure_digest(&self.store, self.load_root())
    }

    /// Full structural validation. Call on a quiesced tree.
    pub fn validate(&self) {
        self.check_invariants();
    }

    /// Whole-trie structural invariant check (see [`crate::invariants`]):
    /// fanout bounds, per-node linearization well-formedness, SIMD-search
    /// self-consistency, strict height decrease, in-order key ordering,
    /// leaf count, all lock words clear, and full re-lookup of every stored
    /// key. Returns summary statistics or the first violation.
    ///
    /// The index must be quiesced: concurrent writers would trip the
    /// lock-word and leaf-count checks spuriously.
    pub fn try_check_invariants(&self) -> Result<crate::InvariantReport, String> {
        // Re-lookups go through the uninstrumented internal path so the
        // walk never inflates the `get` / epoch-pin counters.
        crate::invariants::check_tree(&self.store, self.load_root(), self.len(), |k| {
            self.get_padded(&PaddedKey::from_key(k))
        })
    }

    /// Panicking wrapper over [`Self::try_check_invariants`]. Test-support.
    pub fn check_invariants(&self) -> crate::InvariantReport {
        match self.try_check_invariants() {
            Ok(report) => report,
            Err(msg) => panic!("ConcurrentHot invariant violation: {msg}"),
        }
    }

    /// Point-in-time metrics snapshot (DESIGN.md §13): merged operation
    /// counters, latency histograms and ROWEX health counters (lock
    /// failures, restarts, obsolete-marker encounters, epoch pins,
    /// deferred-free queue depth), plus structural gauges sampled from a
    /// full invariant walk. The counters are captured *before* the walk,
    /// and the walk uses the uninstrumented lookup path, so sampling never
    /// perturbs the stats. The structural gauges require a quiesced index
    /// (like [`Self::try_check_invariants`]); when the walk fails — e.g.
    /// concurrent writers are active — `structure` is left `None` and the
    /// counter half is still exact. Only available with the `metrics`
    /// feature.
    #[cfg(feature = "metrics")]
    pub fn metrics_snapshot(&self) -> hot_metrics::MetricsSnapshot {
        let mut snap = self.metrics.0.ops_snapshot();
        if let Ok(report) = self.try_check_invariants() {
            snap.structure = Some(crate::metrics::structural_snapshot(&report));
        }
        snap
    }

    /// The counter/histogram half of [`Self::metrics_snapshot`] without
    /// the structural walk — safe and cheap to call while writers are
    /// active (`structure` is `None`). Only with the `metrics` feature.
    #[cfg(feature = "metrics")]
    pub fn metrics_ops_snapshot(&self) -> hot_metrics::MetricsSnapshot {
        self.metrics.0.ops_snapshot()
    }
}

/// Step (e): unlock `path[lowest..=level]` top-down.
fn unlock_levels(path: &Path, lowest: usize, level: usize, _guard: &epoch::Guard) {
    for &(node, _) in &path[lowest..=level] {
        unlock(node.as_raw());
    }
}

#[inline]
fn backoff_spin(backoff: &mut u32) {
    *backoff = (*backoff + 1).min(10);
    for _ in 0..(1u32 << *backoff) {
        crate::sync_shim::spin_hint();
    }
    if *backoff >= 8 {
        crate::sync_shim::yield_now();
    }
}

impl<S> Drop for ConcurrentHot<S> {
    // epoch-exempt: `&mut self` proves exclusive access — no concurrent
    // reader can hold these nodes, and nothing retires them under us.
    fn drop(&mut self) {
        // Ordering: Relaxed — `&mut self` proves exclusive access; the drop
        // glue itself already synchronized with all prior threads.
        let root = NodeRef(self.root.load(Ordering::Relaxed));
        // SAFETY: &mut self — no concurrent accessors remain.
        unsafe { self.store.free_tree(root) };
        // What `mem` still counts are retired nodes whose deferred frees
        // point at it (and at `metrics`): wait them out. Only a guard held
        // by this very thread can make that fail; then both stay allocated.
        if self.store.mem.nodes() != 0 && !quiesce() {
            std::mem::forget((Arc::clone(&self.store.mem), self.metrics.handle()));
        }
    }
}

/// Run every deferred reclamation queued (by any thread, on any index)
/// before this call, waiting for the epoch pins that predate it to end.
/// Afterwards [`ConcurrentHot::memory_stats`], the arena statistics of
/// [`ConcurrentCompact`] and the `deferred_queued`/`deferred_freed` metrics
/// are exact, provided no writer is running. Returns `false` only when
/// called under an epoch pin of the calling thread.
pub fn quiesce() -> bool {
    epoch::drain()
}

// SAFETY: all shared mutation is guarded by per-node locks, atomics and
// epoch-based reclamation; S must be Sync for shared key resolution.
unsafe impl<S: Sync> Sync for ConcurrentHot<S> {}
// SAFETY: nodes are plain heap allocations owned (transitively) by the
// index; moving the index to another thread moves exclusive ownership.
unsafe impl<S: Send> Send for ConcurrentHot<S> {}

// ---- concurrent facade over the compact arena layout ------------------------

use crate::arena::{ArenaFull, ArenaStats, ArenaStore, CRef, CompactRoot};
use crate::node::TreeRef;
use crate::trie::Writer;

/// Concurrent wrapper over the arena-backed compact layout
/// ([`CompactHot`](crate::CompactHot)): wait-free readers over 32-bit
/// offset words, a single serialized writer, and epoch-deferred node-block
/// reclamation — the same single-writer core as `CompactHot`, with the
/// root word an atomic and the retired blocks handed to the epoch.
///
/// The publish/retire protocol is simpler than full ROWEX because the
/// single-writer core already funnels every structural change through one
/// `Release` store (a child slot or the root word) and arena slabs are
/// never unmapped while the index lives:
///
/// * **readers** pin an epoch and traverse with acquire loads of the slab
///   table, child slots and root — no locks, no restarts; front-coded
///   leaf bytes are immutable once published, so reconstruction needs no
///   synchronization at all;
/// * **the writer** (one at a time, serialized by an internal mutex)
///   builds copy-on-write nodes in fresh arena blocks, publishes with one
///   `Release` store, and defers the replaced blocks' return to the
///   node-arena free list until all pinned epochs have moved on;
/// * **leaf records** are append-only and never reclaimed individually
///   (superseded records are dead-byte accounting only), so readers can
///   keep walking a front-coding chain across any number of concurrent
///   upserts.
pub struct ConcurrentCompact {
    store: Arc<ArenaStore>,
    root: CompactRoot,
    /// Serializes writers; also owns the reusable mutation scratch.
    writer: std::sync::Mutex<Writer>,
    /// Scheduler health counters of the batched reads (no-op unless the
    /// `metrics` feature is enabled).
    metrics: Metrics,
}

impl Default for ConcurrentCompact {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentCompact {
    /// An empty index with the default arena ceilings.
    pub fn new() -> Self {
        Self::with_capacity(crate::arena::DEFAULT_NODE_CAP, crate::arena::DEFAULT_LEAF_CAP)
    }

    /// An empty index with explicit node/leaf arena byte ceilings.
    pub fn with_capacity(node_cap_bytes: usize, leaf_cap_bytes: usize) -> Self {
        ConcurrentCompact {
            store: Arc::new(ArenaStore::new(node_cap_bytes, leaf_cap_bytes)),
            root: CompactRoot::new(),
            writer: std::sync::Mutex::new(Writer::new()),
            metrics: Metrics::new(),
        }
    }

    /// Number of stored keys. Exact only when quiesced.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key`; returns its TID if present. Wait-free.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.get_with(key, &mut PaddedKey::new())
    }

    /// Like [`get`](Self::get) with a caller-provided padded-key buffer.
    pub fn get_with(&self, key: &[u8], buf: &mut PaddedKey) -> Option<u64> {
        buf.set(key);
        let _guard = epoch::pin();
        crate::trie::lookup(&*self.store, self.root.load_root(), buf)
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Batched point lookups on the thread's parked scheduler (see
    /// [`ConcurrentHot::get_batch`]).
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn get_batch<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut [Option<u64>]) {
        crate::mlp::with_thread_scheduler(|sched| self.get_batch_with(keys, out, sched));
    }

    /// Batched point lookups through the caller's scheduler; one epoch pin
    /// covers the whole batch, the root is reloaded at every lane refill.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn get_batch_with<K: AsRef<[u8]>>(
        &self,
        keys: &[K],
        out: &mut [Option<u64>],
        sched: &mut crate::mlp::MlpScheduler,
    ) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let _guard = epoch::pin();
        sched.run_points(
            &*self.store,
            &crate::mlp::LookupStream(keys),
            out,
            |_| self.root.load_root(),
            true,
            &self.metrics,
        );
    }

    /// Collect up to `limit` TIDs with keys `>= key`, ascending.
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.scan_into(key, limit, &mut out);
        out
    }

    /// Like [`scan`](Self::scan) into a caller buffer (cleared first).
    pub fn scan_into(&self, key: &[u8], limit: usize, out: &mut Vec<u64>) {
        crate::scan::with_thread_cursor(|cursor| self.scan_with(key, limit, out, cursor));
    }

    /// Like [`scan`](Self::scan) with a caller-owned reusable cursor
    /// (`out` is cleared first); one epoch pin covers the whole scan.
    pub fn scan_with(
        &self,
        key: &[u8],
        limit: usize,
        out: &mut Vec<u64>,
        cursor: &mut crate::scan::ScanCursor,
    ) {
        out.clear();
        let _guard = epoch::pin();
        cursor.scan_root(&*self.store, self.root.load_root(), key, limit, out);
    }

    /// Insert `key -> tid`; returns the previous TID on upsert.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`], the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes, or an arena ceiling is
    /// hit (use [`try_insert`](Self::try_insert) to handle that case).
    pub fn insert(&self, key: &[u8], tid: u64) -> Option<u64> {
        self.try_insert(key, tid)
            .unwrap_or_else(|e| panic!("compact insert: {e}"))
    }

    /// Insert `key -> tid`, reporting arena exhaustion as a typed error.
    /// On [`ArenaFull`] the tree is unchanged.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`] or the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes.
    pub fn try_insert(&self, key: &[u8], tid: u64) -> Result<Option<u64>, ArenaFull> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        self.write(key, Some(tid))
    }

    /// Remove `key`; returns its TID if it was present.
    ///
    /// # Panics
    /// Panics if an arena ceiling is hit while re-encoding a merged node
    /// (use [`try_remove`](Self::try_remove) to handle that case).
    pub fn remove(&self, key: &[u8]) -> Option<u64> {
        self.try_remove(key)
            .unwrap_or_else(|e| panic!("compact remove: {e}"))
    }

    /// Remove `key`, reporting arena exhaustion as a typed error. On
    /// [`ArenaFull`] the tree is unchanged.
    pub fn try_remove(&self, key: &[u8]) -> Result<Option<u64>, ArenaFull> {
        self.write(key, None)
    }

    /// One operation of the shared single-writer core — insert `key → tid`,
    /// or remove `key` for no `tid` — under the writer mutex and an epoch
    /// pin: the core works on a copy of the root word, a changed root is
    /// published with one Release store, and the blocks the operation
    /// unlinked are handed to the epoch.
    fn write(&self, key: &[u8], tid: Option<u64>) -> Result<Option<u64>, ArenaFull> {
        let guard = epoch::pin();
        let mut w = self.writer.lock().expect("compact writer mutex poisoned");
        let key_buf = w.take_key(key);
        let before = self.root.load_root();
        let mut root = before;
        let result = match tid {
            Some(tid) => crate::trie::insert(&*self.store, &mut w, &mut root, &key_buf, tid),
            None => crate::trie::remove(&*self.store, &mut w, &mut root, &key_buf),
        };
        w.put_key(key_buf);
        let answer = result?;
        if root != before {
            self.root.publish_root(root);
        }
        self.retire(&mut w, &guard);
        let len = self.root.len();
        match (tid, answer) {
            (Some(_), None) => self.root.set_len(len + 1),
            (None, Some(_)) => self.root.set_len(len - 1),
            _ => {}
        }
        Ok(answer)
    }

    /// Defer every replaced node block's return to the free list until all
    /// pinned epochs have moved on. (A failed mutation never gets here:
    /// the store rolled back only never-published blocks, which no reader
    /// can hold.)
    fn retire(&self, w: &mut Writer, guard: &epoch::Guard) {
        let store = Arc::as_ptr(&self.store);
        for word in w.retired() {
            let r = CRef::from_word(word);
            // SAFETY: `r` was unlinked by this mutation's single Release
            // publish; the epoch guarantees no pinned reader still holds
            // it when the deferred function runs, and `Drop` waits every
            // deferred function out before the slabs are unmapped.
            unsafe {
                guard.defer_unchecked(move || (*store).free_node(r));
            }
        }
    }

    /// Bulk-load sorted `(key, tid)` pairs into an empty index (one
    /// publish at the end; concurrent readers see the whole tree or
    /// nothing). An arena ceiling hit mid-build returns
    /// [`BulkLoadError::ArenaFull`] with the index still empty and usable.
    pub fn bulk_load<K: AsRef<[u8]>>(
        &self,
        entries: &[(K, u64)],
    ) -> Result<usize, BulkLoadError> {
        let _w = self.writer.lock().expect("compact writer mutex poisoned");
        if !self.root.load_root().is_null() {
            return Err(BulkLoadError::NotEmpty);
        }
        let (root, n) = crate::bulk::load(&*self.store, entries, 1)?;
        self.root.publish_root(root);
        self.root.set_len(n);
        Ok(n)
    }

    /// Index memory footprint (live bytes plus reserved arena capacity).
    pub fn memory_stats(&self) -> MemoryStats {
        self.store.memory_stats(self.len())
    }

    /// Allocator-level accounting for both arenas. Deferred frees may lag
    /// behind; exact after [`quiesce`] with no writer running.
    pub fn arena_stats(&self) -> ArenaStats {
        self.store.arena_stats()
    }

    /// Leaf-depth histogram. Call on a quiesced index.
    pub fn depth_stats(&self) -> DepthStats {
        crate::invariants::depth_stats(&*self.store, self.root.load_root())
    }

    /// Structural fingerprint (see
    /// [`HotTrie::structure_digest`](crate::HotTrie::structure_digest)).
    /// Call on a quiesced index.
    pub fn structure_digest(&self) -> u64 {
        crate::invariants::structure_digest(&*self.store, self.root.load_root())
    }

    /// Whole-trie invariant walk. Call on a quiesced index.
    pub fn try_check_invariants(&self) -> Result<crate::InvariantReport, String> {
        crate::invariants::check_tree(&*self.store, self.root.load_root(), self.len(), |k| self.get(k))
    }

    /// Like [`try_check_invariants`](Self::try_check_invariants) but
    /// panics on violation.
    pub fn check_invariants(&self) -> crate::InvariantReport {
        match self.try_check_invariants() {
            Ok(report) => report,
            Err(e) => panic!("compact invariant violation: {e}"),
        }
    }
}

impl Drop for ConcurrentCompact {
    fn drop(&mut self) {
        // Deferred block frees point into the store: wait them out. Only a
        // guard held by this very thread can make that fail; then the
        // arena stays mapped.
        if !quiesce() {
            std::mem::forget(Arc::clone(&self.store));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_keys::{encode_u64, EmbeddedKeySource};
    use std::sync::Arc;

    /// Miri interprets every access (~3-4 orders of magnitude slower): the
    /// CI Miri lane runs these tests at a fiftieth of their native size.
    const fn sized(n: u64) -> u64 {
        if cfg!(miri) { n / 50 } else { n }
    }

    #[test]
    fn single_threaded_semantics() {
        let trie = ConcurrentHot::new(EmbeddedKeySource);
        assert_eq!(trie.get(&encode_u64(1)), None);
        let n = sized(5_000);
        for k in 0..n {
            assert_eq!(trie.insert(&encode_u64(k), k), None);
        }
        for k in 0..n {
            assert_eq!(trie.get(&encode_u64(k)), Some(k));
        }
        assert_eq!(trie.len() as u64, n);
        trie.validate();
        // Scans.
        assert_eq!(trie.scan(&encode_u64(100), 5), vec![100, 101, 102, 103, 104]);
        // Upsert through the concurrent path.
        assert_eq!(trie.insert(&encode_u64(7), 7), Some(7));
        // Removal.
        for k in (0..n).step_by(2) {
            assert_eq!(trie.remove(&encode_u64(k)), Some(k));
        }
        assert_eq!(trie.len() as u64, n / 2);
        trie.validate();
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
        let threads = 8;
        let per = sized(4_000);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let trie = Arc::clone(&trie);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let k = i * threads as u64 + t as u64;
                        assert_eq!(trie.insert(&encode_u64(k), k), None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(trie.len(), per as usize * threads);
        trie.validate();
        for k in 0..per * threads as u64 {
            assert_eq!(trie.get(&encode_u64(k)), Some(k));
        }
    }

    #[test]
    fn concurrent_overlapping_inserts() {
        // All threads hammer the same small key space: maximal lock overlap.
        let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let trie = Arc::clone(&trie);
                std::thread::spawn(move || {
                    let mut x = 0x1234_5678u64 ^ (t as u64) << 32;
                    for _ in 0..sized(3_000) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 1_000;
                        trie.insert(&encode_u64(k), k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Natively every one of the 1000 keys is drawn (24 draws per key).
        assert!(trie.len() == 1_000 || cfg!(miri));
        trie.validate();
    }

    #[test]
    fn readers_during_writes() {
        let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
        for k in 0..2_000u64 {
            trie.insert(&encode_u64(k * 2), k * 2);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        // Readers: every even key must stay visible throughout.
        for _ in 0..3 {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut x = 99u64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = (x % 2_000) * 2;
                    assert_eq!(trie.get(&encode_u64(k)), Some(k), "reader lost key {k}");
                }
            }));
        }
        // Writers: insert odd keys.
        for t in 0..3u64 {
            let trie = Arc::clone(&trie);
            handles.push(std::thread::spawn(move || {
                for i in 0..sized(2_000) {
                    let k = (i * 3 + t) * 2 + 1;
                    trie.insert(&encode_u64(k), k);
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        trie.validate();
    }

    #[test]
    fn concurrent_inserts_and_removes() {
        let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
        // Stable backbone that must never disappear.
        for k in 0..500u64 {
            trie.insert(&encode_u64(k * 1_000_000), k * 1_000_000);
        }
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let trie = Arc::clone(&trie);
                std::thread::spawn(move || {
                    let mut x = 7u64 + t as u64;
                    for _ in 0..sized(4_000) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 10_000 + 1; // offset: never a backbone key
                        if x.is_multiple_of(3) {
                            trie.remove(&encode_u64(k));
                        } else {
                            trie.insert(&encode_u64(k), k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..500u64 {
            assert_eq!(
                trie.get(&encode_u64(k * 1_000_000)),
                Some(k * 1_000_000),
                "backbone key lost"
            );
        }
        // Quiesced ⇒ exact: what the counter holds is what is reachable.
        assert!(quiesce());
        assert_eq!(trie.memory_stats().node_count, trie.check_invariants().nodes);
    }

    #[test]
    fn matches_single_threaded_structure_when_quiesced() {
        // After all concurrent inserts land, the structure must be exactly
        // the deterministic HOT for that key set (determinism conjecture).
        let keys: Vec<u64> = (0..sized(3_000)).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1).collect();
        let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let trie = Arc::clone(&trie);
                let keys = keys.clone();
                std::thread::spawn(move || {
                    for k in keys.iter().skip(t).step_by(4) {
                        trie.insert(&encode_u64(*k), *k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut st = crate::HotTrie::new(EmbeddedKeySource);
        for &k in &keys {
            st.insert(&encode_u64(k), k);
        }
        let concurrent_leaves: Vec<u64> = {
            // Collect leaves in order via scans.
            trie.scan(&[], 10_000)
        };
        assert_eq!(concurrent_leaves, st.iter().collect::<Vec<_>>());
        assert_eq!(trie.depth_stats(), st.depth_stats());
    }
}
