//! ROWEX synchronization protocol (Section 5 of the paper), and the two
//! access modes of the one trie struct [`Hot`].
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
//!   restart otherwise, (d) apply the copy-on-write modification, (e)
//!   unlock top-down, replaced nodes to obsolete;
//! * **reclamation** is epoch-based (`crossbeam-epoch`): obsolete nodes are
//!   deferred until all pinned epochs have moved on.
//!
//! ROWEX is not a second algorithm, and [`Concurrent`] is not a second
//! index: it is [`Hot`] in the ROWEX access mode, with the read face
//! `trie.rs` writes once for both modes. Steps (a) and (d) are the
//! single-threaded modification — `plan` and `apply` in `trie.rs`, the
//! same two functions the exclusive mode ([`Trie`](crate::Trie)) runs back
//! to back — and this module is what
//! the paper adds around them: lock, validate, unlock, and retire through
//! the epoch instead of at once. The mode decides what a read holds
//! (`Access::Pin`: nothing, or an epoch guard, taken and counted in one
//! place, `Access::pin`) and whether a batched read reloads the root; the
//! root word and the key count are read and written here, for both modes.
//! [`Concurrent`] is written over the storage seam, so it serves heap nodes
//! ([`ConcurrentHot`]) and arena blocks ([`ConcurrentCompact`]) alike; the
//! lock word sits in the node header of either layout.
//!
//! A single compare-and-swap would not suffice (two concurrent inserts could
//! strand one writer's copy, as Section 5 explains); the per-node locks make
//! the affected set mutually exclusive while leaving the rest of the tree
//! writable.
//!
//! The affected sets per operation case follow the paper exactly
//! (`Plan::levels`): a normal insert locks the mismatching node and its
//! parent; leaf-node pushdown only the node itself; parent pull-up walks
//! ancestors until a non-full node (or the root); intermediate node creation
//! stops at the first node with room below its parent; and "finally, the
//! direct parent of the last accessed node is added". A remove locks the
//! leaf's node and its parent, and one level more — the slot holding the
//! parent — exactly when the shrunk node merges into that parent. After
//! acquiring the locks the writer does **not** descend again: step (c) is
//! the obsolete check plus a re-read of the one slot per locked level that
//! the descent followed (`validate_locked`). That is enough
//! because a locked, non-obsolete node cannot change under the writer — its
//! content is immutable (copy-on-write) and its value slots are only stored
//! under its own lock — and because the plan depends on nothing else: the
//! mismatch position is the same against every key below the affected
//! range, whatever other writers did further down.

// The storage seam is crate-internal: `Concurrent` is public only so that
// its two instantiations can be named, and those are the public API.
#![allow(private_bounds)]

// All protocol-carrying atomics (root word, len, lock words via `node`)
// come from the shim so loom models can explore their interleavings; see
// `crate::sync_shim` for the normal-build/model-build switch.
use crate::sync_shim::Ordering;
use std::cell::Cell;
use std::sync::Arc;

use crossbeam_epoch as epoch;

use crate::arena::{ArenaFull, ArenaStore};
use crate::bulk::BulkLoadError;
use crate::metrics::{OpKind, RowexCounter};
use crate::node::{RawNode, Slot, TreeRef};
use crate::store::{HeapStore, NodeStore};
use crate::trie::{apply, plan, Hot, Op, Writer};
use hot_keys::MAX_TID;

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
/// wrote to the node happens-before this writer's validation. Failure
/// ordering is Relaxed — a failed attempt reads no protected data, the
/// caller just backs off and relocks from scratch.
#[inline]
fn try_lock(node: RawNode) -> bool {
    let word = node.lock_word();
    let current = word.load(Ordering::Relaxed);
    current & LOCKED == 0
        && word
            // pairs-with: node-lock
            .compare_exchange(
                current,
                current | LOCKED,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
}

/// Release a lock this writer holds: a plain store, not an RMW. While a
/// node is locked only its holder writes the lock word — every
/// [`try_lock`] CAS expects the word unlocked, so it fails on a held one
/// without writing — so the holder's Relaxed load reads back its own CAS,
/// and storing that word without `LOCKED` is the unlock.
///
/// Ordering: **Release** — pairs with the Acquire CAS in [`try_lock`];
/// all node/slot writes made under the lock happen-before the next
/// writer's acquisition. (Readers never take locks; they synchronize
/// through the Release slot/root stores instead.)
#[inline]
fn unlock(node: RawNode) {
    let word = node.lock_word();
    word.store(word.load(Ordering::Relaxed) & !LOCKED, Ordering::Release); // pairs-with: node-lock
}

/// Unlock a node this writer's publish retired, marking it obsolete in the
/// same store: the holder validated the node live under its lock, so the
/// word it holds is exactly `LOCKED`, and `OBSOLETE` is both the mark and
/// the unlocked word.
///
/// Ordering: **Release** — pairs with the Acquire CAS in [`try_lock`], as
/// [`unlock`] does, and with the Acquire in [`is_obsolete`]. It runs
/// *after* the replacement is Release-published (by [`apply`], or by the
/// root store that follows it), so `OBSOLETE` visible ⇒ replacement
/// visible.
#[inline]
fn unlock_obsolete(node: RawNode) {
    debug_assert_eq!(
        node.lock_word().load(Ordering::Relaxed),
        LOCKED,
        "a retired node is held and live"
    );
    node.lock_word().store(OBSOLETE, Ordering::Release); // pairs-with: node-lock, obsolete-flag
}

/// Ordering: **Acquire** — pairs with the Release in [`unlock_obsolete`].
/// A writer that observes OBSOLETE restarts its descent; the pairing
/// guarantees it then also observes the Release-published replacement
/// node (no livelock on a stale root/slot).
#[inline]
fn is_obsolete(node: RawNode) -> bool {
    node.lock_word().load(Ordering::Acquire) & OBSOLETE != 0 // pairs-with: obsolete-flag
}

pub(crate) use access::{Access, Exclusive, Rowex};

/// The access modes. Public items of a private module: nameable inside the
/// crate only, so nothing outside can implement [`Access`] or spell a mode
/// but through the four aliases (which is also why the crate-internal
/// `Metrics` may appear in `Access::pin`).
#[allow(private_interfaces)]
mod access {
    use crate::metrics::{Metrics, RowexCounter};
    use crossbeam_epoch as epoch;

    /// How a [`Hot`](crate::trie::Hot) is accessed: the sealed second
    /// parameter that makes one struct two front-ends.
    pub trait Access {
        /// What a read holds while it touches nodes.
        type Pin;
        /// Whether writers run beside readers: a batched read then reloads
        /// the root at every lane refill and re-descends from a torn slot,
        /// and the blocks a write unlinks wait out the epoch, which `Drop`
        /// must too.
        const SHARED: bool;
        /// Take a read's pin — the one place an epoch pin is taken and
        /// counted.
        fn pin(metrics: &Metrics) -> Self::Pin;
    }

    /// The exclusive mode: a write takes `&mut self`, so no reader runs
    /// beside it, and what it unlinks is freed at once.
    pub enum Exclusive {}

    impl Access for Exclusive {
        type Pin = ();
        const SHARED: bool = false;

        #[inline]
        fn pin(_: &Metrics) {}
    }

    /// The ROWEX mode (Section 5): a write takes `&self` and runs beside
    /// wait-free readers, which pin the epoch.
    pub enum Rowex {}

    impl Access for Rowex {
        type Pin = epoch::Guard;
        const SHARED: bool = true;

        #[inline]
        fn pin(metrics: &Metrics) -> epoch::Guard {
            metrics.incr(RowexCounter::EpochPin);
            epoch::pin()
        }
    }
}

/// A concurrently accessible Height Optimized Trie over the store `St`:
/// [`Hot`] in the ROWEX mode. All mutating operations take `&self` and may
/// run from any number of threads; lookups and scans are wait-free.
///
/// Use it through its two instantiations, [`ConcurrentHot`] (heap nodes,
/// keys resolved through a [`KeySource`](hot_keys::KeySource)) and
/// [`ConcurrentCompact`] (slab arenas, inline key records). Both run the
/// write path of [`Trie`](crate::Trie) — equal
/// [`structure_digest`](Hot::structure_digest) for equal histories — and
/// differ from it in what surrounds a write:
///
/// * a write pins an epoch *inside* its retry loop: a failed attempt — a
///   contended lock word, a failed validation, a lost root CAS — drops its
///   pin before it backs off, so a writer that waits never holds up
///   reclamation, and no writer ever blocks on another (there is no writer
///   mutex to queue on, only per-node try-locks);
/// * the blocks a write unlinks are marked obsolete and handed to the
///   epoch; [`quiesce`] runs what is pending.
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
pub type Concurrent<St> = Hot<St, Rowex>;

/// The heap-backed concurrent trie: shares the node representation with
/// [`HotTrie`](crate::HotTrie); allocation cannot fail, so
/// [`insert`](Concurrent::insert) and [`remove`](Concurrent::remove) never
/// panic on a full store.
pub type ConcurrentHot<S> = Concurrent<HeapStore<S>>;

/// The arena-backed concurrent trie ([`CompactHot`](crate::CompactHot)'s
/// layout): 32-bit offset words, inline front-coded leaf records — immutable
/// once published, so a reader reconstructs a key without synchronization,
/// across any number of concurrent upserts — and node blocks that return to
/// the arena's free list through the epoch. Arena exhaustion is a typed
/// error through [`try_insert`](Concurrent::try_insert) /
/// [`try_remove`](Concurrent::try_remove), whichever writer meets it.
pub type ConcurrentCompact = Concurrent<ArenaStore>;

thread_local! {
    /// The writer scratch behind `insert` / `remove` of either mode, parked
    /// here between calls (boxed: taking it out and putting it back moves a
    /// pointer).
    static THREAD_WRITER: Cell<Option<Box<Writer>>> = const { Cell::new(None) };
}

/// Run `f` with this thread's parked writer scratch (created on first use,
/// or when a write nests inside another one's key source on the same
/// thread, or runs during thread teardown).
pub(crate) fn with_thread_writer<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
    let mut writer = THREAD_WRITER
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_else(|| Box::new(Writer::new()));
    let result = f(&mut writer);
    let _ = THREAD_WRITER.try_with(|slot| slot.set(Some(writer)));
    result
}

/// The root word and the key count, for both modes: every access to them
/// is here.
impl<St: NodeStore, A: Access> Hot<St, A> {
    /// Number of keys stored.
    ///
    /// Ordering: Relaxed — `len` is a statistics counter, not a
    /// synchronization point; no reader derives pointer validity from it.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Ordering: **Acquire** — pairs with every **Release** store/CAS of
    /// the root word (`attempt`, `bulk_load_on`). A descent that
    /// observes a new root word therefore observes the fully built node
    /// behind it. A live read holds the mode's pin first (`pinned_root`);
    /// a diagnostic reads a quiesced tree.
    #[inline]
    pub(crate) fn load_root(&self) -> St::Ref {
        St::Ref::from_word(self.root.load(Ordering::Acquire)) // pairs-with: root-publish
    }

    /// This mode's read pin (`Access::pin`), for a read that loads the
    /// roots itself — the sharded router's drains.
    #[inline]
    pub(crate) fn pin(&self) -> A::Pin {
        A::pin(&self.metrics)
    }

    /// A live read's root, returned together with the pin that keeps the
    /// nodes under it alive for as long as the caller holds it: taken
    /// before the root is loaded.
    #[inline]
    pub(crate) fn pinned_root(&self) -> (St::Ref, A::Pin) {
        let pin = self.pin();
        (self.load_root(), pin)
    }

    /// The body behind both modes' `bulk_load`: build the whole trie
    /// bottom-up from sorted `(key, tid)` entries on at most `threads`
    /// threads (DESIGN.md §11.4) and publish it with a **single** root
    /// store.
    ///
    /// The trie must be empty: the finished root is installed with one CAS
    /// of the null root word, so concurrent readers observe either the
    /// empty trie or the complete bulk-loaded one, never an intermediate
    /// state. If any entry (or a racing writer) got there first the build
    /// is discarded and [`BulkLoadError::NotEmpty`] is returned.
    pub(crate) fn bulk_load_on<K: AsRef<[u8]> + Sync>(
        &self,
        entries: &[(K, u64)],
        threads: usize,
    ) -> Result<usize, BulkLoadError> {
        if !self.load_root().is_null() {
            return Err(BulkLoadError::NotEmpty);
        }
        let _t = self.metrics.timer(OpKind::BulkLoad);
        // Single-publish. Ordering: **Release** on success — pairs with the
        // Acquire `load_root`, so a reader that observes the new root
        // observes every node body built for it (including the worker
        // threads' stores, which happened-before their join).
        let n = crate::bulk::load(self.store(), entries, threads, |root| {
            self.root
                // pairs-with: root-publish
                .compare_exchange(
                    St::Ref::NULL.word(),
                    root.word(),
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
        })?;
        // Ordering: Relaxed — statistics counter only (see `len`).
        self.len.fetch_add(n, Ordering::Relaxed);
        self.metrics.items(OpKind::BulkLoad, n as u64);
        Ok(n)
    }
}

impl<St: NodeStore> Hot<St, Exclusive> {
    /// The root word of a tree this thread writes exclusively. Ordering:
    /// Relaxed — `&mut self` (or, for the iterators, a shared borrow that
    /// excludes every writer) orders it against every other access.
    #[inline]
    pub(crate) fn exclusive_root(&self) -> St::Ref {
        St::Ref::from_word(self.root.load(Ordering::Relaxed))
    }

    /// An exclusive write's publish of the root word and the key count.
    /// Ordering: Relaxed stores, never an RMW — `&mut self` rules out every
    /// reader, and whatever hands the trie to another thread afterwards
    /// orders these stores before that thread's loads.
    #[inline]
    pub(crate) fn publish_exclusive(&mut self, root: St::Ref, len: usize) {
        self.root.store(root.word(), Ordering::Relaxed);
        self.len.store(len, Ordering::Relaxed);
    }
}

impl Concurrent<ArenaStore> {
    /// [`insert`](Self::insert), reporting arena exhaustion as a typed
    /// error. On [`ArenaFull`] the tree is unchanged and the blocks this
    /// operation took are back in the arena; other writers are unaffected.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`] or the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes.
    pub fn try_insert(&self, key: &[u8], tid: u64) -> Result<Option<u64>, ArenaFull> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        self.write(key, Op::Insert(tid))
    }

    /// [`remove`](Self::remove), reporting arena exhaustion (re-encoding
    /// the shrunk node) as a typed error. On [`ArenaFull`] the tree is
    /// unchanged.
    pub fn try_remove(&self, key: &[u8]) -> Result<Option<u64>, ArenaFull> {
        self.write(key, Op::Remove)
    }
}

/// The ROWEX mode's own face: `&self` writes and the protocol around them.
impl<St: NodeStore> Concurrent<St> {
    /// Build the whole trie bottom-up from sorted `(key, tid)` entries and
    /// publish it with a **single** root store — the concurrent counterpart
    /// of [`Trie::bulk_load`](crate::Trie::bulk_load), with the same
    /// contract (DESIGN.md §11).
    ///
    /// The trie must be empty: concurrent readers observe either the empty
    /// trie or the complete bulk-loaded one, never an intermediate state.
    /// If any entry (or a racing writer) got there first the build is
    /// discarded and [`BulkLoadError::NotEmpty`] is returned; an arena
    /// ceiling hit mid-build returns [`BulkLoadError::ArenaFull`] with the
    /// index still empty and usable. Returns the number of distinct keys.
    pub fn bulk_load<K: AsRef<[u8]> + Sync>(
        &self,
        entries: &[(K, u64)],
    ) -> Result<usize, BulkLoadError> {
        self.bulk_load_on(entries, crate::bulk::available_threads())
    }

    /// Insert `key → tid` (upsert); returns the previous TID if present.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`], the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes, or —
    /// [`ConcurrentCompact`] only — an arena ceiling is hit (its
    /// `try_insert` reports that case as a typed error instead).
    pub fn insert(&self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        self.write(key, Op::Insert(tid))
            .unwrap_or_else(|e| panic!("insert: {e}"))
    }

    /// Remove `key`; returns its TID if present.
    ///
    /// # Panics
    /// [`ConcurrentCompact`] only: panics if an arena ceiling is hit while
    /// re-encoding the shrunk node (its `try_remove` reports that case as a
    /// typed error instead).
    pub fn remove(&self, key: &[u8]) -> Option<u64> {
        self.write(key, Op::Remove)
            .unwrap_or_else(|e| panic!("remove: {e}"))
    }

    /// One write: optimistic attempts until one goes through (or the store
    /// is full). The epoch pin is taken per attempt and dropped before the
    /// back-off, so a writer that waits holds no pin.
    fn write(&self, key: &[u8], op: Op) -> Result<Option<u64>, St::Full> {
        let _t = self.metrics.timer(op.kind());
        with_thread_writer(|w| {
            w.set_key(key);
            let mut backoff = 0u32;
            loop {
                let guard = self.pin();
                if let Some(result) = self.attempt(w, op, &guard) {
                    return result;
                }
                drop(guard);
                self.metrics.incr(RowexCounter::Restart);
                backoff_spin(&mut backoff);
            }
        })
    }

    /// One optimistic attempt — steps (a) to (e): descend and plan, lock the
    /// plan's levels, validate under the locks, apply, retire, unlock. A
    /// tree without nodes has nothing to lock: there the root word is the
    /// one slot, and the publish is a CAS on it. `None` requests a restart.
    fn attempt(
        &self,
        w: &mut Writer,
        op: Op,
        guard: &epoch::Guard,
    ) -> Option<Result<Option<u64>, St::Full>> {
        let store = &*self.store;
        let before = self.load_root();
        let cur = w.seek(store, before);
        if cur.is_null() && !before.is_null() {
            return None; // torn read of a slot mid-publication
        }
        let Some(plan) = plan(store, w, cur, op) else {
            return Some(Ok(None));
        };
        let locked = (!w.path().is_empty()).then(|| plan.levels(w.path().len()));
        if let Some((lowest, level)) = locked {
            self.lock_levels(w.path(), lowest, level, guard)?;
            if !self.validate_locked(w.path(), cur, lowest, level, guard) {
                self.unlock_levels(w.path(), lowest, level, &[], guard);
                return None;
            }
        }

        let mut root = before;
        let answer = apply(store, w, &mut root, plan, cur);
        let published = answer.is_ok()
            && match locked {
                // The root node is locked and live when `apply` replaced
                // it, so the root word still names it and no other writer
                // can store to it. Ordering: **Release** — pairs with
                // `load_root`'s Acquire, as `Slot::set` does with the slot
                // loads; either way a descent that observes the new word
                // observes the fully built node behind it.
                Some(_) => {
                    if root != before {
                        self.root.store(root.word(), Ordering::Release); // pairs-with: root-publish
                    }
                    true
                }
                // Ordering: **AcqRel** on success — the Release half
                // publishes what `apply` built (a leaf record, the first
                // two-entry node), the Acquire half orders this thread
                // against whichever CAS installed `before`. **Acquire** on
                // failure so the retry plans against a fully published
                // competing root.
                None => self
                    .root
                    // pairs-with: root-publish
                    .compare_exchange(
                        before.word(),
                        root.word(),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok(),
            };
        if published {
            self.retire(w, guard);
        } else {
            // SAFETY: never published — the failed `apply`, or the lost
            // CAS, leaves this attempt the blocks' sole owner.
            unsafe { store.release(w.fresh()) };
        }
        if let Some((lowest, level)) = locked {
            let unlinked = if published { w.unlinked() } else { &[] };
            self.unlock_levels(w.path(), lowest, level, unlinked, guard);
        }

        let answer = match answer {
            Ok(answer) if published => answer,
            Ok(_) => return None,
            Err(full) => return Some(Err(full)),
        };
        // Ordering: Relaxed — `len` is a statistics counter, never used to
        // synchronize access to trie memory.
        match (op, answer) {
            (Op::Insert(_), None) => self.len.fetch_add(1, Ordering::Relaxed),
            (Op::Remove, Some(_)) => self.len.fetch_sub(1, Ordering::Relaxed),
            _ => 0,
        };
        Some(Ok(answer))
    }

    /// Step (b): try-lock `path[lowest..=level]` bottom-up. On contention
    /// everything acquired is released again and the attempt fails. `guard`
    /// is the caller's proof of an active epoch pin — the lock words live
    /// in nodes that may otherwise be reclaimed.
    fn lock_levels(
        &self,
        path: &[(u64, usize)],
        lowest: usize,
        level: usize,
        guard: &epoch::Guard,
    ) -> Option<()> {
        for l in (lowest..=level).rev() {
            if !try_lock(self.raw(path[l].0)) {
                self.metrics.incr(RowexCounter::LockFail);
                self.unlock_levels(path, l + 1, level, &[], guard);
                return None;
            }
        }
        Some(())
    }

    /// Step (c), under the locks: every level of `path[lowest..=level]` is
    /// still part of the trie (not obsolete) and its taken slot still leads
    /// where the descent went — to the next recorded node, or to `leaf`
    /// (the word the descent ended on) below the last one. A locked,
    /// non-obsolete node's content is immutable and its slots are only
    /// stored under the lock this writer holds, so what was read here stays
    /// true until the unlock; the plan needs no second descent (module docs).
    fn validate_locked(
        &self,
        path: &[(u64, usize)],
        leaf: St::Ref,
        lowest: usize,
        level: usize,
        _guard: &epoch::Guard,
    ) -> bool {
        (lowest..=level).all(|l| {
            let (node, idx) = path[l];
            let raw = self.raw(node);
            if is_obsolete(raw) {
                self.metrics.incr(RowexCounter::ObsoleteSeen);
                return false;
            }
            St::Slot::get(raw, idx).word() == path.get(l + 1).map_or(leaf.word(), |hop| hop.0)
        })
    }

    /// Step (e): unlock `path[lowest..=level]` top-down; the nodes in
    /// `retired` — every node the publish unlinked is a locked level — are
    /// unlocked to obsolete.
    fn unlock_levels(
        &self,
        path: &[(u64, usize)],
        lowest: usize,
        level: usize,
        retired: &[u64],
        _guard: &epoch::Guard,
    ) {
        debug_assert!(
            retired.iter().all(|&r| !St::Ref::from_word(r).is_node()
                || path[lowest..=level].iter().any(|hop| hop.0 == r)),
            "every retired node is locked"
        );
        for &(node, _) in &path[lowest..=level] {
            if retired.contains(&node) {
                unlock_obsolete(self.raw(node));
            } else {
                unlock(self.raw(node));
            }
        }
    }

    #[inline]
    fn raw(&self, node: u64) -> RawNode {
        self.store.raw(St::Ref::from_word(node))
    }

    /// What the publish unlinked: defer each replaced node's reclamation
    /// to the epoch (its unlock marks it obsolete); a superseded leaf only
    /// leaves the store's accounting.
    fn retire(&self, w: &mut Writer, guard: &epoch::Guard) {
        let store = Arc::as_ptr(&self.store);
        for &word in w.retired().iter() {
            let r = St::Ref::from_word(word);
            if r.is_leaf() {
                self.store.drop_leaf(r);
                continue;
            }
            self.metrics.incr(RowexCounter::DeferredQueued);
            let metrics = self.metrics.handle();
            // SAFETY: the node is obsolete and unreachable from the (new)
            // structure; the epoch guarantees no pinned reader still holds it
            // when the deferred function runs. The store is still alive
            // then: `Drop` waits out every retired node, or leaks the store.
            unsafe {
                guard.defer_unchecked(move || {
                    crate::node::free(&*store, r);
                    metrics.incr(RowexCounter::DeferredFreed);
                });
            }
        }
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

impl<St: NodeStore, A: Access> Drop for Hot<St, A> {
    // epoch-exempt: `&mut self` proves exclusive access — no concurrent
    // reader can hold these nodes, and nothing retires them under us.
    fn drop(&mut self) {
        // Ordering: Relaxed — `&mut self` proves exclusive access; the drop
        // glue itself already synchronized with all prior threads.
        let root = St::Ref::from_word(self.root.load(Ordering::Relaxed));
        // SAFETY: &mut self — no concurrent accessors remain.
        unsafe { self.store.drop_tree(root) };
        if !A::SHARED {
            // The exclusive mode freed every retired block at once: the
            // store goes with the `Arc`, whatever pins this thread holds.
            return;
        }
        // The nodes still counted are retired ones (and, in a store whose
        // blocks go with it, the tree): their deferred frees point into the
        // store, so wait them out. A store that reserves memory of its own
        // (heap chunks, arena slabs) always waits: there every deferred free
        // takes the store's lock, and only the collector's lock, not the
        // Relaxed node count, orders the last of them before the memory
        // goes. Only a guard held by this very thread can make that fail;
        // then the store stays allocated.
        let held = self.store.memory_stats(0);
        if (held.node_count != 0 || held.capacity_bytes != 0) && !quiesce() {
            std::mem::forget(Arc::clone(&self.store));
        }
    }
}

/// Run every deferred reclamation queued (by any thread, on any index)
/// before this call, waiting for the epoch pins that predate it to end.
/// Afterwards [`Concurrent::memory_stats`](Hot::memory_stats), the arena
/// statistics of [`ConcurrentCompact`] and the
/// `deferred_queued`/`deferred_freed` metrics are exact, provided no writer
/// is running. Returns `false` only when called under an epoch pin of the
/// calling thread.
pub fn quiesce() -> bool {
    epoch::drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_shim::AtomicUsize;
    use hot_keys::{encode_u64, EmbeddedKeySource, KeySource};
    use std::sync::Arc;

    /// Miri interprets every access (~3-4 orders of magnitude slower): the
    /// CI Miri lane runs these tests at a fiftieth of their native size.
    const fn sized(n: u64) -> u64 {
        if cfg!(miri) {
            n / 50
        } else {
            n
        }
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
        trie.check_invariants();
        // Scans.
        assert_eq!(
            trie.scan(&encode_u64(100), 5),
            vec![100, 101, 102, 103, 104]
        );
        // Upsert through the concurrent path.
        assert_eq!(trie.insert(&encode_u64(7), 7), Some(7));
        // Removal.
        for k in (0..n).step_by(2) {
            assert_eq!(trie.remove(&encode_u64(k)), Some(k));
        }
        assert_eq!(trie.len() as u64, n / 2);
        trie.check_invariants();
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
        trie.check_invariants();
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
        trie.check_invariants();
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
        trie.check_invariants();
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
        assert_eq!(
            trie.memory_stats().node_count,
            trie.check_invariants().nodes
        );
    }

    #[test]
    fn matches_single_threaded_structure_when_quiesced() {
        // After all concurrent inserts land, the structure must be exactly
        // the deterministic HOT for that key set (determinism conjecture).
        let keys: Vec<u64> = (0..sized(3_000))
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1)
            .collect();
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
        assert_eq!(trie.scan(&[], 10_000), st.iter().collect::<Vec<_>>());
        assert_eq!(trie.structure_digest(), st.structure_digest());

        // Removal is the same write path too: nine keys in ten taken out
        // of both, in one order, leave the same nodes — collapsed and
        // merged alike.
        for (i, &k) in keys.iter().enumerate() {
            if i % 10 != 0 {
                assert_eq!(trie.remove(&encode_u64(k)), st.remove(&encode_u64(k)));
            }
        }
        trie.check_invariants();
        assert_eq!(trie.depth_stats(), st.depth_stats());
        assert_eq!(trie.structure_digest(), st.structure_digest());
    }

    /// Key `i` of key set `set`: sets interleave all over the key space.
    fn key_of(set: u64, i: u64) -> [u8; 8] {
        encode_u64((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & !0xFF) | set)
    }

    /// Four writers — on disjoint keys, on one shared pool, then taking
    /// turns through a mixed insert/remove history, then all removing
    /// everything — beside two free-running readers, end with the structure
    /// a single thread builds from the same history; `rounds` times over,
    /// each round turning the whole key set over.
    fn four_writers_match_the_single_threaded_replay<St: NodeStore + Send>(
        index: &Concurrent<St>,
        mut replay: crate::Trie<St>,
        rounds: usize,
    ) {
        const WRITERS: u64 = 4;
        // Key sets `0..WRITERS` are a writer's own; set `WRITERS` is shared.
        let (own, pool) = (sized(2_000), sized(1_000));
        let size_of = |set: u64| if set == WRITERS { pool } else { own };
        // TIDs name the key, so whatever a reader finds is exact.
        let tid_of = |set: u64, i: u64| set << 32 | i;
        let stop = std::sync::atomic::AtomicBool::new(false);
        // Run `job(t)` on writer thread `t`, all four at once.
        let run = |job: &(dyn Fn(u64) + Sync)| {
            std::thread::scope(|writers| {
                for t in 0..WRITERS {
                    writers.spawn(move || job(t));
                }
            });
        };

        /// Stops the readers when the writers are through — or have panicked.
        struct Stop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        std::thread::scope(|readers| {
            let _stop = Stop(&stop);
            for r in 0..2u64 {
                let stop = &stop;
                readers.spawn(move || {
                    let mut x = 0x2545_F491_4F6C_DD1Du64 ^ r;
                    let mut out = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let (set, i) = (x % (WRITERS + 1), (x >> 8) % own);
                        if let Some(tid) = index.get(&key_of(set, i)) {
                            assert_eq!(tid, set << 32 | i, "reader {r} found a foreign TID");
                        }
                        if x.is_multiple_of(64) {
                            index.scan_into(&key_of(set, i), 8, &mut out);
                            assert!(out.len() <= 8);
                            // Leave the cores to the writers now and then.
                            std::thread::yield_now();
                        }
                    }
                });
            }

            for round in 0..rounds {
                // Free-running inserts: each writer its own keys, and every
                // writer the whole shared pool. Insert-only, so the structure
                // does not depend on the interleaving.
                run(&|t| {
                    for i in 0..own.max(pool) {
                        if i < own {
                            assert_eq!(index.insert(&key_of(t, i), tid_of(t, i)), None);
                        }
                        if i < pool {
                            let (j, tid) =
                                ((i + t * 7) % pool, tid_of(WRITERS, (i + t * 7) % pool));
                            let previous = index.insert(&key_of(WRITERS, j), tid);
                            assert!(previous.is_none() || previous == Some(tid));
                        }
                    }
                });
                for set in 0..=WRITERS {
                    for i in 0..size_of(set) {
                        replay.insert(&key_of(set, i), tid_of(set, i));
                    }
                }
                assert_eq!(index.len(), replay.len());
                assert_eq!(
                    index.structure_digest(),
                    replay.structure_digest(),
                    "round {round}: after the concurrent build"
                );

                // Mixed inserts and removes: what a remove leaves behind depends
                // on the order of the writes around it, so a replay needs the
                // writers' linearization. They take turns here — write `n` is
                // thread `n % WRITERS`'s — while the readers keep running free.
                let mut x = 0x9E37_79B9u64 ^ round as u64;
                let history: Vec<(bool, u64, u64)> = (0..sized(3_000))
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let set = x % (WRITERS + 1);
                        (x & 0x300 != 0, set, (x >> 12) % size_of(set))
                    })
                    .collect();
                let turn = AtomicUsize::new(0);
                run(&|t| {
                    for n in (t as usize..history.len()).step_by(WRITERS as usize) {
                        while turn.load(Ordering::Acquire) != n {
                            crate::sync_shim::yield_now();
                        }
                        let (remove, set, i) = history[n];
                        if remove {
                            index.remove(&key_of(set, i));
                        } else {
                            index.insert(&key_of(set, i), tid_of(set, i));
                        }
                        turn.store(n + 1, Ordering::Release);
                    }
                });
                for &(remove, set, i) in &history {
                    if remove {
                        replay.remove(&key_of(set, i));
                    } else {
                        replay.insert(&key_of(set, i), tid_of(set, i));
                    }
                }
                assert!(quiesce());
                assert_eq!(index.len(), replay.len());
                assert_eq!(
                    index.check_invariants().nodes,
                    replay.check_invariants().nodes
                );
                assert_eq!(
                    index.structure_digest(),
                    replay.structure_digest(),
                    "round {round}: after the mixed history"
                );
                // Nothing leaked, nothing freed twice. (Leaf bytes are left out:
                // how a record is front-coded depends on which one was appended
                // before it, and the free-running build appended in its own order.)
                let (live, want) = (index.memory_stats(), replay.memory_stats());
                assert_eq!(
                    (live.node_count, live.node_bytes),
                    (want.node_count, want.node_bytes),
                    "round {round}"
                );

                // Free-running removes, disjoint and overlapping, down to nothing.
                run(&|t| {
                    for i in 0..own.max(pool) {
                        index.remove(&key_of(t, i));
                        index.remove(&key_of(WRITERS, (i + t * 7) % pool));
                    }
                });
                assert!(quiesce());
                assert!(index.is_empty(), "round {round}");
                index.check_invariants();
                assert_eq!(index.memory_stats().node_count, 0, "round {round}");
                for set in 0..=WRITERS {
                    for i in 0..size_of(set) {
                        replay.remove(&key_of(set, i));
                    }
                }
            }
        });
    }

    /// Keys of [`key_of`] by TID (key set in the high half).
    struct Keys;
    impl KeySource for Keys {
        fn load_key<'a>(
            &'a self,
            tid: u64,
            scratch: &'a mut [u8; hot_keys::KEY_SCRATCH_LEN],
        ) -> &'a [u8] {
            scratch[..8].copy_from_slice(&key_of(tid >> 32, tid & 0xFFFF_FFFF));
            &scratch[..8]
        }
    }

    #[test]
    fn four_heap_writers_match_the_single_threaded_replay() {
        four_writers_match_the_single_threaded_replay(
            &ConcurrentHot::new(Keys),
            crate::HotTrie::new(Keys),
            1,
        );
    }

    #[test]
    fn four_arena_writers_match_the_single_threaded_replay() {
        four_writers_match_the_single_threaded_replay(
            &ConcurrentCompact::new(),
            crate::CompactHot::new(),
            1,
        );
    }

    /// A heap store on chunks — what a bulk load of 2¹⁹ keys or more leaves
    /// behind — takes its nodes from the chunks and gives them back there,
    /// from every writer and every epoch-deferred free, through ten times
    /// its key set of turnover, and ends every round with the structure,
    /// node count and node bytes of a replay on the general allocator.
    #[test]
    fn four_writers_on_chunks_match_a_general_allocator_replay() {
        let index = ConcurrentHot::new(Keys);
        index
            .store()
            .mem
            .prepare_load(crate::node::heap::CHUNKED_LOAD_MIN_KEYS);
        let replay = crate::HotTrie::new(Keys);
        assert_eq!(replay.memory_stats().capacity_bytes, 0);
        four_writers_match_the_single_threaded_replay(&index, replay, 10);
        assert!(
            index.memory_stats().capacity_bytes > 0,
            "the writers ran on chunks"
        );
    }
}
