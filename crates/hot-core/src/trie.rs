//! The single-threaded Height Optimized Trie (Sections 3 and 4).
//!
//! epoch-exempt: mutation takes `&mut self` and reads run against a tree
//! nobody reclaims concurrently — no epoch pin is ever required here.

use crate::bulk::BulkLoadError;
use crate::metrics::{Metrics, OpKind};
use crate::node::builder::Builder;
use crate::node::{MemCounter, NodeRef, MAX_FANOUT};
use hot_keys::stats::MemoryStats;
use hot_keys::{DepthStats, KeySource, PaddedKey, KEY_SCRATCH_LEN, MAX_TID};

/// A Height Optimized Trie mapping prefix-free byte-string keys to 63-bit
/// tuple identifiers.
///
/// Keys handed to [`insert`](HotTrie::insert) are *not* stored by the index
/// itself (HOT is Patricia-style and keeps only discriminative bits); they
/// are resolved back from TIDs through the [`KeySource`] whenever a full-key
/// comparison is required, exactly as a main-memory DBMS resolves tuples.
/// Use [`HotMap`](crate::HotMap) for a self-contained ordered map.
pub struct HotTrie<S> {
    root: NodeRef,
    source: S,
    len: usize,
    mem: MemCounter,
    /// Reused descent stack: (node, selected entry index).
    stack: Vec<(NodeRef, usize)>,
    /// Reused padded key buffer for mutating operations (boxed so taking it
    /// out is a pointer move, not a 272-byte copy).
    key_buf: Option<Box<PaddedKey>>,
    /// Reused decode buffer for the copy-on-write insert path.
    scratch: Option<Builder>,
    /// Operation metrics recorder — zero-sized no-op unless the `metrics`
    /// feature is enabled (see [`crate::metrics`]).
    metrics: Metrics,
}

pub(crate) use crate::sync_shim::insert_fast_path_enabled as fast_path_enabled;

impl<S: KeySource> HotTrie<S> {
    /// Create an empty trie resolving keys through `source`.
    pub fn new(source: S) -> Self {
        HotTrie {
            root: NodeRef::NULL,
            source,
            len: 0,
            mem: MemCounter::default(),
            stack: Vec::with_capacity(16),
            key_buf: Some(Box::new(PaddedKey::new())),
            scratch: None,
            metrics: Metrics::new(),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access the key source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Overall tree height in compound nodes (0 for empty or single-leaf
    /// trees). Grows only when a new root is created.
    pub fn height(&self) -> usize {
        if self.root.is_node() {
            self.root.as_raw().height() as usize
        } else {
            0
        }
    }

    /// Look up `key`; returns its TID if present.
    ///
    /// Wait-free: performs one descent plus one full-key verification
    /// (Listing 2 of the paper).
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let _t = self.metrics.timer(OpKind::Get);
        let padded = PaddedKey::from_key(key);
        self.get_padded(&padded)
    }

    /// Like [`get`](Self::get) with a caller-provided padded-key buffer
    /// (avoids re-zeroing in tight loops).
    pub fn get_with(&self, key: &[u8], buf: &mut PaddedKey) -> Option<u64> {
        let _t = self.metrics.timer(OpKind::Get);
        buf.set(key);
        self.get_padded(buf)
    }

    fn get_padded(&self, key: &PaddedKey) -> Option<u64> {
        let cur = crate::node::descend(self.root, key, &mut ());
        if cur.is_null() {
            return None;
        }
        let tid = cur.tid();
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let stored = self.source.load_key(tid, &mut scratch);
        if hot_bits::first_mismatch_bit(stored, key.bytes()).is_none() {
            Some(tid)
        } else {
            None
        }
    }

    /// Look up `keys` as one batch, writing `keys.len()` results into
    /// `out` (`out[i]` answers `keys[i]`, exactly as [`get`](Self::get)
    /// would).
    ///
    /// Descents run through the batched descent engine ([`crate::mlp`]):
    /// up to [`DEFAULT_DEPTH`](crate::DEFAULT_DEPTH) independent descents
    /// stay in flight, each lane refilling from the pending keys the
    /// moment it completes, so depth variance between keys never idles a
    /// lane. This call uses the thread's parked scheduler;
    /// [`get_batch_with`](Self::get_batch_with) takes the caller's.
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
        sched.run_points(&self.source, &crate::mlp::LookupStream(keys), out, |_| self.root, false, &self.metrics);
    }

    /// Service a mixed stream of point lookups and range scans in one
    /// pass of the engine: `out[i]` answers request `i` when it is a
    /// [`BatchRequest::Get`](crate::BatchRequest); each
    /// [`BatchRequest::Scan`](crate::BatchRequest) appends its TIDs to
    /// `tids` with one end offset pushed to `bounds`, in stream order
    /// (`tids` and `bounds` are cleared first; `bounds` starts with 0).
    ///
    /// This is the entry point YCSB's coalesced operation batches feed:
    /// get and scan-seek descents share the same lane ring, so a scan-heavy
    /// stretch never drains the lookup pipeline or vice versa. Records one
    /// `get_batch` and one `scan_batch` metrics sample. Runs on the
    /// thread's parked scheduler;
    /// [`mixed_batch_with`](Self::mixed_batch_with) takes the caller's.
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
        tids.clear();
        bounds.clear();
        bounds.push(0);
        sched.run(&self.source, reqs, out, tids, bounds, |_| self.root, false, false, &self.metrics);
        self.metrics.items(OpKind::ScanBatch, tids.len() as u64);
    }

    /// Remove `keys` as one batch, writing what [`remove`](Self::remove)
    /// would have returned for each key (in order) into `out`.
    ///
    /// The existence probes run as remove-probe descents through the
    /// out-of-order scheduler — overlapping their cache misses and warming
    /// the upper tree levels — then the structural removals apply
    /// sequentially for the keys that probed present. Results are
    /// identical to calling `remove` per key.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn remove_batch<K: AsRef<[u8]>>(&mut self, keys: &[K], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let _t = self.metrics.timer(OpKind::RemoveBatch);
        self.metrics.items(OpKind::RemoveBatch, keys.len() as u64);
        crate::mlp::with_thread_scheduler(|sched| {
            sched.run_points(&self.source, &crate::mlp::ProbeStream(keys), out, |_| self.root, false, &self.metrics)
        });
        // Apply phase: only probed-present keys walk the structural remove.
        // A duplicate key probes present in every slot but the first apply
        // wins — exactly the answers sequential `remove` calls give.
        let mut key_buf = self.key_buf.take().unwrap_or_default();
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            if slot.is_some() {
                key_buf.set(key.as_ref());
                *slot = self.remove_padded(&key_buf);
            }
        }
        self.key_buf = Some(key_buf);
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key → tid` (upsert). Returns the previous TID if the key was
    /// already present.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`] or the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes.
    pub fn insert(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        let _t = self.metrics.timer(OpKind::Insert);
        let mut key_buf = self.key_buf.take().unwrap_or_default();
        key_buf.set(key);
        let result = self.insert_padded(&key_buf, tid);
        self.key_buf = Some(key_buf);
        result
    }

    fn insert_padded(&mut self, key: &PaddedKey, tid: u64) -> Option<u64> {
        if self.root.is_null() {
            self.root = NodeRef::leaf(tid);
            self.len = 1;
            return None;
        }

        // Descend to the candidate leaf, recording the path.
        self.stack.clear();
        let cur = crate::node::descend(self.root, key, &mut self.stack);
        let existing_tid = cur.tid();
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let mismatch = {
            let stored = self.source.load_key(existing_tid, &mut scratch);
            hot_bits::first_mismatch_bit(stored, key.bytes())
        };
        let Some(pos) = mismatch else {
            // Upsert: swap the leaf word in place.
            match self.stack.last() {
                None => self.root = NodeRef::leaf(tid),
                Some(&(node, idx)) => node.as_raw().store_value(idx, NodeRef::leaf(tid)),
            }
            return Some(existing_tid);
        };
        assert!(pos < u16::MAX as usize, "mismatch position fits u16");
        let key_bit = hot_bits::bit_at(key.bytes(), pos);

        if self.stack.is_empty() {
            // The root was a single leaf: grow into the first 2-entry node.
            let (zero, one) = if key_bit == 1 {
                (NodeRef::leaf(existing_tid).0, NodeRef::leaf(tid).0)
            } else {
                (NodeRef::leaf(tid).0, NodeRef::leaf(existing_tid).0)
            };
            self.root = Builder::pair(pos as u16, zero, one, 1).encode(&self.mem);
            self.len += 1;
            return None;
        }

        // Find the node the new BiNode belongs to. Listing 1 traverses until
        // the *mismatching BiNode*: the first path BiNode whose position
        // exceeds the mismatch position. Start from the deepest node whose
        // root BiNode position is <= the mismatch position (defaulting to
        // the root node, which may grow upward)…
        let mut level = self.stack.len() - 1;
        while level > 0 && self.stack[level].0.as_raw().min_position() as usize > pos {
            level -= 1;
        }
        let (mut target, mut idx) = self.stack[level];
        let mut raw = target.as_raw();
        let (mut lo, mut hi) = raw.affected_range(pos, idx);

        // …but when the affected "subtree" inside that node is a single
        // child-node entry, the mismatching BiNode is the child's root
        // BiNode: the new BiNode belongs to the *child*, which grows upward
        // (this is what keeps e.g. monotonic inserts filling one node to
        // fanout 32 instead of bloating its parent).
        if lo == hi && raw.value(lo).is_node() {
            level += 1;
            (target, idx) = self.stack[level];
            raw = target.as_raw();
            (lo, hi) = raw.affected_range(pos, idx);
            debug_assert_eq!((lo, hi), (0, raw.count() - 1));
        }
        let _ = target;

        if lo == hi && raw.value(lo).is_leaf() && raw.height() > 1 {
            // Leaf-node pushdown (Section 3.2): the mismatching BiNode is a
            // leaf entry of an inner node — replace the leaf by a fresh
            // height-1 node instead of growing this node. No copy-on-write:
            // a single slot store publishes the new node.
            let old_leaf = raw.value(lo);
            let (zero, one) = if key_bit == 1 {
                (old_leaf.0, NodeRef::leaf(tid).0)
            } else {
                (NodeRef::leaf(tid).0, old_leaf.0)
            };
            let pushed = Builder::pair(pos as u16, zero, one, 1).encode(&self.mem);
            raw.store_value(lo, pushed);
            self.len += 1;
            return None;
        }

        // Normal insert, fused fast path: when the physical layout is
        // stable the new node is built straight from the old one.
        if fast_path_enabled() {
            if let Some(new_node) =
                raw.insert_entry_cow(pos, lo, hi, key_bit, NodeRef::leaf(tid).0, &self.mem)
            {
                self.replace_slot(level, new_node);
                // SAFETY: the old node is unreachable after the slot swap
                // and the single-threaded trie has no concurrent readers.
                unsafe { raw.free(&self.mem) };
                self.len += 1;
                return None;
            }
        }

        // General path: decode into the reused scratch builder (malloc-free
        // apart from the new node allocation).
        let mut builder = self.scratch.take().unwrap_or_else(Builder::empty);
        builder.decode_into(raw);
        builder.insert_entry(pos as u16, idx, key_bit, NodeRef::leaf(tid).0);
        if !builder.overflowed() {
            let new_node = builder.encode(&self.mem);
            self.replace_slot(level, new_node);
            // SAFETY: the old node is unreachable after the slot swap and
            // the single-threaded trie has no concurrent readers.
            unsafe { raw.free(&self.mem) };
            self.scratch = Some(builder);
        } else {
            self.handle_overflow(level, builder);
        }
        self.len += 1;
        None
    }

    /// Resolve an overflowed builder at `level` per Listing 1: split at the
    /// root BiNode, then parent pull-up (recursing upward) or intermediate
    /// node creation, growing the tree only at the root.
    fn handle_overflow(&mut self, mut level: usize, mut builder: Builder) {
        loop {
            debug_assert!(builder.overflowed());
            let (pos, left, right) = builder.split();
            let left_ref = self.half_ref(left);
            let right_ref = self.half_ref(right);
            let old_node = self.stack[level].0.as_raw();

            if level == 0 {
                // Only the root grows the tree height.
                let h = crate::node::builder::true_height(&[left_ref.0, right_ref.0]);
                let new_root =
                    Builder::pair(pos, left_ref.0, right_ref.0, h).encode(&self.mem);
                self.root = new_root;
                // SAFETY: unreachable after the root swap; single-threaded.
                unsafe { old_node.free(&self.mem) };
                return;
            }

            let (parent, parent_idx) = self.stack[level - 1];
            let parent_raw = parent.as_raw();
            debug_assert!(parent_raw.height() > builder.height);
            if builder.height + 1 == parent_raw.height() {
                // Parent pull-up: move the split root BiNode into the parent.
                let mut pb = Builder::decode(parent_raw);
                pb.replace_entry_with_pair(parent_idx, pos, left_ref.0, right_ref.0);
                // SAFETY: replaced by the two halves; single-threaded.
                unsafe { old_node.free(&self.mem) };
                if pb.overflowed() {
                    builder = pb;
                    level -= 1;
                    continue;
                }
                let new_parent = pb.encode(&self.mem);
                self.replace_slot(level - 1, new_parent);
                // SAFETY: unreachable after the slot swap; single-threaded.
                unsafe { parent_raw.free(&self.mem) };
                return;
            }

            // Intermediate node creation: there is room between this node
            // and its parent, so an extra level here does not increase the
            // overall tree height.
            let h = crate::node::builder::true_height(&[left_ref.0, right_ref.0]);
            let inter = Builder::pair(pos, left_ref.0, right_ref.0, h).encode(&self.mem);
            parent_raw.store_value(parent_idx, inter);
            // SAFETY: unreachable after the slot swap; single-threaded.
            unsafe { old_node.free(&self.mem) };
            return;
        }
    }

    /// Encode a split half, collapsing singleton halves to their bare value.
    fn half_ref(&self, half: Builder) -> NodeRef {
        if half.len() == 1 {
            NodeRef(half.values[0])
        } else {
            half.encode(&self.mem)
        }
    }

    /// Point the slot holding the node at `level` (or the root) at `new`.
    fn replace_slot(&mut self, level: usize, new: NodeRef) {
        if level == 0 {
            self.root = new;
        } else {
            let (parent, idx) = self.stack[level - 1];
            parent.as_raw().store_value(idx, new);
        }
        self.stack[level].0 = new;
    }

    /// Build the whole trie bottom-up from sorted `(key, tid)` entries
    /// (DESIGN.md §11).
    ///
    /// Keys must be ascending, prefix-free byte strings of at most
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes that resolve back from
    /// their TIDs through the trie's [`KeySource`] — the same contract as
    /// [`insert`](Self::insert), plus the sort order. Duplicate keys are
    /// collapsed deterministically (the last entry's TID wins); out-of-order
    /// input returns [`BulkLoadError::Unsorted`] without modifying the trie,
    /// and a non-empty trie returns [`BulkLoadError::NotEmpty`].
    ///
    /// Every compound node is computed from the adjacent-key mismatch
    /// positions and encoded exactly once, with no intermediate
    /// copy-on-write churn, so loading is several times faster than an
    /// insert loop and the resulting footprint is never larger. The build
    /// runs on the calling thread: nodes allocated on worker threads land
    /// in per-thread allocator arenas, which cost 3 % resident size for
    /// the index's lifetime (2 M urls, glibc) against a one-off 0.13 s —
    /// [`bulk_load_parallel`](Self::bulk_load_parallel) is the explicit
    /// choice of that trade. Returns the number of distinct keys loaded.
    pub fn bulk_load<K: AsRef<[u8]>>(
        &mut self,
        entries: &[(K, u64)],
    ) -> Result<usize, BulkLoadError> {
        self.bulk_load_parallel(entries, 1)
    }

    /// [`bulk_load`](Self::bulk_load) with the root fragment's independent
    /// subtries built on up to `threads` `std::thread` workers and grafted
    /// under a root node built from the partition fences. `threads <= 1` is
    /// the sequential build.
    pub fn bulk_load_parallel<K: AsRef<[u8]>>(
        &mut self,
        entries: &[(K, u64)],
        threads: usize,
    ) -> Result<usize, BulkLoadError> {
        if !self.root.is_null() {
            return Err(BulkLoadError::NotEmpty);
        }
        let _t = self.metrics.timer(OpKind::BulkLoad);
        let prepared = crate::bulk::prepare(entries)?;
        let n = prepared.tids.len();
        self.root = match n {
            0 => NodeRef::NULL,
            1 => NodeRef::leaf(prepared.tids[0]),
            _ => crate::bulk::build_parallel(&prepared.tids, &prepared.bounds, &self.mem, threads),
        };
        self.len = n;
        self.metrics.items(OpKind::BulkLoad, n as u64);
        Ok(n)
    }

    /// Remove `key`; returns its TID if it was present.
    ///
    /// Deletion mirrors insertion (Section 3.2): a normal delete modifies a
    /// single node; a node underflowing to one entry collapses into its
    /// parent slot (the counterpart of leaf-node pushdown / intermediate
    /// node creation).
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        let _t = self.metrics.timer(OpKind::Remove);
        let mut key_buf = self.key_buf.take().unwrap_or_default();
        key_buf.set(key);
        let result = self.remove_padded(&key_buf);
        self.key_buf = Some(key_buf);
        result
    }

    fn remove_padded(&mut self, key: &PaddedKey) -> Option<u64> {
        if self.root.is_null() {
            return None;
        }
        self.stack.clear();
        let cur = crate::node::descend(self.root, key, &mut self.stack);
        let tid = cur.tid();
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        {
            let stored = self.source.load_key(tid, &mut scratch);
            if hot_bits::first_mismatch_bit(stored, key.bytes()).is_some() {
                return None;
            }
        }

        let Some(&(node, idx)) = self.stack.last() else {
            // The root itself was the leaf.
            self.root = NodeRef::NULL;
            self.len = 0;
            return Some(tid);
        };
        let raw = node.as_raw();
        let level = self.stack.len() - 1;
        if raw.count() == 2 {
            // Underflow: the node collapses to its surviving entry.
            let survivor = raw.value(1 - idx);
            self.replace_slot(level, survivor);
            // SAFETY: unreachable after the slot swap; single-threaded.
            unsafe { raw.free(&self.mem) };
        } else {
            let mut builder = Builder::decode(raw);
            builder.remove_entry(idx);
            // Underflow merge (Section 3.2's deletion counterpart of
            // pushdown / intermediate node creation): a node shrunk to two
            // entries dissolves into its parent when there is room, pulling
            // its single BiNode up and shortening the path by one level.
            if builder.len() == 2 && level > 0 {
                let (parent, parent_idx) = self.stack[level - 1];
                let parent_raw = parent.as_raw();
                if parent_raw.count() < MAX_FANOUT {
                    let mut pb = Builder::decode(parent_raw);
                    pb.replace_entry_with_pair(
                        parent_idx,
                        builder.positions[0],
                        builder.values[0],
                        builder.values[1],
                    );
                    let new_parent = pb.encode(&self.mem);
                    self.replace_slot(level - 1, new_parent);
                    // SAFETY: both old nodes are unreachable after the slot
                    // swap; single-threaded.
                    unsafe {
                        raw.free(&self.mem);
                        parent_raw.free(&self.mem);
                    }
                    self.len -= 1;
                    return Some(tid);
                }
            }
            let new_node = builder.encode(&self.mem);
            self.replace_slot(level, new_node);
            // SAFETY: unreachable after the slot swap; single-threaded.
            unsafe { raw.free(&self.mem) };
        }
        self.len -= 1;
        Some(tid)
    }

    /// Iterator over all TIDs in ascending key order.
    pub fn iter(&self) -> Cursor<'_> {
        let mut frames = Vec::new();
        let mut pending = None;
        if self.root.is_node() {
            frames.push((self.root, 0));
        } else if self.root.is_leaf() {
            pending = Some(self.root.tid());
        }
        Cursor::new(frames, pending)
    }

    /// Iterator over TIDs whose keys are `>= key`, in ascending key order —
    /// the building block of workload E's short range scans.
    pub fn range_from(&self, key: &[u8]) -> Cursor<'_> {
        let padded = PaddedKey::from_key(key);
        let mut frames: Vec<(NodeRef, usize)> = Vec::new();
        let mut pending = None;

        if self.root.is_leaf() {
            let mut scratch = [0u8; KEY_SCRATCH_LEN];
            let stored = self.source.load_key(self.root.tid(), &mut scratch);
            if stored >= padded.bytes() {
                pending = Some(self.root.tid());
            }
            return Cursor::new(frames, pending);
        }
        if self.root.is_null() {
            return Cursor::new(frames, pending);
        }

        // Descend to the candidate leaf, recording the path.
        let mut path: Vec<(NodeRef, usize)> = Vec::new();
        let cur = crate::node::descend(self.root, &padded, &mut path);
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let mismatch = {
            let stored = self.source.load_key(cur.tid(), &mut scratch);
            hot_bits::first_mismatch_bit(stored, padded.bytes())
        };

        match mismatch {
            None => {
                // Exact hit: resume every ancestor after its taken entry and
                // yield the hit first.
                for &(node, idx) in &path {
                    frames.push((node, idx + 1));
                }
                pending = Some(cur.tid());
            }
            Some(pos) => {
                // Locate the node the mismatch splits (same rule as insert).
                let mut level = path.len() - 1;
                while level > 0 && path[level].0.as_raw().min_position() as usize > pos {
                    level -= 1;
                }
                for &(node, idx) in &path[..level] {
                    frames.push((node, idx + 1));
                }
                let (target, idx) = path[level];
                let (lo, hi) = target.as_raw().affected_range(pos, idx);
                let start = if hot_bits::bit_at(padded.bytes(), pos) == 0 {
                    lo // the search key precedes the affected subtree
                } else {
                    hi + 1 // the search key follows the affected subtree
                };
                frames.push((target, start));
            }
        }
        Cursor::new(frames, pending)
    }

    /// Collect up to `limit` TIDs with keys `>= key` (the paper's workload E
    /// operation: "range scans accessing up to 100 elements").
    ///
    /// Thin wrapper over [`scan_into`](Self::scan_into) — it allocates the
    /// result vector (the cursor is this thread's parked one). Hot loops
    /// should call `scan_into`, or hold a [`ScanCursor`](crate::ScanCursor)
    /// and call [`scan_with`](Self::scan_with).
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.scan_into(key, limit, &mut out);
        out
    }

    /// Like [`scan`](Self::scan), writing the TIDs into `out` (cleared
    /// first) instead of allocating a fresh vector.
    pub fn scan_into(&self, key: &[u8], limit: usize, out: &mut Vec<u64>) {
        crate::scan::with_thread_cursor(|cursor| self.scan_with(key, limit, out, cursor));
    }

    /// Like [`scan`](Self::scan) with caller-owned buffers: the TIDs land in
    /// `out` (cleared first) and every piece of traversal state lives in
    /// `cursor`. Once the buffers have warmed up, repeated scans perform
    /// **zero** heap allocations, and the traversal prefetches one subtree
    /// ahead (see [`crate::scan`]).
    pub fn scan_with(
        &self,
        key: &[u8],
        limit: usize,
        out: &mut Vec<u64>,
        cursor: &mut crate::scan::ScanCursor,
    ) {
        let _t = self.metrics.timer(OpKind::Scan);
        out.clear();
        cursor.scan_root(self.root, &self.source, key, limit, out);
        self.metrics.items(OpKind::Scan, out.len() as u64);
    }

    /// Service many scan requests `(start key, limit)` in one call: request
    /// `i`'s TIDs land in `tids[bounds[i]..bounds[i + 1]]` (both vectors are
    /// cleared first; `bounds` gets `requests.len() + 1` prefix offsets).
    ///
    /// The seek descents run through the batched descent engine
    /// ([`crate::mlp`]) — up to N seeks in flight, lanes refilling on
    /// completion — on the thread's parked scheduler. Results are
    /// identical to calling [`scan`](Self::scan) per request.
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
        tids.clear();
        bounds.clear();
        bounds.push(0);
        let mut out: [Option<u64>; 0] = [];
        sched.run(
            &self.source,
            &crate::mlp::ScanStream(requests),
            &mut out,
            tids,
            bounds,
            |_| self.root,
            false,
            false,
            &self.metrics,
        );
        self.metrics.items(OpKind::ScanBatch, tids.len() as u64);
    }

    /// Iterator over TIDs with `start <= key < end`, in ascending key order
    /// (each yielded TID costs one key resolution for the bound check).
    pub fn range<'a>(
        &'a self,
        start: &[u8],
        end: &'a [u8],
    ) -> impl Iterator<Item = u64> + 'a {
        self.range_from(start).take_while(move |&tid| {
            let mut scratch = [0u8; KEY_SCRATCH_LEN];
            self.source.load_key(tid, &mut scratch) < end
        })
    }

    /// Index memory footprint (nodes only; leaf storage is the key source's).
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            node_bytes: self.mem.bytes(),
            node_count: self.mem.nodes(),
            aux_bytes: 0,
            key_count: self.len,
            capacity_bytes: 0,
        }
    }

    /// Leaf-depth histogram (depth = compound nodes on the root-to-leaf
    /// path), as reported in Figure 11.
    pub fn depth_stats(&self) -> DepthStats {
        let mut stats = DepthStats::new();
        fn walk(r: NodeRef, depth: usize, stats: &mut DepthStats) {
            if r.is_leaf() {
                stats.record(depth);
            } else if r.is_node() {
                let raw = r.as_raw();
                for i in 0..raw.count() {
                    walk(raw.value(i), depth + 1, stats);
                }
            }
        }
        walk(self.root, 0, &mut stats);
        stats
    }

    /// Whole-trie structural invariant check (see [`crate::invariants`]):
    /// fanout bounds, per-node linearization well-formedness, SIMD-search
    /// self-consistency, strict height decrease, in-order key ordering,
    /// leaf count, and full re-lookup of every stored key. Returns summary
    /// statistics or a description of the first violation.
    pub fn try_check_invariants(&self) -> Result<crate::InvariantReport, String> {
        // Re-lookups go through the uninstrumented internal path so the
        // walk never inflates the `get` operation counters.
        crate::invariants::check_tree(self.root, &self.source, self.len, |k| {
            self.get_padded(&PaddedKey::from_key(k))
        })
    }

    /// Point-in-time metrics snapshot (DESIGN.md §13): merged operation
    /// counters and latency histograms, plus structural gauges (layout
    /// census, leaf-depth distribution, fill factor) sampled from a full
    /// invariant walk. The operation counters are captured *before* the
    /// structural walk, and the walk re-looks keys up through the
    /// uninstrumented internal path, so sampling never perturbs the
    /// operation stats. Only available with the `metrics` feature.
    #[cfg(feature = "metrics")]
    pub fn metrics_snapshot(&self) -> hot_metrics::MetricsSnapshot {
        let mut snap = self.metrics.0.ops_snapshot();
        if let Ok(report) = self.try_check_invariants() {
            snap.structure = Some(crate::metrics::structural_snapshot(&report));
        }
        snap
    }

    /// The counter/histogram half of [`Self::metrics_snapshot`] without
    /// the structural walk — cheap enough to call at workload-phase
    /// boundaries (`structure` is `None`). Only with the `metrics`
    /// feature.
    #[cfg(feature = "metrics")]
    pub fn metrics_ops_snapshot(&self) -> hot_metrics::MetricsSnapshot {
        self.metrics.0.ops_snapshot()
    }

    /// Panicking wrapper over [`Self::try_check_invariants`]. Test-support.
    pub fn check_invariants(&self) -> crate::InvariantReport {
        match self.try_check_invariants() {
            Ok(report) => report,
            Err(msg) => panic!("HotTrie invariant violation: {msg}"),
        }
    }

    /// Verify every structural invariant; panics on violation. Test-support.
    ///
    /// Delegates the structural walk to [`Self::check_invariants`] and
    /// additionally checks that the public iterator visits exactly `len`
    /// leaves (cursor coverage the raw walk doesn't exercise).
    pub fn validate(&self) {
        self.check_invariants();
        assert_eq!(
            self.iter().count(),
            self.len,
            "len matches iterated leaf count"
        );
    }

    /// Count of live nodes per physical layout (indexed by `NodeTag as
    /// usize`): the observable footprint of the paper's two adaptivity
    /// dimensions. Test and diagnostics support.
    pub fn layout_census(&self) -> [usize; 9] {
        let mut census = [0usize; 9];
        fn walk(r: NodeRef, census: &mut [usize; 9]) {
            if r.is_node() {
                let raw = r.as_raw();
                census[raw.tag as usize] += 1;
                for i in 0..raw.count() {
                    walk(raw.value(i), census);
                }
            }
        }
        walk(self.root, &mut census);
        census
    }

    /// A structural fingerprint: equal digests mean structurally identical
    /// trees (layouts, positions, sparse keys, heights, leaf order). Used to
    /// test the paper's determinism conjecture (Section 3.3): "any given set
    /// of keys results in the same structure, regardless of the insertion
    /// order".
    pub fn structure_digest(&self) -> u64 {
        Self::digest_of(self.root)
    }

    /// [`structure_digest`](Self::structure_digest) of the tree under `root`.
    pub(crate) fn digest_of(root: NodeRef) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(17)
        }
        fn walk(r: NodeRef, mut h: u64) -> u64 {
            if r.is_leaf() {
                return mix(h, r.tid() ^ 0xAAAA_AAAA);
            }
            if r.is_null() {
                return mix(h, 0x5555);
            }
            let raw = r.as_raw();
            h = mix(h, raw.tag as u64);
            h = mix(h, raw.height() as u64);
            for p in raw.positions() {
                h = mix(h, p as u64);
            }
            for i in 0..raw.count() {
                h = mix(h, raw.sparse_key(i) as u64);
                h = walk(raw.value(i), h);
            }
            h
        }
        walk(root, 0xcbf2_9ce4_8422_2325)
    }
}

impl<S> Drop for HotTrie<S> {
    fn drop(&mut self) {
        fn free_subtree(r: NodeRef, mem: &MemCounter) {
            if r.is_node() {
                let raw = r.as_raw();
                for i in 0..raw.count() {
                    free_subtree(raw.value(i), mem);
                }
                // SAFETY: dropping the trie, sole owner of all nodes.
                unsafe { raw.free(mem) };
            }
        }
        free_subtree(self.root, &self.mem);
        debug_assert_eq!(self.mem.bytes(), 0, "all node memory released");
    }
}

/// Ordered iterator over leaf TIDs.
pub struct Cursor<'a> {
    frames: Vec<(NodeRef, usize)>,
    pending: Option<u64>,
    // Cursors borrow the tree they iterate.
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a> Cursor<'a> {
    fn new(frames: Vec<(NodeRef, usize)>, pending: Option<u64>) -> Cursor<'a> {
        Cursor {
            frames,
            pending,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if let Some(tid) = self.pending.take() {
            return Some(tid);
        }
        loop {
            let &(node, idx) = self.frames.last()?;
            let raw = node.as_raw();
            if idx >= raw.count() {
                self.frames.pop();
                continue;
            }
            self.frames.last_mut().expect("non-empty").1 += 1;
            let value = raw.value(idx);
            if value.is_leaf() {
                return Some(value.tid());
            }
            self.frames.push((value, 0));
        }
    }
}
