//! The storage seam (DESIGN.md "The storage seam").
//!
//! epoch-exempt: a store resolves references the caller already protects
//! (`&mut` exclusivity, an epoch pin, or a private pre-publish build) —
//! liveness is established a layer above.
//!
//! The structure-adapting algorithm (Listing 1), the lookup (Listing 2),
//! the node codec, the bulk loader, the scan and the batched descent engine
//! are written once, over a [`NodeStore`]: *where* compound nodes and
//! leaves live and how a child reference resolves to them. For nodes, a
//! store only hands out and takes back blocks of a given size; what a block
//! holds is written by `node` for either store. Two stores exist:
//!
//! * [`HeapStore`] — one exact-size block per node (from the general
//!   allocator, or from the store's own 2 MiB chunks after a large bulk
//!   load — DESIGN.md §3.7), tagged 64-bit pointers
//!   ([`NodeRef`]), leaves are bare TIDs resolved through a
//!   [`KeySource`]; allocation cannot fail, so `Full` is uninhabited and
//!   every `?` in the shared core compiles to nothing;
//! * [`ArenaStore`](crate::arena::ArenaStore) — slab arenas, 32-bit offset
//!   words, inline front-coded leaf records; allocation fails with a typed
//!   [`ArenaFull`](crate::ArenaFull), after which the failed operation
//!   hands back the blocks it took ([`NodeStore::release`]).
//!
//! Dispatch is static: every generic body is monomorphised per store (and
//! per [`hot_bits::Kernel`]), no `dyn`, no function-pointer table.

use std::convert::Infallible;

use crate::bulk::BulkLoadError;
use crate::node::{HeapSlot, MemCounter, NodeRef, NodeTag, RawNode, Slot, TreeRef};
use hot_keys::MemoryStats;
use hot_keys::{KeySource, KEY_SCRATCH_LEN};

/// Where a trie's compound nodes and leaves live.
///
/// **Contract of the writer hooks** (what keeps readers of the concurrent
/// front-end and the roll-back protocol correct):
///
/// * *pre-publish allocation* — [`new_leaf`](Self::new_leaf) and
///   [`alloc_node`](Self::alloc_node) return blocks no reader can reach, and any
///   number of operations may call them at once; the core calls every
///   fallible hook of an operation *before* its publish, so an `Err` leaves
///   the published tree untouched;
/// * *single Release publish* — an operation makes its result reachable
///   with exactly one store: a [`Slot::set`] on a parent slot, or the root
///   word its caller owns;
/// * *the operation keeps the books* — which blocks it allocated and which
///   its publish unlinked is state of the operation
///   ([`Writer`](crate::trie::Writer)), not of the store: a failed
///   operation [`release`](Self::release)s exactly its own allocations, a
///   successful one what it unlinked (through the epoch where readers run).
pub(crate) trait NodeStore: Sync {
    /// The child-reference word.
    type Ref: TreeRef;
    /// The value-slot flavour of this store's nodes.
    type Slot: Slot<Word = Self::Ref>;
    /// Allocation failure. Uninhabited where allocation cannot fail.
    type Full: std::fmt::Display + Send + Into<BulkLoadError>;
    /// Buffer [`leaf_key`](Self::leaf_key) may materialize a key into.
    type KeyBuf;

    /// A fresh [`KeyBuf`](Self::KeyBuf).
    fn key_buf() -> Self::KeyBuf;

    /// Typed view of the node behind `r` (a node reference).
    fn raw(&self, r: Self::Ref) -> RawNode;

    /// The TID of `leaf`.
    fn leaf_tid(&self, leaf: Self::Ref) -> u64;

    /// The full key of `leaf`, borrowed from the store or written to `buf`.
    fn leaf_key<'a>(&'a self, leaf: Self::Ref, buf: &'a mut Self::KeyBuf) -> &'a [u8];

    /// Hint that `leaf` is about to be resolved.
    fn prefetch_leaf(&self, leaf: Self::Ref);

    /// A bulk load of `keys` distinct keys is about to build into this
    /// store ([`bulk::load`](crate::bulk::load) calls it once, before the
    /// first leaf): the store may pick where the nodes of a tree that large
    /// go (DESIGN.md §3.7). Returns whether every node of this load comes
    /// from memory the store owns, whichever thread allocates it — which
    /// lets a plain `bulk_load` build on every core (§11.4).
    fn prepare_load(&self, _keys: usize) -> bool {
        false
    }

    /// Listing 2's final step: the TID of `leaf` if it stores exactly
    /// `key`.
    #[inline(always)]
    fn verify(&self, leaf: Self::Ref, key: &[u8]) -> Option<u64> {
        let mut buf = Self::key_buf();
        let stored = self.leaf_key(leaf, &mut buf);
        hot_bits::first_mismatch_bit(stored, key).is_none().then(|| self.leaf_tid(leaf))
    }

    /// A leaf for `key → tid`, not yet reachable.
    fn new_leaf(&self, key: &[u8], tid: u64) -> Result<Self::Ref, Self::Full>;

    /// A block of `bytes` (a multiple of the slot's `GRAIN`) for a node of
    /// layout `tag`, not yet reachable: its reference, all this hook sets
    /// up — `node::alloc` writes the header, the codec the rest.
    fn alloc_node(&self, tag: NodeTag, bytes: usize) -> Result<Self::Ref, Self::Full>;

    /// Take back `node`'s block of `bytes`, as [`alloc_node`](Self::alloc_node)
    /// handed it out.
    ///
    /// # Safety
    /// `node` must be unreachable — unlinked by a completed publish, or
    /// never published — and no reader may still hold it (the concurrent
    /// front-end defers its free through the epoch).
    unsafe fn free_node(&self, node: Self::Ref, bytes: usize);

    /// `leaf` was unlinked (upsert, removal): release what it holds.
    fn drop_leaf(&self, leaf: Self::Ref);

    /// Give back blocks nothing references any more — each node freed, each
    /// leaf [`drop_leaf`](Self::drop_leaf)ped — leaving `refs` empty.
    ///
    /// # Safety
    /// As [`free_node`](Self::free_node), for every node in `refs`.
    unsafe fn release(&self, refs: &mut Vec<u64>) {
        for word in refs.drain(..) {
            let r = Self::Ref::from_word(word);
            if r.is_node() {
                // SAFETY: the caller's contract.
                unsafe { crate::node::free(self, r) };
            } else {
                self.drop_leaf(r);
            }
        }
    }

    /// Reclaim the whole tree under `root` when its owner lets go of it.
    ///
    /// # Safety
    /// The caller owns the tree exclusively and never touches it again.
    unsafe fn drop_tree(&self, root: Self::Ref);

    /// Index memory footprint for a tree of `key_count` keys.
    fn memory_stats(&self, key_count: usize) -> MemoryStats;
}

/// The public name of the seam: the stores a [`Trie`](crate::Trie) can be
/// instantiated over. It has nothing to implement or call — it exists so
/// that code outside this crate (the benchmark adapter, the differential
/// tests) can be generic over `Trie<B>` for both back-ends.
#[allow(private_bounds, reason = "NodeStore is the crate-internal half of this trait")]
pub trait Backend: NodeStore {}

impl<S: KeySource> Backend for HeapStore<S> {}
impl Backend for crate::arena::ArenaStore {}

/// Compound height of the subtree behind a widened value word: 0 for
/// leaves, the stored node height otherwise (the child-height resolver the
/// [`Builder`] primitives take).
#[inline]
pub(crate) fn height_of<St: NodeStore>(store: &St, word: u64) -> u8 {
    let r = St::Ref::from_word(word);
    if r.is_node() {
        store.raw(r).height()
    } else {
        0
    }
}

/// The heap back-end: exact-size node allocations behind tagged pointers,
/// leaf words that are TIDs resolved through the [`KeySource`] `S`.
pub struct HeapStore<S> {
    pub(crate) source: S,
    pub(crate) mem: MemCounter,
}

impl<S> HeapStore<S> {
    pub(crate) fn new(source: S) -> Self {
        HeapStore { source, mem: MemCounter::default() }
    }
}

impl<S: KeySource> NodeStore for HeapStore<S> {
    type Ref = NodeRef;
    type Slot = HeapSlot;
    type Full = Infallible;
    type KeyBuf = [u8; KEY_SCRATCH_LEN];

    #[inline(always)]
    fn key_buf() -> Self::KeyBuf {
        [0u8; KEY_SCRATCH_LEN]
    }

    #[inline(always)]
    fn raw(&self, r: NodeRef) -> RawNode {
        r.as_raw()
    }

    #[inline(always)]
    fn leaf_tid(&self, leaf: NodeRef) -> u64 {
        leaf.tid()
    }

    #[inline(always)]
    fn leaf_key<'a>(&'a self, leaf: NodeRef, buf: &'a mut Self::KeyBuf) -> &'a [u8] {
        self.source.load_key(leaf.tid(), buf)
    }

    #[inline(always)]
    fn prefetch_leaf(&self, leaf: NodeRef) {
        self.source.prefetch_key(leaf.tid());
    }

    fn prepare_load(&self, keys: usize) -> bool {
        self.mem.prepare_load(keys)
    }

    #[inline(always)]
    fn new_leaf(&self, _key: &[u8], tid: u64) -> Result<NodeRef, Infallible> {
        Ok(NodeRef::leaf(tid))
    }

    #[inline(always)]
    fn alloc_node(&self, tag: NodeTag, bytes: usize) -> Result<NodeRef, Infallible> {
        Ok(NodeRef::node(self.mem.alloc(bytes), tag))
    }

    /// # Safety
    /// As [`NodeStore::free_node`].
    #[inline(always)]
    unsafe fn free_node(&self, node: NodeRef, bytes: usize) {
        // SAFETY: the block came from `alloc_node` with these `bytes`, and
        // the caller guarantees no reference to it remains.
        unsafe { self.mem.free(node.ptr(), bytes) };
    }

    #[inline(always)]
    fn drop_leaf(&self, _leaf: NodeRef) {}

    /// # Safety
    /// As [`NodeStore::drop_tree`].
    unsafe fn drop_tree(&self, root: NodeRef) {
        if root.is_node() {
            let raw = root.as_raw();
            for i in 0..raw.count() {
                // SAFETY: a subtree is as exclusively owned as its parent.
                unsafe { self.drop_tree(HeapSlot::get(raw, i)) };
            }
            // SAFETY: exclusively owned per the caller's contract, its
            // children released just above.
            unsafe { crate::node::free(self, root) };
        }
    }

    fn memory_stats(&self, key_count: usize) -> MemoryStats {
        MemoryStats {
            node_bytes: self.mem.bytes(),
            node_count: self.mem.nodes(),
            aux_bytes: 0,
            key_count,
            capacity_bytes: self.mem.reserved_bytes(),
        }
    }
}

/// Where the nodes of a heap store live (DESIGN.md §3.7).
#[cfg(test)]
mod tests {
    use crate::node::heap::CHUNKED_LOAD_MIN_KEYS;
    use crate::node::{HeapSlot, NodeRef, Slot};
    use crate::sync::ConcurrentHot;
    use crate::BulkLoadError;
    use hot_keys::{encode_u64, EmbeddedKeySource};

    fn entries(n: usize) -> Vec<([u8; 8], u64)> {
        (0..n as u64).map(|i| i * 3).map(|k| (encode_u64(k), k)).collect()
    }

    /// The nodes reachable from the root, and how many of them lie in the
    /// store's chunks. Call on a quiesced index.
    fn placement(index: &ConcurrentHot<EmbeddedKeySource>) -> (usize, usize) {
        let (mut nodes, mut in_chunks) = (0, 0);
        let mut todo: Vec<NodeRef> = vec![index.load_root()];
        while let Some(r) = todo.pop() {
            if r.is_node() {
                let raw = r.as_raw();
                nodes += 1;
                in_chunks += usize::from(index.store().mem.holds(raw.base));
                todo.extend((0..raw.count()).map(|i| HeapSlot::get(raw, i)));
            }
        }
        (nodes, in_chunks)
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_large_bulk_load_carves_every_node_from_chunks() {
        let index = ConcurrentHot::new(EmbeddedKeySource);
        index.bulk_load(&entries(CHUNKED_LOAD_MIN_KEYS)).unwrap();
        let (nodes, in_chunks) = placement(&index);
        assert!(nodes > 0);
        assert_eq!(in_chunks, nodes, "every node of the loaded tree");
        let stats = index.memory_stats();
        assert_eq!(stats.node_count, nodes);
        assert!(stats.capacity_bytes >= stats.node_bytes);
        assert_eq!(stats.capacity_bytes, index.store().mem.reserved_bytes());
        assert_eq!(stats.footprint_bytes(), stats.capacity_bytes);

        // Every node the store will ever hold: the writes after the load
        // allocate from the chunks too, and free into them.
        for k in 0..20_000u64 {
            index.insert(&encode_u64(3 * k + 1), 3 * k + 1);
            index.remove(&encode_u64(3 * k));
        }
        assert!(crate::sync::quiesce());
        index.check_invariants();
        let (nodes, in_chunks) = placement(&index);
        assert_eq!(in_chunks, nodes, "every node after churn");
        assert_eq!(index.memory_stats().node_count, nodes);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn smaller_loads_insert_built_stores_and_refused_loads_stay_general() {
        let small = ConcurrentHot::new(EmbeddedKeySource);
        small.bulk_load(&entries(CHUNKED_LOAD_MIN_KEYS - 1)).unwrap();
        let (nodes, in_chunks) = placement(&small);
        assert!(nodes > 0 && in_chunks == 0, "one key below the constant");
        assert_eq!(small.memory_stats().capacity_bytes, 0);

        let by_insert = ConcurrentHot::new(EmbeddedKeySource);
        for (key, tid) in entries(CHUNKED_LOAD_MIN_KEYS) {
            by_insert.insert(&key, tid);
        }
        assert!(crate::sync::quiesce());
        let (nodes, in_chunks) = placement(&by_insert);
        assert!(nodes > 0 && in_chunks == 0, "the same size, built by inserts");

        // A large load into a store that already holds keys is refused and
        // leaves the store where it was.
        let held = ConcurrentHot::new(EmbeddedKeySource);
        for k in 0..100u64 {
            held.insert(&encode_u64(k), k);
        }
        assert_eq!(held.bulk_load(&entries(CHUNKED_LOAD_MIN_KEYS)), Err(BulkLoadError::NotEmpty));
        assert!(held.insert(&encode_u64(1_000), 1_000).is_none());
        let (nodes, in_chunks) = placement(&held);
        assert!(nodes > 0 && in_chunks == 0, "after a load that failed with NotEmpty");
        assert_eq!(held.memory_stats().capacity_bytes, 0);
    }

    /// The THP mode the kernel runs in, from
    /// `/sys/kernel/mm/transparent_hugepage/enabled` (the bracketed word).
    #[cfg(target_os = "linux")]
    fn thp_mode() -> Option<String> {
        let text = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
        let start = text.find('[')? + 1;
        let end = start + text[start..].find(']')?;
        Some(text[start..end].to_string())
    }

    /// Kilobytes of `AnonHugePages` over the mappings of `/proc/self/smaps`
    /// that overlap any of `ranges`.
    #[cfg(target_os = "linux")]
    fn anon_huge_kb(ranges: &[std::ops::Range<usize>]) -> usize {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("procfs");
        let (mut total, mut overlaps) = (0, false);
        for line in smaps.lines() {
            let first = line.split_whitespace().next().unwrap_or("");
            if let Some((lo, hi)) = first.split_once('-') {
                if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16)) {
                    overlaps = ranges.iter().any(|r| r.start < hi && lo < r.end);
                    continue;
                }
            }
            if let Some(kb) = line.strip_prefix("AnonHugePages:") {
                if overlaps {
                    total += kb.trim().trim_end_matches("kB").trim().parse::<usize>().expect("kB");
                }
            }
        }
        total
    }

    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore)]
    fn chunks_are_backed_by_huge_pages() {
        match thp_mode().as_deref() {
            Some("always" | "madvise") => {}
            mode => {
                eprintln!("skipped: transparent huge pages are {mode:?}, not `always` or `madvise`");
                return;
            }
        }
        let index = ConcurrentHot::new(EmbeddedKeySource);
        index.bulk_load(&entries(CHUNKED_LOAD_MIN_KEYS)).unwrap();
        let ranges = index.store().mem.chunk_ranges();
        assert!(ranges.len() >= 2, "{} chunks", ranges.len());
        // The last chunk may be touched only in part; every full one was
        // faulted in after the advice, in 2 MiB units.
        let huge = anon_huge_kb(&ranges);
        assert!(huge >= (ranges.len() - 1) * 2048, "{huge} kB of huge pages over {} chunks", ranges.len());
    }
}
