//! Where heap nodes live (DESIGN.md §3.7).
//!
//! epoch-exempt: the heap hands blocks out and takes them back; that no
//! reader still holds a block it is given back is established a layer
//! above, in `sync.rs`.
//!
//! Copy-on-write makes node allocation and free the hottest allocator
//! traffic in the system, always in 32-byte-granular sizes between 64 and
//! 480 bytes. Two allocators serve it, chosen per store:
//!
//! * the **general** one — a small per-thread free list per size class in
//!   front of the global allocator. It keeps the global allocator off the
//!   hot path and, more importantly, hands back recently freed, cache-warm
//!   blocks. Every store starts here, and nearly every store stays.
//! * the store's own **chunks** — [`HUGE_PAGE_BYTES`] blocks, aligned to
//!   their size and advised onto transparent huge pages, carved into exact
//!   32-byte size classes with a free list per class, behind the store's
//!   mutex, and released when the store drops. An empty store that a bulk
//!   load of at least [`CHUNKED_LOAD_MIN_KEYS`] keys fills switches to them
//!   before the build, for good ([`MemCounter::prepare_load`]).
//!
//! A block goes back to the allocator it came from, decided by its address
//! — the store's chunk table — and not by the store's mode: a chunk block
//! never reaches `dealloc` or a per-thread list, and a general block that a
//! writer took while the store switched still reaches them.

use std::alloc::{alloc, alloc_zeroed, dealloc, Layout};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use hot_bits::HUGE_PAGE_BYTES;

use super::NODE_ALIGN;

/// The smallest bulk load whose store carves its nodes from chunks.
///
/// At 2¹⁹ keys the value words alone take 4 MiB: half to two thirds of the
/// 6–8 MiB that a 1.5–2 K-entry second-level TLB covers at 4 KiB pages,
/// before a lookup has touched a single tuple. And the last chunk's unused
/// tail, at most 2 MiB per store, is then at most 4 B/key.
pub(crate) const CHUNKED_LOAD_MIN_KEYS: usize = 1 << 19;

const SIZE_CLASS: usize = NODE_ALIGN; // 32-byte granularity
const NUM_CLASSES: usize = 48; // up to 1536-byte nodes
const PER_CLASS_CAP: usize = 64;
const CHUNK_BYTES: usize = HUGE_PAGE_BYTES;

// ---- the general allocator ----------------------------------------------------

struct FreeLists {
    classes: [Vec<*mut u8>; NUM_CLASSES],
}

impl FreeLists {
    fn new() -> FreeLists {
        FreeLists {
            classes: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl Drop for FreeLists {
    fn drop(&mut self) {
        for (class, list) in self.classes.iter_mut().enumerate() {
            let size = class * SIZE_CLASS;
            for &ptr in list.iter() {
                // SAFETY: every cached block was allocated with exactly this
                // (size, align) layout and is owned by the list.
                unsafe {
                    dealloc(
                        ptr,
                        Layout::from_size_align(size, NODE_ALIGN).expect("cached layout"),
                    )
                };
            }
            list.clear();
        }
    }
}

thread_local! {
    static FREE_LISTS: RefCell<FreeLists> = RefCell::new(FreeLists::new());
}

/// Allocate a node-sized block (multiple of 32, 32-aligned) with the first
/// header word zeroed.
fn alloc_block(size: usize) -> *mut u8 {
    let class = size / SIZE_CLASS;
    if class < NUM_CLASSES {
        // try_with: thread-local storage may already be torn down when
        // epoch-deferred work runs during thread exit.
        if let Some(ptr) =
            FREE_LISTS.try_with(|fl| fl.borrow_mut().classes[class].pop()).ok().flatten()
        {
            // Recycled blocks contain stale bytes; the header (lock word,
            // height, count) must start clean — everything else is fully
            // overwritten by `fill` or masked off by the used-entry count.
            // SAFETY: block is `size` bytes, 8-aligned.
            unsafe { *(ptr as *mut u64) = 0 };
            return ptr;
        }
    }
    let layout = Layout::from_size_align(size, NODE_ALIGN).expect("node layout");
    // SAFETY: non-zero size.
    let ptr = unsafe { alloc_zeroed(layout) };
    assert!(!ptr.is_null(), "node allocation failed");
    ptr
}

/// Return a node-sized block to the per-thread cache (or the allocator).
///
/// # Safety
/// `ptr` must come from [`alloc_block`] with the same `size` and must not be
/// referenced anymore.
unsafe fn free_block(ptr: *mut u8, size: usize) {
    let class = size / SIZE_CLASS;
    if class < NUM_CLASSES {
        // try_with: see alloc_block — deferred frees may run at thread exit.
        let cached = FREE_LISTS
            .try_with(|fl| {
                let mut fl = fl.borrow_mut();
                if fl.classes[class].len() < PER_CLASS_CAP {
                    fl.classes[class].push(ptr);
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false);
        if cached {
            return;
        }
    }
    // SAFETY: caller guarantees `ptr`/`size` match the original
    // `alloc_block` call, which used this same layout computation.
    unsafe {
        dealloc(ptr, Layout::from_size_align(size, NODE_ALIGN).expect("node layout"));
    }
}

// ---- a store's chunks ----------------------------------------------------------

/// A store's chunks and the blocks carved from them.
#[derive(Debug)]
struct Chunks {
    /// Every chunk's base, ascending.
    bases: Vec<*mut u8>,
    /// The chunk being carved, and the bytes of it carved so far.
    carving: *mut u8,
    carved: usize,
    /// Given-back blocks, per size class.
    free: [Vec<*mut u8>; NUM_CLASSES],
}

// SAFETY: every pointer names memory the table owns: `bases` the chunks,
// `carving` one of them, `free` given-back blocks inside them that no node
// references. That is plain heap memory, tied to no thread, so the table
// may move to (and be dropped on) any thread.
unsafe impl Send for Chunks {}

impl Default for Chunks {
    fn default() -> Chunks {
        Chunks {
            bases: Vec::new(),
            carving: std::ptr::null_mut(),
            carved: CHUNK_BYTES,
            free: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl Chunks {
    fn layout() -> Layout {
        Layout::from_size_align(CHUNK_BYTES, CHUNK_BYTES).expect("chunk layout")
    }

    /// A `size`-byte block: a given-back one with its first header word
    /// zeroed, or a zeroed one carved from the current chunk.
    fn alloc(&mut self, size: usize) -> *mut u8 {
        let class = size / SIZE_CLASS;
        if let Some(ptr) = self.free[class].pop() {
            // SAFETY: a given-back block of this class — `size` bytes,
            // 32-aligned, referenced by no one.
            unsafe { *(ptr as *mut u64) = 0 };
            return ptr;
        }
        if CHUNK_BYTES - self.carved < size {
            self.carving = self.grow();
            self.carved = 0;
        }
        // Fresh blocks start zeroed, as the general allocator's do.
        // SAFETY: `carved + size <= CHUNK_BYTES`, so the block lies inside
        // the chunk, past every block carved and handed out before it.
        let ptr = unsafe {
            let ptr = self.carving.add(self.carved);
            ptr.write_bytes(0, size);
            ptr
        };
        self.carved += size;
        ptr
    }

    /// One more chunk, advised onto huge pages before its first touch.
    fn grow(&mut self) -> *mut u8 {
        let layout = Self::layout();
        // SAFETY: non-zero size.
        let base = unsafe { alloc(layout) };
        if base.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // Advice only: refused, the chunk stays on 4 KiB pages.
        let _ = hot_bits::advise_huge_pages(base, CHUNK_BYTES);
        let at = self.bases.partition_point(|&b| b < base);
        self.bases.insert(at, base);
        base
    }

    /// Does `ptr` lie in one of the chunks?
    fn holds(&self, ptr: *const u8) -> bool {
        let at = self.bases.partition_point(|&b| b.cast_const() <= ptr);
        at > 0 && ptr.addr() - self.bases[at - 1].addr() < CHUNK_BYTES
    }

    /// Take `ptr` back onto its class's free list if it is a chunk block.
    fn give_back(&mut self, ptr: *mut u8, size: usize) -> bool {
        let ours = self.holds(ptr);
        if ours {
            self.free[size / SIZE_CLASS].push(ptr);
        }
        ours
    }
}

impl Drop for Chunks {
    fn drop(&mut self) {
        for &base in &self.bases {
            // SAFETY: allocated by `grow` with this layout. The table goes
            // with its store, and every block carved from it with the store.
            unsafe { dealloc(base, Self::layout()) };
        }
    }
}

// ---- the heap of one store -----------------------------------------------------

/// A store's node heap — the allocator its nodes come from — and its
/// allocation accounting (Figure 9's "custom code to compute the memory
/// consumption").
#[derive(Debug, Default)]
pub(crate) struct MemCounter {
    bytes: AtomicUsize,
    nodes: AtomicUsize,
    /// The store's chunks, once a large enough bulk load started them.
    chunks: OnceLock<Mutex<Chunks>>,
}

fn lock(chunks: &Mutex<Chunks>) -> MutexGuard<'_, Chunks> {
    chunks.lock().expect("node heap poisoned")
}

impl MemCounter {
    /// Current live node bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Current live node count.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Bytes of chunk memory the heap holds, the unused tail of the last
    /// chunk included: 0 on the general allocator.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.chunks.get().map_or(0, |chunks| lock(chunks).bases.len() * CHUNK_BYTES)
    }

    /// A bulk load of `keys` keys is about to build into this heap. From
    /// [`CHUNKED_LOAD_MIN_KEYS`] keys on, a heap that holds no node carves
    /// every block it will ever hand out from chunks. Returns whether the
    /// heap is on chunks.
    pub(crate) fn prepare_load(&self, keys: usize) -> bool {
        if keys >= CHUNKED_LOAD_MIN_KEYS && self.nodes() == 0 {
            self.chunks.get_or_init(Mutex::default);
        }
        self.chunks.get().is_some()
    }

    /// A node-sized block (a multiple of 32 bytes, 32-aligned) with the
    /// first header word zeroed.
    pub(crate) fn alloc(&self, size: usize) -> *mut u8 {
        debug_assert!(size.is_multiple_of(SIZE_CLASS) && size / SIZE_CLASS < NUM_CLASSES);
        let ptr = match self.chunks.get() {
            Some(chunks) => lock(chunks).alloc(size),
            None => alloc_block(size),
        };
        self.on_alloc(size);
        ptr
    }

    /// Give a block back to the allocator it came from.
    ///
    /// # Safety
    /// `ptr` must come from [`alloc`](Self::alloc) on this heap with the
    /// same `size`, and must not be referenced any more.
    pub(crate) unsafe fn free(&self, ptr: *mut u8, size: usize) {
        if !self.chunks.get().is_some_and(|chunks| lock(chunks).give_back(ptr, size)) {
            // SAFETY: not a chunk block, so one of `alloc_block`'s, of this
            // size, unreferenced — the caller's contract.
            unsafe { free_block(ptr, size) };
        }
        // Last: a heap whose count reads zero may be dropped.
        self.on_free(size);
    }

    fn on_alloc(&self, size: usize) {
        self.bytes.fetch_add(size, Ordering::Relaxed);
        self.nodes.fetch_add(1, Ordering::Relaxed);
    }

    fn on_free(&self, size: usize) {
        self.bytes.fetch_sub(size, Ordering::Relaxed);
        self.nodes.fetch_sub(1, Ordering::Relaxed);
    }

    /// Does `ptr` lie in one of this heap's chunks?
    #[cfg(test)]
    pub(crate) fn holds(&self, ptr: *const u8) -> bool {
        self.chunks.get().is_some_and(|chunks| lock(chunks).holds(ptr))
    }

    /// Every chunk's address range.
    #[cfg(test)]
    pub(crate) fn chunk_ranges(&self) -> Vec<std::ops::Range<usize>> {
        self.chunks.get().map_or(Vec::new(), |chunks| {
            lock(chunks).bases.iter().map(|b| b.addr()..b.addr() + CHUNK_BYTES).collect()
        })
    }
}

/// The node heap on its own, small enough for Miri: blocks only, no trie.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicPtr;

    /// A heap that a ≥ [`CHUNKED_LOAD_MIN_KEYS`]-key bulk load has started.
    fn chunked() -> MemCounter {
        let heap = MemCounter::default();
        heap.prepare_load(CHUNKED_LOAD_MIN_KEYS);
        heap
    }

    /// Give `block` back to `heap`.
    fn free(heap: &MemCounter, block: *mut u8, size: usize) {
        // SAFETY: every test allocates `block` on `heap` with `size` bytes,
        // gives it back once, and touches it no more until it is handed
        // out again.
        unsafe { heap.free(block, size) }
    }

    #[test]
    fn only_a_large_load_on_an_empty_heap_starts_chunks() {
        let heap = MemCounter::default();
        heap.prepare_load(CHUNKED_LOAD_MIN_KEYS - 1);
        let general = heap.alloc(64);
        assert!(!heap.holds(general) && heap.reserved_bytes() == 0);
        heap.prepare_load(CHUNKED_LOAD_MIN_KEYS);
        assert!(heap.chunks.get().is_none(), "a heap that holds a node stays general");
        free(&heap, general, 64);

        let heap = chunked();
        assert_eq!(heap.reserved_bytes(), 0, "the first chunk comes with the first node");
        let block = heap.alloc(64);
        assert!(heap.holds(block) && heap.reserved_bytes() == CHUNK_BYTES);
        assert_eq!(block.addr() % NODE_ALIGN, 0);
        free(&heap, block, 64);
        assert_eq!((heap.nodes(), heap.bytes()), (0, 0));
    }

    #[test]
    fn classes_are_exact_and_given_back_blocks_are_reused() {
        let heap = chunked();
        let sizes = [64, 96, 480, 64, 320];
        let blocks: Vec<*mut u8> = sizes.iter().map(|&s| heap.alloc(s)).collect();
        // Carved back to back, each exactly its size.
        for (w, s) in blocks.windows(2).zip(sizes) {
            assert_eq!(w[1].addr() - w[0].addr(), s);
        }
        assert_eq!(heap.bytes(), sizes.iter().sum::<usize>());
        for (&b, &s) in blocks.iter().zip(&sizes) {
            // Scribble on the block before it is given back, to see the
            // header cleared on reuse.
            // SAFETY: a live block of `s` bytes, held by this test alone.
            unsafe { b.write_bytes(0xA5, s) };
            free(&heap, b, s);
        }
        // Same class, last given back first; another class is not a match.
        let again = heap.alloc(64);
        assert_eq!(again, blocks[3]);
        // SAFETY: a live block of 64 bytes.
        assert_eq!(unsafe { *(again as *const u64) }, 0, "header cleared");
        assert_eq!(heap.alloc(64), blocks[0]);
        assert_eq!(heap.alloc(128).addr(), blocks[4].addr() + 320, "no 128-byte block was given back");
        assert_eq!(heap.reserved_bytes(), CHUNK_BYTES);
    }

    #[test]
    fn a_full_chunk_is_followed_by_another() {
        let heap = chunked();
        let per_chunk = CHUNK_BYTES / 480;
        let blocks: Vec<*mut u8> = (0..per_chunk + 1).map(|_| heap.alloc(480)).collect();
        assert_eq!(heap.reserved_bytes(), 2 * CHUNK_BYTES);
        assert!(blocks.iter().all(|&b| heap.holds(b)));
        let ranges = heap.chunk_ranges();
        assert!(ranges.windows(2).all(|r| r[0].end <= r[1].start), "ascending, disjoint");
        assert!(ranges.iter().all(|r| r.start % CHUNK_BYTES == 0));
        for b in blocks {
            free(&heap, b, 480);
        }
        assert_eq!(heap.nodes(), 0);
    }

    #[test]
    fn blocks_freed_on_other_threads_come_back() {
        let heap = chunked();
        let blocks: Vec<AtomicPtr<u8>> = (0..64).map(|_| AtomicPtr::new(heap.alloc(96))).collect();
        std::thread::scope(|s| {
            for half in blocks.chunks(32) {
                let heap = &heap;
                s.spawn(move || {
                    for b in half {
                        free(heap, b.load(Ordering::Relaxed), 96);
                    }
                });
            }
        });
        assert_eq!(heap.nodes(), 0);
        let mut want: Vec<*mut u8> = blocks.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let mut got: Vec<*mut u8> = (0..64).map(|_| heap.alloc(96)).collect();
        want.sort();
        got.sort();
        assert_eq!(got, want, "every block given back on a worker is handed out again");
        assert_eq!(heap.reserved_bytes(), CHUNK_BYTES);
        for b in got {
            free(&heap, b, 96);
        }
    }

    #[test]
    fn a_general_block_freed_into_a_chunked_heap_goes_back_to_the_general_allocator() {
        let heap = MemCounter::default();
        // A writer that allocated while the heap switched: its block is
        // the general allocator's, the heap's chunks start after it.
        let general = heap.alloc(64);
        heap.chunks.get_or_init(Mutex::default);
        let chunk = heap.alloc(64);
        assert!(heap.holds(chunk) && !heap.holds(general));
        free(&heap, general, 64);
        free(&heap, chunk, 64);
        let given_back = lock(heap.chunks.get().expect("chunked")).free[64 / SIZE_CLASS].clone();
        assert_eq!(given_back, vec![chunk], "only the chunk block is on the chunk free list");
        assert_eq!((heap.nodes(), heap.bytes()), (0, 0));
    }

    /// The concurrent front-end's `Drop` keeps a chunked store alive until
    /// the frees that the epoch holds back have run into its chunks.
    #[test]
    fn a_drop_waits_for_the_deferred_frees() {
        use crate::sync::ConcurrentHot;
        use hot_keys::{encode_u64, EmbeddedKeySource};
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;

        let n = if cfg!(miri) { 200 } else { 5_000 };
        let index = ConcurrentHot::new(EmbeddedKeySource);
        index.store().mem.prepare_load(CHUNKED_LOAD_MIN_KEYS);
        for k in 0..n {
            index.insert(&encode_u64(k), k);
        }
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let dropped = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(move || {
                let guard = crossbeam_epoch::pin();
                pinned_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                drop(guard);
            });
            pinned_rx.recv().unwrap();
            // Every node these removes unlink waits on the reader's pin.
            for k in 0..n {
                assert_eq!(index.remove(&encode_u64(k)), Some(k));
            }
            let held = index.memory_stats();
            assert!(held.node_count > 0 && held.capacity_bytes > 0);
            let dropped = &dropped;
            let dropper = s.spawn(move || {
                drop(index);
                dropped.store(true, Ordering::Relaxed);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!dropped.load(Ordering::Relaxed), "dropped under a pin that holds its nodes");
            release_tx.send(()).unwrap();
            dropper.join().unwrap();
        });
        assert!(dropped.load(Ordering::Relaxed));
    }
}
