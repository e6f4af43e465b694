//! Allocations, counted. A load onto chunks makes a number of heap
//! allocations that depends on its thread count, not on how many nodes it
//! builds (DESIGN.md §11.3): the nodes themselves come from the store's
//! 2 MiB chunks, one allocation per chunk. And an index whose writes take
//! `&mut self` gives every byte back when it is dropped, even on a thread
//! that holds an epoch pin: it frees at once and never waits out the epoch.
//!
//! The allocation count is process-wide, so the tests of this file take
//! turns: no other test of the binary allocates while one counts.

use hot_core::sync::ConcurrentHot;
use hot_core::{CompactHot, HotTrie};
use hot_keys::{encode_u64, EmbeddedKeySource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};
use std::sync::Mutex;

/// Heap allocations made by any thread of the process (reallocations and
/// zeroed allocations count: their default forms go through `alloc` and
/// `dealloc`).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes the measured threads allocated minus the bytes they freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Set while a test measures: a thread whose first allocation falls in
/// that span (a worker of a load the test runs) is measured too.
static MEASURING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread's allocations are measured; fixed at its first
    /// allocation, so the test harness's own threads, which all allocate
    /// before any measurement starts, never are.
    static MEASURED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Add `bytes` to [`LIVE`] if this thread is measured.
fn account(bytes: isize) {
    let _ = MEASURED.try_with(|m| {
        let measured = m.get().unwrap_or_else(|| MEASURING.load(Ordering::Relaxed));
        m.set(Some(measured));
        if measured {
            LIVE.fetch_add(bytes, Ordering::Relaxed);
        }
    });
}

/// Held by each test while it counts.
static TURN: Mutex<()> = Mutex::new(());

/// The system allocator, counting.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter is a plain atomic,
// touched without allocating.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        account(layout.size() as isize);
        // SAFETY: the caller's `layout` obligations are `System`'s.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed on to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_load_onto_chunks_allocates_per_thread_not_per_node() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let entries: Vec<([u8; 8], u64)> = (0..1u64 << 19)
        .map(|k| (encode_u64(3 * k), 3 * k))
        .collect();
    let index = ConcurrentHot::new(EmbeddedKeySource);
    let before = ALLOCS.load(Ordering::Relaxed);
    index.bulk_load(&entries).unwrap();
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;

    let stats = index.memory_stats();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    assert!(stats.capacity_bytes > 0, "the load is on chunks");
    // The scan's buffer, the leaves, the shape's five arrays, a builder
    // and a thread per worker, the chunks and their table: tens. Seven
    // per node would be well over a hundred thousand.
    assert!(stats.node_count > 10_000, "{} nodes", stats.node_count);
    assert!(
        allocations <= 64 + 16 * threads,
        "{allocations} allocations for {} nodes on {threads} threads",
        stats.node_count
    );
}

/// Bytes the measured threads hold now.
fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Build an index with `make` (which must leave nothing of its own behind
/// on this thread or its workers) twice under an epoch pin of this thread,
/// dropping it each time: the first round fills the thread's parked
/// scratch (writer, scheduler, scan cursor), the second must end with
/// every byte it allocated given back. A ROWEX index has retired nodes
/// under the same pin first, so the epoch has frees of this thread pending
/// that cannot run before the pin ends: a drop that waited them out would
/// fail and keep its store.
fn dropped_under_a_pin_gives_every_byte_back<T>(what: &str, make: impl Fn() -> T) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    MEASURED.with(|m| m.set(Some(true)));
    MEASURING.store(true, Ordering::Relaxed);
    let pin = crossbeam_epoch::pin();
    let rowex = ConcurrentHot::new(EmbeddedKeySource);
    for k in 0..1_000u64 {
        rowex.insert(&encode_u64(k), k);
    }
    drop(make());
    let before = live();
    let index = make();
    assert!(
        live() - before > 1 << 20,
        "{what}: built on memory of its own"
    );
    drop(index);
    assert_eq!(live(), before, "{what}: bytes left behind by the drop");
    drop(pin);
    drop(rowex);
    MEASURING.store(false, Ordering::Relaxed);
    MEASURED.with(|m| m.set(Some(false)));
}

#[test]
fn an_exclusive_index_dropped_under_a_pin_gives_every_byte_back() {
    // A heap trie on 2 MiB chunks: a load of 2^19 keys puts it there, on
    // every core, and the writes after it take their nodes from the chunks
    // and free the replaced ones back to them.
    let entries: Vec<([u8; 8], u64)> = (0..1u64 << 19)
        .map(|k| (encode_u64(3 * k), 3 * k))
        .collect();
    dropped_under_a_pin_gives_every_byte_back("HotTrie on chunks", || {
        let mut trie = HotTrie::new(EmbeddedKeySource);
        trie.bulk_load(&entries).unwrap();
        assert!(
            trie.memory_stats().capacity_bytes > 0,
            "the load is on chunks"
        );
        for k in 0..1_000u64 {
            trie.insert(&encode_u64(3 * k + 1), 3 * k + 1);
            trie.remove(&encode_u64(3 * k));
        }
        trie
    });
    // A compact trie on its slab arenas, grown by inserts and shrunk by
    // removes.
    dropped_under_a_pin_gives_every_byte_back("CompactHot", || {
        let mut trie = CompactHot::new();
        for k in 0..100_000u64 {
            trie.insert(&encode_u64(k), k);
        }
        for k in (0..100_000u64).step_by(3) {
            trie.remove(&encode_u64(k));
        }
        trie
    });
}
