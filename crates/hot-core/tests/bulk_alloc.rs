//! The bulk loader's allocations, counted: a load onto chunks makes a
//! number of heap allocations that depends on its thread count, not on how
//! many nodes it builds (DESIGN.md §11.3). The nodes themselves come from
//! the store's 2 MiB chunks, one allocation per chunk.
//!
//! The counter is process-wide, so this file holds one test: no other test
//! of the binary allocates while it counts.

use hot_core::sync::ConcurrentHot;
use hot_keys::{encode_u64, EmbeddedKeySource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations made by any thread of the process (reallocations and
/// zeroed allocations count: their default forms go through `alloc`).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter is a plain atomic,
// touched without allocating.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are `System`'s.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed on to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_load_onto_chunks_allocates_per_thread_not_per_node() {
    let entries: Vec<([u8; 8], u64)> = (0..1u64 << 19).map(|k| (encode_u64(3 * k), 3 * k)).collect();
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
