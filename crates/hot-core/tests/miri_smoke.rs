//! Undefined-behavior smoke test sized for `cargo miri test`.
//!
//! Miri interprets every load/store, so it is ~3-4 orders of magnitude
//! slower than native execution; under `cfg(miri)` the sizes shrink until
//! the test finishes in CI minutes while still crossing every unsafe
//! frontier at least once: raw node allocation/recycling, all nine
//! `NodeTag` layouts' mask/partial-key/value sections, the tagged-pointer
//! round trips, the fused insert's raw section copies on both stores (it
//! serves about nine in ten of the inserts below, into heap blocks and
//! arena slabs alike), copy-on-write splits, removal collapses, the batched
//! descent, the arena store's slab table and front-coded leaf records,
//! and the ROWEX protocol (locking, obsolete marking, epoch deferral)
//! under real threads.
//!
//! Run with the SIMD/BMI2 paths forced off — Miri has no PEXT/SSE
//! shims — exactly like the scalar-fallback CI job:
//!
//! ```text
//! HOT_FORCE_SCALAR=1 cargo +nightly miri test -p hot-core --test miri_smoke
//! ```

use hot_core::sync::{Concurrent, ConcurrentCompact, ConcurrentHot};
use hot_core::{Backend, CompactHot, HotTrie, Trie};
use hot_keys::{encode_u64, EmbeddedKeySource};
use std::sync::Arc;

/// Enough keys to grow past one node (> 32) and split repeatedly, small
/// enough for Miri; natively the test runs at 100x that.
const N: u64 = if cfg!(miri) { 160 } else { 16_000 };

/// Scrambled 63-bit value (TIDs lose bit 63 to the leaf tag); spreading
/// keys over the bit space makes several node layouts appear.
fn val(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left((i % 7) as u32 * 8)
        >> 1
}

/// The embedded-source key for [`val`]`(i)`.
fn key(i: u64) -> [u8; 8] {
    encode_u64(val(i))
}

/// Insert / get / scan / remove on `trie`, then a bulk load of the same
/// keys into the empty `bulk`, which must come out structurally identical.
fn lifecycle<B: Backend>(mut trie: Trie<B>, mut bulk: Trie<B>) {
    for i in 0..N {
        let k = val(i);
        assert_eq!(trie.insert(&key(i), k), None);
    }
    assert_eq!(trie.len(), N as usize);
    // Scalar and batched lookups agree.
    let keys: Vec<[u8; 8]> = (0..N).map(key).collect();
    let mut out = vec![None; keys.len()];
    trie.get_batch(&keys, &mut out);
    for (i, (k, got)) in keys.iter().zip(&out).enumerate() {
        let want = Some(val(i as u64));
        assert_eq!(trie.get(k), want);
        assert_eq!(*got, want);
    }
    // Ordered iteration, a scan from the middle, and the bottom-up build.
    let in_order: Vec<u64> = trie.iter().collect();
    assert_eq!(in_order.len(), N as usize);
    assert!(in_order.windows(2).all(|w| w[0] < w[1]));
    let mid = in_order.len() / 2;
    assert_eq!(
        trie.scan(&encode_u64(in_order[mid]), 7),
        &in_order[mid..mid + 7]
    );
    let sorted: Vec<([u8; 8], u64)> = in_order.iter().map(|&v| (encode_u64(v), v)).collect();
    assert_eq!(bulk.bulk_load(&sorted), Ok(N as usize));
    assert_eq!(bulk.structure_digest(), trie.structure_digest());
    bulk.check_invariants();
    // Removal of every other key (collapse paths).
    for i in (0..N).step_by(2) {
        let k = val(i);
        assert_eq!(trie.remove(&key(i)), Some(k));
    }
    assert_eq!(trie.len(), (N / 2) as usize);
    trie.check_invariants();
}

#[test]
fn single_threaded_lifecycle() {
    lifecycle(
        HotTrie::new(EmbeddedKeySource),
        HotTrie::new(EmbeddedKeySource),
    );
}

#[test]
fn single_threaded_lifecycle_compact() {
    lifecycle(CompactHot::new(), CompactHot::new());
}

/// Threads under Miri are genuinely interleaved (and checked by its
/// data-race detector), so this exercises locking, copy-on-write
/// publication and epoch-deferred frees for real — two writers at Miri's
/// size, four natively.
fn concurrent_lifecycle<B: Backend + Send + 'static>(trie: Concurrent<B>) {
    let trie = Arc::new(trie);
    let threads: u64 = if cfg!(miri) { 2 } else { 4 };
    let per = N / threads;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                for i in (t * per)..((t + 1) * per) {
                    let k = val(i);
                    trie.insert(&key(i), k);
                    assert_eq!(trie.get(&key(i)), Some(k));
                }
                for i in (t * per..(t + 1) * per).step_by(3) {
                    let k = val(i);
                    assert_eq!(trie.remove(&key(i)), Some(k));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let expect: u64 = per * threads - threads * per.div_ceil(3);
    assert_eq!(trie.len() as u64, expect);
    trie.check_invariants();
}

#[test]
fn concurrent_lifecycle_heap() {
    concurrent_lifecycle(ConcurrentHot::new(EmbeddedKeySource));
}

/// The arena's own synchronization under the same traffic: block recycling
/// through the free list, record appends, the slab table.
#[test]
fn concurrent_lifecycle_compact() {
    concurrent_lifecycle(ConcurrentCompact::new());
}
