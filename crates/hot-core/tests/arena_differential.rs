//! Differential tests for the arena-backed compact layout: [`CompactHot`]
//! must be **structurally identical** to the heap [`HotTrie`] oracle —
//! equal `structure_digest`, equal get/iter/scan/remove result checksums —
//! on all four data sets of the paper's evaluation (url, email, yago,
//! integer), for incremental insert, bulk load, and interleaved removal.
//!
//! Also here: a proptest driving the front-coded leaf encoding across
//! prefix-boundary key sets (a stored key that is a strict prefix of its
//! neighbor is the hardest case for `[shared][suffix]` reconstruction),
//! and typed [`ArenaFull`] exhaustion of the 32-bit offset space under
//! artificially small arena ceilings.

#[macro_use]
mod common;

use common::{assert_backends_agree, fnv1a, opt};
use hot_core::{ArenaFull, ArenaKind, Backend, BulkLoadError, CompactHot, HotTrie, ScanCursor, Trie};
use hot_keys::ArenaKeySource;
use hot_ycsb::{Dataset, DatasetKind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Insert `keys → tids` into the (empty) `trie` in the given order; also
/// returns the checksum of what the inserts answered.
fn filled<B: Backend>(mut trie: Trie<B>, keys: &[Vec<u8>], tids: &[u64]) -> (Trie<B>, u64) {
    let answers: Vec<u64> = keys.iter().zip(tids).map(|(k, &tid)| opt(trie.insert(k, tid))).collect();
    (trie, fnv1a(answers))
}

fn run_dataset(kind: DatasetKind) {
    let data = Dataset::generate(kind, 6_000, 0xA2E7_0008);
    let label = kind.label();
    let mut arena = ArenaKeySource::new();
    let tids: Vec<u64> = data.keys.iter().map(|k| arena.push(k)).collect();
    let arena = Arc::new(arena);
    let (mut heap, heap_answers) = filled(HotTrie::new(Arc::clone(&arena)), &data.keys, &tids);
    let (mut compact, compact_answers) = filled(CompactHot::new(), &data.keys, &tids);
    assert_eq!(heap_answers, compact_answers, "{label}: insert checksum");
    assert_backends_agree(&heap, &compact, &data.keys, label);

    // Bulk load must reproduce the incremental structure bit-for-bit.
    let order = data.sorted_order();
    let sorted: Vec<(&[u8], u64)> = order
        .iter()
        .map(|&i| (data.keys[i].as_slice(), tids[i]))
        .collect();
    let mut bulk = CompactHot::new();
    assert_eq!(bulk.bulk_load(&sorted).expect("bulk load"), data.keys.len());
    assert_eq!(
        bulk.structure_digest(),
        compact.structure_digest(),
        "{label}: bulk vs incremental digest"
    );
    let mut heap_bulk = HotTrie::new(Arc::clone(&arena));
    assert_eq!(heap_bulk.bulk_load(&sorted).expect("bulk load"), data.keys.len());
    assert_backends_agree(&heap_bulk, &bulk, &data.keys, &format!("{label}/bulk"));

    // Remove ~half (every other key in insert order) from both backends;
    // returned TIDs and the surviving structure must stay in lockstep.
    let mut removed = Vec::new();
    for (i, k) in data.keys.iter().enumerate() {
        if i % 2 == 0 {
            removed.push((opt(heap.remove(k)), opt(compact.remove(k))));
        }
    }
    let (h, c): (Vec<u64>, Vec<u64>) = removed.into_iter().unzip();
    assert_eq!(fnv1a(h), fnv1a(c), "{label}: remove checksum");
    let survivors: Vec<Vec<u8>> = data
        .keys
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, k)| k.clone())
        .collect();
    assert_backends_agree(&heap, &compact, &survivors, &format!("{label}/after-remove"));
}

#[test]
fn url_backends_agree() {
    run_dataset(DatasetKind::Url);
}

#[test]
fn email_backends_agree() {
    run_dataset(DatasetKind::Email);
}

#[test]
fn yago_backends_agree() {
    run_dataset(DatasetKind::Yago);
}

#[test]
fn integer_backends_agree() {
    run_dataset(DatasetKind::Integer);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Front-coding round-trip at prefix boundaries: tiny-alphabet words
    /// give maximal shared prefixes and many stored-key/extension pairs.
    /// The compact backend must agree with a `BTreeMap` model (and the
    /// heap oracle's digest) through interleaved inserts, upserts and
    /// removes.
    #[test]
    fn prefix_boundary_front_coding(
        words in proptest::collection::vec("[a-b]{1,20}", 1..120),
        removes in proptest::collection::vec(0usize..120, 0..40),
    ) {
        let stored: Vec<Vec<u8>> =
            words.iter().map(|w| hot_keys::str_key(w.as_bytes()).unwrap()).collect();
        let mut arena = ArenaKeySource::new();
        let tids: Vec<u64> = stored.iter().map(|k| arena.push(k)).collect();
        let arena = Arc::new(arena);

        let mut heap = HotTrie::new(Arc::clone(&arena));
        let mut compact = CompactHot::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, &tid) in stored.iter().zip(&tids) {
            prop_assert_eq!(heap.insert(k, tid), compact.insert(k, tid));
            model.insert(k.clone(), tid);
        }
        for &r in &removes {
            let k = &stored[r % stored.len()];
            prop_assert_eq!(heap.remove(k), compact.remove(k));
            model.remove(k);
        }
        prop_assert_eq!(heap.structure_digest(), compact.structure_digest());
        prop_assert_eq!(compact.len(), model.len());
        for (k, &tid) in &model {
            prop_assert_eq!(compact.get(k), Some(tid));
        }
        let in_order: Vec<u64> = compact.iter().collect();
        let want: Vec<u64> = model.values().copied().collect();
        prop_assert_eq!(in_order, want);
        compact.check_invariants();
    }
}

/// 32-bit offset exhaustion surfaces as a typed [`ArenaFull`] carrying the
/// exhausted arena and its ceiling, and the failed mutation rolls back.
#[test]
fn exhaustion_is_typed_and_recoverable() {
    const SLAB: usize = 1 << 20;
    let mut trie = CompactHot::with_capacity(SLAB, usize::MAX);
    let mut n = 0u64;
    let err: ArenaFull = loop {
        match trie.try_insert(format!("k{n:08}").as_bytes(), n) {
            Ok(_) => n += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(err.kind, ArenaKind::Node);
    assert_eq!(err.capacity, SLAB);
    assert!(err.requested > 0);
    assert!(!err.to_string().is_empty());
    assert_eq!(trie.len(), n as usize);
    trie.check_invariants();

    let mut leaf_bound = CompactHot::with_capacity(usize::MAX, SLAB);
    let mut m = 0u64;
    let err = loop {
        let key = format!("{:032x}/{}", m.wrapping_mul(0x9E37_79B9_7F4A_7C15), "y".repeat(160));
        match leaf_bound.try_insert(key.as_bytes(), m) {
            Ok(_) => m += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(err.kind, ArenaKind::Leaf);
    assert_eq!(leaf_bound.len(), m as usize);
    leaf_bound.check_invariants();
}

/// A bulk load that hits an arena ceiling mid-build — in the node arena
/// (the records are all appended, a node allocation fails) or in the leaf
/// arena (a record append fails, no node exists yet) — returns the typed
/// error, publishes nothing, gives every block it took back, and leaves an
/// index that works.
#[test]
fn bulk_load_exhaustion_is_typed_and_leaves_the_index_usable() {
    use hot_core::sync::ConcurrentCompact;
    const SLAB: usize = 1 << 20;

    let short: Vec<(Vec<u8>, u64)> =
        (0..400_000u64).map(|i| (format!("k{i:08}").into_bytes(), i)).collect();
    let long: Vec<(Vec<u8>, u64)> = (0..8_000u64)
        .map(|i| (format!("{i:08}/{}", "y".repeat(180)).into_bytes(), i))
        .collect();
    let cases = [
        (ArenaKind::Node, SLAB, usize::MAX, &short),
        (ArenaKind::Leaf, usize::MAX, SLAB, &long),
    ];
    for (kind, node_cap, leaf_cap, entries) in cases {
        let mut trie = CompactHot::with_capacity(node_cap, leaf_cap);
        let Err(BulkLoadError::ArenaFull(err)) = trie.bulk_load(entries) else {
            panic!("{kind:?}: bulk load over the ceiling must fail typed");
        };
        assert_eq!(err.kind, kind);
        assert_eq!(err.capacity, SLAB);
        assert!(trie.is_empty(), "{kind:?}: nothing published");
        trie.check_invariants();
        let stats = trie.arena_stats();
        assert_eq!((stats.node_live_count, stats.node_live_bytes), (0, 0), "{kind:?}: nodes freed");
        assert_eq!(stats.leaf_records, 0, "{kind:?}: records marked dead");
        assert_eq!(stats.leaf_dead_bytes, stats.leaf_tail_bytes, "{kind:?}: all appended bytes dead");
        // Still an index: the node arena recycles what the failed build
        // returned, and the leaf arena (whose bytes are never reused) has
        // the tail the failing record did not fit into.
        assert_eq!(trie.insert(b"z", 7), None);
        assert_eq!(trie.insert(b"y", 8), None);
        assert_eq!(trie.get(b"z"), Some(7));
        assert_eq!(trie.get(&entries[0].0), None);
        assert_eq!(trie.bulk_load(&entries[..10]), Err(BulkLoadError::NotEmpty));
        trie.check_invariants();

        let shared = ConcurrentCompact::with_capacity(node_cap, leaf_cap);
        assert_eq!(shared.bulk_load(entries), Err(BulkLoadError::ArenaFull(err)));
        assert!(shared.is_empty());
        shared.check_invariants();
        assert_eq!(shared.arena_stats().node_live_count, 0);
        assert_eq!(shared.insert(b"z", 7), None);
        assert_eq!(shared.get(b"z"), Some(7));
        shared.check_invariants();
    }
}

/// Concurrent wrapper: readers race a writer through inserts, upserts and
/// removes; every lookup must return either a value the key held at some
/// point or a miss while absent, and the quiesced end state must match the
/// single-threaded compact backend exactly.
#[test]
fn concurrent_compact_churn() {
    use hot_core::sync::ConcurrentCompact;
    use std::sync::atomic::{AtomicBool, Ordering};

    let index = Arc::new(ConcurrentCompact::new());
    let keys: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..4_000u64)
            .map(|i| format!("churn/{:06}", i.wrapping_mul(2654435761) % 1_000_000).into_bytes())
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for t in 0..3 {
        let index = Arc::clone(&index);
        let keys = Arc::clone(&keys);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut hits = 0u64;
            let mut out = Vec::new();
            let mut cursor = ScanCursor::new();
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for (i, k) in keys.iter().enumerate().skip(t).step_by(3) {
                    // TIDs are always the key's index (upserts rewrite
                    // the same value), so a hit must be exact.
                    if let Some(tid) = index.get(k) {
                        assert_eq!(tid as usize, i % 2_000, "reader {t} key {i}");
                        hits += 1;
                    }
                    if i % 97 == 0 {
                        index.scan_with(k, 5, &mut out, &mut cursor);
                        assert!(out.len() <= 5);
                    }
                }
                round += 1;
                if round > 10_000 {
                    break;
                }
            }
            hits
        }));
    }

    // Writer: two full passes of insert/upsert, one pass removing half.
    for pass in 0..2 {
        for (i, k) in keys.iter().enumerate() {
            index.insert(k, (i % 2_000) as u64);
            if pass == 1 && i % 2 == 0 {
                index.remove(k);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }

    // Quiesced: replay the same operations single-threaded and compare.
    let mut oracle = CompactHot::new();
    for pass in 0..2 {
        for (i, k) in keys.iter().enumerate() {
            oracle.insert(k, (i % 2_000) as u64);
            if pass == 1 && i % 2 == 0 {
                oracle.remove(k);
            }
        }
    }
    assert_eq!(index.len(), oracle.len());
    assert_eq!(index.structure_digest(), oracle.structure_digest());
    index.check_invariants();
}

/// Several writers: the mutex serializes them, so disjoint inserts and
/// removes from four threads leave exactly the surviving keys, counted.
#[test]
fn concurrent_compact_writers_are_serialized() {
    use hot_core::sync::ConcurrentCompact;

    let index = ConcurrentCompact::new();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let index = &index;
            scope.spawn(move || {
                for i in (t..8_000).step_by(4) {
                    assert_eq!(index.insert(format!("w/{i:05}").as_bytes(), i), None);
                    if i % 3 == 0 {
                        assert_eq!(index.remove(format!("w/{i:05}").as_bytes()), Some(i));
                    }
                }
            });
        }
    });
    assert_eq!(index.len(), 8_000 - 8_000usize.div_ceil(3));
    assert_eq!(index.check_invariants().leaves, index.len());
    assert_eq!(index.get(b"w/00001"), Some(1));
    assert_eq!(index.get(b"w/00003"), None);
}

