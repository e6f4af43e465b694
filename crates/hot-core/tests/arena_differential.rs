//! Differential tests for the arena-backed compact layout: [`CompactHot`]
//! must be **structurally identical** to the heap [`HotTrie`] oracle —
//! equal `structure_digest`, equal get/iter/scan/remove result checksums —
//! on all four data sets of the paper's evaluation (url, email, yago,
//! integer), for incremental insert, bulk load, and interleaved removal;
//! and so must the two ROWEX aliases, [`ConcurrentHot`] and
//! [`ConcurrentCompact`], through the same generic pass.
//!
//! Also here: a proptest driving the front-coded leaf encoding across
//! prefix-boundary key sets (a stored key that is a strict prefix of its
//! neighbor is the hardest case for `[shared][suffix]` reconstruction), a
//! proptest over random integer sets (shuffled inserts into either store,
//! fused insert and builder path alike, against a bulk load of the same set
//! on that store), and typed [`ArenaFull`] exhaustion of the 32-bit offset
//! space under artificially small arena ceilings.

#[macro_use]
mod common;

use common::{assert_backends_agree, assert_fronts_agree, fnv1a, opt, Front};
use hot_core::sync::{ConcurrentCompact, ConcurrentHot};
use hot_core::{ArenaFull, ArenaKind, BulkLoadError, CompactHot, HotTrie};
use hot_keys::{ArenaKeySource, EmbeddedKeySource};
use hot_ycsb::{Dataset, DatasetKind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Insert `keys → tids` into the (empty) `front` in the given order; also
/// returns the checksum of what the inserts answered.
fn filled<F: Front>(mut front: F, keys: &[Vec<u8>], tids: &[u64]) -> (F, u64) {
    let answers: Vec<u64> = keys
        .iter()
        .zip(tids)
        .map(|(k, &tid)| opt(front.put(k, tid)))
        .collect();
    (front, fnv1a(answers))
}

/// Remove every other key (in insert order) from `front`; returns the
/// checksum of what the removes answered.
fn halved<F: Front>(front: &mut F, keys: &[Vec<u8>]) -> u64 {
    fnv1a(keys.iter().step_by(2).map(|k| opt(front.take(k))))
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
    // The two ROWEX aliases, driven from one thread: the same write path,
    // so the same answers and the same tree.
    let (mut sync, sync_answers) =
        filled(ConcurrentHot::new(Arc::clone(&arena)), &data.keys, &tids);
    let (mut csync, csync_answers) = filled(ConcurrentCompact::new(), &data.keys, &tids);
    assert_eq!(
        (sync_answers, csync_answers),
        (heap_answers, heap_answers),
        "{label}: concurrent insert checksums"
    );
    assert_fronts_agree(&heap, &sync, &data.keys, &format!("{label}/ConcurrentHot"));
    assert_fronts_agree(
        &heap,
        &csync,
        &data.keys,
        &format!("{label}/ConcurrentCompact"),
    );

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
    assert_eq!(
        heap_bulk.bulk_load(&sorted).expect("bulk load"),
        data.keys.len()
    );
    assert_backends_agree(&heap_bulk, &bulk, &data.keys, &format!("{label}/bulk"));

    // Remove ~half (every other key in insert order) from every front-end;
    // returned TIDs and the surviving structure must stay in lockstep.
    let h = halved(&mut heap, &data.keys);
    assert_eq!(
        halved(&mut compact, &data.keys),
        h,
        "{label}: remove checksum"
    );
    assert_eq!(
        halved(&mut sync, &data.keys),
        h,
        "{label}: ConcurrentHot remove checksum"
    );
    assert_eq!(
        halved(&mut csync, &data.keys),
        h,
        "{label}: ConcurrentCompact remove checksum"
    );
    let survivors: Vec<Vec<u8>> = data
        .keys
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, k)| k.clone())
        .collect();
    assert_backends_agree(
        &heap,
        &compact,
        &survivors,
        &format!("{label}/after-remove"),
    );
    assert_fronts_agree(
        &heap,
        &sync,
        &survivors,
        &format!("{label}/ConcurrentHot/after-remove"),
    );
    assert_fronts_agree(
        &heap,
        &csync,
        &survivors,
        &format!("{label}/ConcurrentCompact/after-remove"),
    );
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

    /// Random integer sets, inserted in a shuffled order into either store:
    /// both take the fused insert wherever a node's layout stays and the
    /// builder path elsewhere. Each must build the tree a bulk load of the
    /// same set builds on that store — the builder-path reference that the
    /// insertion-order determinism conjecture (DESIGN.md §3.3) pins — and
    /// so the same tree on both stores.
    #[test]
    fn random_integers_build_identical_trees(
        keys in proptest::collection::btree_set(0u64..1_000_000, 2..400),
        seed in any::<u64>(),
    ) {
        use rand::{seq::SliceRandom, SeedableRng};
        let sorted: Vec<([u8; 8], u64)> = keys.iter().map(|&k| (hot_keys::encode_u64(k), k)).collect();
        let mut shuffled = sorted.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let (mut heap, mut compact) = (HotTrie::new(EmbeddedKeySource), CompactHot::new());
        for (key, tid) in &shuffled {
            prop_assert_eq!(heap.insert(key, *tid), None);
            prop_assert_eq!(compact.insert(key, *tid), None);
        }
        let (mut heap_bulk, mut compact_bulk) = (HotTrie::new(EmbeddedKeySource), CompactHot::new());
        prop_assert_eq!(heap_bulk.bulk_load(&sorted), Ok(keys.len()));
        prop_assert_eq!(compact_bulk.bulk_load(&sorted), Ok(keys.len()));
        heap.validate();
        compact.check_invariants();
        prop_assert_eq!(heap.structure_digest(), heap_bulk.structure_digest());
        prop_assert_eq!(compact.structure_digest(), compact_bulk.structure_digest());
        prop_assert_eq!(heap.structure_digest(), compact.structure_digest());
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
        let key = format!(
            "{:032x}/{}",
            m.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            "y".repeat(160)
        );
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
    const SLAB: usize = 1 << 20;

    let short: Vec<(Vec<u8>, u64)> = (0..400_000u64)
        .map(|i| (format!("k{i:08}").into_bytes(), i))
        .collect();
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
        assert_eq!(
            (stats.node_live_count, stats.node_live_bytes),
            (0, 0),
            "{kind:?}: nodes freed"
        );
        assert_eq!(stats.leaf_records, 0, "{kind:?}: records marked dead");
        assert_eq!(
            stats.leaf_dead_bytes, stats.leaf_tail_bytes,
            "{kind:?}: all appended bytes dead"
        );
        // Still an index: the node arena recycles what the failed build
        // returned, and the leaf arena (whose bytes are never reused) has
        // the tail the failing record did not fit into.
        assert_eq!(trie.insert(b"z", 7), None);
        assert_eq!(trie.insert(b"y", 8), None);
        assert_eq!(trie.get(b"z"), Some(7));
        assert_eq!(trie.get(&entries[0].0), None);
        assert_eq!(trie.bulk_load(&entries[..10]), Err(BulkLoadError::NotEmpty));
        trie.check_invariants();
    }
}
