//! Heavy concurrent stress for the ROWEX-synchronized HOT: string keys
//! through a shared arena, mixed inserts/removes/lookups/scans, full
//! validation after quiesce, and equivalence with the single-threaded trie.
//! Every scenario runs on both ROWEX aliases — `ConcurrentHot` over the
//! shared key arena, then `ConcurrentCompact` with its keys inline.

use hot_bench::BenchData;
use hot_core::sync::{Concurrent, ConcurrentCompact, ConcurrentHot};
use hot_core::{Backend, HotTrie};
use hot_ycsb::{Dataset, DatasetKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn concurrent_url_load_equals_single_threaded() {
    let data = BenchData::new(Dataset::generate(DatasetKind::Url, 30_000, 21));
    url_load_equals_single_threaded(ConcurrentHot::new(Arc::clone(&data.arena)), &data);
    url_load_equals_single_threaded(ConcurrentCompact::new(), &data);
}

fn url_load_equals_single_threaded<B: Backend + Send>(concurrent: Concurrent<B>, data: &BenchData) {
    let n = data.dataset.keys.len();
    let concurrent = Arc::new(concurrent);
    let keys = Arc::new(data.dataset.keys.clone());
    let tids = Arc::new(data.tids.clone());

    std::thread::scope(|scope| {
        for t in 0..6 {
            let concurrent = Arc::clone(&concurrent);
            let keys = Arc::clone(&keys);
            let tids = Arc::clone(&tids);
            scope.spawn(move || {
                let mut i = t;
                while i < n {
                    concurrent.insert(&keys[i], tids[i]);
                    i += 6;
                }
            });
        }
    });
    assert_eq!(concurrent.len(), n);
    concurrent.check_invariants();

    let mut single = HotTrie::new(Arc::clone(&data.arena));
    for i in 0..n {
        single.insert(&data.dataset.keys[i], data.tids[i]);
    }
    // Determinism across synchronization modes: same final structure.
    assert_eq!(concurrent.structure_digest(), single.structure_digest());
    // The node counter includes retired nodes until their free has run.
    assert!(hot_core::sync::quiesce());
    assert_eq!(
        concurrent.memory_stats().node_count,
        single.memory_stats().node_count
    );
    // Same contents in the same order.
    let concurrent_all = concurrent.scan(&[], n + 1);
    assert_eq!(concurrent_all, single.iter().collect::<Vec<_>>());
}

#[test]
fn mixed_operations_with_wait_free_readers() {
    let data = BenchData::new(Dataset::generate(DatasetKind::Email, 20_000, 23));
    mixed_operations(ConcurrentHot::new(Arc::clone(&data.arena)), &data);
    mixed_operations(ConcurrentCompact::new(), &data);
}

fn mixed_operations<B: Backend + Send>(trie: Concurrent<B>, data: &BenchData) {
    let n = data.dataset.keys.len();
    let trie = Arc::new(trie);
    let keys = Arc::new(data.dataset.keys.clone());
    let tids = Arc::new(data.tids.clone());

    // A permanent backbone (first quarter) that writers never touch.
    let backbone = n / 4;
    for i in 0..backbone {
        trie.insert(&keys[i], tids[i]);
    }
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Churning writers over the other three quarters.
        for t in 0..3u64 {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let tids = Arc::clone(&tids);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut x = 0xABCD_EF01u64 ^ t;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = backbone + (x as usize % (n - backbone));
                    if x.is_multiple_of(3) {
                        trie.remove(&keys[i]);
                    } else {
                        trie.insert(&keys[i], tids[i]);
                    }
                }
            });
        }
        // Readers: backbone always visible; scans always sorted.
        for t in 0..2u64 {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let tids = Arc::clone(&tids);
            let stop = Arc::clone(&stop);
            let arena = Arc::clone(&data.arena);
            scope.spawn(move || {
                let mut x = 0x1357_9BDFu64 ^ t;
                let mut scratch = [0u8; hot_keys::KEY_SCRATCH_LEN];
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = x as usize % backbone;
                    assert_eq!(trie.get(&keys[i]), Some(tids[i]), "backbone lost");
                    if x.is_multiple_of(7) {
                        let window = trie.scan(&keys[i], 20);
                        // Sorted by key (resolve via the arena).
                        use hot_keys::KeySource;
                        let mut prev: Option<Vec<u8>> = None;
                        for tid in window {
                            let k = arena.load_key(tid, &mut scratch).to_vec();
                            if let Some(p) = &prev {
                                assert!(*p < k, "scan out of order");
                            }
                            prev = Some(k);
                        }
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });

    trie.check_invariants();
    for i in 0..backbone {
        assert_eq!(trie.get(&keys[i]), Some(tids[i]));
    }
}

#[test]
fn batched_readers_with_concurrent_writers() {
    // The batched descent holds one epoch pin across a whole group and may
    // observe torn slots mid-update; every lane must still resolve to
    // either the key's correct TID or None — never a wrong TID.
    let data = BenchData::new(Dataset::generate(DatasetKind::Email, 20_000, 31));
    batched_readers(ConcurrentHot::new(Arc::clone(&data.arena)), &data);
    batched_readers(ConcurrentCompact::new(), &data);
}

fn batched_readers<B: Backend + Send>(trie: Concurrent<B>, data: &BenchData) {
    let n = data.dataset.keys.len();
    let trie = Arc::new(trie);
    let keys = Arc::new(data.dataset.keys.clone());
    let tids = Arc::new(data.tids.clone());

    // Stable backbone (first half); writers churn the second half.
    let backbone = n / 2;
    for i in 0..backbone {
        trie.insert(&keys[i], tids[i]);
    }
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let tids = Arc::clone(&tids);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut x = 0x2468_ACE0u64 ^ t;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = backbone + (x as usize % (n - backbone));
                    if x.is_multiple_of(3) {
                        trie.remove(&keys[i]);
                    } else {
                        trie.insert(&keys[i], tids[i]);
                    }
                }
            });
        }
        // Batched readers: groups mix stable and churning keys.
        for t in 0..2u64 {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let tids = Arc::clone(&tids);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut x = 0xFDB9_7531u64 ^ t;
                let mut idxs = [0usize; 16];
                let mut out = [None; 16];
                while !stop.load(Ordering::Relaxed) {
                    for slot in idxs.iter_mut() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        *slot = x as usize % n;
                    }
                    let probe: Vec<&[u8]> = idxs.iter().map(|&i| keys[i].as_slice()).collect();
                    trie.get_batch(&probe, &mut out);
                    for (&i, &got) in idxs.iter().zip(&out) {
                        if i < backbone {
                            assert_eq!(got, Some(tids[i]), "stable key lost in batch");
                        } else {
                            assert!(
                                got.is_none() || got == Some(tids[i]),
                                "batched lookup returned a foreign TID"
                            );
                        }
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });

    trie.check_invariants();
    // Quiesced: batched and scalar agree on every key.
    let probe: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let mut out = vec![None; n];
    trie.get_batch(&probe, &mut out);
    for (k, &got) in probe.iter().zip(&out) {
        assert_eq!(got, trie.get(k));
    }
}

#[test]
fn concurrent_removes_to_empty() {
    let data = BenchData::new(Dataset::generate(DatasetKind::Integer, 10_000, 29));
    removes_to_empty(ConcurrentHot::new(Arc::clone(&data.arena)), &data);
    removes_to_empty(ConcurrentCompact::new(), &data);
}

fn removes_to_empty<B: Backend + Send>(trie: Concurrent<B>, data: &BenchData) {
    let n = data.dataset.keys.len();
    let trie = Arc::new(trie);
    for i in 0..n {
        trie.insert(&data.dataset.keys[i], data.tids[i]);
    }
    let keys = Arc::new(data.dataset.keys.clone());
    std::thread::scope(|scope| {
        for t in 0..4 {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            scope.spawn(move || {
                let mut removed = 0;
                let mut i = t;
                while i < n {
                    if trie.remove(&keys[i]).is_some() {
                        removed += 1;
                    }
                    i += 4;
                }
                removed
            });
        }
    });
    assert_eq!(trie.len(), 0);
    assert!(trie.is_empty());
    for i in (0..n).step_by(53) {
        assert_eq!(trie.get(&data.dataset.keys[i]), None);
    }
    // Every node went back through the epoch, from whichever thread.
    assert!(hot_core::sync::quiesce());
    assert_eq!(trie.memory_stats().node_count, 0);
}
