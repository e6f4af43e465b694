//! Integration tests for the single-threaded HOT trie: all four insertion
//! cases, deletion, scans, structural invariants, and the paper's
//! qualitative claims at small scale.

use hot_core::HotTrie;
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn int_trie(keys: &[u64]) -> HotTrie<EmbeddedKeySource> {
    let mut t = HotTrie::new(EmbeddedKeySource);
    for &k in keys {
        t.insert(&encode_u64(k), k);
    }
    t
}

#[test]
fn empty_and_singleton() {
    let mut t = HotTrie::new(EmbeddedKeySource);
    assert!(t.is_empty());
    assert_eq!(t.get(&encode_u64(1)), None);
    assert_eq!(t.iter().count(), 0);
    assert_eq!(t.height(), 0);

    t.insert(&encode_u64(7), 7);
    assert_eq!(t.len(), 1);
    assert_eq!(t.get(&encode_u64(7)), Some(7));
    assert_eq!(t.get(&encode_u64(8)), None);
    assert_eq!(t.height(), 0, "single leaf root has no compound node");
    assert_eq!(t.iter().collect::<Vec<_>>(), vec![7]);
}

#[test]
fn two_keys_make_one_node() {
    let t = int_trie(&[5, 9]);
    assert_eq!(t.height(), 1);
    assert_eq!(t.get(&encode_u64(5)), Some(5));
    assert_eq!(t.get(&encode_u64(9)), Some(9));
    assert_eq!(t.get(&encode_u64(7)), None);
    assert_eq!(t.memory_stats().node_count, 1);
    t.validate();
}

#[test]
fn upsert_returns_previous_tid() {
    let mut arena = ArenaKeySource::new();
    let t1 = arena.push(b"key");
    let t2 = arena.push(b"key");
    let mut t = HotTrie::new(&arena);
    assert_eq!(t.insert(b"key", t1), None);
    assert_eq!(t.insert(b"key", t2), Some(t1));
    assert_eq!(t.len(), 1);
    assert_eq!(t.get(b"key"), Some(t2));
}

#[test]
fn fill_one_node_to_capacity_then_split() {
    // 32 keys fit one node; the 33rd forces the first split, creating a
    // new root (the only way the tree height grows).
    let keys: Vec<u64> = (0..33).collect();
    let mut t = HotTrie::new(EmbeddedKeySource);
    for &k in &keys[..32] {
        t.insert(&encode_u64(k), k);
    }
    assert_eq!(t.height(), 1);
    assert_eq!(t.memory_stats().node_count, 1);
    t.insert(&encode_u64(32), 32);
    assert_eq!(t.height(), 2);
    t.validate();
    for &k in &keys {
        assert_eq!(t.get(&encode_u64(k)), Some(k));
    }
}

#[test]
fn monotonic_inserts_dense_domain() {
    let keys: Vec<u64> = (0..10_000).collect();
    let t = int_trie(&keys);
    assert_eq!(t.len(), keys.len());
    t.validate();
    for &k in keys.iter().step_by(97) {
        assert_eq!(t.get(&encode_u64(k)), Some(k));
    }
    assert_eq!(t.get(&encode_u64(10_000)), None);
    // Dense 64-bit integers give near-optimal fanout: tree stays shallow.
    let depth = t.depth_stats();
    assert!(depth.max_depth().unwrap() <= 4, "depth {depth}");
    // Iteration yields sorted order.
    let iterated: Vec<u64> = t.iter().collect();
    assert_eq!(iterated, keys);
}

#[test]
fn random_64bit_integers() {
    let mut rng = StdRng::seed_from_u64(42);
    let keys: Vec<u64> = (0..20_000).map(|_| rng.gen::<u64>() >> 1).collect();
    let t = int_trie(&keys);
    t.validate();
    for &k in keys.iter().step_by(131) {
        assert_eq!(t.get(&encode_u64(k)), Some(k));
    }
    let mut sorted: Vec<u64> = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(t.len(), sorted.len());
    assert_eq!(t.iter().collect::<Vec<_>>(), sorted);
}

#[test]
fn string_keys_with_shared_prefixes() {
    let mut arena = ArenaKeySource::new();
    let mut keys = Vec::new();
    // Deliberately prefix-heavy: URLs-in-miniature.
    for host in ["alpha", "beta", "gamma"] {
        for path in 0..200 {
            let url = format!("https://www.{host}.example.com/page/{path:04}");
            keys.push(hot_keys::str_key(url.as_bytes()).unwrap());
        }
    }
    let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
    let mut t = HotTrie::new(&arena);
    for (k, &tid) in keys.iter().zip(&tids) {
        t.insert(k, tid);
    }
    t.validate();
    for (k, &tid) in keys.iter().zip(&tids) {
        assert_eq!(t.get(k), Some(tid));
    }
    assert_eq!(
        t.get(&hot_keys::str_key(b"https://www.delta.example.com/").unwrap()),
        None
    );
}

#[test]
fn range_scans_match_sorted_order() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut keys: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..1_000_000)).collect();
    keys.sort_unstable();
    keys.dedup();
    let t = int_trie(&keys);

    // The reused output buffer exercises the allocation-free `scan_into`
    // path that the allocating `scan` wrapper delegates to.
    let mut got = Vec::new();
    for _ in 0..200 {
        let start = rng.gen_range(0..1_000_100);
        let want: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| k >= start)
            .take(100)
            .collect();
        t.scan_into(&encode_u64(start), 100, &mut got);
        assert_eq!(got, want, "scan from {start}");
    }
    // Scan from before the smallest and past the largest key.
    assert_eq!(t.scan(&encode_u64(0), 5)[..], keys[..5.min(keys.len())]);
    assert!(t.scan(&encode_u64(u64::MAX >> 1), 5).is_empty());
}

#[test]
fn deletion_mirrors_insertion() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut keys: Vec<u64> = (0..4_000).map(|_| rng.gen::<u64>() >> 1).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut t = int_trie(&keys);

    let mut to_remove = keys.clone();
    to_remove.shuffle(&mut rng);
    let (removed, kept) = to_remove.split_at(keys.len() / 2);
    for &k in removed {
        assert_eq!(t.remove(&encode_u64(k)), Some(k));
        assert_eq!(t.remove(&encode_u64(k)), None, "double remove");
    }
    t.validate();
    assert_eq!(t.len(), kept.len());
    for &k in kept {
        assert_eq!(t.get(&encode_u64(k)), Some(k));
    }
    for &k in removed {
        assert_eq!(t.get(&encode_u64(k)), None);
    }
    // Remove the rest; the tree must return to empty with zero node bytes.
    for &k in kept {
        assert_eq!(t.remove(&encode_u64(k)), Some(k));
    }
    assert!(t.is_empty());
    assert_eq!(t.memory_stats().node_bytes, 0);
}

#[test]
fn determinism_conjecture_insertion_order_independence() {
    // Section 3.3: "any given set of keys results in the same structure,
    // regardless of the insertion order."
    let mut rng = StdRng::seed_from_u64(1234);
    let mut keys: Vec<u64> = (0..3_000).map(|_| rng.gen::<u64>() >> 1).collect();
    keys.sort_unstable();
    keys.dedup();

    let sorted = int_trie(&keys);
    let digest = sorted.structure_digest();

    for round in 0..3 {
        let mut shuffled = keys.clone();
        shuffled.shuffle(&mut rng);
        let t = int_trie(&shuffled);
        assert_eq!(
            t.structure_digest(),
            digest,
            "structure differs for insertion order {round}"
        );
    }
}

#[test]
fn k_constraint_and_height_invariants_hold_during_growth() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut t = HotTrie::new(EmbeddedKeySource);
    for i in 0..2_000u64 {
        let k = rng.gen::<u64>() >> 1;
        t.insert(&encode_u64(k), k);
        if i % 257 == 0 {
            t.validate();
        }
    }
    t.validate();
}

#[test]
fn memory_footprint_is_paper_scale() {
    // The paper reports 11.4–14.4 bytes/key across all data sets. At small
    // scale we allow a looser band but must stay in the same regime.
    let mut rng = StdRng::seed_from_u64(17);
    let keys: Vec<u64> = (0..100_000).map(|_| rng.gen::<u64>() >> 1).collect();
    let t = int_trie(&keys);
    let stats = t.memory_stats();
    let bpk = stats.bytes_per_key();
    assert!(
        bpk > 8.0 && bpk < 25.0,
        "bytes/key {bpk} outside the plausible HOT range"
    );
}

#[test]
fn mean_depth_beats_binary_patricia() {
    // Figure 11's shape: HOT's mean leaf depth is far below the binary
    // Patricia trie's for every distribution.
    let mut rng = StdRng::seed_from_u64(3);
    let keys: Vec<u64> = (0..50_000).map(|_| rng.gen::<u64>() >> 1).collect();
    let hot = int_trie(&keys);
    let mut bin = hot_patricia::PatriciaTree::new(EmbeddedKeySource);
    for &k in &keys {
        bin.insert(&encode_u64(k), k);
    }
    let hot_mean = hot.depth_stats().mean_depth();
    let bin_mean = bin.depth_stats().mean_depth();
    assert!(
        hot_mean * 3.0 < bin_mean,
        "HOT mean depth {hot_mean:.2} not well below Patricia {bin_mean:.2}"
    );
}

#[test]
fn discriminative_bits_match_patricia_reference() {
    // HOT partitions exactly the binary Patricia trie: the union of all
    // nodes' discriminative bit positions must equal Patricia's.
    let mut rng = StdRng::seed_from_u64(11);
    let keys: Vec<u64> = (0..512).map(|_| rng.gen::<u64>() >> 1).collect();
    let hot = int_trie(&keys);
    let mut bin = hot_patricia::PatriciaTree::new(EmbeddedKeySource);
    for &k in &keys {
        bin.insert(&encode_u64(k), k);
    }
    // Compare leaf orders (same keys, same order) as a structural proxy.
    assert_eq!(
        hot.iter().collect::<Vec<_>>(),
        bin.iter().collect::<Vec<_>>()
    );
}

#[test]
fn long_keys_up_to_the_limit() {
    let mut arena = ArenaKeySource::new();
    let mut keys = Vec::new();
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..300 {
        let len = rng.gen_range(1..=hot_keys::MAX_KEY_LEN - 1);
        let mut k: Vec<u8> = (0..len).map(|_| rng.gen_range(1..=255u8)).collect();
        k.push(0); // terminator keeps the set prefix-free
        keys.push(k);
    }
    keys.sort();
    keys.dedup();
    let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
    let mut t = HotTrie::new(&arena);
    for (k, &tid) in keys.iter().zip(&tids) {
        t.insert(k, tid);
    }
    t.validate();
    for (k, &tid) in keys.iter().zip(&tids) {
        assert_eq!(t.get(k), Some(tid));
    }
    // Iteration respects byte-lexicographic order even at max length.
    let iterated: Vec<u64> = t.iter().collect();
    assert_eq!(iterated, tids);
}

#[test]
fn sparse_genome_alphabet_keys() {
    // The paper calls out genome data (A, C, G, T) as an extreme sparse
    // distribution; HOT must still stay shallow.
    let mut arena = ArenaKeySource::new();
    let mut rng = StdRng::seed_from_u64(29);
    let alphabet = [b'A', b'C', b'G', b'T'];
    let mut keys: Vec<Vec<u8>> = (0..2_000)
        .map(|_| {
            let mut k: Vec<u8> = (0..20)
                .map(|_| alphabet[rng.gen_range(0..4usize)])
                .collect();
            k.push(0);
            k
        })
        .collect();
    keys.sort();
    keys.dedup();
    let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
    let mut t = HotTrie::new(&arena);
    for (k, &tid) in keys.iter().zip(&tids) {
        t.insert(k, tid);
    }
    t.validate();
    let depth = t.depth_stats();
    // log_32-ish depth for 2000 keys is ~2-3; binary Patricia would be ~11+.
    assert!(depth.mean_depth() < 4.0, "genome keys too deep: {depth}");
    for (k, &tid) in keys.iter().zip(&tids) {
        assert_eq!(t.get(k), Some(tid));
    }
}

#[test]
fn interleaved_insert_remove_stress() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut t = HotTrie::new(EmbeddedKeySource);
    let mut model = std::collections::BTreeMap::new();
    for _ in 0..30_000 {
        let k = rng.gen_range(0..3_000u64);
        if rng.gen_bool(0.6) {
            assert_eq!(t.insert(&encode_u64(k), k), model.insert(k, k));
        } else {
            assert_eq!(t.remove(&encode_u64(k)), model.remove(&k));
        }
    }
    assert_eq!(t.len(), model.len());
    t.validate();
    assert_eq!(
        t.iter().collect::<Vec<_>>(),
        model.values().copied().collect::<Vec<_>>()
    );
}
