//! Differential tests for the bottom-up bulk loader (DESIGN.md §11): a
//! bulk-loaded trie must be observationally identical to one built by
//! incremental COW inserts over the same key set — same `get` hits and
//! misses, same `iter`/`scan` sequences — and both must pass the whole-tree
//! invariant walk. Runs on integer-, email- and url-shaped keys, on the
//! single-threaded trie and the ROWEX-synchronized variant, and on a load
//! large enough to build on every core. The node build at forced thread
//! counts is `hot-core`'s `bulk::tests`.

use hot_core::sync::ConcurrentHot;
use hot_core::{BulkLoadError, CompactHot, HotTrie};
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};
use proptest::prelude::*;
use std::sync::Arc;

/// Sorted, deduplicated `(key, tid)` pairs for embedded integer keys.
fn int_entries(keys: &[u64]) -> Vec<([u8; 8], u64)> {
    let mut sorted: Vec<u64> = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.iter().map(|&k| (encode_u64(k), k)).collect()
}

/// Assert the two tries answer identically on hits, misses, iteration and
/// scans, and that both pass the invariant walk.
fn assert_equivalent<S: hot_keys::KeySource>(
    bulk: &HotTrie<S>,
    incr: &HotTrie<S>,
    probe_keys: &[Vec<u8>],
) {
    assert_eq!(bulk.len(), incr.len());
    for key in probe_keys {
        assert_eq!(bulk.get(key), incr.get(key), "get {key:?}");
    }
    let a: Vec<u64> = bulk.iter().collect();
    let b: Vec<u64> = incr.iter().collect();
    assert_eq!(a, b, "in-order iteration");
    for key in probe_keys.iter().step_by(7) {
        assert_eq!(bulk.scan(key, 20), incr.scan(key, 20), "scan from {key:?}");
    }
    let br = bulk.check_invariants();
    let ir = incr.check_invariants();
    assert_eq!(br.leaves, ir.leaves);
    // The bulk loader packs maximal nodes: its trie is never taller and its
    // nodes never emptier than the incremental build's.
    assert!(
        br.height <= ir.height,
        "bulk height {} > incremental {}",
        br.height,
        ir.height
    );
    assert!(
        br.avg_fill() >= ir.avg_fill() - f64::EPSILON,
        "bulk fill {} < incremental {}",
        br.avg_fill(),
        ir.avg_fill()
    );
}

proptest! {
    #[test]
    fn integer_bulk_equals_incremental(
        keys in proptest::collection::vec(any::<u64>().prop_map(|k| k % 200_000), 1..400),
        misses in proptest::collection::vec(200_000u64..210_000, 0..40),
    ) {
        let entries = int_entries(&keys);
        let mut bulk = HotTrie::new(EmbeddedKeySource);
        bulk.bulk_load(&entries).unwrap();
        let mut incr = HotTrie::new(EmbeddedKeySource);
        for &k in &keys {
            incr.insert(&encode_u64(k), k);
        }
        let probes: Vec<Vec<u8>> = keys
            .iter()
            .chain(misses.iter())
            .map(|&k| encode_u64(k).to_vec())
            .collect();
        assert_equivalent(&bulk, &incr, &probes);
    }

    #[test]
    fn duplicate_keys_last_write_wins(
        picks in proptest::collection::vec((0u64..50, 0u64..1_000), 1..200),
    ) {
        // Sorted input with runs of duplicate keys and *distinct* TIDs: the
        // bulk result must match upserting in the same order. TIDs carry a
        // version in their low bits (see `VersionedSource`), so duplicate
        // keys map to different TIDs without breaking the KeySource
        // contract that `load_key(tid)` reproduces the inserted key.
        let mut entries: Vec<([u8; 8], u64)> = picks
            .iter()
            .map(|&(k, v)| (encode_u64(k), (k << 10) | v))
            .collect();
        entries.sort();
        let mut bulk = HotTrie::new(VersionedSource);
        bulk.bulk_load(&entries).unwrap();
        let mut incr = HotTrie::new(VersionedSource);
        for (key, tid) in &entries {
            incr.insert(key, *tid);
        }
        prop_assert_eq!(bulk.len(), incr.len());
        for (key, _) in &entries {
            prop_assert_eq!(bulk.get(key), incr.get(key));
        }
        bulk.check_invariants();
    }
}

/// Key source where the key is the TID's high bits: `tid = (key << 10) |
/// version`. Lets a test store the *same* key bytes under many distinct
/// TIDs while honoring the contract that `load_key(tid)` returns the key
/// that was inserted with `tid`.
struct VersionedSource;

impl hot_keys::KeySource for VersionedSource {
    fn load_key<'a>(
        &'a self,
        tid: u64,
        scratch: &'a mut [u8; hot_keys::KEY_SCRATCH_LEN],
    ) -> &'a [u8] {
        scratch[..8].copy_from_slice(&encode_u64(tid >> 10));
        &scratch[..8]
    }
}

/// String-shaped key generators: synthetic email- and url-like keys with
/// the shared-prefix structure the string data sets stress (Zipf-ish hosts
/// and names are irrelevant here; prefix sharing and varied lengths are
/// what the discriminative-bit machinery reacts to).
fn string_keys(shape: &str, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = move |m: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % m
    };
    let names = ["alice", "bob", "carol", "dave", "erin", "frank"];
    let hosts = ["example.com", "mail.net", "db.org", "hot.io"];
    let dirs = ["papers", "idx", "trie", "sigmod", "x"];
    let mut keys: Vec<Vec<u8>> = (0..n * 2)
        .map(|_| {
            let mut s = String::new();
            match shape {
                "email" => {
                    s.push_str(names[next(names.len())]);
                    s.push('.');
                    s.push_str(names[next(names.len())]);
                    s.push_str(&next(1000).to_string());
                    s.push('@');
                    s.push_str(hosts[next(hosts.len())]);
                }
                _ => {
                    s.push_str("http://");
                    s.push_str(hosts[next(hosts.len())]);
                    for _ in 0..=next(4) {
                        s.push('/');
                        s.push_str(dirs[next(dirs.len())]);
                    }
                    s.push('/');
                    s.push_str(&next(10_000).to_string());
                }
            }
            let mut k = s.into_bytes();
            k.push(0); // prefix-free terminator
            k
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys.truncate(n);
    keys
}

fn string_differential(shape: &str) {
    let keys = string_keys(shape, 3000, 0xB0B6);
    let mut arena = ArenaKeySource::with_capacity(keys.len(), 32);
    let entries: Vec<(&[u8], u64)> = keys
        .iter()
        .map(|k| (k.as_slice(), 0))
        .zip(keys.iter().map(|k| arena.push(k)))
        .map(|((k, _), tid)| (k, tid))
        .collect();
    let arena = Arc::new(arena);

    let mut bulk = HotTrie::new(Arc::clone(&arena));
    bulk.bulk_load(&entries).unwrap();
    let mut incr = HotTrie::new(Arc::clone(&arena));
    // Insert in a scrambled order: the comparison must hold regardless of
    // the incremental build's insertion history.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| (i.wrapping_mul(0x9E37_79B9)) % entries.len());
    for &i in &order {
        incr.insert(entries[i].0, entries[i].1);
    }
    let probes: Vec<Vec<u8>> = keys.clone();
    assert_equivalent(&bulk, &incr, &probes);
}

#[test]
fn email_bulk_equals_incremental() {
    string_differential("email");
}

#[test]
fn url_bulk_equals_incremental() {
    string_differential("url");
}

/// 2¹⁹ distinct keys: a plain load of this many puts a heap store on its
/// own 2 MiB chunks and builds its nodes on every available core.
fn chunked_load_entries() -> Vec<([u8; 8], u64)> {
    let keys: Vec<u64> = (0..1u64 << 19)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1)
        .collect();
    let entries = int_entries(&keys);
    assert_eq!(entries.len(), 1 << 19);
    entries
}

#[test]
fn a_plain_load_onto_chunks_equals_a_one_thread_load() {
    let entries = chunked_load_entries();
    // The arena store owns no chunks, so its plain load builds on the
    // calling thread alone (DESIGN.md §11.4): the one-thread reference.
    let mut one = CompactHot::new();
    one.bulk_load(&entries).unwrap();
    let want = (one.structure_digest(), one.memory_stats().node_count);

    let plain = ConcurrentHot::new(EmbeddedKeySource);
    plain.bulk_load(&entries).unwrap();
    let p = plain.memory_stats();
    assert!(p.capacity_bytes > 0, "the plain load is on chunks");
    assert_eq!((plain.structure_digest(), p.node_count), want);

    let mut plain = HotTrie::new(EmbeddedKeySource);
    plain.bulk_load(&entries).unwrap();
    let p = plain.memory_stats();
    assert!(p.capacity_bytes > 0, "the plain load is on chunks");
    assert_eq!((plain.structure_digest(), p.node_count), want);
    plain.check_invariants();
}

#[test]
fn unsorted_input_is_rejected_without_building() {
    let mut trie = HotTrie::new(EmbeddedKeySource);
    let entries = vec![
        (encode_u64(10), 10),
        (encode_u64(5), 5),
        (encode_u64(20), 20),
    ];
    assert_eq!(
        trie.bulk_load(&entries),
        Err(BulkLoadError::Unsorted { index: 1 })
    );
    assert_eq!(trie.len(), 0);
    assert_eq!(trie.get(&encode_u64(10)), None);
    assert_eq!(trie.memory_stats().node_bytes, 0, "nothing leaked");
    // The trie is still usable for a correct bulk load afterwards.
    trie.bulk_load(&int_entries(&[5, 10, 20])).unwrap();
    assert_eq!(trie.len(), 3);
    trie.check_invariants();
}

#[test]
fn non_empty_trie_is_rejected() {
    let mut trie = HotTrie::new(EmbeddedKeySource);
    trie.insert(&encode_u64(1), 1);
    assert_eq!(
        trie.bulk_load(&int_entries(&[2, 3])),
        Err(BulkLoadError::NotEmpty)
    );
    assert_eq!(trie.len(), 1);
}

#[test]
fn empty_and_tiny_inputs() {
    let mut trie = HotTrie::new(EmbeddedKeySource);
    assert_eq!(trie.bulk_load(&int_entries(&[])), Ok(0));
    assert!(trie.is_empty());
    assert_eq!(trie.bulk_load(&int_entries(&[77])), Ok(1));
    assert_eq!(trie.get(&encode_u64(77)), Some(77));
    trie.check_invariants();

    let mut two = HotTrie::new(EmbeddedKeySource);
    assert_eq!(two.bulk_load(&int_entries(&[1, 2])), Ok(2));
    assert_eq!(two.iter().collect::<Vec<_>>(), vec![1, 2]);
    two.check_invariants();
}

#[test]
fn concurrent_bulk_load_single_publish() {
    let entries = int_entries(&(0..5_000u64).map(|i| i * 3).collect::<Vec<_>>());
    let trie = ConcurrentHot::new(EmbeddedKeySource);
    assert_eq!(trie.bulk_load(&entries), Ok(entries.len()));
    assert_eq!(trie.len(), entries.len());
    for (key, tid) in &entries {
        assert_eq!(trie.get(key), Some(*tid));
    }
    assert_eq!(trie.scan(&encode_u64(0), 10).len(), 10);
    trie.check_invariants();
    // Second bulk load must refuse: the root is already published.
    assert_eq!(trie.bulk_load(&entries), Err(BulkLoadError::NotEmpty));
    // And so must a bulk load racing an earlier insert.
    let busy = ConcurrentHot::new(EmbeddedKeySource);
    busy.insert(&encode_u64(9), 9);
    assert_eq!(busy.bulk_load(&entries), Err(BulkLoadError::NotEmpty));
}

/// Satellite: bulk-loaded footprint is never larger than the incremental
/// build's at 100 k keys (`MemCounter` accounting must cover every node the
/// bulk path allocates — and only those).
#[test]
fn bulk_footprint_at_100k_is_at_most_incremental() {
    let keys: Vec<u64> = (0..100_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1)
        .collect();
    let entries = int_entries(&keys);

    let mut bulk = HotTrie::new(EmbeddedKeySource);
    bulk.bulk_load(&entries).unwrap();
    let mut incr = HotTrie::new(EmbeddedKeySource);
    for &k in &keys {
        incr.insert(&encode_u64(k), k);
    }

    let b = bulk.memory_stats();
    let i = incr.memory_stats();
    assert_eq!(b.key_count, i.key_count);
    assert!(
        b.node_bytes <= i.node_bytes,
        "bulk footprint {} exceeds incremental {}",
        b.node_bytes,
        i.node_bytes
    );
    assert!(
        b.node_count <= i.node_count,
        "bulk node count {} exceeds incremental {}",
        b.node_count,
        i.node_count
    );
    // And the counter is exact: freeing the trie returns it to zero
    // (checked by HotTrie::drop's debug assertion), while the invariant
    // walk re-counts live nodes against it.
    let report = bulk.check_invariants();
    assert_eq!(report.nodes, b.node_count);
}
