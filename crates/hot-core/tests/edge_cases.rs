//! Edge cases: extreme key shapes, boundary lengths, adversarial bit
//! patterns, and layout-coverage checks (all nine physical node layouts
//! must be reachable and correct). Every case takes the back-end as one
//! more input (`for_each_backend!`): the heap trie, then `CompactHot`.

#[macro_use]
mod common;

use hot_core::{HotTrie, NodeTag};
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource, MAX_KEY_LEN};

#[test]
fn empty_key_is_a_valid_smallest_key() {
    let mut arena = ArenaKeySource::new();
    let empty = arena.push(b"");
    let others: Vec<u64> = [&b"\x01"[..], b"a", b"zz"]
        .iter()
        .map(|k| arena.push(k))
        .collect();
    for_each_backend!(HotTrie::new(&arena), |t| {
        t.insert(b"", empty);
        t.insert(b"\x01", others[0]);
        t.insert(b"a", others[1]);
        t.insert(b"zz", others[2]);
        t.validate();
        assert_eq!(t.get(b""), Some(empty));
        // The empty key is the global minimum.
        assert_eq!(t.iter().next(), Some(empty));
        assert_eq!(t.scan(b"", 10).len(), 4);
        assert_eq!(t.remove(b""), Some(empty));
        assert_eq!(t.get(b""), None);
        t.validate();
    });
}

#[test]
fn keys_at_maximum_length() {
    let mut arena = ArenaKeySource::new();
    // Keys differing only in the very last byte of a 255-byte key: the
    // discriminative positions sit at bit ~2039.
    let mut keys = Vec::new();
    for last in 0..40u8 {
        let mut k = vec![0xA5u8; MAX_KEY_LEN - 1];
        k.push(last + 1); // avoid trailing 0 (prefix-free vs zero-padding)
        keys.push(k);
    }
    let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
    for_each_backend!(HotTrie::new(&arena), |t| {
        for (k, &tid) in keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        t.validate();
        for (k, &tid) in keys.iter().zip(&tids) {
            assert_eq!(t.get(k), Some(tid));
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), tids);
    });
}

#[test]
fn first_and_last_bit_discrimination() {
    // Keys differing in bit 0 (MSB of byte 0) and bit 63 of an 8-byte key.
    let keys = [0u64, 1, 1 << 62, (1 << 62) | 1, u64::MAX >> 1];
    for_each_backend!(HotTrie::new(EmbeddedKeySource), |t| {
        for &k in &keys {
            t.insert(&encode_u64(k), k);
        }
        t.validate();
        for &k in &keys {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(t.iter().collect::<Vec<_>>(), sorted);
    });
}

#[test]
fn all_nine_node_layouts_occur_and_work() {
    // Engineer key sets that force each (mask kind × key width) combination
    // and verify lookups through each. The census API reports which
    // physical layouts the tree actually uses.
    let mut arena = ArenaKeySource::new();
    let mut keys: Vec<Vec<u8>> = Vec::new();

    // (a) Dense low bits -> single-mask 8/16/32-bit partial keys.
    for v in 0..32u64 {
        keys.push(encode_u64(v).to_vec()); // 5 bits in one byte
    }
    // 9+ bits within an 8-byte window: random 16-bit tails.
    for v in [
        3u64, 259, 515, 771, 1027, 1283, 1539, 1795, 2051, 2307, 40_000, 50_000,
    ] {
        keys.push(encode_u64(v << 3).to_vec());
    }
    // (b) Positions spread over <= 8 distinct bytes but a > 8-byte window
    // -> multi-8 (8-byte keys always fit a single window, so use strings).
    for i in 0..7usize {
        let mut k = vec![b'm'; 80];
        k[i * 12] = b'n';
        k.push(0);
        keys.push(k);
    }
    // (c) Long strings with one-hot byte flips: key i differs from the
    // others first at byte 7*i, giving one discriminative bit per distinct
    // byte -> multi-16 / multi-32 layouts with wide partial keys.
    for i in 0..28usize {
        let mut k = vec![b'x'; 200];
        k[i * 7] = b'y';
        k.push(0);
        keys.push(k);
    }
    // A 12-key one-hot family under a different prefix -> multi-16.
    for i in 0..12usize {
        let mut k = vec![b'w'; 120];
        k[i * 9 + 3] = b'v';
        k.push(0);
        keys.push(k);
    }
    keys.sort();
    keys.dedup();

    let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
    for_each_backend!(HotTrie::new(&arena), |t| {
        for (k, &tid) in keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        t.validate();
        for (k, &tid) in keys.iter().zip(&tids) {
            assert_eq!(t.get(k), Some(tid));
        }

        let census = t.layout_census();
        let used: Vec<NodeTag> = NodeTag::ALL
            .into_iter()
            .filter(|tag| census[*tag as usize] > 0)
            .collect();
        // At minimum the single-mask family and a multi-mask layout must occur
        // in this engineered tree.
        assert!(
            used.contains(&NodeTag::Single8),
            "census {census:?} lacks Single8"
        );
        assert!(
            used.iter().any(|t| matches!(
                t,
                NodeTag::Multi8x8 | NodeTag::Multi8x16 | NodeTag::Multi8x32
            )),
            "census {census:?} lacks a multi-8 layout"
        );
        assert!(
            used.iter().any(|t| matches!(
                t,
                NodeTag::Multi16x16 | NodeTag::Multi16x32 | NodeTag::Multi32x32
            )),
            "census {census:?} lacks a wide multi layout"
        );
    });
}

#[test]
fn url_dataset_exercises_wide_layouts() {
    // Real-ish workloads must reach the wide layouts too.
    let data = hot_ycsb::Dataset::generate(hot_ycsb::DatasetKind::Url, 30_000, 3);
    let mut arena = ArenaKeySource::new();
    let tids: Vec<u64> = data.keys.iter().map(|k| arena.push(k)).collect();
    for_each_backend!(HotTrie::new(&arena), |t| {
        for (k, &tid) in data.keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        t.validate();
        let census = t.layout_census();
        let total: usize = census.iter().sum();
        assert_eq!(total, t.memory_stats().node_count);
        assert!(
            census[NodeTag::Multi8x8 as usize]
                + census[NodeTag::Multi8x16 as usize]
                + census[NodeTag::Multi8x32 as usize]
                > 0,
            "urls span multiple key bytes: {census:?}"
        );
    });
}

#[test]
fn alternating_bit_patterns() {
    // Keys that differ at every second bit stress the recode path (every
    // insert adds a new discriminative position).
    for_each_backend!(HotTrie::new(EmbeddedKeySource), |t| {
        let mut keys = Vec::new();
        for i in 0..64u64 {
            let mut v = 0u64;
            for b in 0..6 {
                if i & (1 << b) != 0 {
                    v |= 1 << (b * 9 + 3);
                }
            }
            keys.push(v);
            t.insert(&encode_u64(v), v);
        }
        t.validate();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(t.iter().collect::<Vec<_>>(), keys);
    });
}

#[test]
fn duplicate_heavy_upserts() {
    let mut arena = ArenaKeySource::new();
    let key = hot_keys::str_key(b"the-one-key").unwrap();
    let tids: Vec<u64> = (0..100).map(|_| arena.push(&key)).collect();
    for_each_backend!(HotTrie::new(&arena), |t| {
        assert_eq!(t.insert(&key, tids[0]), None);
        for w in tids.windows(2) {
            assert_eq!(t.insert(&key, w[1]), Some(w[0]));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key), Some(*tids.last().unwrap()));
    });
}

#[test]
fn removal_down_to_each_shape() {
    // Remove keys one by one, validating at every step, so every underflow
    // shape (collapse to leaf, collapse to node, root shrink) is covered.
    for_each_backend!(HotTrie::new(EmbeddedKeySource), |t| {
        let keys: Vec<u64> = (0..200).map(|i| i * 37 % 1024).collect();
        let mut distinct: Vec<u64> = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for &k in &keys {
            t.insert(&encode_u64(k), k);
        }
        for (i, &k) in distinct.iter().enumerate() {
            assert_eq!(t.remove(&encode_u64(k)), Some(k));
            if i % 3 == 0 {
                t.validate();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.memory_stats().node_bytes, 0);
    });
}
