//! Property tests: HOT behaves exactly like an ordered map (`BTreeMap`
//! model) and preserves its structural invariants under arbitrary operation
//! sequences; its leaf order always equals the binary Patricia reference.
//! Every property takes the front-end as one more input: the four of
//! `for_each_front!` (`HotTrie`, `CompactHot` and the two ROWEX aliases,
//! `ConcurrentHot` and `ConcurrentCompact`), or — where it needs the
//! ordered iterators only `Trie` has — the two of `for_each_backend!`.

#[macro_use]
mod common;

use common::Front;
use hot_core::HotTrie;
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};
use hot_patricia::PatriciaTree;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Get(u64),
    Scan(u64, usize),
}

fn ops(domain: u64) -> impl Strategy<Value = Op> {
    let key = 0..domain;
    prop_oneof![
        5 => key.clone().prop_map(Op::Insert),
        2 => key.clone().prop_map(Op::Remove),
        2 => key.clone().prop_map(Op::Get),
        1 => (key, 0usize..50).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_btreemap_model(ops in prop::collection::vec(ops(10_000), 1..500)) {
        for_each_front!(EmbeddedKeySource, |hot, name| {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut got = Vec::new();
            for op in ops.iter().cloned() {
                match op {
                    Op::Insert(k) => {
                        prop_assert_eq!(hot.put(&encode_u64(k), k), model.insert(k, k), "{}", name);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(hot.take(&encode_u64(k)), model.remove(&k), "{}", name);
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(hot.get(&encode_u64(k)), model.get(&k).copied(), "{}", name);
                    }
                    Op::Scan(k, n) => {
                        hot.scan_into(&encode_u64(k), n, &mut got);
                        let want: Vec<u64> = model.range(k..).take(n).map(|(_, &v)| v).collect();
                        prop_assert_eq!(&got, &want, "{}", name);
                    }
                }
                prop_assert_eq!(hot.len(), model.len(), "{}", name);
            }
            hot.check_invariants();
            prop_assert_eq!(
                hot.scan(&[], model.len() + 1),
                model.values().copied().collect::<Vec<_>>(),
                "{}", name
            );
        });
    }

    #[test]
    fn small_clustered_domain(ops in prop::collection::vec(ops(64), 1..600)) {
        // A tiny domain maximizes node-level churn: every entry lives in one
        // or two nodes, so splits, pull-ups and collapses fire constantly.
        let mut digests = Vec::new();
        for_each_front!(EmbeddedKeySource, |hot, name| {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut got = Vec::new();
            for op in ops.iter().cloned() {
                match op {
                    Op::Insert(k) => {
                        prop_assert_eq!(hot.put(&encode_u64(k), k), model.insert(k, k), "{}", name);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(hot.take(&encode_u64(k)), model.remove(&k), "{}", name);
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(hot.get(&encode_u64(k)), model.get(&k).copied(), "{}", name);
                    }
                    Op::Scan(k, n) => {
                        hot.scan_into(&encode_u64(k), n, &mut got);
                        let want: Vec<u64> = model.range(k..).take(n).map(|(_, &v)| v).collect();
                        prop_assert_eq!(&got, &want, "{}", name);
                    }
                }
            }
            hot.check_invariants();
            digests.push(hot.structure_digest());
        });
        // One history, one write path: one structure.
        prop_assert!(digests.windows(2).all(|w| w[0] == w[1]), "{:?}", digests);
    }

    #[test]
    fn string_keys_match_model(
        words in prop::collection::vec("[a-c]{1,16}", 1..120),
        probe in "[a-c]{1,16}",
    ) {
        // Alphabet {a,b,c} forces deep shared prefixes — the sparse key
        // distribution HOT exists for.
        let mut arena = ArenaKeySource::new();
        let encoded: Vec<Vec<u8>> = words
            .iter()
            .map(|w| hot_keys::str_key(w.as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = encoded.iter().map(|k| arena.push(k)).collect();
        for_each_backend!(HotTrie::new(&arena), |hot| {
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for (k, &tid) in encoded.iter().zip(&tids) {
                hot.insert(k, tid);
                model.insert(k.clone(), tid);
            }
            hot.validate();
            prop_assert_eq!(hot.len(), model.len());
            for (k, &tid) in &model {
                prop_assert_eq!(hot.get(k), Some(tid));
            }
            let probe_key = hot_keys::str_key(probe.as_bytes()).unwrap();
            prop_assert_eq!(hot.get(&probe_key), model.get(&probe_key).copied());
            let got: Vec<u64> = hot.range_from(&probe_key).collect();
            let want: Vec<u64> = model.range(probe_key..).map(|(_, &v)| v).collect();
            prop_assert_eq!(got, want);
        });
    }

    #[test]
    fn leaf_order_equals_patricia_reference(
        keys in prop::collection::btree_set(0u64..100_000, 2..300)
    ) {
        for_each_front!(EmbeddedKeySource, |hot, name| {
            let mut bin = PatriciaTree::new(EmbeddedKeySource);
            for &k in &keys {
                hot.put(&encode_u64(k), k);
                bin.insert(&encode_u64(k), k);
            }
            prop_assert_eq!(hot.scan(&[], keys.len() + 1), bin.iter().collect::<Vec<_>>(), "{}", name);
            // The k-constraint bounds HOT's depth by Patricia's.
            let hot_max = hot.depth_stats().max_depth().unwrap();
            let bin_max = bin.depth_stats().max_depth().unwrap();
            prop_assert!(hot_max <= bin_max.max(1), "{}", name);
        });
    }

    #[test]
    fn determinism_under_permutation(
        keys in prop::collection::btree_set(0u64..1_000_000, 2..200),
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let ordered: Vec<u64> = keys.iter().copied().collect();
        let mut shuffled = ordered.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));

        let mut digests = Vec::new();
        for order in [&ordered, &shuffled] {
            for_each_front!(EmbeddedKeySource, |hot, _name| {
                for &k in order {
                    hot.put(&encode_u64(k), k);
                }
                digests.push(hot.structure_digest());
            });
        }
        // Either order, any front-end: one structure.
        prop_assert!(digests.windows(2).all(|w| w[0] == w[1]), "{:?}", digests);
    }

    #[test]
    fn mixed_length_string_sets(
        stems in prop::collection::btree_set("[a-z]{1,6}", 1..40),
    ) {
        // Nested prefixes made prefix-free by the terminator: "ab", "abc",
        // "abcd", … all coexist.
        let mut arena = ArenaKeySource::new();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for stem in &stems {
            for ext in ["", "x", "xy", "xyz"] {
                let mut s = stem.clone();
                s.push_str(ext);
                keys.push(hot_keys::str_key(s.as_bytes()).unwrap());
            }
        }
        keys.sort();
        keys.dedup();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        for_each_backend!(HotTrie::new(&arena), |hot| {
            for (k, &tid) in keys.iter().zip(&tids) {
                hot.insert(k, tid);
            }
            hot.validate();
            for (k, &tid) in keys.iter().zip(&tids) {
                prop_assert_eq!(hot.get(k), Some(tid));
            }
            prop_assert_eq!(&hot.iter().collect::<Vec<_>>(), &tids);
        });
    }
}
