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
enum Op<K> {
    Insert(K),
    Remove(K),
    Get(K),
    Scan(K, usize),
}

impl<K> Op<K> {
    fn map<J>(self, f: impl FnOnce(K) -> J) -> Op<J> {
        match self {
            Op::Insert(k) => Op::Insert(f(k)),
            Op::Remove(k) => Op::Remove(f(k)),
            Op::Get(k) => Op::Get(f(k)),
            Op::Scan(k, n) => Op::Scan(f(k), n),
        }
    }
}

fn ops<K: 'static>(
    key: impl Strategy<Value = K> + Clone + 'static,
) -> impl Strategy<Value = Op<K>> {
    prop_oneof![
        5 => key.clone().prop_map(Op::Insert),
        2 => key.clone().prop_map(Op::Remove),
        2 => key.clone().prop_map(Op::Get),
        1 => (key, 0usize..50).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

/// An integer op with its encoded key and the TID an insert of it stores:
/// the integer itself, which `EmbeddedKeySource` reads the key back from.
fn embedded(op: &Op<u64>) -> Op<(Vec<u8>, u64)> {
    op.clone().map(|k| (encode_u64(k).to_vec(), k))
}

/// Replay `ops` — each an encoded key and the TID an insert of it stores —
/// on `hot` and on a `BTreeMap` model: every answer, and `len` after every
/// op, must match, and so must the final full scan. Ends with the
/// invariant walk.
fn replay<F: Front>(
    hot: &mut F,
    ops: &[Op<(Vec<u8>, u64)>],
    name: &str,
) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut got = Vec::new();
    for op in ops {
        match op {
            Op::Insert((k, tid)) => {
                prop_assert_eq!(hot.put(k, *tid), model.insert(k.clone(), *tid), "{}", name);
            }
            Op::Remove((k, _)) => {
                prop_assert_eq!(hot.take(k), model.remove(k), "{}", name);
            }
            Op::Get((k, _)) => {
                prop_assert_eq!(hot.get(k), model.get(k).copied(), "{}", name);
            }
            Op::Scan((k, _), n) => {
                hot.scan_into(k, *n, &mut got);
                let want: Vec<u64> = model.range(k.clone()..).take(*n).map(|(_, &v)| v).collect();
                prop_assert_eq!(&got, &want, "{}", name);
            }
        }
        prop_assert_eq!(hot.len(), model.len(), "{}", name);
    }
    hot.check_invariants();
    prop_assert_eq!(
        hot.scan(&[], model.len() + 1),
        model.values().copied().collect::<Vec<_>>(),
        "{}",
        name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_btreemap_model(ops in prop::collection::vec(ops(0..10_000u64), 1..500)) {
        let ops: Vec<_> = ops.iter().map(embedded).collect();
        for_each_front!(EmbeddedKeySource, |hot, name| {
            replay(&mut hot, &ops, name)?;
        });
    }

    #[test]
    fn small_clustered_domain(ops in prop::collection::vec(ops(0..64u64), 1..600)) {
        // A tiny domain maximizes node-level churn: every entry lives in one
        // or two nodes, so splits, pull-ups and collapses fire constantly.
        let ops: Vec<_> = ops.iter().map(embedded).collect();
        let mut digests = Vec::new();
        for_each_front!(EmbeddedKeySource, |hot, name| {
            replay(&mut hot, &ops, name)?;
            digests.push(hot.structure_digest());
        });
        // One history, one write path: one structure.
        prop_assert!(digests.windows(2).all(|w| w[0] == w[1]), "{:?}", digests);
    }

    #[test]
    fn shared_prefix_strings_match_model(ops in prop::collection::vec(ops("[abc]{1,10}"), 1..300)) {
        // Alphabet {a,b,c}, length 1–10: heavy prefix sharing, and short
        // keys recur, so removes and gets often hit. Every op pushes its
        // key into the arena once more, so an upsert stores a new TID for
        // a key already there and must return the old one.
        let mut arena = ArenaKeySource::new();
        let ops: Vec<_> = ops
            .into_iter()
            .map(|op| {
                op.map(|s| {
                    let key = hot_keys::str_key(s.as_bytes()).unwrap();
                    let tid = arena.push(&key);
                    (key, tid)
                })
            })
            .collect();
        for_each_front!(&arena, |hot, name| {
            replay(&mut hot, &ops, name)?;
        });
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
