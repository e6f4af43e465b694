//! Delete-heavy differential property tests with whole-trie invariant
//! checking.
//!
//! The existing `prop_model.rs` checks *behavioral* equivalence with a
//! `BTreeMap` and validates once at the end; these tests target the
//! *structural* claims instead. Removal is the trickiest structure
//! modification (entry removal, 2-entry node collapse, leaf-root
//! shrinkage, stale ancestor heights), so operations here are weighted
//! delete-heavy and the whole-tree
//! [`try_check_invariants`](hot_core::HotTrie::try_check_invariants) walk
//! runs after **every mutation batch**, turning any structural corruption
//! into a shrinkable counterexample at the batch that introduced it.

#[macro_use]
mod common;

use hot_core::sync::ConcurrentHot;
use hot_core::HotTrie;
use hot_keys::{encode_u64, EmbeddedKeySource};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
}

/// Delete-heavy mix over a small domain: plenty of hits, repeated
/// remove/re-insert of the same keys, frequent node collapses.
fn op(domain: u64) -> impl Strategy<Value = Op> {
    let key = 0..domain;
    prop_oneof![
        2 => key.clone().prop_map(Op::Insert),
        3 => key.prop_map(Op::Remove),
    ]
}

/// Batches of mutations; the invariant walk runs between batches.
fn batches(domain: u64) -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op(domain), 1..24), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trie_invariants_hold_under_deletions(batches in batches(512)) {
        for_each_backend!(HotTrie::new(EmbeddedKeySource), |hot| {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            // Start from a populated tree so early batches delete from real
            // structure instead of no-opping on an empty one.
            for k in (0..512).step_by(3) {
                hot.insert(&encode_u64(k), k);
                model.insert(k, k);
            }
            for batch in &batches {
                for op in batch {
                    match *op {
                        Op::Insert(k) => {
                            prop_assert_eq!(hot.insert(&encode_u64(k), k), model.insert(k, k));
                        }
                        Op::Remove(k) => {
                            prop_assert_eq!(hot.remove(&encode_u64(k)), model.remove(&k));
                        }
                    }
                }
                if let Err(msg) = hot.try_check_invariants() {
                    return Err(TestCaseError::fail(format!("invariant violated: {msg}")));
                }
                prop_assert_eq!(hot.len(), model.len());
            }
            prop_assert_eq!(
                hot.iter().collect::<Vec<_>>(),
                model.values().copied().collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn concurrent_trie_invariants_hold_under_deletions(batches in batches(512)) {
        // Single-threaded driver over the concurrent index: exercises the
        // ROWEX insert/remove code paths (copy-on-write, retire, root CAS)
        // and checks the lock-word invariant (all words unlocked,
        // non-obsolete) that the single-threaded trie doesn't have.
        let hot = ConcurrentHot::new(EmbeddedKeySource);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for k in (0..512).step_by(3) {
            hot.insert(&encode_u64(k), k);
            model.insert(k, k);
        }
        for batch in batches {
            for op in batch {
                match op {
                    Op::Insert(k) => {
                        prop_assert_eq!(hot.insert(&encode_u64(k), k), model.insert(k, k));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(hot.remove(&encode_u64(k)), model.remove(&k));
                    }
                }
            }
            if let Err(msg) = hot.try_check_invariants() {
                return Err(TestCaseError::fail(format!("invariant violated: {msg}")));
            }
            prop_assert_eq!(hot.len(), model.len());
        }
    }
}
