//! Deletion-quality tests: underflow handling must not only preserve
//! correctness but keep the tree shallow (Section 3.2's deletion cases
//! mirror the insertion cases). Every case takes the back-end as one more
//! input (`for_each_backend!`): the heap trie, then `CompactHot`.

#[macro_use]
mod common;

use hot_core::HotTrie;
use hot_keys::{encode_u64, EmbeddedKeySource};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[test]
fn underflow_merge_pulls_nodes_up() {
    // Build 10k keys, delete 95% of them: the tree must shrink back toward
    // the depth a fresh build of the survivors would have, not retain the
    // full-size skeleton.
    let mut rng = StdRng::seed_from_u64(71);
    let mut keys: Vec<u64> = (0..10_000u64).map(|_| rng.gen::<u64>() >> 1).collect();
    keys.sort_unstable();
    keys.dedup();
    for_each_backend!(HotTrie::new(EmbeddedKeySource), |t| {
        for &k in &keys {
            t.insert(&encode_u64(k), k);
        }
        let mut order = keys.clone();
        order.shuffle(&mut rng);
        let survivors: Vec<u64> = order.split_off(order.len() * 95 / 100);
        for &k in &order {
            t.remove(&encode_u64(k)).expect("present");
        }
        t.validate();

        let mut fresh = HotTrie::new(EmbeddedKeySource);
        for &k in &survivors {
            fresh.insert(&encode_u64(k), k);
        }
        let shrunk = t.depth_stats();
        let rebuilt = fresh.depth_stats();
        assert_eq!(shrunk.total(), rebuilt.total());
        // Within one level of the fresh build on average (collapse + merge keep
        // paths short; without merging this drifts 2+ levels deep).
        assert!(
            shrunk.mean_depth() <= rebuilt.mean_depth() + 1.0,
            "shrunk mean {:.2} vs rebuilt {:.2}",
            shrunk.mean_depth(),
            rebuilt.mean_depth()
        );
        // Memory shrinks accordingly.
        let per_key = t.memory_stats().bytes_per_key();
        assert!(per_key < 40.0, "bytes/key after mass delete: {per_key:.1}");
    });
}

#[test]
fn grow_shrink_grow_cycles() {
    for_each_backend!(HotTrie::new(EmbeddedKeySource), |t| {
        let mut rng = StdRng::seed_from_u64(73);
        for cycle in 0..4 {
            let base = cycle * 100_000;
            let keys: Vec<u64> = (0..5_000).map(|i| base + i * 3).collect();
            for &k in &keys {
                t.insert(&encode_u64(k), k);
            }
            t.validate();
            let mut order = keys.clone();
            order.shuffle(&mut rng);
            for &k in &order {
                assert_eq!(t.remove(&encode_u64(k)), Some(k));
            }
            assert!(t.is_empty(), "cycle {cycle}");
            assert_eq!(t.memory_stats().node_bytes, 0);
        }
    });
}

#[test]
fn merge_preserves_order_and_scans() {
    for_each_backend!(HotTrie::new(EmbeddedKeySource), |t| {
        let keys: Vec<u64> = (0..2_000).collect();
        for &k in &keys {
            t.insert(&encode_u64(k), k);
        }
        // Delete a dense band in the middle; scans across the gap must stay
        // ordered and complete.
        for k in 500..1_500u64 {
            t.remove(&encode_u64(k));
        }
        t.validate();
        let got = t.scan(&encode_u64(490), 20);
        let want: Vec<u64> = (490..500).chain(1_500..1_510).collect();
        assert_eq!(got, want);
    });
}
