//! Deletion-quality tests: underflow handling must not only preserve
//! correctness but keep the tree shallow (Section 3.2's deletion cases
//! mirror the insertion cases). Every case takes the front-end as one more
//! input (`for_each_front!`): `HotTrie`, `CompactHot`, `ConcurrentHot`,
//! `ConcurrentCompact` — one write path, so one structure.

#[macro_use]
mod common;

use common::Front;
use hot_core::HotTrie;
use hot_keys::{encode_u64, EmbeddedKeySource};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn random_keys(rng: &mut StdRng, n: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> 1).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[test]
fn underflow_merge_pulls_nodes_up() {
    // Build 10k keys, delete 95% of them: the tree must shrink back toward
    // the depth a fresh build of the survivors would have, not retain the
    // full-size skeleton.
    let mut rng = StdRng::seed_from_u64(71);
    let keys = random_keys(&mut rng, 10_000);
    let mut order = keys.clone();
    order.shuffle(&mut rng);
    let survivors: Vec<u64> = order.split_off(order.len() * 95 / 100);
    let mut fresh = HotTrie::new(EmbeddedKeySource);
    for &k in &survivors {
        fresh.insert(&encode_u64(k), k);
    }
    let rebuilt = fresh.depth_stats();

    for_each_front!(EmbeddedKeySource, |t, name| {
        for &k in &keys {
            t.put(&encode_u64(k), k);
        }
        for &k in &order {
            t.take(&encode_u64(k)).expect("present");
        }
        t.check_invariants();

        let shrunk = t.depth_stats();
        assert_eq!(shrunk.total(), rebuilt.total(), "{name}");
        // Within one level of the fresh build on average (collapse + merge keep
        // paths short; without merging this drifts 2+ levels deep).
        assert!(
            shrunk.mean_depth() <= rebuilt.mean_depth() + 1.0,
            "{name}: shrunk mean {:.2} vs rebuilt {:.2}",
            shrunk.mean_depth(),
            rebuilt.mean_depth()
        );
        // Memory shrinks accordingly.
        let per_key = t.settled_memory_stats().bytes_per_key();
        assert!(
            per_key < 40.0,
            "{name}: bytes/key after mass delete: {per_key:.1}"
        );
    });
}

/// Equal histories, equal structures: after an incremental build, after
/// deleting 95 % of it, and after a mixed insert/remove churn of ten times
/// the key count, the four front-ends hold node-for-node the same tree.
#[test]
fn one_write_path_builds_one_structure_in_every_front_end() {
    let mut rng = StdRng::seed_from_u64(79);
    let keys = random_keys(&mut rng, 10_000);
    let mut order = keys.clone();
    order.shuffle(&mut rng);
    order.truncate(order.len() * 95 / 100);
    // Churn over twice the key space: about half of the inserts are new
    // keys, about half of the removes hit.
    let pool = random_keys(&mut rng, 2 * keys.len());
    let churn: Vec<(bool, u64)> = (0..10 * keys.len())
        .map(|_| (rng.gen_bool(0.5), pool[rng.gen_range(0..pool.len())]))
        .collect();

    let mut digests: Vec<(&str, [u64; 3])> = Vec::new();
    for_each_front!(EmbeddedKeySource, |t, name| {
        for &k in &keys {
            t.put(&encode_u64(k), k);
        }
        let built = t.structure_digest();
        for &k in &order {
            t.take(&encode_u64(k)).expect("present");
        }
        let deleted = t.structure_digest();
        for &(insert, k) in &churn {
            if insert {
                t.put(&encode_u64(k), k);
            } else {
                t.take(&encode_u64(k));
            }
        }
        t.check_invariants();
        digests.push((name, [built, deleted, t.structure_digest()]));
    });
    assert_eq!(digests.len(), 4);
    for (name, at) in &digests[1..] {
        assert_eq!(
            *at, digests[0].1,
            "{name} vs {}: digests after build / 95 % delete / churn",
            digests[0].0
        );
    }
}

#[test]
fn grow_shrink_grow_cycles() {
    for_each_front!(EmbeddedKeySource, |t, name| {
        let mut rng = StdRng::seed_from_u64(73);
        for cycle in 0..4 {
            let base = cycle * 100_000;
            let keys: Vec<u64> = (0..5_000).map(|i| base + i * 3).collect();
            for &k in &keys {
                t.put(&encode_u64(k), k);
            }
            t.check_invariants();
            let mut order = keys.clone();
            order.shuffle(&mut rng);
            for &k in &order {
                assert_eq!(t.take(&encode_u64(k)), Some(k));
            }
            assert_eq!(t.len(), 0, "{name}: cycle {cycle}");
            assert_eq!(
                t.settled_memory_stats().node_bytes,
                0,
                "{name}: cycle {cycle}"
            );
        }
    });
}

#[test]
fn merge_preserves_order_and_scans() {
    for_each_front!(EmbeddedKeySource, |t, name| {
        let keys: Vec<u64> = (0..2_000).collect();
        for &k in &keys {
            t.put(&encode_u64(k), k);
        }
        // Delete a dense band in the middle; scans across the gap must stay
        // ordered and complete.
        for k in 500..1_500u64 {
            t.take(&encode_u64(k));
        }
        t.check_invariants();
        let got = t.scan(&encode_u64(490), 20);
        let want: Vec<u64> = (490..500).chain(1_500..1_510).collect();
        assert_eq!(got, want, "{name}");
    });
}
