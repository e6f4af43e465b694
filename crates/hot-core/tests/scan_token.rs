//! Regression tests for paged scans (DESIGN.md §18): paging a
//! `ShardedHot` scan through `scan_into` for the first page and
//! `scan_after` on the last key of every full page must reproduce exactly
//! what one unbroken `scan_into` — and the `BTreeMap::range` ground truth
//! of `scan_differential.rs` — returns, at every page size, across shard
//! boundaries, when the page's last key is deleted between pages, and
//! whatever the splitter layout. The wire token built on this (its shard
//! hint, its zero-limit rule) is `hot-server`'s and is tested there.
//!
//! Like the other scan differentials, this file is SIMD-agnostic and is
//! re-run in the `HOT_FORCE_SCALAR` CI lane.

use hot_core::ShardedHot;
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource, KeySource, KEY_SCRATCH_LEN};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The key of a page's last TID, if the page filled its limit: where a
/// paged scan continues. A short page ran off the key space.
fn last_key_of_full<S: KeySource>(src: &S, page: &[u64], limit: usize) -> Option<Vec<u8>> {
    let &last = page.last()?;
    if page.len() < limit {
        return None;
    }
    let mut scratch = [0u8; KEY_SCRATCH_LEN];
    Some(src.load_key(last, &mut scratch).to_vec())
}

/// Page through the whole key space from `start` in pages of `page`,
/// returning every TID in order.
fn paged_scan<S>(sharded: &ShardedHot<S>, src: &S, start: &[u8], page: usize) -> Vec<u64>
where
    S: KeySource + Clone + Send + Sync + 'static,
{
    let mut all = Vec::new();
    let mut buf = Vec::new();
    sharded.scan_into(start, page, &mut buf);
    all.extend_from_slice(&buf);
    while let Some(last) = last_key_of_full(src, &buf, page) {
        sharded.scan_after(&last, page, &mut buf);
        assert!(buf.len() <= page, "page overflow");
        assert!(
            buf.iter().all(|&t| src.cmp_tid_key(t, &last).is_gt()),
            "a page holds only keys strictly after the last one"
        );
        all.extend_from_slice(&buf);
    }
    all
}

/// String keys with deep shared prefixes over 1/2/4 shards: every page
/// size must reassemble the full `BTreeMap::range` answer, including
/// pages that end exactly on a shard splitter.
#[test]
fn paged_scans_match_btreemap_across_shards() {
    let words = [
        "a", "ab", "abc", "abca", "abcab", "abcabc", "b", "ba", "bab", "bb", "bbc", "c", "ca",
        "cab", "cabc", "cb", "cc", "ccc",
    ];
    let stored: Vec<Vec<u8>> = words
        .iter()
        .map(|w| hot_keys::str_key(w.as_bytes()).unwrap())
        .collect();
    let mut arena = ArenaKeySource::new();
    let tids: Vec<u64> = stored.iter().map(|k| arena.push(k)).collect();
    let arena = Arc::new(arena);

    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for (k, &tid) in stored.iter().zip(&tids) {
        model.insert(k.clone(), tid);
    }
    let mut order: Vec<usize> = (0..stored.len()).collect();
    order.sort_unstable_by(|&a, &b| stored[a].cmp(&stored[b]));
    let entries: Vec<(&[u8], u64)> = order
        .iter()
        .map(|&i| (stored[i].as_slice(), tids[i]))
        .collect();

    for shards in [1usize, 2, 4] {
        let sharded = ShardedHot::new(Arc::clone(&arena), shards);
        sharded
            .bulk_load(&entries)
            .expect("sorted distinct entries");
        let mut probes: Vec<Vec<u8>> = stored.clone();
        probes.push(Vec::new()); // full scan from the front
        probes.push(b"ab".to_vec()); // raw prefix, orders before its extensions
        probes.push(b"zz".to_vec()); // past the end

        // Every shard's first key, and each of its prefixes — the splitter
        // before it among them: a page boundary exactly on a shard boundary
        // is the case the token exists for.
        let firsts: Vec<&[u8]> = entries
            .windows(2)
            .filter(|w| sharded.shard_of(w[0].0) != sharded.shard_of(w[1].0))
            .map(|w| w[1].0)
            .collect();
        assert_eq!(firsts.len(), shards - 1, "every shard holds keys");
        for first in firsts {
            probes.extend((1..first.len()).map(|j| first[..j].to_vec()));
        }
        for start in &probes {
            let want: Vec<u64> = model.range(start.clone()..).map(|(_, &v)| v).collect();
            for page in [1usize, 2, 3, 7, 100] {
                assert_eq!(
                    paged_scan(&sharded, &arena, start, page),
                    want,
                    "shards={shards} page={page} start={start:?}"
                );
            }
        }
    }
}

/// Integer keys: a full paged sweep equals one unbroken scan, and a page
/// sized exactly to the remaining keys closes with one final empty page
/// (the token cannot know the key space ended on the page boundary).
#[test]
fn paged_scan_equals_unbroken_scan() {
    let n = 500u64;
    let sharded = ShardedHot::new(EmbeddedKeySource, 4);
    let entries: Vec<Vec<u8>> = (0..n).map(|v| encode_u64(v * 3).to_vec()).collect();
    let pairs: Vec<(&[u8], u64)> = entries
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_slice(), (i as u64) * 3))
        .collect();
    sharded.bulk_load(&pairs).expect("sorted distinct entries");

    let unbroken = sharded.scan(&encode_u64(0), n as usize);
    assert_eq!(unbroken.len(), n as usize);
    for page in [1usize, 9, 64, 250, 500] {
        assert_eq!(
            paged_scan(&sharded, &EmbeddedKeySource, &encode_u64(0), page),
            unbroken,
            "page={page}"
        );
    }

    // A boundary-exact page: the 500 keys fill a page of 500 exactly, so
    // one more (empty) page after the last key closes the scan.
    let mut buf = Vec::new();
    sharded.scan_into(&encode_u64(0), 500, &mut buf);
    assert_eq!(buf, unbroken);
    sharded.scan_after(&encode_u64((n - 1) * 3), 500, &mut buf);
    assert!(buf.is_empty(), "the key space was exhausted");
}

/// Deleting a page's last key between pages must not lose or duplicate
/// its neighbors: the next page starts at the deleted key's successor.
#[test]
fn scan_after_survives_deleted_last_key() {
    let sharded = ShardedHot::new(EmbeddedKeySource, 2);
    for v in 0..100u64 {
        sharded.insert(&encode_u64(v), v);
    }
    let mut buf = Vec::new();
    sharded.scan_into(&encode_u64(0), 10, &mut buf);
    assert_eq!(buf, (0..10).collect::<Vec<u64>>());
    let last = last_key_of_full(&EmbeddedKeySource, &buf, 10).expect("page filled");
    assert_eq!(last, encode_u64(9));

    assert_eq!(sharded.remove(&encode_u64(9)), Some(9));
    sharded.scan_after(&last, 10, &mut buf);
    assert_eq!(
        buf,
        (10..20).collect::<Vec<u64>>(),
        "no key lost or repeated"
    );
    // A key that was never stored continues at its successor too.
    sharded.scan_after(
        &[0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x13, 0x01],
        3,
        &mut buf,
    );
    assert_eq!(buf, [20, 21, 22]);
}

/// `scan_after` routes by the key alone: one key pages identically under
/// two splitter layouts that place it in different shards.
#[test]
fn scan_after_is_layout_independent() {
    let keys: Vec<[u8; 8]> = (0..100u64).map(encode_u64).collect();
    let entries = |step: usize| -> Vec<(&[u8], u64)> {
        keys.iter()
            .zip(0..)
            .step_by(step)
            .map(|(k, v)| (k.as_slice(), v))
            .collect()
    };
    // Four shards cut at the quartiles of all 100 keys; two cut at the
    // median of the even keys, the odd ones inserted through the router.
    let a = ShardedHot::new(EmbeddedKeySource, 4);
    a.bulk_load(&entries(1)).expect("sorted distinct entries");
    let b = ShardedHot::new(EmbeddedKeySource, 2);
    b.bulk_load(&entries(2)).expect("sorted distinct entries");
    for v in (1..100u64).step_by(2) {
        b.insert(&encode_u64(v), v);
    }
    let mut buf = Vec::new();
    a.scan_into(&encode_u64(50), 10, &mut buf);
    let last = last_key_of_full(&EmbeddedKeySource, &buf, 10).expect("page filled");
    assert_ne!(
        a.shard_of(&last),
        b.shard_of(&last),
        "the two layouts place the key apart"
    );
    let mut from_a = Vec::new();
    let mut from_b = Vec::new();
    a.scan_after(&last, 10, &mut from_a);
    b.scan_after(&last, 10, &mut from_b);
    assert_eq!(from_a, from_b, "the next page depends only on the key");
    assert_eq!(from_a, (60..70).collect::<Vec<u64>>());
}

/// Degenerate cases: empty trie, zero limit, single key.
#[test]
fn degenerate_pages() {
    let sharded = ShardedHot::new(EmbeddedKeySource, 2);
    let mut buf = vec![1, 2, 3];
    sharded.scan_into(&encode_u64(0), 10, &mut buf);
    assert!(buf.is_empty(), "scan_into clears its output");
    buf.push(9);
    sharded.scan_after(&encode_u64(0), 10, &mut buf);
    assert!(
        buf.is_empty(),
        "scan_after on an empty trie clears its output"
    );

    sharded.insert(&encode_u64(5), 5);
    // A zero-limit page holds nothing and so never continues.
    sharded.scan_into(&encode_u64(0), 0, &mut buf);
    assert!(buf.is_empty());
    assert!(last_key_of_full(&EmbeddedKeySource, &buf, 0).is_none());
    sharded.scan_into(&encode_u64(0), 1, &mut buf);
    assert_eq!(buf, [5]);
    let last = last_key_of_full(&EmbeddedKeySource, &buf, 1).expect("page filled");
    // `scan_after` answers a zero limit with an empty page, and a single
    // key's successor page is empty.
    buf.push(9);
    sharded.scan_after(&last, 0, &mut buf);
    assert!(buf.is_empty(), "scan_after clears its output");
    sharded.scan_after(&last, 10, &mut buf);
    assert!(buf.is_empty());
    // Strictly after: a key before the only one still finds it.
    sharded.scan_after(&encode_u64(4), 10, &mut buf);
    assert_eq!(buf, [5]);
}
