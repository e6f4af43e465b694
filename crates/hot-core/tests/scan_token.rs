//! Regression tests for the resumable scan continuation token
//! (DESIGN.md §18): paging a `ShardedHot` scan through `scan_into` +
//! `scan_token` and then `scan_resume` must reproduce exactly what one
//! unbroken `scan_into` — and the `BTreeMap::range` ground truth of
//! `scan_differential.rs` — returns, at every page size, across shard
//! boundaries, and when the token's key is deleted between pages.
//!
//! Like the other scan differentials, this file is SIMD-agnostic and is
//! re-run in the `HOT_FORCE_SCALAR` CI lane.

use hot_core::{ScanToken, ShardedHot};
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The first page of a scan, as the server serves one: `scan_into`, then
/// the token for the page.
fn first_page<S>(
    sharded: &ShardedHot<S>,
    key: &[u8],
    limit: usize,
    out: &mut Vec<u64>,
) -> Option<ScanToken>
where
    S: hot_keys::KeySource + Clone + Send + Sync + 'static,
{
    sharded.scan_into(key, limit, out);
    sharded.scan_token(out, limit)
}

/// Page through the whole key space from `start` in pages of `page`,
/// returning every TID in order.
fn paged_scan<S>(sharded: &ShardedHot<S>, start: &[u8], page: usize) -> Vec<u64>
where
    S: hot_keys::KeySource + Clone + Send + Sync + 'static,
{
    let mut all = Vec::new();
    let mut buf = Vec::new();
    let mut token = first_page(sharded, start, page, &mut buf);
    all.extend_from_slice(&buf);
    while let Some(t) = token {
        token = sharded.scan_resume(&t, page, &mut buf);
        all.extend_from_slice(&buf);
        assert!(buf.len() <= page, "page overflow");
        if buf.is_empty() {
            assert!(token.is_none(), "an empty page must close the scan");
        }
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
                    paged_scan(&sharded, start, page),
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
            paged_scan(&sharded, &encode_u64(0), page),
            unbroken,
            "page={page}"
        );
    }

    // A boundary-exact page: the 500 keys fill pages of 500 exactly, so
    // one more (empty) resume closes the scan.
    let mut buf = Vec::new();
    let token = first_page(&sharded, &encode_u64(0), 500, &mut buf).expect("full page");
    assert_eq!(buf, unbroken);
    assert!(sharded.scan_resume(&token, 500, &mut buf).is_none());
    assert!(buf.is_empty(), "the key space was exhausted");
}

/// Deleting the token's key between pages must not lose or duplicate its
/// neighbors: the resume starts at the deleted key's successor.
#[test]
fn resume_survives_deleted_last_key() {
    let sharded = ShardedHot::new(EmbeddedKeySource, 2);
    for v in 0..100u64 {
        sharded.insert(&encode_u64(v), v);
    }
    let mut buf = Vec::new();
    let token = first_page(&sharded, &encode_u64(0), 10, &mut buf).expect("more keys follow");
    assert_eq!(buf, (0..10).collect::<Vec<u64>>());
    assert_eq!(token.last_key, encode_u64(9));

    assert_eq!(sharded.remove(&encode_u64(9)), Some(9));
    let token = sharded
        .scan_resume(&token, 10, &mut buf)
        .expect("more keys follow");
    assert_eq!(
        buf,
        (10..20).collect::<Vec<u64>>(),
        "no key lost or repeated"
    );
    assert_eq!(token.last_key, encode_u64(19));
}

/// Token routing is by key, not by the stored shard hint: a token minted
/// under one splitter layout resumes correctly under another.
#[test]
fn token_shard_hint_is_not_a_correctness_input() {
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
    let token = first_page(&a, &encode_u64(50), 10, &mut buf).expect("more keys follow");
    assert_ne!(
        a.shard_of(&token.last_key),
        b.shard_of(&token.last_key),
        "the two layouts place the token's key apart"
    );
    let forged = ScanToken {
        shard: 0,
        last_key: token.last_key.clone(),
    };
    let mut from_a = Vec::new();
    let mut from_b = Vec::new();
    a.scan_resume(&token, 10, &mut from_a);
    b.scan_resume(&forged, 10, &mut from_b);
    assert_eq!(from_a, from_b, "resume depends only on last_key");
    assert_eq!(from_a, (60..70).collect::<Vec<u64>>());
}

/// Degenerate cases: empty trie, zero limit, single key.
#[test]
fn degenerate_pages() {
    let sharded = ShardedHot::new(EmbeddedKeySource, 2);
    let mut buf = vec![1, 2, 3];
    assert!(first_page(&sharded, &encode_u64(0), 10, &mut buf).is_none());
    assert!(buf.is_empty(), "scan_into clears its output");

    sharded.insert(&encode_u64(5), 5);
    // Zero-limit pages return nothing and never mint a fresh token.
    assert!(first_page(&sharded, &encode_u64(0), 0, &mut buf).is_none());
    let token = first_page(&sharded, &encode_u64(0), 1, &mut buf).expect("page filled");
    assert_eq!(buf, [5]);
    // A zero-limit resume keeps the position instead of losing it.
    let kept = sharded
        .scan_resume(&token, 0, &mut buf)
        .expect("position kept");
    assert_eq!(kept, token);
    assert!(sharded.scan_resume(&kept, 10, &mut buf).is_none());
    assert!(buf.is_empty());
}
