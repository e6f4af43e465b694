//! Differential tests for every range-scan entry point: `scan`, `scan_into`,
//! `scan_with` (reused cursor) and `scan_batch` must all return exactly what
//! `BTreeMap::range(start..)` returns — on the single-threaded trie and on
//! the ROWEX-synchronized variant — for present start keys, absent start
//! keys, and prefix-boundary start keys (a probe that is a strict prefix of
//! stored keys, with and without the string terminator).
//!
//! The whole file is SIMD-agnostic: the CI scalar-fallback job re-runs it
//! with `HOT_FORCE_SCALAR=1` so the scalar `match_prefix_*` seek path gets
//! the same coverage as the AVX2 one.

#[macro_use]
mod common;

use hot_core::sync::ConcurrentHot;
use hot_core::{HotTrie, MlpScheduler, ScanCursor};
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource, KeySource};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Asserts every scalar scan entry point agrees with `want` for one probe.
///
/// `cursor` and `out` are deliberately reused across calls so cursor state
/// leaking from one scan into the next would be caught.
fn assert_scan_paths<S: KeySource>(
    trie: &HotTrie<S>,
    sync: &ConcurrentHot<S>,
    start: &[u8],
    limit: usize,
    want: &[u64],
    cursor: &mut ScanCursor,
    out: &mut Vec<u64>,
) {
    common::assert_scan_paths(trie, start, limit, want, cursor, out, "HotTrie");

    assert_eq!(sync.scan(start, limit), want, "ConcurrentHot::scan from {start:?}");
    sync.scan_into(start, limit, out);
    assert_eq!(out, want, "ConcurrentHot::scan_into from {start:?}");
    sync.scan_with(start, limit, out, cursor);
    assert_eq!(out, want, "ConcurrentHot::scan_with from {start:?}");
}

/// Asserts the batched scan path returns `want[i]` in slot `i` for every
/// request, on both tries, for the given in-flight depth.
fn assert_batched_paths<S: KeySource, K: AsRef<[u8]>>(
    trie: &HotTrie<S>,
    sync: &ConcurrentHot<S>,
    requests: &[(K, usize)],
    want: &[Vec<u64>],
    depth: usize,
) {
    let mut sched = MlpScheduler::with_depth(depth);
    let mut tids = Vec::new();
    let mut bounds = Vec::new();

    common::assert_batched_scans(trie, requests, want, depth, "HotTrie");

    sync.scan_batch_with(requests, &mut tids, &mut bounds, &mut sched);
    assert_eq!(bounds.len(), requests.len() + 1);
    for (i, segment) in want.iter().enumerate() {
        assert_eq!(&tids[bounds[i]..bounds[i + 1]], &segment[..], "sync batch slot {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Integer keys: present picks, uniform (mostly absent) probes, and a
    /// limit sweep, checked against `BTreeMap::range` on every path.
    #[test]
    fn u64_scans_match_btreemap(
        keys in proptest::collection::vec(0u64..100_000, 1..300),
        uniform in proptest::collection::vec((0u64..100_100, 0usize..120), 0..25),
        picks in proptest::collection::vec((0usize..10_000, 0usize..120), 0..25),
        depth in 1usize..17,
    ) {
        let mut trie = HotTrie::new(EmbeddedKeySource);
        let sync = ConcurrentHot::new(EmbeddedKeySource);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &keys {
            trie.insert(&encode_u64(k), k);
            sync.insert(&encode_u64(k), k);
            model.insert(k, k);
        }

        let mut probes: Vec<(u64, usize)> = uniform;
        probes.extend(picks.iter().map(|&(i, n)| (keys[i % keys.len()], n)));

        let mut cursor = ScanCursor::new();
        let mut out = Vec::new();
        let mut requests: Vec<([u8; 8], usize)> = Vec::new();
        let mut want_segments: Vec<Vec<u64>> = Vec::new();
        for &(k, n) in &probes {
            let want: Vec<u64> = model.range(k..).take(n).map(|(_, &v)| v).collect();
            assert_scan_paths(&trie, &sync, &encode_u64(k), n, &want, &mut cursor, &mut out);
            requests.push((encode_u64(k), n));
            want_segments.push(want);
        }
        assert_batched_paths(&trie, &sync, &requests, &want_segments, depth);
    }

    /// String keys over a tiny alphabet (deep shared prefixes), with probes
    /// that sit exactly on prefix boundaries: for a stored "abc", probe both
    /// the raw prefix "ab" (orders before every stored key extending it) and
    /// the terminated sibling key "ab\0" (may itself be stored).
    #[test]
    fn string_scans_match_btreemap_at_prefix_boundaries(
        words in proptest::collection::vec("[a-c]{1,12}", 1..100),
        limit in 0usize..110,
    ) {
        let stored: Vec<Vec<u8>> =
            words.iter().map(|w| hot_keys::str_key(w.as_bytes()).unwrap()).collect();
        let mut arena = ArenaKeySource::new();
        let tids: Vec<u64> = stored.iter().map(|k| arena.push(k)).collect();
        let arena = Arc::new(arena);

        let mut trie = HotTrie::new(Arc::clone(&arena));
        let sync = ConcurrentHot::new(Arc::clone(&arena));
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, &tid) in stored.iter().zip(&tids) {
            // Duplicate words upsert; keep the model in lockstep.
            trie.insert(k, tid);
            sync.insert(k, tid);
            model.insert(k.clone(), tid);
        }

        let mut probes: Vec<Vec<u8>> = Vec::new();
        for w in &words {
            let half = w.len() / 2;
            for prefix in [&w.as_bytes()[..half], w.as_bytes()] {
                probes.push(prefix.to_vec());
                probes.push(hot_keys::str_key(prefix).unwrap());
            }
        }
        probes.push(Vec::new()); // empty start key: full scan from the front

        let mut cursor = ScanCursor::new();
        let mut out = Vec::new();
        let mut requests: Vec<(&[u8], usize)> = Vec::new();
        let mut want_segments: Vec<Vec<u64>> = Vec::new();
        for p in &probes {
            let want: Vec<u64> = model.range(p.clone()..).take(limit).map(|(_, &v)| v).collect();
            assert_scan_paths(&trie, &sync, p, limit, &want, &mut cursor, &mut out);
            requests.push((p, limit));
            want_segments.push(want);
        }
        assert_batched_paths(&trie, &sync, &requests, &want_segments, 8);
    }
}

/// A fixed nested-prefix chain ("a", "ab", ..., "abcabcabc") probed at every
/// boundary — the case where the seek's mismatch position lands exactly on a
/// discriminative bit between a key and its extension.
#[test]
fn nested_prefix_chain_scans() {
    let base = b"abcabcabc";
    let stored: Vec<Vec<u8>> =
        (1..=base.len()).map(|n| hot_keys::str_key(&base[..n]).unwrap()).collect();
    let mut arena = ArenaKeySource::new();
    let tids: Vec<u64> = stored.iter().map(|k| arena.push(k)).collect();
    let arena = Arc::new(arena);

    let mut trie = HotTrie::new(Arc::clone(&arena));
    let sync = ConcurrentHot::new(Arc::clone(&arena));
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for (k, &tid) in stored.iter().zip(&tids) {
        trie.insert(k, tid);
        sync.insert(k, tid);
        model.insert(k.clone(), tid);
    }

    let mut cursor = ScanCursor::new();
    let mut out = Vec::new();
    for n in 0..=base.len() {
        for probe in [base[..n].to_vec(), hot_keys::str_key(&base[..n]).unwrap()] {
            for limit in [0usize, 1, 3, 100] {
                let want: Vec<u64> =
                    model.range(probe.clone()..).take(limit).map(|(_, &v)| v).collect();
                assert_scan_paths(&trie, &sync, &probe, limit, &want, &mut cursor, &mut out);
            }
        }
    }
}

/// Empty and singleton tries: the degenerate roots bypass the seek entirely.
#[test]
fn degenerate_roots() {
    let mut trie = HotTrie::new(EmbeddedKeySource);
    let sync = ConcurrentHot::new(EmbeddedKeySource);
    let mut cursor = ScanCursor::new();
    let mut out = Vec::new();
    assert_scan_paths(&trie, &sync, &encode_u64(0), 10, &[], &mut cursor, &mut out);

    trie.insert(&encode_u64(42), 42);
    sync.insert(&encode_u64(42), 42);
    assert_scan_paths(&trie, &sync, &encode_u64(0), 10, &[42], &mut cursor, &mut out);
    assert_scan_paths(&trie, &sync, &encode_u64(42), 10, &[42], &mut cursor, &mut out);
    assert_scan_paths(&trie, &sync, &encode_u64(43), 10, &[], &mut cursor, &mut out);
    assert_batched_paths(
        &trie,
        &sync,
        &[(encode_u64(0), 2), (encode_u64(42), 0), (encode_u64(99), 5)],
        &[vec![42], vec![], vec![]],
        3,
    );
}

/// Arena shadow: replay the nested-prefix-chain and integer probes on the
/// arena-backed compact backend (single-threaded and concurrent) and hold
/// it to the same `BTreeMap::range` truth, through the same helpers.
#[test]
fn arena_shadow_scans() {
    use hot_core::sync::ConcurrentCompact;
    use hot_core::CompactHot;

    let base = b"abcabcabc";
    let mut stored: Vec<Vec<u8>> =
        (1..=base.len()).map(|n| hot_keys::str_key(&base[..n]).unwrap()).collect();
    for v in 0..400u64 {
        stored.push(encode_u64(v * 97).to_vec());
    }

    let mut compact = CompactHot::new();
    let sync = ConcurrentCompact::new();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for (tid, k) in stored.iter().enumerate() {
        compact.insert(k, tid as u64);
        sync.insert(k, tid as u64);
        model.insert(k.clone(), tid as u64);
    }

    let mut probes: Vec<Vec<u8>> = Vec::new();
    for n in 0..=base.len() {
        probes.push(base[..n].to_vec());
        probes.push(hot_keys::str_key(&base[..n]).unwrap());
    }
    for v in [0u64, 96, 97, 19_399, 19_400, u64::MAX] {
        probes.push(encode_u64(v).to_vec());
    }

    let mut cursor = ScanCursor::new();
    let mut out = Vec::new();
    for limit in [0usize, 1, 3, 1000] {
        let mut requests: Vec<(&[u8], usize)> = Vec::new();
        let mut want_segments: Vec<Vec<u64>> = Vec::new();
        for p in &probes {
            let want: Vec<u64> =
                model.range(p.clone()..).take(limit).map(|(_, &v)| v).collect();
            common::assert_scan_paths(&compact, p, limit, &want, &mut cursor, &mut out, "CompactHot");
            assert_eq!(sync.scan(p, limit), want, "ConcurrentCompact::scan from {p:?}");
            sync.scan_into(p, limit, &mut out);
            assert_eq!(out, want, "ConcurrentCompact::scan_into from {p:?}");
            sync.scan_with(p, limit, &mut out, &mut cursor);
            assert_eq!(out, want, "ConcurrentCompact::scan_with from {p:?}");
            requests.push((p, limit));
            want_segments.push(want);
        }
        for depth in common::DEPTHS {
            common::assert_batched_scans(&compact, &requests, &want_segments, depth, "CompactHot");
        }
    }
    compact.check_invariants();
    sync.check_invariants();
}
