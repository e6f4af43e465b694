//! Differential tests for every range-scan entry point: `scan`, `scan_into`
//! (reused output) and `scan_batch` must all return exactly what
//! `BTreeMap::range(start..)` returns — on the single-threaded trie and on
//! the ROWEX-synchronized variant, over the heap store and over the arena
//! store (`for_each_pair!`) — for present start keys, absent start keys,
//! and prefix-boundary start keys (a probe that is a strict prefix of
//! stored keys, with and without the string terminator).
//!
//! The whole file is SIMD-agnostic: the CI scalar-fallback job re-runs it
//! with `HOT_FORCE_SCALAR=1` so the scalar `match_prefix_*` seek path gets
//! the same coverage as the AVX2 one.

#[macro_use]
mod common;

use common::Front;
use hot_core::sync::{ConcurrentCompact, ConcurrentHot};
use hot_core::{Backend, CompactHot, HotTrie, Trie};
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The fronts one scan property is checked on: the single-threaded trie and
/// the ROWEX-synchronized one, over one back-end.
struct Pair<T, S> {
    trie: T,
    sync: S,
}

impl<T: Front, S: Front> Pair<T, S> {
    fn insert(&mut self, key: &[u8], tid: u64) {
        self.trie.put(key, tid);
        self.sync.put(key, tid);
    }
}

impl<B: Backend, S: Front> Pair<Trie<B>, S> {
    /// Every scalar scan entry point of both fronts agrees with `want` for
    /// one probe. `out` is deliberately reused across calls.
    fn assert_scan_paths(&self, start: &[u8], limit: usize, want: &[u64], out: &mut Vec<u64>) {
        common::assert_trie_scan_paths(&self.trie, start, limit, want, out, self.trie.name());
        common::assert_scan_paths(&self.sync, start, limit, want, out, self.sync.name());
    }

    /// The batched scan paths of both fronts return `want[i]` in slot `i`
    /// for every request, with the requests issued as batches of `chunk`.
    fn assert_batched_paths<K: AsRef<[u8]>>(
        &self,
        requests: &[(K, usize)],
        want: &[Vec<u64>],
        chunk: usize,
    ) {
        for (reqs, want) in requests.chunks(chunk).zip(want.chunks(chunk)) {
            common::assert_batched_scans(&self.trie, reqs, want, self.trie.name());
            common::assert_batched_scans(&self.sync, reqs, want, self.sync.name());
        }
    }
}

/// Run `$body` once per back-end with `$pair` bound to an empty
/// `HotTrie` + `ConcurrentHot` over `$source`, then to an empty
/// `CompactHot` + `ConcurrentCompact`.
macro_rules! for_each_pair {
    ($source:expr, |$pair:ident| $body:block) => {{
        {
            let mut $pair = Pair {
                trie: HotTrie::new($source),
                sync: ConcurrentHot::new($source),
            };
            $body
        }
        {
            let mut $pair = Pair {
                trie: CompactHot::new(),
                sync: ConcurrentCompact::new(),
            };
            $body
        }
    }};
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
        chunk in 1usize..40,
    ) {
        let model: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k)).collect();
        let mut probes: Vec<(u64, usize)> = uniform;
        probes.extend(picks.iter().map(|&(i, n)| (keys[i % keys.len()], n)));

        for_each_pair!(EmbeddedKeySource, |pair| {
            for &k in &keys {
                pair.insert(&encode_u64(k), k);
            }
            let mut out = Vec::new();
            let mut requests: Vec<([u8; 8], usize)> = Vec::new();
            let mut want_segments: Vec<Vec<u64>> = Vec::new();
            for &(k, n) in &probes {
                let want: Vec<u64> = model.range(k..).take(n).map(|(_, &v)| v).collect();
                pair.assert_scan_paths(&encode_u64(k), n, &want, &mut out);
                requests.push((encode_u64(k), n));
                want_segments.push(want);
            }
            pair.assert_batched_paths(&requests, &want_segments, chunk);
        });
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

        // Duplicate words upsert: the last TID wins, in the model too.
        let model: BTreeMap<Vec<u8>, u64> = stored.iter().cloned().zip(tids.iter().copied()).collect();

        let mut probes: Vec<Vec<u8>> = Vec::new();
        for w in &words {
            let half = w.len() / 2;
            for prefix in [&w.as_bytes()[..half], w.as_bytes()] {
                probes.push(prefix.to_vec());
                probes.push(hot_keys::str_key(prefix).unwrap());
            }
        }
        probes.push(Vec::new()); // empty start key: full scan from the front

        for_each_pair!(Arc::clone(&arena), |pair| {
            for (k, &tid) in stored.iter().zip(&tids) {
                pair.insert(k, tid);
            }
            let mut out = Vec::new();
            let mut requests: Vec<(&[u8], usize)> = Vec::new();
            let mut want_segments: Vec<Vec<u64>> = Vec::new();
            for p in &probes {
                let want: Vec<u64> = model.range(p.clone()..).take(limit).map(|(_, &v)| v).collect();
                pair.assert_scan_paths(p, limit, &want, &mut out);
                requests.push((p, limit));
                want_segments.push(want);
            }
            pair.assert_batched_paths(&requests, &want_segments, requests.len().max(1));
        });
    }
}

/// A fixed nested-prefix chain ("a", "ab", ..., "abcabcabc") probed at every
/// boundary — the case where the seek's mismatch position lands exactly on a
/// discriminative bit between a key and its extension — among integer keys,
/// at every limit and several batch sizes around the engine's depth.
#[test]
fn nested_prefix_chain_scans() {
    let base = b"abcabcabc";
    let mut stored: Vec<Vec<u8>> = (1..=base.len())
        .map(|n| hot_keys::str_key(&base[..n]).unwrap())
        .collect();
    for v in 0..400u64 {
        stored.push(encode_u64(v * 97).to_vec());
    }
    let mut arena = ArenaKeySource::new();
    let tids: Vec<u64> = stored.iter().map(|k| arena.push(k)).collect();
    let arena = Arc::new(arena);
    let model: BTreeMap<Vec<u8>, u64> = stored.iter().cloned().zip(tids.iter().copied()).collect();

    let mut probes: Vec<Vec<u8>> = Vec::new();
    for n in 0..=base.len() {
        probes.push(base[..n].to_vec());
        probes.push(hot_keys::str_key(&base[..n]).unwrap());
    }
    for v in [0u64, 96, 97, 19_399, 19_400, u64::MAX] {
        probes.push(encode_u64(v).to_vec());
    }

    for_each_pair!(Arc::clone(&arena), |pair| {
        for (k, &tid) in stored.iter().zip(&tids) {
            pair.insert(k, tid);
        }
        let mut out = Vec::new();
        for limit in [0usize, 1, 3, 100, 1000] {
            let mut requests: Vec<(&[u8], usize)> = Vec::new();
            let mut want_segments: Vec<Vec<u64>> = Vec::new();
            for p in &probes {
                let want: Vec<u64> = model
                    .range(p.clone()..)
                    .take(limit)
                    .map(|(_, &v)| v)
                    .collect();
                pair.assert_scan_paths(p, limit, &want, &mut out);
                requests.push((p, limit));
                want_segments.push(want);
            }
            for chunk in [1, 15, 16, 17, requests.len()] {
                pair.assert_batched_paths(&requests, &want_segments, chunk);
            }
        }
        pair.trie.check_invariants();
        pair.sync.check_invariants();
    });
}

/// Empty and singleton tries: the degenerate roots bypass the seek entirely.
#[test]
fn degenerate_roots() {
    for_each_pair!(EmbeddedKeySource, |pair| {
        let mut out = Vec::new();
        pair.assert_scan_paths(&encode_u64(0), 10, &[], &mut out);

        pair.insert(&encode_u64(42), 42);
        pair.assert_scan_paths(&encode_u64(0), 10, &[42], &mut out);
        pair.assert_scan_paths(&encode_u64(42), 10, &[42], &mut out);
        pair.assert_scan_paths(&encode_u64(43), 10, &[], &mut out);
        pair.assert_batched_paths(
            &[(encode_u64(0), 2), (encode_u64(42), 0), (encode_u64(99), 5)],
            &[vec![42], vec![], vec![]],
            3,
        );
    });
}
