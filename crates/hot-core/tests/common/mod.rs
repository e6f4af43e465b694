//! Helpers shared by the differential suites. A property is stated once,
//! over [`Front`] — what the single-threaded [`Trie`] and the concurrent
//! [`Concurrent`] offer alike, on either back-end ([`Backend`]) — and the
//! `for_each_*` macros run it on the front-ends it applies to.
#![allow(
    dead_code,
    unused_macros,
    reason = "each test binary uses its own subset"
)]

use hot_core::sync::Concurrent;
use hot_core::{Backend, InvariantReport, Trie};
use hot_keys::DepthStats;
use hot_keys::MemoryStats;

/// Run `$body` once per back-end with `$trie` bound to an empty trie: first
/// the heap trie `$heap` evaluates to, then a `CompactHot`. The body is
/// expanded twice, so everything it declares is fresh per back-end.
macro_rules! for_each_backend {
    ($heap:expr, |$trie:ident| $body:block) => {{
        {
            #[allow(unused_mut)]
            let mut $trie = $heap;
            $body
        }
        {
            #[allow(unused_mut)]
            let mut $trie = hot_core::CompactHot::new();
            $body
        }
    }};
}

/// [`for_each_backend!`] for the concurrent front-end: `$sync` is first the
/// `ConcurrentHot` `$heap` evaluates to, then a `ConcurrentCompact`.
macro_rules! for_each_concurrent {
    ($heap:expr, |$sync:ident| $body:block) => {{
        {
            #[allow(unused_mut)]
            let mut $sync = $heap;
            $body
        }
        {
            #[allow(unused_mut)]
            let mut $sync = hot_core::sync::ConcurrentCompact::new();
            $body
        }
    }};
}

/// All four front-ends: `$front` is a `HotTrie` and a `ConcurrentHot` over
/// the key source `$source` evaluates to (twice), a `CompactHot` and a
/// `ConcurrentCompact`. `$name` is bound to the front-end's name.
macro_rules! for_each_front {
    ($source:expr, |$front:ident, $name:ident| $body:block) => {{
        for_each_backend!(hot_core::HotTrie::new($source), |$front| {
            let $name = $crate::common::Front::name(&$front);
            $body
        });
        for_each_concurrent!(hot_core::sync::ConcurrentHot::new($source), |$front| {
            let $name = $crate::common::Front::name(&$front);
            $body
        });
    }};
}

/// What [`Trie`] and [`Concurrent`] offer alike. Writes take `&mut self`
/// (the concurrent front-end needs less).
pub trait Front {
    fn name(&self) -> &'static str;
    fn put(&mut self, key: &[u8], tid: u64) -> Option<u64>;
    fn take(&mut self, key: &[u8]) -> Option<u64>;
    fn len(&self) -> usize;
    fn get(&self, key: &[u8]) -> Option<u64>;
    fn get_batch<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut [Option<u64>]);
    fn scan(&self, start: &[u8], limit: usize) -> Vec<u64>;
    fn scan_into(&self, start: &[u8], limit: usize, out: &mut Vec<u64>);
    fn scan_batch<K: AsRef<[u8]>>(
        &self,
        requests: &[(K, usize)],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
    );
    fn structure_digest(&self) -> u64;
    fn check_invariants(&self) -> InvariantReport;
    /// `memory_stats()` once the deferred frees of a concurrent front-end
    /// have run (its own name: on a concrete type the inherent method of
    /// the same name would win).
    fn settled_memory_stats(&self) -> MemoryStats;
    fn depth_stats(&self) -> DepthStats;
    fn layout_census(&self) -> [usize; 9];
    fn height(&self) -> usize;
}

macro_rules! impl_front {
    ($ty:ident, $heap:literal, $arena:literal) => {
        impl<B: Backend> Front for $ty<B> {
            fn name(&self) -> &'static str {
                if std::any::type_name::<B>().contains("HeapStore") {
                    $heap
                } else {
                    $arena
                }
            }
            fn put(&mut self, key: &[u8], tid: u64) -> Option<u64> {
                $ty::insert(self, key, tid)
            }
            fn take(&mut self, key: &[u8]) -> Option<u64> {
                $ty::remove(self, key)
            }
            fn len(&self) -> usize {
                $ty::len(self)
            }
            fn get(&self, key: &[u8]) -> Option<u64> {
                $ty::get(self, key)
            }
            fn get_batch<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut [Option<u64>]) {
                $ty::get_batch(self, keys, out)
            }
            fn scan(&self, start: &[u8], limit: usize) -> Vec<u64> {
                $ty::scan(self, start, limit)
            }
            fn scan_into(&self, start: &[u8], limit: usize, out: &mut Vec<u64>) {
                $ty::scan_into(self, start, limit, out)
            }
            fn scan_batch<K: AsRef<[u8]>>(
                &self,
                requests: &[(K, usize)],
                tids: &mut Vec<u64>,
                bounds: &mut Vec<usize>,
            ) {
                $ty::scan_batch(self, requests, tids, bounds)
            }
            fn structure_digest(&self) -> u64 {
                $ty::structure_digest(self)
            }
            fn check_invariants(&self) -> InvariantReport {
                $ty::check_invariants(self)
            }
            fn settled_memory_stats(&self) -> MemoryStats {
                assert!(hot_core::sync::quiesce());
                $ty::memory_stats(self)
            }
            fn depth_stats(&self) -> DepthStats {
                $ty::depth_stats(self)
            }
            fn layout_census(&self) -> [usize; 9] {
                $ty::layout_census(self)
            }
            fn height(&self) -> usize {
                $ty::height(self)
            }
        }
    };
}

impl_front!(Trie, "HotTrie", "CompactHot");
impl_front!(Concurrent, "ConcurrentHot", "ConcurrentCompact");

/// FNV-1a over a result stream.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn opt(v: Option<u64>) -> u64 {
    v.map_or(u64::MAX, |t| t.wrapping_add(1))
}

/// Every scalar scan entry point of `front` answers `want` for one probe.
///
/// `out` is deliberately reused across calls, and the thread's parked
/// cursor across probes, so state leaking from one scan into the next
/// would be caught.
pub fn assert_scan_paths<F: Front>(
    front: &F,
    start: &[u8],
    limit: usize,
    want: &[u64],
    out: &mut Vec<u64>,
    label: &str,
) {
    assert_eq!(
        front.scan(start, limit),
        want,
        "{label}: scan from {start:?}"
    );
    front.scan_into(start, limit, out);
    assert_eq!(out, want, "{label}: scan_into from {start:?}");
}

/// [`assert_scan_paths`] plus the ordered iterator only [`Trie`] has.
pub fn assert_trie_scan_paths<B: Backend>(
    trie: &Trie<B>,
    start: &[u8],
    limit: usize,
    want: &[u64],
    out: &mut Vec<u64>,
    label: &str,
) {
    assert_scan_paths(trie, start, limit, want, out, label);
    let from: Vec<u64> = trie.range_from(start).take(limit).collect();
    assert_eq!(from, want, "{label}: range_from {start:?}");
}

/// The batched scan path of `front` (`scan_batch`) returns `want[i]` for
/// request `i`.
pub fn assert_batched_scans<F: Front, K: AsRef<[u8]>>(
    front: &F,
    requests: &[(K, usize)],
    want: &[Vec<u64>],
    label: &str,
) {
    let (mut tids, mut bounds) = (Vec::new(), Vec::new());
    front.scan_batch(requests, &mut tids, &mut bounds);
    assert_eq!(bounds.len(), requests.len() + 1);
    for (i, segment) in want.iter().enumerate() {
        assert_eq!(
            &tids[bounds[i]..bounds[i + 1]],
            &segment[..],
            "{label}: scan_batch slot {i}"
        );
    }
}

/// One full differential pass of `other` against the `oracle`: structure
/// digest, layout census and height, point gets (hit + miss), batched
/// gets, the full in-order scan, sampled scalar and batched scans — all of
/// which must match exactly — and `other`'s invariant walk. (The engine's
/// depth sweep runs in `hot-core`'s own `mlp` tests.)
pub fn assert_fronts_agree<A: Front, B: Front>(
    oracle: &A,
    other: &B,
    keys: &[Vec<u8>],
    label: &str,
) {
    assert_eq!(oracle.len(), other.len(), "{label}: len");
    assert_eq!(
        oracle.structure_digest(),
        other.structure_digest(),
        "{label}: structure digest"
    );
    assert_eq!(
        (oracle.layout_census(), oracle.height()),
        (other.layout_census(), other.height()),
        "{label}: layout census and height"
    );

    // Point lookups: every stored key plus a mutated (mostly absent) probe.
    let mut probes: Vec<Vec<u8>> = Vec::with_capacity(keys.len() * 2);
    for k in keys {
        probes.push(k.clone());
        let mut miss = k.clone();
        *miss.last_mut().expect("non-empty key") ^= 0x01;
        probes.push(miss);
    }
    let expected: Vec<Option<u64>> = probes.iter().map(|p| oracle.get(p)).collect();
    let got: Vec<Option<u64>> = probes.iter().map(|p| other.get(p)).collect();
    assert_eq!(
        fnv1a(expected.iter().copied().map(opt)),
        fnv1a(got.iter().copied().map(opt)),
        "{label}: get checksum"
    );

    // Batched lookups: the one engine, whole and in odd-sized chunks.
    let mut out = vec![None; probes.len()];
    other.get_batch(&probes, &mut out);
    assert_eq!(out, expected, "{label}: get_batch");
    for (keys, slots) in probes.chunks(7).zip(out.chunks_mut(7)) {
        other.get_batch(keys, slots);
    }
    assert_eq!(out, expected, "{label}: get_batch in chunks of 7");

    // Everything, in order.
    let all = oracle.len() + 1;
    assert_eq!(
        fnv1a(oracle.scan(&[], all)),
        fnv1a(other.scan(&[], all)),
        "{label}: full scan checksum"
    );

    // Sampled scans (every 37th key as start, plus a prefix of it).
    let mut hits = Vec::new();
    let mut requests: Vec<(Vec<u8>, usize)> = Vec::new();
    let mut want: Vec<Vec<u64>> = Vec::new();
    for (i, k) in keys.iter().enumerate().step_by(37) {
        for (start, limit) in [(&k[..], 1usize), (k, 17), (k, 100), (&k[..k.len() / 2], 50)] {
            let truth = oracle.scan(start, limit);
            assert_scan_paths(
                other,
                start,
                limit,
                &truth,
                &mut hits,
                &format!("{label}, key {i}"),
            );
            requests.push((start.to_vec(), limit));
            want.push(truth);
        }
    }
    assert_batched_scans(other, &requests, &want, label);

    other.check_invariants();
}

/// [`assert_fronts_agree`] for two [`Trie`]s, plus what only they have:
/// the ordered iterators.
pub fn assert_backends_agree<A: Backend, B: Backend>(
    oracle: &Trie<A>,
    other: &Trie<B>,
    keys: &[Vec<u8>],
    label: &str,
) {
    assert_fronts_agree(oracle, other, keys, label);
    assert_eq!(
        fnv1a(oracle.iter()),
        fnv1a(other.iter()),
        "{label}: iter checksum"
    );
    for k in keys.iter().step_by(37) {
        let from: Vec<u64> = other.range_from(k).take(17).collect();
        assert_eq!(from, oracle.scan(k, 17), "{label}: range_from {k:?}");
    }
}
