//! Helpers shared by the differential suites: everything here is generic
//! over the trie's back-end ([`Backend`]), so a test states its property
//! once and runs it on the heap store and on the arena store.
#![allow(dead_code, unused_macros, reason = "each test binary uses its own subset")]

use hot_core::{Backend, BatchRequest, MlpScheduler, ScanCursor, Trie};

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

/// In-flight depths the scheduler is driven at: serial, odd, the default,
/// the maximum.
pub const DEPTHS: [usize; 4] = [1, 3, 16, 64];

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

/// Every scalar scan entry point of `trie` answers `want` for one probe.
///
/// `cursor` and `out` are deliberately reused across calls so cursor state
/// leaking from one scan into the next would be caught.
pub fn assert_scan_paths<B: Backend>(
    trie: &Trie<B>,
    start: &[u8],
    limit: usize,
    want: &[u64],
    cursor: &mut ScanCursor,
    out: &mut Vec<u64>,
    label: &str,
) {
    assert_eq!(trie.scan(start, limit), want, "{label}: scan from {start:?}");
    trie.scan_into(start, limit, out);
    assert_eq!(out, want, "{label}: scan_into from {start:?}");
    trie.scan_with(start, limit, out, cursor);
    assert_eq!(out, want, "{label}: scan_with from {start:?}");
    let from: Vec<u64> = trie.range_from(start).take(limit).collect();
    assert_eq!(from, want, "{label}: range_from {start:?}");
}

/// The batched scan paths of `trie` (`scan_batch_with`, and the scans of a
/// `mixed_batch_with` stream that interleaves a get of every start key)
/// return `want[i]` for request `i` at the given in-flight depth.
pub fn assert_batched_scans<B: Backend, K: AsRef<[u8]>>(
    trie: &Trie<B>,
    requests: &[(K, usize)],
    want: &[Vec<u64>],
    depth: usize,
    label: &str,
) {
    let mut sched = MlpScheduler::with_depth(depth);
    let (mut tids, mut bounds) = (Vec::new(), Vec::new());
    trie.scan_batch_with(requests, &mut tids, &mut bounds, &mut sched);
    assert_eq!(bounds.len(), requests.len() + 1);
    for (i, segment) in want.iter().enumerate() {
        assert_eq!(&tids[bounds[i]..bounds[i + 1]], &segment[..], "{label}: scan_batch slot {i}");
    }

    let mixed: Vec<BatchRequest<'_>> = requests
        .iter()
        .flat_map(|(k, n)| [BatchRequest::Get(k.as_ref()), BatchRequest::Scan(k.as_ref(), *n)])
        .collect();
    let mut out = vec![None; mixed.len()];
    trie.mixed_batch_with(&mixed, &mut out, &mut tids, &mut bounds, &mut sched);
    assert_eq!(bounds.len(), requests.len() + 1);
    for (i, (segment, (key, _))) in want.iter().zip(requests).enumerate() {
        assert_eq!(&tids[bounds[i]..bounds[i + 1]], &segment[..], "{label}: mixed_batch scan {i}");
        assert_eq!(out[2 * i], trie.get(key.as_ref()), "{label}: mixed_batch get {i}");
    }
}

/// One full differential pass of `other` against the `oracle`: structure
/// digest, point gets (hit + miss), batched gets through the scheduler at
/// every depth of [`DEPTHS`], in-order iteration, sampled scalar and
/// batched scans — all of which must match exactly — and `other`'s
/// invariant walk.
pub fn assert_backends_agree<A: Backend, B: Backend>(
    oracle: &Trie<A>,
    other: &Trie<B>,
    keys: &[Vec<u8>],
    label: &str,
) {
    assert_eq!(oracle.len(), other.len(), "{label}: len");
    assert_eq!(oracle.structure_digest(), other.structure_digest(), "{label}: structure digest");

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

    // Batched lookups: the one engine, at every depth.
    let mut out = vec![None; probes.len()];
    for depth in DEPTHS {
        other.get_batch_with(&probes, &mut out, &mut MlpScheduler::with_depth(depth));
        assert_eq!(out, expected, "{label}: get_batch at depth {depth}");
    }
    other.get_batch(&probes, &mut out);
    assert_eq!(out, expected, "{label}: get_batch on the parked scheduler");

    // Full in-order iteration.
    assert_eq!(fnv1a(oracle.iter()), fnv1a(other.iter()), "{label}: iter checksum");

    // Sampled scans (every 37th key as start, plus a prefix of it).
    let mut cursor = ScanCursor::new();
    let mut hits = Vec::new();
    let mut requests: Vec<(Vec<u8>, usize)> = Vec::new();
    let mut want: Vec<Vec<u64>> = Vec::new();
    for (i, k) in keys.iter().enumerate().step_by(37) {
        for (start, limit) in [(&k[..], 1usize), (k, 17), (k, 100), (&k[..k.len() / 2], 50)] {
            let truth = oracle.scan(start, limit);
            assert_scan_paths(other, start, limit, &truth, &mut cursor, &mut hits, &format!("{label}, key {i}"));
            requests.push((start.to_vec(), limit));
            want.push(truth);
        }
    }
    for depth in DEPTHS {
        assert_batched_scans(other, &requests, &want, depth, label);
    }

    other.check_invariants();
}
