//! Differential tests for the batched descent engine (DESIGN.md §9):
//! every batch served through `get_batch` / `scan_batch` must be
//! **byte-identical** — same hits, same misses, same TIDs in the same
//! order, same scan bounds — to the scalar operations, across four key
//! distributions (URL, email, YAGO-triple, integer), batch sizes around
//! the engine's in-flight depth (a batch below it never refills a lane,
//! one above it completes shallow keys many rounds before deep ones,
//! shuffling the *completion* order without being allowed to shuffle the
//! *result* order), every batch shape (empty, one key, below / at / above
//! the depth, ragged tail, duplicate keys), and concurrent churn on the
//! ROWEX index — on the heap trie as the scalar
//! truth, and through it on both ROWEX aliases (`for_each_sync!`; the
//! single-threaded compact trie meets the same engine in
//! `arena_differential`). The whole file is also exercised
//! in the `HOT_FORCE_SCALAR` CI lane: results must not depend on the
//! kernel. The sweep over other in-flight depths (1..=64) runs in
//! `hot-core`'s own `mlp` unit tests, where the depth can be set.

#[macro_use]
mod common;

use common::Front;
use hot_core::sync::{ConcurrentCompact, ConcurrentHot};
use hot_core::HotTrie;
use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The engine's in-flight depth (DESIGN.md §9.3).
const DEPTH: usize = 16;

/// Batch sizes around [`DEPTH`]: a batch of one serializes the ring
/// (completion order == request order), one below the depth never
/// refills a lane, one above it refills lanes while deep keys are still
/// descending.
const BATCHES: [usize; 7] = [1, 2, 7, DEPTH - 1, DEPTH, DEPTH + 1, 4 * DEPTH];

/// `front.get_batch` over `probes` issued as consecutive batches of
/// `batch` keys.
fn get_in_batches<F: Front>(front: &F, probes: &[Vec<u8>], batch: usize) -> Vec<Option<u64>> {
    let mut out = vec![None; probes.len()];
    for (keys, slots) in probes.chunks(batch).zip(out.chunks_mut(batch)) {
        front.get_batch(keys, slots);
    }
    out
}

/// `front.scan_batch` over `requests` issued as consecutive batches of
/// `batch` requests, re-assembled into one flat TID vector and one bounds
/// vector as a single batch would write them.
fn scan_in_batches<F: Front>(
    front: &F,
    requests: &[(Vec<u8>, usize)],
    batch: usize,
) -> (Vec<u64>, Vec<usize>) {
    let (mut all, mut all_bounds) = (Vec::new(), vec![0usize]);
    let (mut tids, mut bounds) = (Vec::new(), Vec::new());
    for reqs in requests.chunks(batch) {
        front.scan_batch(reqs, &mut tids, &mut bounds);
        let base = all.len();
        all.extend_from_slice(&tids);
        all_bounds.extend(bounds[1..].iter().map(|b| base + b));
    }
    (all, all_bounds)
}

/// FNV-1a over a result stream — the "checksums identical" acceptance
/// criterion reduced to one word per batch.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn checksum_out(out: &[Option<u64>]) -> u64 {
    fnv1a(
        out.iter()
            .map(|s| s.map_or(u64::MAX, |t| t.wrapping_add(1))),
    )
}

fn checksum_scan(tids: &[u64], bounds: &[usize]) -> u64 {
    fnv1a(
        tids.iter()
            .copied()
            .chain(bounds.iter().map(|&b| b as u64 ^ 0x5ca_5ca5)),
    )
}

/// The four key distributions of the paper's evaluation, miniaturized:
/// URLs share long common prefixes, emails discriminate mid-key, YAGO
/// triples are short and dense, integers are fixed-width binary. All sets
/// are prefix-free (every key ends in a unique terminator region).
fn datasets() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0007_D15C);
    let hosts = ["cs.uni-example.org", "db.example.com", "example.net"];
    let url: Vec<Vec<u8>> = (0..2_500u32)
        .map(|i| {
            let mut k = format!(
                "https://{}/path/{:02}/item-{:06}?v={}",
                hosts[(i % 3) as usize],
                i % 17,
                i,
                rng.gen_range(0..100u32)
            )
            .into_bytes();
            k.push(0);
            k
        })
        .collect();
    let email: Vec<Vec<u8>> = (0..2_500u32)
        .map(|i| {
            let mut k = format!("user{:05}@dept{}.example.org", i, i % 23).into_bytes();
            k.push(0);
            k
        })
        .collect();
    let yago: Vec<Vec<u8>> = (0..2_500u32)
        .map(|i| {
            let mut k = format!("e{:06}\trel{:02}", i * 7 % 100_000, i % 40).into_bytes();
            k.push(0);
            k.push((i / 4_000) as u8 + 1); // disambiguate collisions, no interior NUL
            k.push(0);
            k
        })
        .collect();
    let integer: Vec<Vec<u8>> = (0..2_500u64).map(|i| encode_u64(i * 3).to_vec()).collect();
    vec![
        ("url", url),
        ("email", email),
        ("yago", yago),
        ("integer", integer),
    ]
}

/// Probe set: every inserted key, plus mutated misses, shuffled so
/// adjacent lanes descend to unrelated parts of the trie.
fn probes_for(keys: &[Vec<u8>], rng: &mut impl Rng) -> Vec<Vec<u8>> {
    let mut probes: Vec<Vec<u8>> = keys.to_vec();
    probes.extend(keys.iter().step_by(5).map(|k| {
        let mut m = k.clone();
        let mid = m.len() / 2;
        m[mid] ^= 0x15;
        m
    }));
    // Fisher–Yates with the caller's seeded rng.
    for i in (1..probes.len()).rev() {
        probes.swap(i, rng.gen_range(0..=i));
    }
    probes
}

struct Fixture {
    name: &'static str,
    trie: HotTrie<Arc<ArenaKeySource>>,
    sync: ConcurrentHot<Arc<ArenaKeySource>>,
    csync: ConcurrentCompact,
    probes: Vec<Vec<u8>>,
}

/// Run `$body` on both ROWEX indexes of the fixture `$fx` — the heap alias,
/// then the arena alias — with `$label` naming dataset and front-end.
macro_rules! for_each_sync {
    ($fx:ident, |$sync:ident, $label:ident| $body:block) => {{
        {
            let $sync = &$fx.sync;
            let $label = format!("{}/{}", $fx.name, $sync.name());
            $body
        }
        {
            let $sync = &$fx.csync;
            let $label = format!("{}/{}", $fx.name, $sync.name());
            $body
        }
    }};
}

fn fixtures() -> Vec<Fixture> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEE5);
    datasets()
        .into_iter()
        .map(|(name, keys)| {
            let mut arena = ArenaKeySource::new();
            let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
            let arena = Arc::new(arena);
            let mut trie = HotTrie::new(Arc::clone(&arena));
            let sync = ConcurrentHot::new(Arc::clone(&arena));
            let csync = ConcurrentCompact::new();
            for (k, &tid) in keys.iter().zip(&tids) {
                trie.insert(k, tid);
                sync.insert(k, tid);
                csync.insert(k, tid);
            }
            let probes = probes_for(&keys, &mut rng);
            Fixture {
                name,
                trie,
                sync,
                csync,
                probes,
            }
        })
        .collect()
}

#[test]
fn lookups_byte_identical_across_scalar_and_batch_sizes() {
    for fx in fixtures() {
        let expected: Vec<Option<u64>> = fx.probes.iter().map(|k| fx.trie.get(k)).collect();
        let want = checksum_out(&expected);

        for batch in BATCHES.into_iter().chain([fx.probes.len()]) {
            let out = get_in_batches(&fx.trie, &fx.probes, batch);
            assert_eq!(checksum_out(&out), want, "{}: batch {batch}", fx.name);
            assert_eq!(out, expected, "{}: batch {batch} results", fx.name);

            // Same thread, same batches, second run: the parked
            // scheduler's lane state must not leak between batches.
            let again = get_in_batches(&fx.trie, &fx.probes, batch);
            assert_eq!(again, expected, "{}: batch {batch} reused", fx.name);

            // ROWEX variants, quiesced: identical answers.
            for_each_sync!(fx, |sync, label| {
                let out = get_in_batches(sync, &fx.probes, batch);
                assert_eq!(checksum_out(&out), want, "{label}: batch {batch}");
            });
        }
    }
}

#[test]
fn scans_byte_identical_across_scalar_and_batch_sizes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA7);
    for fx in fixtures() {
        let requests: Vec<(Vec<u8>, usize)> = fx
            .probes
            .iter()
            .step_by(3)
            .map(|k| (k.clone(), rng.gen_range(0..24usize)))
            .collect();

        // Scalar ground truth, concatenated in request order.
        let mut want_tids = Vec::new();
        let mut want_bounds = vec![0usize];
        for (k, limit) in &requests {
            want_tids.extend(fx.trie.scan(k, *limit));
            want_bounds.push(want_tids.len());
        }
        let want = checksum_scan(&want_tids, &want_bounds);

        for batch in BATCHES.into_iter().chain([requests.len()]) {
            let (tids, bounds) = scan_in_batches(&fx.trie, &requests, batch);
            assert_eq!(
                checksum_scan(&tids, &bounds),
                want,
                "{}: scan batch {batch}",
                fx.name
            );
            assert_eq!(tids, want_tids, "{}: scan tids batch {batch}", fx.name);
            assert_eq!(
                bounds, want_bounds,
                "{}: scan bounds batch {batch}",
                fx.name
            );

            for_each_sync!(fx, |sync, label| {
                let (tids, bounds) = scan_in_batches(sync, &requests, batch);
                assert_eq!(
                    checksum_scan(&tids, &bounds),
                    want,
                    "{label}: scan batch {batch}"
                );
            });
        }
    }
}

#[test]
fn convenience_entry_points_agree_with_scalar() {
    // `get_batch` / `scan_batch` run the same engine on the thread's
    // parked scheduler.
    for fx in fixtures().into_iter().take(1) {
        let expected: Vec<Option<u64>> = fx.probes.iter().map(|k| fx.trie.get(k)).collect();
        let mut out = vec![None; fx.probes.len()];
        fx.trie.get_batch(&fx.probes, &mut out);
        assert_eq!(out, expected);
        for_each_sync!(fx, |sync, label| {
            let mut out = vec![None; fx.probes.len()];
            sync.get_batch(&fx.probes, &mut out);
            assert_eq!(out, expected, "{label}");
        });

        let requests: Vec<(&[u8], usize)> = fx
            .probes
            .iter()
            .step_by(9)
            .map(|k| (k.as_slice(), 7))
            .collect();
        let want: Vec<u64> = requests
            .iter()
            .flat_map(|(k, n)| fx.trie.scan(k, *n))
            .collect();
        let (mut tids, mut bounds) = (Vec::new(), Vec::new());
        fx.trie.scan_batch(&requests, &mut tids, &mut bounds);
        assert_eq!(tids, want);
        for_each_sync!(fx, |sync, label| {
            sync.scan_batch(&requests, &mut tids, &mut bounds);
            assert_eq!(tids, want, "{label}");
        });
    }
}

#[test]
fn batch_shapes_empty_one_key_at_depth_and_ragged() {
    let mut trie = HotTrie::new(EmbeddedKeySource);
    for k in 0..10_000u64 {
        trie.insert(&encode_u64(k * 2), k * 2);
    }
    // Hits (even) and misses (odd) interleaved.
    let probes: Vec<[u8; 8]> = (0..=DEPTH as u64 * 3 + 5).map(encode_u64).collect();
    let expected: Vec<Option<u64>> = probes.iter().map(|k| trie.get(k)).collect();

    // Below the depth the ring never refills; above it the trailing
    // partial window drains with idle lanes.
    for len in [0, 1, DEPTH - 3, DEPTH, DEPTH + 3, probes.len()] {
        let mut out = vec![None; len];
        trie.get_batch(&probes[..len], &mut out);
        assert_eq!(out, expected[..len], "batch of {len}");
    }
}

#[test]
#[should_panic(expected = "one output slot per key")]
fn mismatched_output_length_rejected() {
    let mut trie = HotTrie::new(EmbeddedKeySource);
    trie.insert(&encode_u64(1), 1);
    let probes = [encode_u64(1), encode_u64(2)];
    let mut out = [None];
    trie.get_batch(&probes, &mut out);
}

proptest! {
    #[test]
    fn batched_equals_scalar_for_any_batch_size(
        keys in proptest::collection::vec(0u64..50_000, 0..300),
        probes in proptest::collection::vec(0u64..50_000, 0..133),
        batch in 1usize..65,
    ) {
        let stored: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        let expected: Vec<Option<u64>> = probes.iter().map(|p| stored.get(p).copied()).collect();
        let probes: Vec<[u8; 8]> = probes.iter().map(|&p| encode_u64(p)).collect();
        for_each_front!(EmbeddedKeySource, |front, name| {
            for &k in &keys {
                front.put(&encode_u64(k), k);
            }
            let scalar: Vec<Option<u64>> = probes.iter().map(|k| front.get(k)).collect();
            prop_assert_eq!(&expected, &scalar, "{}: scalar", name);

            let mut out = vec![None; probes.len()];
            for (keys, slots) in probes.chunks(batch).zip(out.chunks_mut(batch)) {
                front.get_batch(keys, slots);
            }
            prop_assert_eq!(&expected, &out, "{}: batched", name);
        });
    }

    #[test]
    fn duplicate_probes_in_one_batch(
        keys in proptest::collection::vec(0u64..1_000, 1..200),
        picks in proptest::collection::vec(0usize..1_000, 1..80),
    ) {
        let mut trie = HotTrie::new(EmbeddedKeySource);
        for &k in &keys {
            trie.insert(&encode_u64(k), k);
        }
        // Probe keys drawn *from the inserted set* with replacement, so the
        // same key routinely occupies several lanes of the ring at once.
        let probes: Vec<[u8; 8]> = picks
            .iter()
            .map(|&i| encode_u64(keys[i % keys.len()]))
            .collect();
        let mut out = vec![None; probes.len()];
        trie.get_batch(&probes, &mut out);
        for (probe, got) in probes.iter().zip(&out) {
            prop_assert_eq!(*got, trie.get(probe));
            prop_assert!(got.is_some(), "probes were all inserted");
        }
    }
}

#[test]
fn concurrent_churn_preserves_stable_keys_and_quiesced_equality() {
    // Writers churn odd keys while a reader batches lookups and scans over
    // even (stable) keys: stable lookups must always hit with their exact
    // TID no matter how the scheduler's lanes interleave with structural
    // modification, torn slots included (bounded re-descents recover).
    const STABLE: u64 = 4_000;
    const CHURN_ROUNDS: usize = 60;

    for_each_concurrent!(ConcurrentHot::new(EmbeddedKeySource), |sync| {
        let sync = Arc::new(sync);
        for k in 0..STABLE {
            sync.insert(&encode_u64(k * 2), k * 2);
        }

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let sync = Arc::clone(&sync);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(77 + t);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = rng.gen_range(0..STABLE) * 2 + 1;
                        if rng.gen_bool(0.5) {
                            sync.insert(&encode_u64(k), k);
                        } else {
                            sync.remove(&encode_u64(k));
                        }
                    }
                });
            }

            let mut rng = rand::rngs::StdRng::seed_from_u64(0xABBA);
            for round in 0..CHURN_ROUNDS {
                let batch = BATCHES[round % BATCHES.len()];
                let probes: Vec<[u8; 8]> = (0..512)
                    .map(|_| encode_u64(rng.gen_range(0..STABLE) * 2))
                    .collect();
                let mut out = vec![None; probes.len()];
                for (keys, slots) in probes.chunks(batch).zip(out.chunks_mut(batch)) {
                    sync.get_batch(keys, slots);
                }
                for (p, got) in probes.iter().zip(&out) {
                    let want = u64::from_be_bytes(*p);
                    assert_eq!(*got, Some(want), "stable key lost under churn");
                }

                // Scans seeded at stable keys: churned odd keys may or may not
                // appear, but every span is ordered, bounded by its limit, and
                // never reaches before its seek key.
                let reqs: Vec<([u8; 8], usize)> = (0..64)
                    .map(|_| (encode_u64(rng.gen_range(0..STABLE - 8) * 2), 5))
                    .collect();
                let (mut tids, mut bounds) = (Vec::new(), Vec::new());
                sync.scan_batch(&reqs, &mut tids, &mut bounds);
                assert_eq!(bounds.len(), reqs.len() + 1);
                for (i, (start, _)) in reqs.iter().enumerate() {
                    let span = &tids[bounds[i]..bounds[i + 1]];
                    assert!(span.len() <= 5, "scan respects its limit");
                    assert!(span.windows(2).all(|w| w[0] < w[1]), "scan is ordered");
                    let lo = u64::from_be_bytes(*start);
                    assert!(span.iter().all(|&t| t >= lo), "scan starts at the seek key");
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });

        // Quiesced: batched and scalar answers are byte-identical again.
        let probes: Vec<[u8; 8]> = (0..STABLE * 2 + 64).map(encode_u64).collect();
        let expected: Vec<Option<u64>> = probes.iter().map(|k| sync.get(k)).collect();
        let mut out = vec![None; probes.len()];
        sync.get_batch(&probes, &mut out);
        assert_eq!(checksum_out(&out), checksum_out(&expected));
        assert_eq!(out, expected);
        sync.check_invariants();
    });
}
