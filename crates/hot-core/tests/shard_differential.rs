//! Differential tests for the sharded execution layer (DESIGN.md §17):
//! every batch routed through [`ShardedHot`] must be **byte-identical**
//! — same hits, same misses, same TIDs in the same order, same scan
//! bounds — to a single [`ConcurrentHot`] holding the same keys, across
//! four key distributions (URL, email, YAGO-triple, integer), shard
//! counts {1, 2, 4, 8}, both load paths (sorted bulk load and routed
//! inserts), scans whose ranges cross shard boundaries, routed removals,
//! and concurrent churn. The whole file is also
//! exercised in the `HOT_FORCE_SCALAR` CI lane: routing answers must not
//! depend on the kernel. (`ShardedHot` is hard-wired to `ConcurrentHot`;
//! there is no arena lane.)

use hot_core::sync::ConcurrentHot;
use hot_core::{splitters_from_sample, RouterScratch, ShardedHot};
use hot_keys::{encode_u64, ArenaKeySource};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shard counts spanning the interesting range: 1 is the degenerate
/// single-trie configuration (classification must be a no-op), 8 gives
/// thin shards where boundary effects dominate.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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
    fnv1a(out.iter().map(|s| s.map_or(u64::MAX, |t| t.wrapping_add(1))))
}

/// The four key distributions of the paper's evaluation, miniaturized:
/// URLs share long common prefixes (the classifier's worst case — long
/// splitter ties), emails discriminate mid-key, YAGO triples are short
/// and dense, integers are fixed-width binary.
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
            k.push((i / 4_000) as u8 + 1);
            k.push(0);
            k
        })
        .collect();
    let integer: Vec<Vec<u8>> = (0..2_500u64).map(|i| encode_u64(i * 3).to_vec()).collect();
    vec![("url", url), ("email", email), ("yago", yago), ("integer", integer)]
}

/// Probe set: every inserted key, plus mutated misses, shuffled so the
/// router's per-shard queues fill in interleaved (not run-length) order.
fn probes_for(keys: &[Vec<u8>], rng: &mut impl Rng) -> Vec<Vec<u8>> {
    let mut probes: Vec<Vec<u8>> = keys.to_vec();
    probes.extend(keys.iter().step_by(5).map(|k| {
        let mut m = k.clone();
        let mid = m.len() / 2;
        m[mid] ^= 0x15;
        m
    }));
    for i in (1..probes.len()).rev() {
        probes.swap(i, rng.gen_range(0..=i));
    }
    probes
}

struct Fixture {
    name: &'static str,
    keys: Vec<Vec<u8>>,
    single: ConcurrentHot<Arc<ArenaKeySource>>,
    arena: Arc<ArenaKeySource>,
    tids: Vec<u64>,
    probes: Vec<Vec<u8>>,
}

impl Fixture {
    /// Sorted `(key, tid)` view for bulk loading.
    fn entries(&self) -> Vec<(&[u8], u64)> {
        let mut entries: Vec<(&[u8], u64)> = self
            .keys
            .iter()
            .map(|k| k.as_slice())
            .zip(self.tids.iter().copied())
            .collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }
}

fn fixtures() -> Vec<Fixture> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEE5);
    datasets()
        .into_iter()
        .map(|(name, keys)| {
            let mut arena = ArenaKeySource::new();
            let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
            let arena = Arc::new(arena);
            let single = ConcurrentHot::new(Arc::clone(&arena));
            for (k, &tid) in keys.iter().zip(&tids) {
                single.insert(k, tid);
            }
            let probes = probes_for(&keys, &mut rng);
            Fixture { name, keys, single, arena, tids, probes }
        })
        .collect()
}

#[test]
fn routed_lookups_byte_identical_across_shard_counts_and_load_paths() {
    for fx in fixtures() {
        let expected: Vec<Option<u64>> = fx.probes.iter().map(|k| fx.single.get(k)).collect();
        let want = checksum_out(&expected);
        let entries = fx.entries();

        for shards in SHARD_COUNTS {
            // Bulk-loaded: splitters derived from the full population.
            let bulk = ShardedHot::new(Arc::clone(&fx.arena), shards);
            assert_eq!(bulk.bulk_load(&entries).unwrap(), entries.len());
            assert_eq!(bulk.len(), fx.single.len(), "{}: bulk load count", fx.name);

            // Insert-loaded: same splitters installed up front, every key
            // routed through the scalar insert path.
            let sample: Vec<&[u8]> = entries.iter().map(|&(k, _)| k).collect();
            let routed = ShardedHot::with_splitters(
                Arc::clone(&fx.arena),
                splitters_from_sample(&sample, shards),
            );
            for (k, &tid) in fx.keys.iter().zip(&fx.tids) {
                assert_eq!(routed.insert(k, tid), None, "{}: fresh insert", fx.name);
            }

            let probe_refs: Vec<&[u8]> = fx.probes.iter().map(|k| k.as_slice()).collect();
            let mut scratch = RouterScratch::new();
            for sharded in [&bulk, &routed] {
                // Scalar gets agree key by key.
                for (k, slot) in fx.probes.iter().zip(&expected).step_by(97) {
                    assert_eq!(sharded.get(k), *slot, "{}: scalar get s={shards}", fx.name);
                }
                // Batched gets are byte-identical, twice (scratch reuse
                // must not leak state between batches).
                for _ in 0..2 {
                    let mut out = vec![None; fx.probes.len()];
                    sharded.get_batch_with(&probe_refs, &mut out, &mut scratch);
                    assert_eq!(checksum_out(&out), want, "{}: routed s={shards}", fx.name);
                    assert_eq!(out, expected, "{}: routed results s={shards}", fx.name);
                }
            }
            // Both load paths place the same keys in the same shards.
            for s in 0..shards {
                assert_eq!(
                    bulk.shard(s).len(),
                    routed.shard(s).len(),
                    "{}: load paths agree on shard {s}/{shards} population",
                    fx.name
                );
            }
        }
    }
}

#[test]
fn scans_cross_shard_boundaries_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA7);
    for fx in fixtures() {
        let entries = fx.entries();
        for shards in SHARD_COUNTS {
            let sharded = ShardedHot::new(Arc::clone(&fx.arena), shards);
            sharded.bulk_load(&entries).unwrap();

            // Seed scans at shuffled probes AND directly below each
            // splitter, with limits long enough that a span starting near
            // a boundary must continue into the next shard(s). The last
            // shard's keys also get limits overshooting the key space.
            let mut requests: Vec<(Vec<u8>, usize)> = fx
                .probes
                .iter()
                .step_by(3)
                .map(|k| (k.clone(), rng.gen_range(0..48usize)))
                .collect();
            for sp in sharded.splitters() {
                let mut just_below = sp.clone();
                just_below.pop();
                requests.push((just_below, 64));
                requests.push((sp.clone(), entries.len() / shards + 7));
            }

            // Scalar ground truth from the single trie.
            let mut want_tids = Vec::new();
            let mut want_bounds = vec![0usize];
            let mut buf = Vec::new();
            for (k, limit) in &requests {
                fx.single.scan_into(k, *limit, &mut buf);
                want_tids.extend_from_slice(&buf);
                want_bounds.push(want_tids.len());
            }

            // Scalar sharded scans continue across boundaries.
            for ((k, limit), span) in requests.iter().zip(want_bounds.windows(2)) {
                fx.single.scan_into(k, *limit, &mut buf);
                let mut got = Vec::new();
                sharded.scan_into(k, *limit, &mut got);
                assert_eq!(got, buf, "{}: scalar scan s={shards}", fx.name);
                assert_eq!(got.len(), span[1] - span[0]);
            }

            // Batched sharded scans are byte-identical in request order.
            let reqs: Vec<(&[u8], usize)> =
                requests.iter().map(|(k, l)| (k.as_slice(), *l)).collect();
            let mut scratch = RouterScratch::new();
            let (mut tids, mut bounds) = (Vec::new(), Vec::new());
            sharded.scan_batch(&reqs, &mut tids, &mut bounds, &mut scratch);
            assert_eq!(tids, want_tids, "{}: scan tids s={shards}", fx.name);
            assert_eq!(bounds, want_bounds, "{}: scan bounds s={shards}", fx.name);
        }
    }
}

/// A `scan_batch` long enough that every shard queue drains in more than
/// one window of the router's 1,024 requests, with consecutive requests on
/// different shards, zero limits, and spans that start at a shard's last
/// keys and continue into the following shards (or off the end of the key
/// space).
#[test]
fn long_alternating_scan_batches_byte_identical() {
    const WINDOW: usize = 1024;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA17E);
    for fx in fixtures() {
        let entries = fx.entries();
        for shards in [2usize, 8] {
            let sharded = ShardedHot::new(Arc::clone(&fx.arena), shards);
            sharded.bulk_load(&entries).unwrap();
            // Shard `s` holds `entries[starts[s]..starts[s + 1]]`.
            let mut starts = vec![0usize];
            for s in 0..shards {
                starts.push(starts[s] + sharded.shard(s).len());
            }
            assert!(starts.windows(2).all(|w| w[0] < w[1]), "{}: every shard populated", fx.name);

            let requests: Vec<(&[u8], usize)> = (0..shards * WINDOW + 200)
                .map(|i| {
                    let s = i % shards;
                    let (lo, hi) = (starts[s], starts[s + 1]);
                    match i % 5 {
                        0 => (entries[rng.gen_range(lo..hi)].0, 0),
                        1 => (entries[hi - 1 - rng.gen_range(0..3usize.min(hi - lo))].0, rng.gen_range(4..2 * (hi - lo))),
                        _ => (entries[rng.gen_range(lo..hi)].0, rng.gen_range(1..12)),
                    }
                })
                .collect();

            let mut want_tids = Vec::new();
            let mut want_bounds = vec![0usize];
            let mut buf = Vec::new();
            for &(k, limit) in &requests {
                fx.single.scan_into(k, limit, &mut buf);
                want_tids.extend_from_slice(&buf);
                want_bounds.push(want_tids.len());
            }

            let mut scratch = RouterScratch::new();
            let (mut tids, mut bounds) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                sharded.scan_batch(&requests, &mut tids, &mut bounds, &mut scratch);
                assert_eq!(bounds, want_bounds, "{}: scan bounds s={shards}", fx.name);
                assert_eq!(tids, want_tids, "{}: scan tids s={shards}", fx.name);
            }
        }
    }
}

#[test]
fn routed_removals_match_the_single_trie() {
    for fx in fixtures() {
        let entries = fx.entries();
        for shards in SHARD_COUNTS {
            let sharded = ShardedHot::new(Arc::clone(&fx.arena), shards);
            sharded.bulk_load(&entries).unwrap();

            // Removals (hits, misses, and a duplicate later in the stream)
            // answer exactly like sequential removes on a single trie, and
            // the post-state agrees key by key.
            let oracle = ConcurrentHot::new(Arc::clone(&fx.arena));
            for (k, &tid) in fx.keys.iter().zip(&fx.tids) {
                oracle.insert(k, tid);
            }
            let mut victims: Vec<Vec<u8>> = fx.probes.iter().step_by(4).cloned().collect();
            let dup = victims[0].clone();
            victims.push(dup);
            let expected: Vec<Option<u64>> = victims.iter().map(|k| oracle.remove(k)).collect();
            let removed: Vec<Option<u64>> = victims.iter().map(|k| sharded.remove(k)).collect();
            assert_eq!(removed, expected, "{}: remove s={shards}", fx.name);
            for k in &victims {
                assert_eq!(sharded.get(k), oracle.get(k), "{}: post-remove", fx.name);
            }
            assert_eq!(sharded.len(), oracle.len(), "{}: post-remove sizes", fx.name);
        }
    }
}

/// The load pipeline end to end — TIDs sample-sorted over the arena,
/// shards built concurrently on scoped loader threads, each splitting its
/// share of the cores over the root fragment — must build exactly the
/// tries a single-threaded load of comparison-sorted input builds. The
/// key sets are large enough to leave the small-input inline paths of the
/// sort and the builder.
#[test]
fn parallel_load_pipeline_builds_the_serial_structure() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x10AD);
    let url: Vec<Vec<u8>> = (0..40_000u32)
        .map(|i| {
            let host = rng.gen_range(0..50u32);
            format!("https://host{host:02}.example.org/p/{:03}/{i:06}\0", i % 211).into_bytes()
        })
        .collect();
    let integer: Vec<Vec<u8>> =
        (0..40_000u64).map(|_| encode_u64(rng.gen::<u64>() >> 1).to_vec()).collect();

    for (name, mut keys) in [("url", url), ("integer", integer)] {
        keys.shuffle(&mut rng);
        let mut arena = ArenaKeySource::new();
        let mut tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let arena = Arc::new(arena);
        let mut reference: Vec<(&[u8], u64)> =
            keys.iter().map(|k| k.as_slice()).zip(tids.iter().copied()).collect();
        reference.sort_unstable_by(|a, b| a.0.cmp(b.0));

        hot_keys::sort_by_key(&mut tids, |tid| arena.key(tid));
        let entries: Vec<(&[u8], u64)> = tids.iter().map(|&tid| (arena.key(tid), tid)).collect();
        assert!(entries == reference, "{name}: sample sort order");

        for shards in [1usize, 2, 4] {
            let sharded = ShardedHot::new(Arc::clone(&arena), shards);
            assert_eq!(sharded.bulk_load(&entries), Ok(entries.len()));
            let mut lo = 0;
            for s in 0..shards {
                let shard = sharded.shard(s);
                let serial = ConcurrentHot::new(Arc::clone(&arena));
                serial.bulk_load_parallel(&reference[lo..lo + shard.len()], 1).unwrap();
                assert_eq!(
                    shard.structure_digest(),
                    serial.structure_digest(),
                    "{name}: shard {s}/{shards}"
                );
                shard.check_invariants();
                lo += shard.len();
            }
            assert_eq!(lo, reference.len(), "{name}: shards cover the input");
            assert!(sharded.imbalance() <= 1.01, "{name}: quantile splitters balance");
        }
    }
}

#[test]
fn concurrent_churn_preserves_stable_keys_and_quiesced_equality() {
    // Writers churn odd keys through routed scalar inserts/removes while
    // a reader batches lookups over even (stable) keys: stable lookups
    // must always hit with their exact TID regardless of which shard a
    // churned key lands in. Splitters are installed up front so routing
    // never changes mid-churn.
    const STABLE: u64 = 4_000;
    const CHURN_ROUNDS: usize = 40;

    let stable_keys: Vec<[u8; 8]> = (0..STABLE).map(|k| encode_u64(k * 2)).collect();
    let sample: Vec<&[u8]> = stable_keys.iter().map(|k| k.as_slice()).collect();
    let sharded = Arc::new(ShardedHot::with_splitters(
        hot_keys::EmbeddedKeySource,
        splitters_from_sample(&sample, 4),
    ));
    for k in 0..STABLE {
        sharded.insert(&encode_u64(k * 2), k * 2);
    }

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let sharded = Arc::clone(&sharded);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(77 + t);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = rng.gen_range(0..STABLE) * 2 + 1;
                    if rng.gen_bool(0.5) {
                        sharded.insert(&encode_u64(k), k);
                    } else {
                        sharded.remove(&encode_u64(k));
                    }
                }
            });
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(0xABBA);
        let mut scratch = RouterScratch::new();
        for _ in 0..CHURN_ROUNDS {
            let probes: Vec<[u8; 8]> = (0..512)
                .map(|_| encode_u64(rng.gen_range(0..STABLE) * 2))
                .collect();
            let probe_refs: Vec<&[u8]> = probes.iter().map(|p| p.as_slice()).collect();
            let mut out = vec![None; probes.len()];
            sharded.get_batch_with(&probe_refs, &mut out, &mut scratch);
            for (p, got) in probes.iter().zip(&out) {
                let want = u64::from_be_bytes(*p);
                assert_eq!(*got, Some(want), "stable key lost under churn");
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // Quiesced: routed batches and per-shard scalar gets agree over the
    // whole key space, and every present key lives in the shard the
    // partition names.
    let probes: Vec<[u8; 8]> = (0..STABLE * 2 + 64).map(encode_u64).collect();
    let probe_refs: Vec<&[u8]> = probes.iter().map(|p| p.as_slice()).collect();
    let expected: Vec<Option<u64>> = probes.iter().map(|k| sharded.get(k)).collect();
    let mut out = vec![None; probes.len()];
    let mut scratch = RouterScratch::new();
    sharded.get_batch_with(&probe_refs, &mut out, &mut scratch);
    assert_eq!(checksum_out(&out), checksum_out(&expected));
    assert_eq!(out, expected);
    for (p, slot) in probes.iter().zip(&expected) {
        if slot.is_some() {
            let s = sharded.shard_of(p);
            assert_eq!(sharded.shard(s).get(p), *slot, "key lives in its shard");
        }
    }
}
